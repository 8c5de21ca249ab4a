"""Single-agent search on weighted grid maps.

Two searchers are provided. `bidirectional_astar` produces the initial
path proposal for an agent while ignoring everybody else: two A*
frontiers with balanced front-to-front heuristics meet in the middle and
the cheapest meeting node is selected. `constrained_astar` runs in the
time-expanded graph (cell, timestep) with wait moves, honours vertex and
swap constraints handed down by the high level, and scales step costs by
the agent's soft priority.

`constrained_astar` and the goal-distance tables walk the map's
compiled tables, not `Cell` objects. A cell is its flat index
`y * width + x` on a map of N cells. Its moves are index offsets
(`grid._offsets`: 0 for the wait, then +1, -1, +width, -width where
passable, in `grid.neighbors` order), and its price is read from
`grid._costs`. A goal-distance table is an `array('d')` of N entries
read by index, with inf where the goal cannot be reached. In
`constrained_astar` a state (cell, t) is the integer `t * N + i`, and a
step adds N plus one offset. Vertex and move bans become sets of such
integers, and cells are built only for the path returned.

`constrained_astar` takes its heuristic from exact cost-to-goal tables.
Where vertex bans run through to the horizon (the target split bans a
machine from a cell from the conflict time on), the cells they cover are
walls for the rest of the search once the latest of those bans has
started. From then on the heuristic reads a table of the map with those
cells removed (`BlockedGoalTable`, keyed by index and settled only as far
as queries need), and a state that cannot reach the goal around them is
pruned. This is the completion heuristic of the target reasoning in
CBSH2-RTC (Li, Harabor, Stuckey & Koenig, AIJ 2021): when a banned cell
is the only way through, the search ends once the states before the ban
run out, instead of after the whole (cell, t) space up to the horizon.

Path cost convention: entering a cell costs its `cell_cost`; the start
cell itself is free. A wait charges the current cell again, so idling on
bad terrain is penalized.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

from .grid import Cell, WeightedGridMap


class Unreachable(Exception):
    """No path exists (or none within the time horizon)."""


class DeadlineExceeded(Exception):
    """Internal signal: the wall-clock budget ran out mid-search."""


@dataclass(frozen=True)
class Agent:
    id: str
    start: Cell
    goal: Cell
    priority: float = 1.0

    def __post_init__(self):
        # NaN compares false both ways, and an infinite priority prices
        # every path at inf, so both would slip past a plain `<= 0`
        if not (math.isfinite(self.priority) and self.priority > 0):
            raise ValueError(f"agent {self.id}: priority must be finite and positive")


@dataclass
class TimedPath:
    """Cell occupied at each timestep 0..T, waits included."""

    cells: list
    cost: float

    def __len__(self) -> int:
        return len(self.cells)

    def at(self, t: int) -> Cell:
        """Position at timestep t with goal-stay semantics."""
        return self.cells[t] if t < len(self.cells) else self.cells[-1]


class Constraint(NamedTuple):
    """Forbids `agent` from being at `vertex` at `time`.

    When `from_cell` is set the constraint only bans the single move
    from_cell -> vertex arriving at `time` (the no-swap form used for
    edge conflicts); occupying the vertex via any other move stays legal.

    When `length_only` is set (vertex must be the agent's goal) the
    constraint just forbids the path from *ending* at or before `time`;
    passing through the goal earlier stays legal.  Used to push a parked
    agent's arrival past a stretch of traffic in one split.
    """

    agent: str
    vertex: Cell
    time: int
    from_cell: Cell | None = None
    length_only: bool = False


def path_cost(grid: WeightedGridMap, cells: list, priority: float = 1.0) -> float:
    """Recompute a timed path's cost from the map."""
    return priority * sum(grid.cell_cost(c) for c in cells[1:])


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a.x - b.x) + abs(a.y - b.y)


def heuristic(grid: WeightedGridMap, c: Cell, goal: Cell) -> float:
    """Admissible remaining-cost estimate: Manhattan distance scaled by
    the cheapest passable cell on the map."""
    return manhattan(c, goal) * grid.min_cell_cost()


def balanced_heuristics(
    grid: WeightedGridMap, c: Cell, start: Cell, goal: Cell
) -> tuple[float, float]:
    """Front-to-front balanced heuristics for the two frontiers.

    h_f + h_r is identically zero, which keeps the forward and backward
    searches consistent with each other so the meeting-point stopping
    rule stays exact.
    """
    pi_f = heuristic(grid, c, goal)
    pi_r = heuristic(grid, c, start)
    h_f = (pi_f - pi_r) / 2.0
    return h_f, -h_f


def bidirectional_astar(
    grid: WeightedGridMap, start: Cell, goal: Cell
) -> tuple[list, float]:
    """Minimum-cost start->goal path ignoring other agents and time.

    Returns (cells, cost). Raises Unreachable when no path exists.
    Forward labels charge the cell being entered; backward labels charge
    the cell being left, so dist_f[u] + dist_r[u] is exactly the cost of
    the best path through u.
    """
    if not grid.is_passable(start) or not grid.is_passable(goal):
        raise Unreachable(f"unreachable: {tuple(start)} -> {tuple(goal)}")
    if start == goal:
        return [start], 0.0

    dist = ({start: 0.0}, {goal: 0.0})
    parent: tuple[dict, dict] = ({start: None}, {goal: None})
    closed: tuple[set, set] = (set(), set())
    tie = itertools.count()
    h0 = balanced_heuristics(grid, start, start, goal)[0]
    hg = balanced_heuristics(grid, goal, start, goal)[1]
    open_f = [(h0, next(tie), start)]
    open_r = [(hg, next(tie), goal)]
    heaps = (open_f, open_r)

    best = math.inf
    meet: Cell | None = None

    # called on every label update with both current labels, so `best` is
    # always the cheapest meeting over everything labeled so far
    def settle(side: int, u: Cell) -> None:
        nonlocal best, meet
        other = dist[1 - side]
        if u in other:
            total = dist[side][u] + other[u]
            if total < best:
                best, meet = total, u

    while heaps[0] and heaps[1]:
        top_f = heaps[0][0][0]
        top_r = heaps[1][0][0]
        if best < math.inf and top_f + top_r >= best:
            break
        side = 0 if top_f <= top_r else 1
        f_val, _, u = heapq.heappop(heaps[side])
        if u in closed[side]:
            continue
        closed[side].add(u)
        g_u = dist[side][u]
        for v in grid.neighbors(u):
            # forward: pay to enter v; backward: pay to leave u
            step = grid.cell_cost(v) if side == 0 else grid.cell_cost(u)
            g_v = g_u + step
            if g_v < dist[side].get(v, math.inf):
                dist[side][v] = g_v
                parent[side][v] = u
                h = balanced_heuristics(grid, v, start, goal)[side]
                heapq.heappush(heaps[side], (g_v + h, next(tie), v))
                settle(side, v)

    if meet is None:
        raise Unreachable(f"unreachable: {tuple(start)} -> {tuple(goal)}")

    path = [meet]
    u = parent[0][meet]
    while u is not None:
        path.append(u)
        u = parent[0][u]
    path.reverse()
    u = parent[1][meet]
    while u is not None:
        path.append(u)
        u = parent[1][u]
    return path, best


def default_horizon(grid: WeightedGridMap) -> int:
    return 4 * (grid.width + grid.height)


def goal_distances(grid: WeightedGridMap, goal: Cell) -> array:
    """True unconstrained cost-to-goal for every cell, by flat index.

    Backward Dijkstra over the compiled map (`grid._costs`,
    `grid._offsets`), charging the cell being left, matching the forward
    convention of paying to enter a cell. Returns an `array('d')` of
    `width * height` entries; the cell (x, y) reads `y * width + x`, and
    a cell that cannot reach the goal reads inf. Usable as an exact
    (hence admissible and consistent) heuristic in the time-expanded
    search, where waiting can only add cost. The solver builds a table
    when a search first reads it, and keeps it for one attempt on one
    grid (`cbs._GoalTables`).
    """
    if not grid.in_bounds(goal):
        raise ValueError(f"cell {goal} out of bounds")
    costs, offsets = grid._costs, grid._offsets
    g = goal.y * grid.width + goal.x
    dist = array("d", [math.inf]) * len(costs)
    dist[g] = 0.0
    heap = [(0.0, g)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        nd = d + costs[u]
        for step in offsets[u]:
            v = u + step
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def start_distances(grid: WeightedGridMap, start: Cell) -> dict:
    """Cheapest cost from `start` to every reachable cell.

    Forward Dijkstra under the path cost convention: the start is free
    and each step pays the cost of the cell entered. Unreachable cells
    are absent; an impassable start reaches nothing.
    """
    if not grid.is_passable(start):
        return {}
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in grid.neighbors(u):
            nd = d + grid.cell_cost(v)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


@dataclass
class SearchLimits:
    """Shared wall-clock budget for low-level searches.

    `check` is consulted every `stride` expansions; it returns True when
    the budget is gone.
    """

    check: object = None
    stride: int = 1024
    expansions: int = field(default=0)

    def tick(self) -> None:
        self.expansions += 1
        if self.check is not None and self.expansions % self.stride == 0:
            if self.check():
                raise DeadlineExceeded()


class BlockedGoalTable:
    """Exact cost-to-goal on `grid` with the cells at the flat indices
    `blocked` removed, settled on demand.

    A backward Dijkstra from the goal over the compiled map, as in
    `goal_distances`, that stops once the queried index is settled and
    resumes from its frontier on the next miss (Reverse Resumable A*:
    Silver, AIIDE 2005; with no heuristic, so one table serves queries
    from anywhere). Labels and settled costs are kept by flat index. An
    index reads inf once the frontier is empty without reaching it.
    Values equal `goal_distances(grid.with_blocked(cells), goal)` for the
    cells at those indices, with no map rebuilt and no cell settled that
    no query needed.
    """

    def __init__(self, grid: WeightedGridMap, goal: Cell, blocked: frozenset):
        self.grid = grid
        self.blocked = blocked
        g = goal.y * grid.width + goal.x
        self._settled: dict = {}
        self._labels = {g: 0.0}
        self._frontier = [(0.0, g)]
        if g in blocked:
            # a removed goal cannot be left, so no other cell reaches it
            self._settled[g] = 0.0
            self._frontier = []

    def distance(self, index: int, limits: SearchLimits | None = None) -> float:
        """Cost-to-goal from the cell at flat index `index`, inf when the
        goal is out of reach.

        Every `limits.stride` settled cells `limits.check` is consulted
        (settling is not counted as expansions); a `DeadlineExceeded`
        leaves the table whole, to be resumed by a later query.
        """
        d = self._settled.get(index)
        if d is not None:
            return d
        costs, offsets = self.grid._costs, self.grid._offsets
        blocked, settled = self.blocked, self._settled
        labels, frontier = self._labels, self._frontier
        check = limits.check if limits is not None else None
        while frontier:
            d, u = heapq.heappop(frontier)
            if u in settled:
                continue
            settled[u] = d
            nd = d + costs[u]
            for step in offsets[u]:
                v = u + step
                if nd < labels.get(v, math.inf) and v not in blocked:
                    labels[v] = nd
                    heapq.heappush(frontier, (nd, v))
            # checked only once `u` is fully settled, so a raise here
            # leaves nothing half done
            if check is not None and len(settled) % limits.stride == 0 and check():
                raise DeadlineExceeded()
            if u == index:
                return d
        return math.inf


def constrained_astar(
    grid: WeightedGridMap,
    agent: Agent,
    constraints=(),
    horizon: int | None = None,
    limits: SearchLimits | None = None,
    h_map: array | None = None,
    blocked_tables=None,
) -> TimedPath:
    """Cheapest constraint-respecting timed path in the (cell, t) graph.

    The agent may wait in place; steps cost priority * cell_cost of the
    destination (waits re-charge the current cell). The path terminates
    at the first goal arrival with no vertex constraint at any later
    timestep, matching goal-stay occupancy.

    A state is one integer, `t * N + i` for the cell at flat index `i`
    on a map of N cells, and a step adds N plus one of the map's move
    offsets (`grid._offsets`). A vertex ban is kept as the state it
    forbids, a move ban as `state * N + i` for the index `i` it leaves;
    a ban on a cell outside the map forbids no state and is dropped.
    Both heuristic tables are read at the index a step enters, so no
    `Cell` is made before the path is returned.

    The heuristic is `h_map`, the goal's `goal_distances` table, until
    `t_static`, the latest start among the vertex bans that run through
    to the horizon. From `t_static` on, the cells those bans cover are
    walls, and the heuristic is the goal's cost on the map without them,
    read from `blocked_tables(goal, indices)` (a `BlockedGoalTable` on
    the walls' flat indices; a fresh one when no lookup is given). A
    state that cannot reach the goal around the walls is pruned. The
    heuristic only rises, and only at `t_static`, so it stays consistent
    and the path stays optimal.
    """
    if not grid.is_passable(agent.start) or not grid.is_passable(agent.goal):
        raise Unreachable(f"agent {agent.id}: start or goal blocked")
    if horizon is None:
        horizon = default_horizon(grid)
    width, height = grid.width, grid.height
    n = width * height
    costs, offsets = grid._costs, grid._offsets
    goal = agent.goal.y * width + agent.goal.x
    start = agent.start.y * width + agent.start.x

    vertex_banned: set[int] = set()
    move_banned: set[int] = set()
    banned_at_horizon = []
    last_goal_ban = -1
    for con in constraints:
        if con.agent != agent.id:
            continue
        x, y = con.vertex
        if not (0 <= x < width and 0 <= y < height):
            continue  # no state is there to ban
        i = y * width + x
        if con.length_only:
            if i == goal:
                last_goal_ban = max(last_goal_ban, con.time)
        elif con.from_cell is None:
            vertex_banned.add(con.time * n + i)
            if con.time == horizon:
                banned_at_horizon.append(i)
            if i == goal:
                last_goal_ban = max(last_goal_ban, con.time)
        else:
            fx, fy = con.from_cell
            if 0 <= fx < width and 0 <= fy < height:
                move_banned.add((con.time * n + i) * n + fy * width + fx)

    if start in vertex_banned:
        raise Unreachable(f"agent {agent.id}: start is constrained at t=0")

    p = agent.priority
    if h_map is None:
        h_map = goal_distances(grid, agent.goal)

    # a cell banned at every step up to the horizon is a wall from the
    # start of that run; all of them are walls from the latest start on
    t_static = math.inf
    if banned_at_horizon:
        t_static = 0
        for i in banned_at_horizon:
            t = horizon
            while (t - 1) * n + i in vertex_banned:
                t -= 1
            t_static = max(t_static, t)
        walls = frozenset(banned_at_horizon)
        if blocked_tables is None:
            static_h = BlockedGoalTable(grid, agent.goal, walls)
        else:
            static_h = blocked_tables(agent.goal, walls)

    # the heuristic at time t reads `static_h` once t >= t_static, else
    # `h_map`; inlined below, as it runs for every state pushed
    inf = math.inf
    tie = itertools.count()
    g_best = {start: 0.0}
    parent: dict = {start: None}
    h0 = p * (static_h.distance(start, limits) if t_static <= 0 else h_map[start])
    if h0 == inf:
        raise Unreachable(f"agent {agent.id}: goal not reachable")
    open_heap = [(h0, h0, next(tie), start)]
    closed: set = set()

    while open_heap:
        f, h, _, state = heapq.heappop(open_heap)
        if state in closed:
            continue
        closed.add(state)
        if limits is not None:
            limits.tick()
        t, i = divmod(state, n)
        if i == goal and t > last_goal_ban:
            # `_neighbors[i][0]` is the cell at index i (its wait move)
            cells = []
            s = state
            while s is not None:
                cells.append(grid._neighbors[s % n][0])
                s = parent[s]
            cells.reverse()
            return TimedPath(cells=cells, cost=g_best[state])
        if t >= horizon:
            continue
        g_u = g_best[state]
        base = state + n
        static = t + 1 >= t_static
        for d in offsets[i]:
            ns = base + d
            if ns in vertex_banned:
                continue
            if move_banned and ns * n + i in move_banned:
                continue
            g_v = g_u + p * costs[i + d]
            if g_v < g_best.get(ns, inf):
                h_v = p * (static_h.distance(i + d, limits) if static else h_map[i + d])
                if h_v == inf:
                    continue
                g_best[ns] = g_v
                parent[ns] = state
                heapq.heappush(open_heap, (g_v + h_v, h_v, next(tie), ns))

    raise Unreachable(f"agent {agent.id}: unreachable within horizon {horizon}")
