"""Slow but independent reference implementations used to check the solver.

Everything in here deliberately avoids the package's own search code
and the map's neighbour table (moves are recomputed by `_moves`):
plain Dijkstra for single-agent costs, exhaustive joint-state search for
multi-agent sum-of-costs, brute-force enumeration of timed paths, and a
cell-by-cell scan for the emergency midway goal.
"""

import heapq
import itertools
import random

from sitepath.grid import Cell, WeightedGridMap, Layer


def _moves(grid: WeightedGridMap, cell: Cell) -> list:
    """The wait, then every in-bounds passable orthogonal step from `cell`."""
    moves = [cell]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nxt = Cell(cell.x + dx, cell.y + dy)
        if grid.in_bounds(nxt) and grid.is_passable(nxt):
            moves.append(nxt)
    return moves


def dijkstra_cost(grid: WeightedGridMap, start: Cell, goal: Cell):
    """Cheapest path cost from start to goal, charging each cell entered.

    Returns None when the goal is unreachable.
    """
    if not grid.is_passable(start) or not grid.is_passable(goal):
        return None
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist.get(cell, float("inf")):
            continue
        if cell == goal:
            return d
        for nxt in _moves(grid, cell):
            if nxt == cell:
                continue
            nd = d + grid.cell_cost(nxt)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return None


def all_goal_costs(grid: WeightedGridMap, goal: Cell) -> dict:
    """Cheapest cost-to-goal from every cell (reverse of dijkstra_cost)."""
    dist = {goal: 0.0}
    heap = [(0.0, goal)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        for nxt in _moves(grid, cell):
            if nxt == cell:
                continue
            # moving nxt -> cell charges `cell`
            nd = d + grid.cell_cost(cell)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def all_start_costs(grid: WeightedGridMap, start: Cell) -> dict:
    """Cheapest cost from start to every reachable cell (dijkstra_cost for
    all goals at once)."""
    if not grid.is_passable(start):
        return {}
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        for nxt in _moves(grid, cell):
            if nxt == cell:
                continue
            nd = d + grid.cell_cost(nxt)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return dist


def _connected_without(grid: WeightedGridMap, blocked: Cell, src: Cell, dst: Cell) -> bool:
    """Whether dst can be reached from src without ever entering `blocked`."""
    seen = {src}
    frontier = [src]
    while frontier:
        cell = frontier.pop()
        if cell == dst:
            return True
        for nxt in _moves(grid, cell):
            if nxt != blocked and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def midway_goal_reference(grid: WeightedGridMap, state, agent_id: str):
    """Brute-force midway parking cell, straight from its definition.

    Every cell of the map is checked against the whole definition. A cell
    qualifies when it is reachable from the agent's position, (a) lies on
    no other agent's planned path (an agent without a plan occupies its
    current position) and (b) leaves every other agent a route from its
    position to its goal when blocked. The cheapest qualifier by
    (priority * cost, y, x) wins; None when nothing qualifies.
    """
    me = next(a for a in state.scenario.agents if a.id == agent_id)
    pos = state.positions[agent_id]
    others = [a for a in state.scenario.agents if a.id != agent_id]
    taken = set()
    for a in others:
        path = state.planned.schedule.get(a.id)
        taken.update(path.cells if path is not None else [state.positions[a.id]])
    costs = all_start_costs(grid, pos)
    best = None
    for y in range(grid.height):
        for x in range(grid.width):
            cell = Cell(x, y)
            if cell in taken or cell not in costs:
                continue
            if not all(
                _connected_without(grid, cell, state.positions[a.id], a.goal)
                for a in others
            ):
                continue
            key = (me.priority * costs[cell], y, x)
            if best is None or key < best:
                best = key
    return None if best is None else Cell(best[2], best[1])


def joint_state_cost(grid: WeightedGridMap, agents):
    """Optimal sum-of-costs for a handful of agents via joint-state A*.

    The state is (positions, finished flags).  A finished agent has ended
    its plan on its goal: it blocks the cell forever but pays nothing more.
    An unfinished agent pays for every step including waits (a wait
    re-enters the current cell).  Finishing is optional on each goal visit,
    so plans that pass through the goal and return later are representable.
    Vertex and swap collisions are forbidden; following moves are fine.
    Uniform priorities are assumed (the caller keeps instances small).
    """
    n = len(agents)
    goal_dist = [all_goal_costs(grid, a.goal) for a in agents]
    for i, a in enumerate(agents):
        if a.start not in goal_dist[i]:
            return None

    def h(state):
        positions, finished = state
        return sum(
            0.0 if finished[i] else goal_dist[i][positions[i]] for i in range(n)
        )

    starts = tuple(a.start for a in agents)
    # an agent already standing on its goal may declare itself done at t=0
    flag_options = [((True, False) if a.start == a.goal else (False,)) for a in agents]
    best = {}
    heap = []
    for flags in itertools.product(*flag_options):
        state = (starts, flags)
        best[state] = 0.0
        heapq.heappush(heap, (h(state), 0.0, state))
    while heap:
        f, g, state = heapq.heappop(heap)
        positions, finished = state
        if g > best.get(state, float("inf")):
            continue
        if all(finished):
            return g
        choice_lists = []
        for i in range(n):
            if finished[i]:
                choice_lists.append([(positions[i], 0.0, True)])
                continue
            opts = []
            for nxt in _moves(grid, positions[i]):
                cost = grid.cell_cost(nxt)  # waits re-charge the cell too
                if nxt == agents[i].goal:
                    opts.append((nxt, cost, True))
                opts.append((nxt, cost, False))
            choice_lists.append(opts)
        for combo in itertools.product(*choice_lists):
            new_pos = tuple(c for c, _, _ in combo)
            if len(set(new_pos)) < n:
                continue
            if any(
                new_pos[i] == positions[j] and new_pos[j] == positions[i]
                for i in range(n)
                for j in range(i + 1, n)
                if new_pos[i] != positions[i]
            ):
                continue
            step = sum(c for _, c, _ in combo)
            new_state = (new_pos, tuple(fl for _, _, fl in combo))
            ng = g + step
            if ng < best.get(new_state, float("inf")) - 1e-12:
                best[new_state] = ng
                heapq.heappush(heap, (ng + h(new_state), ng, new_state))
    return None


def enumerate_timed_paths(grid, agent, constraints, horizon):
    """Every constraint-respecting timed path of length <= horizon.

    Exponential; keep the map tiny.  Yields lists of cells that start at the
    agent's start, end at its goal, and violate no constraint.
    """
    mine = [c for c in constraints if c.agent == agent.id]

    def violates(prev, cell, t):
        for c in mine:
            if c.length_only:
                continue
            if c.vertex == cell and c.time == t:
                if c.from_cell is None or c.from_cell == prev:
                    return True
        return False

    results = []

    def extend(path):
        t = len(path) - 1
        if path[-1] == agent.goal:
            # staying put at the goal must also be legal forever-after;
            # the search only needs "no later constraint pins the goal"
            # (length bounds pin it too, at or before their time)
            if all(
                not (
                    c.vertex == agent.goal
                    and c.from_cell is None
                    and (c.time > t or (c.length_only and c.time >= t))
                )
                for c in mine
            ):
                results.append(list(path))
        if t >= horizon:
            return
        for nxt in _moves(grid, path[-1]):
            if violates(path[-1], nxt, t + 1):
                continue
            path.append(nxt)
            extend(path)
            path.pop()

    if not violates(None, agent.start, 0):
        extend([agent.start])
    return results


def random_map(rng: random.Random, max_side=12, obstacle_p=0.2) -> WeightedGridMap:
    """A random multi-layer map for fuzzing the searches."""
    w = rng.randint(2, max_side)
    h = rng.randint(2, max_side)
    obstacles = frozenset(
        Cell(x, y)
        for x in range(w)
        for y in range(h)
        if rng.random() < obstacle_p
    )
    layers = []
    for name, weight, choices in (
        ("roughness", 1.0, (1, 5, 9)),
        ("slope", rng.choice((0.5, 1.0, 2.0)), (1, 5)),
    ):
        rows = tuple(
            tuple(
                0.0 if Cell(x, y) in obstacles else float(rng.choice(choices))
                for x in range(w)
            )
            for y in range(h)
        )
        layers.append(Layer(name=name, weights=rows, layer_weight=weight))
    return WeightedGridMap(
        width=w,
        height=h,
        layers=tuple(layers),
        obstacles=obstacles,
        danger_objects=(),
    )


def random_free_cell(grid, rng, exclude=()):
    free = [c for c in grid.passable_cells() if c not in exclude]
    return rng.choice(free) if free else None
