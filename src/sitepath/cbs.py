"""High-level constraint-tree search with a realtime deadline.

The solver follows the classic two-level scheme: initial proposals come
from the bidirectional searcher, conflicts between proposals are split
into constraints, and only the constrained agent is replanned. On top of
that sits the realtime contract: every participant must receive a
command (possibly "wait") within the scenario deadline, falling back to
agent removal / deferral strategies and ultimately to stop-all.

Goal-distance tables are built on first read: each attempt on a grid
gets one `_GoalTables`, which the constraint-tree search and the joint
search share and which dies with the attempt. It also keeps the lazy
blocked-map tables that constrained A* reads past a target split's ban.

A constraint-tree child costs only what changed. A node keeps each
agent's own constraints as a frozenset, so a child extends one entry.
Within an attempt, constrained A* runs once per (agent, constraint set),
however many sibling nodes re-split the same conflict. A child's
conflicts are its parent's with the replanned agent's conflicts
detected afresh, by the same pair check that a full scan runs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, field, replace

from .grid import WeightedGridMap
from .lowlevel import (
    Agent,
    BlockedGoalTable,
    Constraint,
    DeadlineExceeded,
    SearchLimits,
    TimedPath,
    Unreachable,
    bidirectional_astar,
    constrained_astar,
    default_horizon,
    goal_distances,
    path_cost,
)

STRATEGIES = ("remove", "same-dir", "subregion", "low-cost")


class UnsolvableError(Exception):
    """An agent cannot reach its goal even with the map to itself."""


@dataclass(frozen=True)
class Conflict:
    kind: str  # 'vertex' | 'edge'
    agents: tuple  # (id, id), lower id first
    location: object  # Cell for vertex, (Cell, Cell) for edge (agent-a order)
    time: int  # vertex: timestep; edge: timestep the swap starts
    phase: str = "initial"  # 'initial' | 'update'


@dataclass
class CTNode:
    constraints: dict  # agent id -> frozenset of that agent's own constraints
    solution: dict  # agent id -> TimedPath
    cost: float


@dataclass
class Scenario:
    grid: WeightedGridMap
    agents: list
    deadline_s: float = 5.0
    conflict_threshold: int = 64
    strategy: str = "remove"
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        ids = [a.id for a in self.agents]
        starts = [a.start for a in self.agents]
        goals = [a.goal for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be pairwise distinct")
        if len(set(starts)) != len(starts):
            raise ValueError("agent starts must be pairwise distinct")
        if len(set(goals)) != len(goals):
            raise ValueError("agent goals must be pairwise distinct")
        for a in self.agents:
            if not self.grid.is_passable(a.start) or not self.grid.is_passable(a.goal):
                raise ValueError(f"agent {a.id}: start or goal not passable")
        if not self.deadline_s >= 0:  # NaN included
            raise ValueError(
                f"deadline must be a nonnegative number of seconds, got {self.deadline_s}"
            )
        if self.conflict_threshold < 0:
            raise ValueError(
                f"conflict threshold must be nonnegative, got {self.conflict_threshold}"
            )


@dataclass
class PlanResult:
    schedule: dict  # agent id -> TimedPath (removed agents wait at start)
    removed_agents: list
    conflict_log: list
    elapsed_initial_s: float
    elapsed_update_s: float
    status: str  # 'optimal' | 'feasible_after_removal' | 'stop_all'
    midway_goals: dict = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return sic(self.schedule)


def sic(solution: dict) -> float:
    """Sum-of-costs over a solution."""
    return sum(p.cost for p in solution.values())


def find_conflicts(
    solution: dict, parent: list | None = None, changed: str | None = None
) -> list:
    """Every vertex and swap conflict in time order, goal-stay included.

    Following moves (entering a cell the instant its occupant leaves) and
    rotation cycles are allowed and not reported. The paths are checked
    pair by pair with `_conflicts_of`; the order is by `(time, agents)`,
    and a pair cannot have a vertex and a swap conflict at the same time.

    `parent` may give the conflicts of a solution that differs from this
    one only in the path of agent `changed`. Those that do not name
    `changed` still hold, so only that agent is checked against the
    rest. The list is the one a full scan gives, order included.
    """
    ids = sorted(solution)
    horizon = max((len(solution[i]) for i in ids), default=0)
    others = [i for i in ids if i != changed]
    ends = {solution[i].cells[-1] for i in others}
    # the others' conflicts ignore the horizon unless two of them are
    # parked on one cell (never with distinct goals)
    if parent is not None and len(ends) == len(others):
        conflicts = [c for c in parent if changed not in c.agents]
        conflicts += _conflicts_of(solution, changed, others, horizon)
    else:
        conflicts = []
        for x, i in enumerate(ids):
            conflicts += _conflicts_of(solution, i, ids[x + 1 :], horizon)
    conflicts.sort(key=lambda c: (c.time, c.agents))
    return conflicts


def _conflicts_of(solution: dict, agent_id: str, others: list, horizon: int) -> list:
    """The conflicts between `agent_id` and each of `others`, unsorted.

    Every path waits at its last cell until `horizon`, which must be at
    least the length of the longest of them; two paths parked on one
    cell conflict at every step up to it.
    """

    def padded(path):
        # the cell at every t in 0..horizon, goal-stay included
        return path.cells + [path.cells[-1]] * (horizon + 1 - len(path))

    mine = solution[agent_id]
    cells = set(mine.cells)
    mine_padded = padded(mine)
    conflicts = []
    for other in others:
        theirs = solution[other]
        if cells.isdisjoint(theirs.cells):
            continue
        moving = max(len(mine), len(theirs))
        i, j = sorted((agent_id, other))
        a, b = mine_padded, padded(theirs)
        if i != agent_id:
            a, b = b, a
        for t in range(horizon):
            ca, cb = a[t], b[t]
            if ca == cb:
                conflicts.append(
                    Conflict(kind="vertex", agents=(i, j), location=ca, time=t)
                )
            elif t >= moving:
                break  # both parked, on different cells
            elif a[t + 1] == cb and b[t + 1] == ca:
                conflicts.append(
                    Conflict(kind="edge", agents=(i, j), location=(ca, cb), time=t)
                )
    return conflicts


def _split_constraints(
    conflict: Conflict, solution: dict | None = None, horizon: int = 0
) -> list:
    """The two children of a conflict, each a list of constraints.

    A vertex conflict on a cell where one agent is already parked at its
    goal gets the stronger target split: either the parked agent arrives
    after the conflict (a length bound, one constraint), or the passing
    agent stays off that cell from the conflict time onward.  Plain
    conflicts split into one single-timestep constraint per agent.
    """
    if conflict.kind == "vertex":
        c, t = conflict.location, conflict.time
        if solution is not None:
            for parked, mover in (conflict.agents, conflict.agents[::-1]):
                path = solution[parked]
                if path.cells[-1] == c and len(path) - 1 <= t:
                    return [
                        [Constraint(agent=parked, vertex=c, time=t, length_only=True)],
                        [
                            Constraint(agent=mover, vertex=c, time=tt)
                            for tt in range(t, max(horizon, t) + 1)
                        ],
                    ]
        return [[Constraint(agent=a, vertex=c, time=t)] for a in conflict.agents]
    ca, cb = conflict.location  # cells of agents[0] at t and t+1... see below
    i, j = conflict.agents
    # swap: i moves ca->cb, j moves cb->ca, both arriving at time+1
    return [
        [Constraint(agent=i, vertex=cb, time=conflict.time + 1, from_cell=ca)],
        [Constraint(agent=j, vertex=ca, time=conflict.time + 1, from_cell=cb)],
    ]


class _GoalTables(dict):
    """Goal cell -> `goal_distances` table on one grid, built on first read.

    A table is an `array('d')` read by flat cell index `y * width + x`.
    `blocked(goal, cells)` gives the goal's `BlockedGoalTable` on the grid
    without `cells`, given as flat indices: the completion heuristic
    `constrained_astar` reads once the bans of a target split have all
    started. Many CT nodes carry the same split, so the table is kept by
    (goal, cells) and resumed, never rebuilt. `solve` makes one store per
    attempt, so every table lives only as long as the attempt and the
    grid it was built for.
    """

    def __init__(self, grid: WeightedGridMap):
        super().__init__()
        self.grid = grid
        self._blocked: dict = {}

    def __missing__(self, goal):
        table = self[goal] = goal_distances(self.grid, goal)
        return table

    def blocked(self, goal, cells: frozenset) -> BlockedGoalTable:
        table = self._blocked.get((goal, cells))
        if table is None:
            table = self._blocked[goal, cells] = BlockedGoalTable(self.grid, goal, cells)
        return table


@dataclass
class _FallbackNeeded(Exception):
    """A CT attempt gives up: `deadline`, `threshold` (too many
    expansions), `coupled` (hand over to the joint search) or `exhausted`."""

    reason: str


# expansions before a thrashing constraint tree hands a small instance
# over to the coupled joint-state search, and the largest joint position
# space (free cells ** agents) that search is allowed to take on
_COUPLED_AFTER = 600
_COUPLED_SPACE = 500_000


def _joint_search(
    grid: WeightedGridMap, agents: list, deadline: float, goal_tables: _GoalTables
):
    """Coupled A* over the joint agent state.

    Used when the constraint tree thrashes on a small, tightly coupled
    instance (chain shuffles through a corridor and the like, where no
    single pairwise constraint makes progress).  Optimal and complete:
    returns a schedule dict, or None when no collision-free plan exists.
    A finished agent has ended its path on its goal; it blocks the cell
    forever and pays nothing more, while unfinished agents pay for every
    entered cell including waits.
    """
    n = len(agents)
    width = grid.width
    h_maps = [goal_tables[a.goal] for a in agents]

    def h(positions, finished):
        total = 0.0
        for i in range(n):
            if not finished[i]:
                c = positions[i]
                total += agents[i].priority * h_maps[i][c.y * width + c.x]
        return total

    starts = tuple(a.start for a in agents)
    flag_options = [
        ((True, False) if a.start == a.goal else (False,)) for a in agents
    ]
    best: dict = {}
    parent: dict = {}
    heap: list = []
    tie = itertools.count()
    for flags in itertools.product(*flag_options):
        state = (starts, flags)
        best[state] = 0.0
        parent[state] = None
        heapq.heappush(heap, (h(starts, flags), next(tie), 0.0, state))
    goal_state = None
    while heap:
        if time.monotonic() >= deadline:
            raise DeadlineExceeded("joint search ran out of time")
        _, _, g, state = heapq.heappop(heap)
        positions, finished = state
        if g > best.get(state, math.inf) + 1e-12:
            continue
        if all(finished):
            goal_state = state
            break
        choice_lists = []
        for i in range(n):
            if finished[i]:
                choice_lists.append([(positions[i], 0.0, True)])
                continue
            opts = []
            for nxt in grid.neighbors(positions[i]):
                cost = agents[i].priority * grid.cell_cost(nxt)
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
            new_state = (new_pos, tuple(fl for _, _, fl in combo))
            ng = g + sum(c for _, c, _ in combo)
            if ng < best.get(new_state, math.inf) - 1e-12:
                best[new_state] = ng
                parent[new_state] = state
                heapq.heappush(
                    heap, (ng + h(new_pos, new_state[1]), next(tie), ng, new_state)
                )
    if goal_state is None:
        return None
    states = []
    s = goal_state
    while s is not None:
        states.append(s)
        s = parent[s]
    states.reverse()
    schedule = {}
    for i, agent in enumerate(agents):
        cells = [states[0][0][i]]
        for positions, finished in states[1:]:
            if finished[i] and cells[-1] == agent.goal:
                break
            cells.append(positions[i])
        cost = path_cost(grid, cells, agent.priority)
        schedule[agent.id] = TimedPath(cells=cells, cost=cost)
    return schedule


def _wait_at_start(agent: Agent) -> TimedPath:
    return TimedPath(cells=[agent.start], cost=0.0)


def _initial_solution(grid: WeightedGridMap, agents: list) -> dict:
    solution = {}
    for agent in agents:
        try:
            cells, cost = bidirectional_astar(grid, agent.start, agent.goal)
        except Unreachable as exc:
            raise UnsolvableError(str(exc)) from exc
        solution[agent.id] = TimedPath(cells=cells, cost=agent.priority * cost)
    return solution


def _search_ct(
    grid: WeightedGridMap,
    agents: list,
    proposals: dict,
    deadline: float,
    threshold: int,
    conflict_log: list,
    goal_tables: _GoalTables,
):
    """Best-first constraint-tree search from the root `proposals`.

    Logs the root's conflicts, then each split one (phase `update`), into
    `conflict_log`; raises `_FallbackNeeded(reason)` on giving up.
    `goal_tables` lives for this attempt on this grid; a machine's table
    is built only when the machine is first replanned under a constraint.

    A path depends only on the grid, the machine and its own constraints,
    so the attempt keeps each constrained path by (machine id, constraint
    set), with None for a machine left without a route. Sibling nodes
    that split the same conflict read it there instead of searching
    again. A child's conflicts are derived from its parent's.
    """
    by_id = {a.id: a for a in agents}
    limits = SearchLimits(check=lambda: time.monotonic() >= deadline)
    root_conflicts = find_conflicts(proposals)
    conflict_log.extend(root_conflicts)
    root = CTNode(constraints={}, solution=proposals, cost=sic(proposals))
    tie = itertools.count()
    # cost is the primary order; fewer conflicts breaks ties without
    # harming optimality of the first conflict-free node popped
    open_heap = [(root.cost, len(root_conflicts), next(tie), root, root_conflicts, None)]
    counter = 0
    horizon = default_horizon(grid)
    coupled_ok = grid.passable_count() ** len(agents) <= _COUPLED_SPACE
    # (agent id, its constraints) -> (those constraints, TimedPath or None);
    # children take the stored set, so equal sets are held once
    paths: dict = {}

    def split_children(node, conflict):
        """Both child (agent id, its constraints, path) triples for a
        conflict; path None when the constrained agent has no route left."""
        out = []
        for new_constraints in _split_constraints(conflict, node.solution, horizon):
            agent = by_id[new_constraints[0].agent]
            own = node.constraints.get(agent.id, frozenset()).union(new_constraints)
            key = (agent.id, own)
            if key not in paths:
                # a search cut by the deadline raises before it is stored
                try:
                    path = constrained_astar(
                        grid,
                        agent,
                        own,
                        limits=limits,
                        h_map=goal_tables[agent.goal],
                        blocked_tables=goal_tables.blocked,
                    )
                except Unreachable:
                    path = None
                paths[key] = own, path
            out.append((agent.id, *paths[key]))
        return out

    # how many of a node's conflicts to audition per expansion; cardinal
    # conflicts (both resolutions raise the cost) are split first, which
    # prunes the tree drastically without giving up optimality
    audition = 4

    while open_heap:
        if time.monotonic() >= deadline:
            raise _FallbackNeeded("deadline")
        _, _, _, node, conflicts, chosen = heapq.heappop(open_heap)
        if not conflicts:
            return node
        counter += 1
        if counter > threshold:
            raise _FallbackNeeded("threshold")
        if coupled_ok and counter > _COUPLED_AFTER:
            raise _FallbackNeeded("coupled")
        try:
            if chosen is None:
                for conflict in conflicts[:audition]:
                    children = split_children(node, conflict)
                    raised = 0
                    for agent_id, _, path in children:
                        old = node.solution[agent_id]
                        if path is None or path.cost > old.cost + 1e-9:
                            raised += 1
                    rank = 2 - raised
                    if chosen is None or rank < chosen[0]:
                        chosen = (rank, conflict, children)
                    if rank == 0:
                        break
        except DeadlineExceeded:
            raise _FallbackNeeded("deadline") from None
        rank, conflict, children = chosen
        if rank == 0:
            # a cardinal conflict guarantees the cost rises by at least the
            # cheaper child's increase; defer the node under that bound so
            # the search stops dwelling on equal-cost plateaus
            bump = min(
                (path.cost - node.solution[agent_id].cost) if path else math.inf
                for agent_id, _, path in children
            )
            if (
                math.isfinite(bump)
                and open_heap
                and node.cost + bump > open_heap[0][0] + 1e-9
            ):
                heapq.heappush(
                    open_heap,
                    (node.cost + bump, len(conflicts), next(tie), node, conflicts, chosen),
                )
                counter -= 1
                continue
        conflict_log.append(replace(conflict, phase="update"))
        for agent_id, own, path in children:
            if path is None:
                continue
            child_solution = dict(node.solution)
            child_solution[agent_id] = path
            child = CTNode(
                constraints={**node.constraints, agent_id: own},
                solution=child_solution,
                cost=sic(child_solution),
            )
            child_conflicts = find_conflicts(
                child_solution, parent=conflicts, changed=agent_id
            )
            heapq.heappush(
                open_heap,
                (child.cost, len(child_conflicts), next(tie), child, child_conflicts, None),
            )
    raise _FallbackNeeded("exhausted")


def conflict_counts(conflicts: list) -> dict:
    """Total conflict involvement per agent (both participants counted)."""
    counts: dict = {}
    for c in conflicts:
        for a in c.agents:
            counts[a] = counts.get(a, 0) + 1
    return counts


def _dominant_direction(agent: Agent) -> str:
    dx = agent.goal.x - agent.start.x
    dy = agent.goal.y - agent.start.y
    if dx == 0 and dy == 0:
        return "none"
    if abs(dx) >= abs(dy):
        return "+x" if dx > 0 else "-x"
    return "+y" if dy > 0 else "-y"


def _envelope(path: TimedPath) -> tuple:
    xs = [c.x for c in path.cells]
    ys = [c.y for c in path.cells]
    return min(xs), min(ys), max(xs), max(ys)


def _envelopes_overlap(a: tuple, b: tuple) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def apply_fallback(
    agents: list,
    solution: dict,
    conflicts: list,
    strategy: str,
    k: int = 1,
    rng: random.Random | None = None,
) -> list:
    """Agents to remove or defer under the given fallback strategy.

    The returned agents are reported to the caller and receive wait-at-
    start orders; they are never silently dropped.
    """
    if strategy == "remove":
        counts = conflict_counts(conflicts)
        troublemakers = sorted(
            (a.id for a in agents if counts.get(a.id, 0) > 0),
            key=lambda i: (-counts[i], i),
        )
        return troublemakers[:k]

    if strategy == "same-dir":
        groups: dict = {}
        for a in agents:
            groups.setdefault(_dominant_direction(a), []).append(a.id)
        if not groups:
            return []
        keep = max(sorted(groups), key=lambda d: len(groups[d]))
        return sorted(i for d, ids in groups.items() if d != keep for i in ids)

    if strategy == "subregion":
        if rng is None:
            rng = random.Random(0)
        envs = {a.id: _envelope(solution[a.id]) for a in agents}
        ids = sorted(envs)
        comp = {i: i for i in ids}

        def find(i):
            while comp[i] != i:
                comp[i] = comp[comp[i]]
                i = comp[i]
            return i

        for i, j in itertools.combinations(ids, 2):
            if _envelopes_overlap(envs[i], envs[j]):
                comp[find(i)] = find(j)
        components: dict = {}
        for i in ids:
            components.setdefault(find(i), []).append(i)
        deferred = []
        for members in components.values():
            admitted = rng.choice(sorted(members))
            deferred.extend(m for m in members if m != admitted)
        return sorted(deferred)

    if strategy == "low-cost":
        order = sorted(agents, key=lambda a: (solution[a.id].cost, a.id))
        horizon = max((len(solution[a.id]) for a in agents), default=0)
        admitted: list = []
        deferred = []
        for a in order:
            if _conflicts_of(solution, a.id, admitted, horizon):
                deferred.append(a.id)
            else:
                admitted.append(a.id)
        return sorted(deferred)

    raise ValueError(f"unknown strategy {strategy!r}")


def solve(scenario: Scenario) -> PlanResult:
    """Plan conflict-free timed paths for every agent within the deadline.

    Falls back to the configured removal/deferral strategy when the
    conflict counter passes the threshold or the deadline nears, and to
    stop-all (everyone waits at start) as the last resort.
    """
    t0 = time.monotonic()
    deadline = t0 + scenario.deadline_s
    rng = random.Random(scenario.seed)
    conflict_log: list = []
    removed: list = []

    # time the initial bidirectional phase separately
    proposals = _initial_solution(scenario.grid, scenario.agents)
    elapsed_initial = time.monotonic() - t0

    active = list(scenario.agents)
    grid = scenario.grid

    def result(schedule: dict, status: str) -> PlanResult:
        # removed agents, and everyone on stop-all, get a wait-at-start order
        for a in scenario.agents:
            if a.id not in schedule:
                schedule[a.id] = _wait_at_start(a)
        return PlanResult(
            schedule=schedule,
            status=status,
            removed_agents=list(removed),
            conflict_log=conflict_log,
            elapsed_initial_s=elapsed_initial,
            elapsed_update_s=time.monotonic() - t0 - elapsed_initial,
        )

    while time.monotonic() < deadline:
        # each pass is one attempt on a new grid: a fallback blocks cells
        goal_tables = _GoalTables(grid)
        # leave room for a retry after a fallback: each CT attempt gets
        # half of whatever budget is left
        now = time.monotonic()
        attempt_deadline = min(deadline, now + max(0.05, (deadline - now) * 0.5))
        mark = len(conflict_log)
        try:
            if removed:
                # a fallback changed the fleet and the grid: propose afresh
                proposals = _initial_solution(grid, active)
            goal_node = _search_ct(
                grid,
                active,
                proposals,
                attempt_deadline,
                scenario.conflict_threshold,
                conflict_log,
                goal_tables,
            )
            return result(
                dict(goal_node.solution),
                "feasible_after_removal" if removed else "optimal",
            )
        except _FallbackNeeded as fb:
            if fb.reason == "coupled":
                # tightly coupled small instance: the tree is thrashing,
                # so solve the joint state directly while budget remains
                now = time.monotonic()
                joint_deadline = min(deadline, now + max(0.05, (deadline - now) * 0.75))
                try:
                    schedule = _joint_search(grid, active, joint_deadline, goal_tables)
                except DeadlineExceeded:
                    schedule = None
                if schedule is not None:
                    return result(
                        schedule, "feasible_after_removal" if removed else "optimal"
                    )
            dropped = apply_fallback(
                active,
                proposals,
                conflict_log[mark:],
                scenario.strategy,
                k=max(1, len(active) // 8),
                rng=rng,
            )
            if not dropped:
                break
            # parking somebody on another agent's goal strands that agent
            # (starts are distinct, so only a goal can be parked on);
            # cascade the removal until everyone left can still reach home
            parked = set()
            while dropped:
                removed.extend(dropped)
                parked.update(a.start for a in active if a.id in dropped)
                active = [a for a in active if a.id not in dropped]
                dropped = [a.id for a in active if a.goal in parked]
            grid = grid.with_blocked(parked)
        except UnsolvableError:
            if not removed:
                raise
            # a parked agent cut someone off; all that is left is stop-all
            break

    # stop-all: every participant gets a command, namely wait
    return result({}, "stop_all")
