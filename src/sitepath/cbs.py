"""High-level constraint-tree search with a realtime deadline.

The solver follows the classic two-level scheme: initial proposals come
from the bidirectional searcher, conflicts between proposals are split
into constraints, and only the constrained agent is replanned. On top of
that sits the realtime contract: every participant must receive a
command (possibly "wait") within the scenario deadline, falling back to
agent removal / deferral strategies and ultimately to stop-all.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .grid import Cell, WeightedGridMap
from .lowlevel import (
    Agent,
    Constraint,
    DeadlineExceeded,
    SearchLimits,
    TimedPath,
    Unreachable,
    bidirectional_astar,
    constrained_astar,
    default_horizon,
    goal_distances,
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
    constraints: list
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


@dataclass
class PlanResult:
    schedule: dict  # agent id -> TimedPath (removed agents wait at start)
    total_cost: float
    removed_agents: list
    conflict_log: list
    elapsed_initial_s: float
    elapsed_update_s: float
    status: str  # 'optimal' | 'feasible_after_removal' | 'stop_all'
    midway_goals: dict = field(default_factory=dict)


def sic(solution: dict) -> float:
    """Sum-of-costs over a solution."""
    return sum(p.cost for p in solution.values())


def find_conflicts(solution: dict) -> list:
    """Every vertex and swap conflict in time order, goal-stay included.

    Following moves (entering a cell the instant its occupant leaves) and
    rotation cycles are allowed and not reported.
    """
    ids = sorted(solution)
    horizon = max((len(solution[i]) for i in ids), default=0)
    conflicts = []
    pos = {i: solution[i].at(0) for i in ids}
    for t in range(horizon):
        occupancy: dict = {}
        for i in ids:
            occupancy.setdefault(pos[i], []).append(i)
        for cell, members in occupancy.items():
            for i, j in itertools.combinations(members, 2):
                conflicts.append(
                    Conflict(kind="vertex", agents=(i, j), location=cell, time=t)
                )
        if t + 1 >= horizon:
            break
        nxt = {i: solution[i].at(t + 1) for i in ids}
        moves: dict = {}
        for i in ids:
            if pos[i] != nxt[i]:
                moves.setdefault((pos[i], nxt[i]), []).append(i)
        for (a, b), movers in moves.items():
            for j in moves.get((b, a), ()):
                for i in movers:
                    if i < j:
                        conflicts.append(
                            Conflict(
                                kind="edge", agents=(i, j), location=(a, b), time=t
                            )
                        )
        pos = nxt
    conflicts.sort(key=lambda c: (c.time, c.agents))
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


@dataclass
class _FallbackNeeded(Exception):
    reason: str
    solution: dict
    conflicts_seen: list


# expansions before a thrashing constraint tree hands a small instance
# over to the coupled joint-state search, and the largest joint position
# space (free cells ** agents) that search is allowed to take on
_COUPLED_AFTER = 600
_COUPLED_SPACE = 500_000
_COUPLED_STALL_S = 0.75


def _joint_search(grid: WeightedGridMap, agents: list, deadline: float):
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
    h_maps = [goal_distances(grid, a.goal) for a in agents]

    def h(positions, finished):
        total = 0.0
        for i in range(n):
            if not finished[i]:
                total += agents[i].priority * h_maps[i][positions[i]]
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
        cost = agent.priority * sum(grid.cell_cost(c) for c in cells[1:])
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
    deadline: float,
    threshold: int,
    conflict_log: list,
    root_solution: dict | None = None,
):
    """Best-first constraint-tree search; raises on deadline/threshold."""
    by_id = {a.id: a for a in agents}
    limits = SearchLimits(check=lambda: time.monotonic() >= deadline)
    h_maps = {a.id: goal_distances(grid, a.goal) for a in agents}
    if root_solution is None:
        root_solution = _initial_solution(grid, agents)
    root_conflicts = find_conflicts(root_solution)
    conflict_log.extend(
        Conflict(c.kind, c.agents, c.location, c.time, phase="initial")
        for c in root_conflicts
    )
    root = CTNode(constraints=[], solution=root_solution, cost=sic(root_solution))
    tie = itertools.count()
    # cost is the primary order; fewer conflicts breaks ties without
    # harming optimality of the first conflict-free node popped
    open_heap = [(root.cost, len(root_conflicts), next(tie), root, root_conflicts, None)]
    counter = 0
    seen_update: list = []
    horizon = default_horizon(grid)
    n_free = grid.width * grid.height - len(grid.obstacles)
    coupled_ok = n_free ** len(agents) <= _COUPLED_SPACE
    t_start = time.monotonic()

    def split_children(node, conflict):
        """Both child (constraints, path) pairs for a conflict; path None
        when the constrained agent has no route left."""
        out = []
        for new_constraints in _split_constraints(conflict, node.solution, horizon):
            agent = by_id[new_constraints[0].agent]
            try:
                path = constrained_astar(
                    grid,
                    agent,
                    node.constraints + new_constraints,
                    limits=limits,
                    h_map=h_maps[agent.id],
                )
            except Unreachable:
                path = None
            out.append((new_constraints, path))
        return out

    # how many of a node's conflicts to audition per expansion; cardinal
    # conflicts (both resolutions raise the cost) are split first, which
    # prunes the tree drastically without giving up optimality
    audition = 4

    while open_heap:
        if time.monotonic() >= deadline:
            raise _FallbackNeeded("deadline", root_solution, root_conflicts + seen_update)
        _, _, _, node, conflicts, chosen = heapq.heappop(open_heap)
        if not conflicts:
            return node
        counter += 1
        if counter > threshold:
            raise _FallbackNeeded("threshold", root_solution, root_conflicts + seen_update)
        if coupled_ok and (
            counter > _COUPLED_AFTER
            or time.monotonic() - t_start > _COUPLED_STALL_S
        ):
            raise _FallbackNeeded("coupled", root_solution, root_conflicts + seen_update)
        try:
            if chosen is None:
                for conflict in conflicts[:audition]:
                    children = split_children(node, conflict)
                    raised = 0
                    for new_constraints, path in children:
                        old = node.solution[new_constraints[0].agent]
                        if path is None or path.cost > old.cost + 1e-9:
                            raised += 1
                    rank = 2 - raised
                    if chosen is None or rank < chosen[0]:
                        chosen = (rank, conflict, children)
                    if rank == 0:
                        break
        except DeadlineExceeded:
            raise _FallbackNeeded(
                "deadline", root_solution, root_conflicts + seen_update
            ) from None
        rank, conflict, children = chosen
        if rank == 0:
            # a cardinal conflict guarantees the cost rises by at least the
            # cheaper child's increase; defer the node under that bound so
            # the search stops dwelling on equal-cost plateaus
            bump = min(
                (path.cost - node.solution[nc[0].agent].cost) if path else math.inf
                for nc, path in children
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
        logged = Conflict(
            conflict.kind, conflict.agents, conflict.location, conflict.time, phase="update"
        )
        conflict_log.append(logged)
        seen_update.append(logged)
        for new_constraints, path in children:
            if path is None:
                continue
            child_solution = dict(node.solution)
            child_solution[new_constraints[0].agent] = path
            child = CTNode(
                constraints=node.constraints + new_constraints,
                solution=child_solution,
                cost=sic(child_solution),
            )
            child_conflicts = find_conflicts(child_solution)
            heapq.heappush(
                open_heap,
                (child.cost, len(child_conflicts), next(tie), child, child_conflicts, None),
            )
    raise _FallbackNeeded("exhausted", root_solution, root_conflicts + seen_update)


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
        admitted: list = []
        deferred = []
        for a in order:
            trial = {i: solution[i] for i in admitted}
            trial[a.id] = solution[a.id]
            if find_conflicts(trial):
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
    full_initial = _initial_solution(scenario.grid, scenario.agents)
    elapsed_initial = time.monotonic() - t0

    active = list(scenario.agents)
    grid = scenario.grid
    root_solution: dict | None = full_initial

    def result(schedule: dict, status: str) -> PlanResult:
        # removed agents, and everyone on stop-all, get a wait-at-start order
        for a in scenario.agents:
            if a.id not in schedule:
                schedule[a.id] = _wait_at_start(a)
        return PlanResult(
            schedule=schedule,
            total_cost=sic(schedule),
            removed_agents=list(removed),
            conflict_log=conflict_log,
            elapsed_initial_s=elapsed_initial,
            elapsed_update_s=time.monotonic() - t0 - elapsed_initial,
            status=status,
        )

    while time.monotonic() < deadline:
        # leave room for a retry after a fallback: each CT attempt gets
        # half of whatever budget is left
        now = time.monotonic()
        attempt_deadline = min(deadline, now + max(0.05, (deadline - now) * 0.5))
        try:
            goal_node = _search_ct(
                grid,
                active,
                attempt_deadline,
                scenario.conflict_threshold,
                conflict_log,
                root_solution=root_solution,
            )
            return result(
                dict(goal_node.solution),
                "feasible_after_removal" if removed else "optimal",
            )
        except _FallbackNeeded as fb:
            root_solution = None
            if fb.reason == "coupled":
                # tightly coupled small instance: the tree is thrashing,
                # so solve the joint state directly while budget remains
                now = time.monotonic()
                joint_deadline = min(deadline, now + max(0.05, (deadline - now) * 0.75))
                try:
                    schedule = _joint_search(grid, active, joint_deadline)
                except DeadlineExceeded:
                    schedule = None
                if schedule is not None:
                    return result(
                        schedule, "feasible_after_removal" if removed else "optimal"
                    )
            dropped = apply_fallback(
                active,
                fb.solution,
                fb.conflicts_seen,
                scenario.strategy,
                k=max(1, len(active) // 8),
                rng=rng,
            )
            if not dropped:
                break
            removed.extend(dropped)
            kept = [a for a in active if a.id not in dropped]
            parked = [a.start for a in active if a.id in dropped]
            grid = grid.with_blocked(parked)
            active = kept
            # parking somebody on another agent's goal strands that agent;
            # cascade the removal until everyone left can still reach home
            while True:
                stranded = [
                    a
                    for a in active
                    if not grid.is_passable(a.start) or not grid.is_passable(a.goal)
                ]
                if not stranded:
                    break
                removed.extend(a.id for a in stranded)
                grid = grid.with_blocked(a.start for a in stranded)
                active = [a for a in active if a.id not in {s.id for s in stranded}]
        except UnsolvableError:
            if not removed:
                raise
            # a parked agent cut someone off; all that is left is stop-all
            break

    # stop-all: every participant gets a command, namely wait
    return result({}, "stop_all")
