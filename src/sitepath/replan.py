"""Emergency handling while a schedule is executing.

When a machine falls behind or breaks down mid-plan, the whole fleet is
replanned from its actual positions. If the deviant machine alone makes
the replan blow the realtime budget, it gets parked at a midway goal
that stays out of everyone's way; if it is immobile and physically
blocks another machine's every route, the only safe command left is
stop-all and a call for human intervention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .cbs import PlanResult, Scenario, UnsolvableError, solve
from .grid import Cell, WeightedGridMap
from .lowlevel import Agent, TimedPath, Unreachable, start_distances

IMMOBILE = "immobile"


@dataclass
class ExecutionState:
    scenario: Scenario
    planned: PlanResult
    now: int = 0
    positions: dict = field(default_factory=dict)  # id -> actual Cell
    deviations: dict = field(default_factory=dict)  # id -> lag (int) or "immobile"

    def __post_init__(self):
        if self.now < 0:
            raise ValueError(f"now must be nonnegative, got {self.now}")
        if not self.positions:
            self.positions = {
                a.id: self.planned.schedule[a.id].at(self.now)
                for a in self.scenario.agents
            }

    def agent(self, agent_id: str) -> Agent:
        for a in self.scenario.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"unknown agent {agent_id!r}")


def inject_delay(state: ExecutionState, agent_id: str, lag) -> ExecutionState:
    """Record that an agent is `lag` timesteps behind plan (or immobile).

    Its actual position becomes the planned position at now - lag,
    clamped to the start; an immobile agent freezes where it stands.
    """
    agent = state.agent(agent_id)
    positions = dict(state.positions)
    deviations = dict(state.deviations)
    if lag == IMMOBILE:
        deviations[agent_id] = IMMOBILE
    else:
        if not isinstance(lag, int) or lag < 1:
            raise ValueError("lag must be a positive integer or 'immobile'")
        planned = state.planned.schedule[agent_id]
        positions[agent_id] = planned.at(max(0, state.now - lag))
        deviations[agent_id] = lag
    return replace(state, positions=positions, deviations=deviations)


def _blocks_someone(grid: WeightedGridMap, blocked: Cell, agents, positions) -> bool:
    """True if occupying `blocked` for good disconnects any other agent's
    current position from its goal.

    Each agent floods `grid` from where it stands, never entering
    `blocked`, until its goal is reached. An agent standing on a cell the
    map already blocks (an immobile machine) may walk out of it."""
    for a in agents:
        pos = positions[a.id]
        if pos == blocked or pos == a.goal:
            continue
        seen = {pos}
        frontier = [pos]
        while frontier and a.goal not in seen:
            for nxt in grid.neighbors(frontier.pop()):
                if nxt != blocked and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if a.goal not in seen:
            return True
    return False


def midway_goal(grid: WeightedGridMap, state: ExecutionState, agent_id: str) -> Cell:
    """Cheapest parking cell for a deviant agent.

    The cell must (a) lie on nobody else's planned path, goal-stay
    included, and (b) not disconnect any other agent from its goal when
    permanently occupied. Minimized by the agent's weighted path cost
    from its current position, ties by lower (y, x).

    One Dijkstra pass from the agent's position prices every reachable
    cell; candidates are then taken in cost order and the first that
    meets (a) and (b) wins, so the cut-off check stops at the answer.
    The check (`_blocks_someone`) floods `grid` once per other agent;
    cells `grid` already blocks stay closed, but an agent standing on
    one (an immobile machine) may walk out of it.
    """
    agent = state.agent(agent_id)
    pos = state.positions[agent_id]
    others = [a for a in state.scenario.agents if a.id != agent_id]
    occupied = set()
    for a in others:
        planned = state.planned.schedule.get(a.id)
        if planned is not None:
            occupied.update(planned.cells)
        else:
            occupied.add(state.positions[a.id])
    candidates = sorted(
        (agent.priority * cost, c.y, c.x)
        for c, cost in start_distances(grid, pos).items()
        if c not in occupied
    )
    for _, y, x in candidates:
        c = Cell(x, y)
        if not _blocks_someone(grid, c, others, state.positions):
            return c
    raise Unreachable(f"no_midway for agent {agent_id}")


def _stop_all(state: ExecutionState, elapsed: float) -> PlanResult:
    return PlanResult(
        schedule={
            a.id: TimedPath(cells=[state.positions[a.id]], cost=0.0)
            for a in state.scenario.agents
        },
        removed_agents=[],
        conflict_log=[],
        elapsed_initial_s=0.0,
        elapsed_update_s=elapsed,
        status="stop_all",
    )


def replan(state: ExecutionState, deadline_s: float = 5.0) -> PlanResult:
    """Replan the fleet from its actual positions within the budget.

    An immobile machine that corks another machine's only route forces
    stop-all. Otherwise the whole fleet is re-solved; if the deviant
    agent alone is what breaks the budget (solving without it finishes
    within half the deadline), it is reassigned a midway goal and the
    fleet is solved once more.

    All of this work counts against `deadline_s`: the cut-off checks,
    every solve and the midway search draw on one budget, and when it
    is spent before the last solve can start the fleet is stopped.
    """
    t0 = time.monotonic()

    def left() -> float:
        return deadline_s - (time.monotonic() - t0)

    grid = state.scenario.grid
    deviants = sorted(state.deviations)
    immobile = {a for a in deviants if state.deviations[a] == IMMOBILE}

    for agent_id in sorted(immobile):
        others = [a for a in state.scenario.agents if a.id != agent_id]
        if _blocks_someone(grid, state.positions[agent_id], others, state.positions):
            return _stop_all(state, time.monotonic() - t0)

    mobile_agents = [a for a in state.scenario.agents if a.id not in immobile]
    parked = [state.positions[a] for a in immobile]
    work_grid = grid.with_blocked(parked) if parked else grid

    def run(agents, budget):
        moved = [replace(a, start=state.positions[a.id]) for a in agents]
        # a spent budget (an overrun, or the clock's tick past a zero
        # deadline) is an empty one: solve then stops the fleet at once
        return solve(
            replace(
                state.scenario,
                grid=work_grid,
                agents=moved,
                deadline_s=max(budget, 0.0),
            )
        )

    try:
        result = run(mobile_agents, left())
        # the budget counts as breached when the fleet could not be solved
        # cleanly in time: outright stop-all, forced removals, or overrun
        breached = result.status != "optimal" or left() < 0
        mobile_deviants = [a for a in deviants if a not in immobile]
        if breached and mobile_deviants:
            troublemaker = mobile_deviants[0]
            rest = [a for a in mobile_agents if a.id != troublemaker]
            try:
                without = run(rest, min(deadline_s / 2.0, left()))
            except UnsolvableError:
                without = None
            finished_fast = (
                without is not None
                and without.status != "stop_all"
                and without.elapsed_initial_s + without.elapsed_update_s <= deadline_s / 2.0
            )
            if finished_fast:
                probe = replace(state, planned=without, now=0)
                new_goal = midway_goal(work_grid, probe, troublemaker)
                if left() <= 0:
                    return _stop_all(state, time.monotonic() - t0)
                redirected = [
                    replace(a, goal=new_goal) if a.id == troublemaker else a
                    for a in mobile_agents
                ]
                result = run(redirected, left())
                result.midway_goals = {troublemaker: new_goal}
    except (UnsolvableError, Unreachable):
        return _stop_all(state, time.monotonic() - t0)

    if result.status == "stop_all":
        return _stop_all(state, time.monotonic() - t0)

    # immobile machines appear in the schedule as frozen at their cell
    for agent_id in immobile:
        result.schedule[agent_id] = TimedPath(
            cells=[state.positions[agent_id]], cost=0.0
        )
    return result
