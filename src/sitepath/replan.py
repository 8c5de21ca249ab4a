"""Emergency handling while a schedule is executing.

When a machine falls behind or breaks down mid-plan, the whole fleet is
replanned from its actual positions. If the fleet cannot be solved
cleanly and the fleet without the deviant machine can, the deviant gets
parked at a midway goal that stays out of everyone's way; if it is
immobile and physically blocks another machine's every route, the only
safe command left is stop-all and a call for human intervention. The
deadline is the only wall-clock input: a replan returns the plan a far
deadline gives, or stop-all.
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
    """Replan the fleet from its actual positions within the deadline.

    An immobile machine that corks another machine's only route forces
    stop-all. Otherwise the whole fleet is re-solved; if that solve is
    not optimal and a mobile machine deviates, the first such machine is
    left out and the rest solved, and unless that ends in stop-all it is
    reassigned a midway goal and the fleet is solved once more.

    All of this work counts against `deadline_s`: the cut-off checks,
    every solve and the midway search draw on one deadline, each solve
    gets what is left of it, and a plan that ends in stop-all, or a
    deadline reached by the end, stops the fleet. So the result is the
    plan a far deadline gives, or stop-all.
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

    def run(agents):
        moved = [replace(a, start=state.positions[a.id]) for a in agents]
        # every solve gets what is left of the one deadline; a spent one
        # is empty, and the solve then stops the fleet at once
        return solve(
            replace(
                state.scenario,
                grid=work_grid,
                agents=moved,
                deadline_s=max(left(), 0.0),
            )
        )

    try:
        result = run(mobile_agents)
        mobile_deviants = [a for a in deviants if a not in immobile]
        if result.status != "optimal" and mobile_deviants:
            troublemaker = mobile_deviants[0]
            without = run([a for a in mobile_agents if a.id != troublemaker])
            if without.status != "stop_all":
                probe = replace(state, planned=without, now=0)
                new_goal = midway_goal(work_grid, probe, troublemaker)
                redirected = [
                    replace(a, goal=new_goal) if a.id == troublemaker else a
                    for a in mobile_agents
                ]
                result = run(redirected)
                result.midway_goals = {troublemaker: new_goal}
    except (UnsolvableError, Unreachable):
        return _stop_all(state, time.monotonic() - t0)

    # a solve cut by the deadline ends after it, so checking the deadline
    # here stops the fleet whenever any of the solves above was cut
    if result.status == "stop_all" or left() <= 0:
        return _stop_all(state, time.monotonic() - t0)

    # immobile machines appear in the schedule as frozen at their cell
    for agent_id in immobile:
        result.schedule[agent_id] = TimedPath(
            cells=[state.positions[agent_id]], cost=0.0
        )
    return result
