"""Mid-execution deviations: delays, breakdowns, midway parking, stop-all."""

import random
import time
from dataclasses import replace

import pytest

from sitepath.cbs import PlanResult, Scenario, find_conflicts, solve
from sitepath.grid import Cell, parse_map
from sitepath.lowlevel import Agent, TimedPath, Unreachable
from sitepath.mapgen import archetype_scenario
from sitepath.replan import (
    IMMOBILE,
    ExecutionState,
    _blocks_someone,
    inject_delay,
    midway_goal,
    replan,
)
from oracles import (
    _connected_without,
    midway_goal_reference,
    random_free_cell,
    random_map,
)
from scenarios import CORRIDOR_TEXT, StepClock, bridging_scenario

OPEN = "map 6 6 10\nlayer flat 1\n" + "\n".join(["1 1 1 1 1 1"] * 6) + "\n"


def _open_scenario(*pairs, **kwargs):
    grid = parse_map(OPEN)
    agents = [
        Agent(id=f"m{i}", start=Cell(*s), goal=Cell(*g), priority=1.0)
        for i, (s, g) in enumerate(pairs)
    ]
    return Scenario(grid=grid, agents=agents, **kwargs)


def test_positions_default_to_plan():
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=2)
    assert state.positions["m0"] == base.schedule["m0"].at(2)
    assert state.positions["m1"] == base.schedule["m1"].at(2)


def test_negative_now_is_refused():
    # `TimedPath.at(-1)` would read the last cell: every machine on its goal
    sc = _open_scenario(((0, 0), (5, 0)))
    base = solve(sc)
    with pytest.raises(ValueError, match="now must be nonnegative"):
        ExecutionState(scenario=sc, planned=base, now=-1)


def test_inject_delay_moves_agent_back():
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=3)
    lagged = inject_delay(state, "m0", 2)
    assert lagged.positions["m0"] == base.schedule["m0"].at(1)
    assert lagged.deviations == {"m0": 2}
    # the original state is untouched
    assert state.deviations == {}


def test_inject_delay_clamps_to_start():
    sc = _open_scenario(((0, 0), (5, 0)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=1)
    lagged = inject_delay(state, "m0", 99)
    assert lagged.positions["m0"] == Cell(0, 0)


def test_inject_delay_rejects_bad_lag():
    sc = _open_scenario(((0, 0), (5, 0)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base)
    with pytest.raises(ValueError):
        inject_delay(state, "m0", 0)
    with pytest.raises(KeyError):
        inject_delay(state, "nobody", 1)


def test_immobile_agent_freezes_in_place():
    sc = _open_scenario(((0, 0), (5, 0)), ((5, 5), (0, 5)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=2)
    broken = inject_delay(state, "m1", IMMOBILE)
    result = replan(broken, deadline_s=2.0)
    assert result.status != "stop_all"
    frozen = result.schedule["m1"]
    assert frozen.cells == [broken.positions["m1"]]
    assert frozen.cost == 0.0
    assert find_conflicts(result.schedule) == []
    # the healthy machine still reaches its goal
    assert result.schedule["m0"].cells[-1] == Cell(5, 0)


def test_immobile_in_sole_corridor_forces_stop_all():
    grid = parse_map(CORRIDOR_TEXT)
    agents = [
        Agent(id="m0", start=Cell(0, 1), goal=Cell(6, 1), priority=1.0),
        Agent(id="m1", start=Cell(4, 1), goal=Cell(5, 1), priority=1.0),
    ]
    sc = Scenario(grid=grid, agents=agents)
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=0)
    broken = inject_delay(state, "m1", IMMOBILE)
    result = replan(broken, deadline_s=2.0)
    assert result.status == "stop_all"
    for agent in agents:
        assert result.schedule[agent.id].cells == [broken.positions[agent.id]]
    assert result.total_cost == 0.0


def test_zero_deadline_stops_the_fleet():
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)))
    base = solve(sc)
    lagged = inject_delay(ExecutionState(scenario=sc, planned=base, now=3), "m0", 1)
    result = replan(lagged, deadline_s=0)
    assert result.status == "stop_all"
    for agent in sc.agents:
        assert result.schedule[agent.id].cells == [lagged.positions[agent.id]]


def test_an_overrun_first_solve_does_not_raise(monkeypatch):
    # the first solve is optimal, but it ends past the deadline: no other
    # solve runs, and the late plan gives way to stop-all
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)))
    base = solve(sc)
    lagged = inject_delay(ExecutionState(scenario=sc, planned=base, now=3), "m0", 1)
    budgets = []

    def slow_solve(scenario):
        budgets.append(scenario.deadline_s)
        result = solve(scenario)
        time.sleep(0.06)
        return result

    monkeypatch.setattr("sitepath.replan.solve", slow_solve)
    result = replan(lagged, deadline_s=0.05)
    assert len(budgets) == 1 and 0 < budgets[0] <= 0.05
    assert result.status == "stop_all"
    for agent in sc.agents:
        assert result.schedule[agent.id].cells == [lagged.positions[agent.id]]


def test_replan_without_deviation_is_a_plain_resolve():
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=2)
    result = replan(state, deadline_s=2.0)
    assert result.status == "optimal"
    assert result.midway_goals == {}
    assert find_conflicts(result.schedule) == []
    for agent in sc.agents:
        assert result.schedule[agent.id].cells[0] == state.positions[agent.id]
        assert result.schedule[agent.id].cells[-1] == agent.goal


def test_midway_goal_conditions_hold():
    sc = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)), ((3, 3), (0, 3)))
    base = solve(sc)
    state = ExecutionState(scenario=sc, planned=base, now=1)
    cell = midway_goal(sc.grid, state, "m0")
    # (a) never on another machine's planned path, goal-stay included
    for other in ("m1", "m2"):
        assert cell not in base.schedule[other].cells
    # (b) permanently occupying it strands nobody
    blocked = parse_map(OPEN)
    blocked = replace(blocked, obstacles=blocked.obstacles | {cell})
    from sitepath.lowlevel import bidirectional_astar

    for other in ("m1", "m2"):
        agent = state.agent(other)
        bidirectional_astar(blocked, state.positions[other], agent.goal)


def _assert_midway_matches_reference(grid, state, agent_id):
    expected = midway_goal_reference(grid, state, agent_id)
    if expected is None:
        with pytest.raises(Unreachable):
            midway_goal(grid, state, agent_id)
    else:
        assert midway_goal(grid, state, agent_id) == expected, (agent_id, state.now)


def test_midway_goal_matches_brute_force_reference():
    sc = bridging_scenario()
    base = solve(replace(sc, conflict_threshold=512))
    for now in range(8):
        state = ExecutionState(scenario=sc, planned=base, now=now)
        for agent in sc.agents:
            _assert_midway_matches_reference(sc.grid, state, agent.id)
    three = _open_scenario(((0, 0), (5, 0)), ((0, 5), (5, 5)), ((3, 3), (0, 3)))
    state = ExecutionState(scenario=three, planned=solve(three), now=1)
    _assert_midway_matches_reference(three.grid, state, "m0")


def _random_midway_cases():
    """(grid, state) pairs on seeded random maps, deviant `m0`.

    midway_goal reads planned paths only as sets of taken cells, so in
    place of a solved schedule each other machine gets a stub path
    through the deviant's own cell and a random sixth of the map. Each
    map is used twice: as drawn, and with `m2` immobile, its cell blocked
    and no plan of its own.
    """
    rng = random.Random(11)
    for _ in range(40):
        grid = random_map(rng, max_side=8)
        cells = []
        for _ in range(6):
            c = random_free_cell(grid, rng, exclude=cells)
            if c is None:
                break
            cells.append(c)
        if len(cells) < 6:
            continue
        agents = [
            Agent(
                id=f"m{i}",
                start=cells[2 * i],
                goal=cells[2 * i + 1],
                priority=rng.choice((0.5, 1.0, 3.0)),
            )
            for i in range(3)
        ]
        free = list(grid.passable_cells())
        schedule = {
            a.id: TimedPath(
                cells=[a.start, agents[0].start]
                + rng.sample(free, len(free) // 6)
                + [a.goal],
                cost=0.0,
            )
            for a in agents[1:]
        }
        scenario = Scenario(grid=grid, agents=agents)
        positions = {a.id: a.start for a in agents}
        planned = PlanResult(schedule, [], [], 0.0, 0.0, "optimal")
        yield grid, ExecutionState(
            scenario=scenario, planned=planned, positions=positions
        )
        without_m2 = PlanResult({"m1": schedule["m1"]}, [], [], 0.0, 0.0, "optimal")
        yield grid.with_blocked([agents[2].start]), ExecutionState(
            scenario=scenario,
            planned=without_m2,
            positions=positions,
            deviations={"m2": IMMOBILE},
        )


def test_midway_goal_matches_reference_on_random_maps():
    checked = 0
    for grid, state in _random_midway_cases():
        _assert_midway_matches_reference(grid, state, "m0")
        checked += 1
    assert checked >= 40


def test_cutoff_check_matches_reference_connectivity():
    goal_cases = 0
    for grid, state in _random_midway_cases():
        others = state.scenario.agents[1:]
        for c in grid.passable_cells():
            expected = any(
                not _connected_without(grid, c, state.positions[a.id], a.goal)
                for a in others
                if state.positions[a.id] not in (c, a.goal)
            )
            assert _blocks_someone(grid, c, others, state.positions) == expected, c
            if any(a.goal == c and state.positions[a.id] != c for a in others):
                assert expected
                goal_cases += 1
    assert goal_cases >= 40


def test_immobile_machine_does_not_cancel_midway():
    # one machine breaks down and another lags: the immobile machine
    # stands on a blocked cell, which must not make every parking cell
    # look like it cuts the broken machine off
    sc = archetype_scenario("archetype-1-open-20", 0, deadline_s=600)
    base = solve(sc)
    state = ExecutionState(
        scenario=replace(sc, conflict_threshold=0), planned=base, now=3
    )
    state = inject_delay(inject_delay(state, "agent3", 1), "agent4", IMMOBILE)
    result = replan(state, deadline_s=5)
    assert result.status != "stop_all"
    assert result.midway_goals == {"agent3": Cell(18, 3)}
    assert find_conflicts(result.schedule) == []
    assert result.schedule["agent4"].cells == [state.positions["agent4"]]


def test_bridging_lag_gets_midway_goal():
    sc = bridging_scenario()
    base = solve(replace(sc, conflict_threshold=512))
    assert base.status == "optimal"
    state = inject_delay(
        ExecutionState(scenario=sc, planned=base, now=3), "hauler", 2
    )
    t0 = time.monotonic()
    result = replan(state, deadline_s=1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert result.status != "stop_all"
    assert "hauler" in result.midway_goals
    parked = result.midway_goals["hauler"]
    assert result.schedule["hauler"].cells[-1] == parked
    assert find_conflicts(result.schedule) == []
    # the healthy machine still completes its trip
    grader = state.agent("grader")
    assert result.schedule["grader"].cells[-1] == grader.goal


def test_replan_deadline_contract():
    sc = bridging_scenario()
    base = solve(replace(sc, conflict_threshold=512))
    state = inject_delay(
        ExecutionState(scenario=sc, planned=base, now=3), "hauler", 2
    )
    for budget in (0.05, 0.5):
        t0 = time.monotonic()
        result = replan(state, deadline_s=budget)
        assert time.monotonic() - t0 < budget + 0.5
        assert find_conflicts(result.schedule) == []


def test_a_deadline_gives_the_far_replan_or_stop_all(monkeypatch):
    # 5 s is 100 reads of the step clock: enough for some replans (60 to
    # 89 reads, as every proposal and CT pop reads it), too few for the
    # others (197 or more). Whichever it is, the replan may not mix the
    # two: it returns what 600 s on the real clock gives, or stop-all
    def outcome(result):
        paths = {i: p.cells for i, p in result.schedule.items()}
        return result.status, result.removed_agents, result.midway_goals, paths

    scenario = archetype_scenario("archetype-1-open-20", 0, deadline_s=600)
    base = solve(scenario)
    state = ExecutionState(
        scenario=replace(scenario, conflict_threshold=0), planned=base, now=3
    )
    kept = stopped = 0
    for agent in scenario.agents:
        for lag in (1, 2, IMMOBILE):
            moved = inject_delay(state, agent.id, lag)
            try:
                far = outcome(replan(moved, deadline_s=600))
            except ValueError as exc:
                # the lag puts the machine back on a cell another one holds
                assert str(exc) == "agent starts must be pairwise distinct"
                continue
            with monkeypatch.context() as patch:
                clock = StepClock(5.0 / 100)
                patch.setattr("sitepath.cbs.time", clock)
                patch.setattr("sitepath.replan.time", clock)
                patch.setattr("sitepath.lowlevel.time", clock)
                near = outcome(replan(moved, deadline_s=5))
            if near[0] == "stop_all":
                stopped += 1
            else:
                assert near == far, (agent.id, lag)
                kept += 1
    assert kept and stopped
