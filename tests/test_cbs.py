"""Multi-agent solver: conflict detection, tree search, fallbacks, deadline."""

import random
import time

import pytest

from sitepath.cbs import (
    Conflict,
    PlanResult,
    Scenario,
    STRATEGIES,
    UnsolvableError,
    _initial_solution,
    _split_constraints,
    apply_fallback,
    conflict_counts,
    find_conflicts,
    sic,
    solve,
)
from sitepath.grid import Cell, parse_map
from sitepath.lowlevel import Agent, TimedPath, constrained_astar, path_cost
from oracles import joint_state_cost, random_free_cell, random_map

UNIFORM55 = "map 5 5 10\nlayer flat 1\n" + "\n".join(["1 1 1 1 1"] * 5) + "\n"

CORRIDOR = """\
map 5 3 10
layer ground 1
# # # # #
1 1 1 1 1
# # # # #
"""


def _uniform_grid():
    return parse_map(UNIFORM55)


def _agents(*pairs, priority=1.0):
    return [
        Agent(id=f"a{i}", start=Cell(*s), goal=Cell(*g), priority=priority)
        for i, (s, g) in enumerate(pairs)
    ]


def _naive_conflicts(solution):
    """Quadratic re-check of the conflict detector."""
    ids = sorted(solution)
    horizon = max(len(solution[i]) for i in ids)
    found = []
    for t in range(horizon):
        for x, i in enumerate(ids):
            for j in ids[x + 1 :]:
                pi, pj = solution[i], solution[j]
                if pi.at(t) == pj.at(t):
                    found.append(("vertex", i, j, t))
                if (
                    t + 1 < horizon
                    and pi.at(t) != pi.at(t + 1)
                    and pi.at(t + 1) == pj.at(t)
                    and pj.at(t + 1) == pi.at(t)
                ):
                    found.append(("edge", i, j, t))
    return found


def test_head_on_swap_is_edge_conflict():
    sol = {
        "a": TimedPath(cells=[Cell(0, 0), Cell(1, 0)], cost=1.0),
        "b": TimedPath(cells=[Cell(1, 0), Cell(0, 0)], cost=1.0),
    }
    found = find_conflicts(sol)
    assert [c.kind for c in found] == ["edge"]
    assert found[0].agents == ("a", "b")
    assert found[0].time == 0


def test_following_is_not_a_conflict():
    sol = {
        "a": TimedPath(cells=[Cell(0, 0), Cell(1, 0), Cell(2, 0)], cost=2.0),
        "b": TimedPath(cells=[Cell(1, 0), Cell(2, 0), Cell(3, 0)], cost=2.0),
    }
    assert find_conflicts(sol) == []


def test_rotation_cycle_is_not_a_conflict():
    square = [Cell(0, 0), Cell(1, 0), Cell(1, 1), Cell(0, 1)]
    sol = {
        f"r{i}": TimedPath(cells=[square[i], square[(i + 1) % 4]], cost=1.0)
        for i in range(4)
    }
    assert find_conflicts(sol) == []


def test_goal_stay_creates_vertex_conflict():
    sol = {
        "a": TimedPath(cells=[Cell(2, 0)], cost=0.0),  # parked forever
        "b": TimedPath(cells=[Cell(0, 0), Cell(1, 0), Cell(2, 0)], cost=2.0),
    }
    found = find_conflicts(sol)
    assert any(c.kind == "vertex" and c.time == 2 for c in found)


def test_find_conflicts_matches_naive_detector():
    rng = random.Random(3)
    for _ in range(60):
        grid = random_map(rng, max_side=5, obstacle_p=0.1)
        free = list(grid.passable_cells())
        if len(free) < 4:
            continue
        sol = {}
        for i in range(rng.randint(2, 4)):
            cells = [rng.choice(free)]
            for _ in range(rng.randint(0, 6)):
                cells.append(rng.choice(grid.neighbors(cells[-1])))
            sol[f"w{i}"] = TimedPath(cells=cells, cost=0.0)
        ours = {(c.kind, *c.agents, c.time) for c in find_conflicts(sol)}
        naive = set(_naive_conflicts(sol))
        assert ours == naive


def test_vertex_split_bans_both_agents():
    c = Conflict(kind="vertex", agents=("a", "b"), location=Cell(2, 2), time=3)
    (ca,), (cb,) = _split_constraints(c)
    assert {ca.agent, cb.agent} == {"a", "b"}
    for x in (ca, cb):
        assert x.vertex == Cell(2, 2) and x.time == 3
        assert x.from_cell is None and not x.length_only


def test_vertex_split_on_parked_goal_uses_length_bound():
    """A conflict with a finished agent splits into arrival-delay vs detour."""
    c = Conflict(kind="vertex", agents=("a", "b"), location=Cell(2, 2), time=5)
    solution = {
        "a": TimedPath(cells=[Cell(0, 2), Cell(1, 2), Cell(2, 2)], cost=2.0),
        "b": TimedPath(cells=[Cell(2, 0)], cost=0.0),
    }
    parked_child, mover_child = _split_constraints(c, solution, horizon=8)
    (bound,) = parked_child
    assert bound.agent == "a" and bound.length_only
    assert bound.vertex == Cell(2, 2) and bound.time == 5
    assert all(x.agent == "b" and x.vertex == Cell(2, 2) for x in mover_child)
    assert [x.time for x in mover_child] == list(range(5, 9))
    assert not any(x.length_only for x in mover_child)


def test_edge_split_bans_each_direction():
    c = Conflict(
        kind="edge",
        agents=("a", "b"),
        location=(Cell(1, 0), Cell(2, 0)),
        time=4,
    )
    (ca,), (cb,) = _split_constraints(c)
    assert (ca.agent, ca.vertex, ca.time, ca.from_cell) == (
        "a",
        Cell(2, 0),
        5,
        Cell(1, 0),
    )
    assert (cb.agent, cb.vertex, cb.time, cb.from_cell) == (
        "b",
        Cell(1, 0),
        5,
        Cell(2, 0),
    )


def test_solve_two_crossing_agents():
    grid = _uniform_grid()
    scenario = Scenario(
        grid=grid, agents=_agents(((0, 2), (4, 2)), ((4, 2), (0, 2)))
    )
    result = solve(scenario)
    assert result.status == "optimal"
    assert find_conflicts(result.schedule) == []
    assert result.removed_agents == []
    # one agent pays a two-cell detour or two waits on a uniform map
    assert result.total_cost == pytest.approx(10.0)


def test_schedule_costs_recompute_exactly():
    grid = _uniform_grid()
    scenario = Scenario(
        grid=grid, agents=_agents(((0, 0), (4, 4)), ((0, 4), (4, 0)))
    )
    result = solve(scenario)
    for agent in scenario.agents:
        p = result.schedule[agent.id]
        assert p.cost == pytest.approx(
            path_cost(grid, p.cells, agent.priority)
        )
    assert result.total_cost == pytest.approx(sic(result.schedule))


def test_solve_matches_joint_oracle_small():
    """Spot check ahead of the acceptance run: SIC equals the oracle."""
    rng = random.Random(17)
    done = 0
    while done < 12:
        grid = random_map(rng, max_side=4, obstacle_p=0.15)
        free = list(grid.passable_cells())
        if len(free) < 6:
            continue
        n = rng.randint(2, 3)
        starts = rng.sample(free, n)
        goals = rng.sample(free, n)
        agents = [
            Agent(id=f"a{i}", start=starts[i], goal=goals[i], priority=1.0)
            for i in range(n)
        ]
        truth = joint_state_cost(grid, agents)
        if truth is None:
            continue
        scenario = Scenario(grid=grid, agents=agents, conflict_threshold=10_000)
        result = solve(scenario)
        assert result.status == "optimal"
        assert result.total_cost == pytest.approx(truth)
        done += 1


def test_ct_children_never_get_cheaper():
    """Adding a constraint can only keep or raise an agent's path cost."""
    rng = random.Random(29)
    done = 0
    while done < 15:
        grid = random_map(rng, max_side=5, obstacle_p=0.1)
        free = list(grid.passable_cells())
        if len(free) < 4:
            continue
        starts = rng.sample(free, 2)
        goals = rng.sample(free, 2)
        agents = [
            Agent(id=f"a{i}", start=starts[i], goal=goals[i], priority=1.0)
            for i in range(2)
        ]
        try:
            solution = _initial_solution(grid, agents)
        except UnsolvableError:
            continue
        frontier = [(solution, [])]
        for _ in range(4):  # a few CT levels deep
            nxt = []
            for sol, cons in frontier:
                conflicts = find_conflicts(sol)
                if not conflicts:
                    continue
                for new_cons in _split_constraints(conflicts[0], sol, 40):
                    child_cons = cons + new_cons
                    agent = next(a for a in agents if a.id == new_cons[0].agent)
                    try:
                        path = constrained_astar(grid, agent, child_cons)
                    except Exception:
                        continue
                    child = dict(sol)
                    child[agent.id] = path
                    assert sic(child) >= sic(sol) - 1e-9
                    nxt.append((child, child_cons))
            frontier = nxt
        done += 1


def test_deadline_contract_tiny_budget():
    grid = _uniform_grid()
    scenario = Scenario(
        grid=grid,
        agents=_agents(((0, 2), (4, 2)), ((4, 2), (0, 2)), ((2, 0), (2, 4))),
        deadline_s=0.01,
    )
    t0 = time.monotonic()
    result = solve(scenario)
    elapsed = time.monotonic() - t0
    assert elapsed < 0.01 + 0.5
    assert result.status in {"optimal", "feasible_after_removal", "stop_all"}
    assert set(result.schedule) == {a.id for a in scenario.agents}
    assert find_conflicts(result.schedule) == []


def test_stop_all_gives_everyone_a_wait_order():
    grid = parse_map(CORRIDOR)
    scenario = Scenario(
        grid=grid,
        agents=_agents(((0, 1), (4, 1)), ((4, 1), (0, 1))),
        conflict_threshold=0,  # force the fallback chain immediately
        deadline_s=0.2,
    )
    result = solve(scenario)
    assert result.status in {"feasible_after_removal", "stop_all"}
    assert find_conflicts(result.schedule) == []
    for agent in scenario.agents:
        assert agent.id in result.schedule
    if result.status == "stop_all":
        assert result.total_cost == 0.0
        for agent in scenario.agents:
            assert result.schedule[agent.id].cells == [agent.start]


def test_unsolvable_without_removal_raises():
    grid = parse_map("map 3 1 10\nlayer g 1\n1 # 1\n")
    scenario = Scenario(
        grid=grid, agents=_agents(((0, 0), (2, 0)))
    )
    with pytest.raises(UnsolvableError):
        solve(scenario)


def test_determinism_fixed_seed():
    grid = _uniform_grid()
    for strategy in ("remove", "same-dir", "low-cost"):
        scenario = lambda: Scenario(
            grid=grid,
            agents=_agents(
                ((0, 2), (4, 2)), ((4, 2), (0, 2)), ((2, 0), (2, 4)),
                ((2, 4), (2, 0)),
            ),
            strategy=strategy,
            seed=5,
        )
        r1, r2 = solve(scenario()), solve(scenario())
        assert r1.status == r2.status
        assert r1.total_cost == r2.total_cost
        assert {k: p.cells for k, p in r1.schedule.items()} == {
            k: p.cells for k, p in r2.schedule.items()
        }


def test_conflict_counts_double_attribution():
    conflicts = [
        Conflict(kind="vertex", agents=("a", "b"), location=Cell(0, 0), time=0),
        Conflict(kind="edge", agents=("a", "c"), location=(Cell(0, 0), Cell(1, 0)), time=1),
    ]
    counts = conflict_counts(conflicts)
    assert counts == {"a": 2, "b": 1, "c": 1}


def _sample_conflicts():
    return [
        Conflict(kind="vertex", agents=("a0", "a1"), location=Cell(2, 2), time=1),
        Conflict(kind="vertex", agents=("a0", "a2"), location=Cell(2, 3), time=2),
    ]


def test_fallback_remove_picks_top_conflict_agents():
    agents = _agents(((0, 0), (4, 4)), ((4, 0), (0, 4)), ((0, 4), (4, 0)))
    sol = {a.id: TimedPath(cells=[a.start], cost=0.0) for a in agents}
    out = apply_fallback(agents, sol, _sample_conflicts(), "remove", k=1)
    assert out == ["a0"]
    out2 = apply_fallback(agents, sol, _sample_conflicts(), "remove", k=2)
    assert out2 == ["a0", "a1"]  # tie between a1/a2 broken by id


def test_fallback_same_dir_keeps_largest_group():
    # two headed +x, one headed -x: the minority is deferred
    agents = _agents(((0, 0), (4, 0)), ((0, 2), (4, 2)), ((4, 4), (0, 4)))
    sol = {a.id: TimedPath(cells=[a.start], cost=0.0) for a in agents}
    out = apply_fallback(agents, sol, _sample_conflicts(), "same-dir")
    assert out == ["a2"]


def test_fallback_low_cost_admits_cheap_conflict_free_set():
    agents = _agents(((0, 0), (1, 0)), ((4, 4), (3, 4)), ((0, 4), (0, 3)))
    sol = {
        "a0": TimedPath(cells=[Cell(0, 0), Cell(1, 0)], cost=1.0),
        "a1": TimedPath(cells=[Cell(4, 4), Cell(3, 4)], cost=9.0),
        "a2": TimedPath(cells=[Cell(0, 4), Cell(0, 3)], cost=4.0),
    }
    out = apply_fallback(agents, sol, [], "low-cost")
    assert out == []  # nothing conflicts, nobody is deferred


def test_fallback_subregion_defers_somebody_on_overlap():
    agents = _agents(((0, 0), (4, 0)), ((4, 0), (0, 0)), ((0, 4), (4, 4)))
    sol = {
        "a0": TimedPath(cells=[Cell(x, 0) for x in range(5)], cost=4.0),
        "a1": TimedPath(cells=[Cell(4 - x, 0) for x in range(5)], cost=4.0),
        "a2": TimedPath(cells=[Cell(x, 4) for x in range(5)], cost=4.0),
    }
    out = apply_fallback(
        agents, sol, _sample_conflicts(), "subregion", rng=random.Random(1)
    )
    # the two overlapping-envelope agents form one component; exactly one
    # of them stays, the other is deferred; the isolated agent is untouched
    assert len(out) == 1 and out[0] in {"a0", "a1"}


def test_all_strategies_resolve_head_on_pair():
    grid = parse_map(CORRIDOR)
    for strategy in STRATEGIES:
        scenario = Scenario(
            grid=grid,
            agents=_agents(((0, 1), (4, 1)), ((4, 1), (0, 1))),
            conflict_threshold=0,
            strategy=strategy,
            seed=2,
        )
        result = solve(scenario)
        assert find_conflicts(result.schedule) == []
        assert result.status in {"feasible_after_removal", "stop_all"}


def test_scenario_rejects_duplicate_starts():
    grid = _uniform_grid()
    with pytest.raises(ValueError):
        Scenario(grid=grid, agents=_agents(((0, 0), (1, 1)), ((0, 0), (2, 2))))
    # two machines under one id would merge into one schedule entry
    twins = [
        Agent(id="a0", start=Cell(0, 2), goal=Cell(1, 2)),
        Agent(id="a0", start=Cell(4, 2), goal=Cell(3, 2)),
    ]
    with pytest.raises(ValueError, match="ids"):
        Scenario(grid=grid, agents=twins)


def test_scenario_rejects_unknown_strategy():
    grid = _uniform_grid()
    with pytest.raises(ValueError):
        Scenario(grid=grid, agents=_agents(((0, 0), (1, 1))), strategy="bogus")


def test_priorities_steer_who_yields():
    """The high-priority machine keeps the straight line."""
    grid = _uniform_grid()
    fast = Agent(id="fast", start=Cell(0, 2), goal=Cell(4, 2), priority=10.0)
    slow = Agent(id="slow", start=Cell(4, 2), goal=Cell(0, 2), priority=1.0)
    result = solve(Scenario(grid=grid, agents=[fast, slow]))
    assert result.status == "optimal"
    assert find_conflicts(result.schedule) == []
    assert result.schedule["fast"].cells == [Cell(x, 2) for x in range(5)]
