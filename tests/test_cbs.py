"""Multi-agent solver: conflict detection, tree search, fallbacks, deadline."""

import math
import random
import time
from dataclasses import replace

import pytest

import sitepath.cbs as cbs
import sitepath.lowlevel as lowlevel
from sitepath.cbs import (
    Conflict,
    PlanResult,
    Scenario,
    STRATEGIES,
    UnsolvableError,
    _GoalTables,
    _initial_solution,
    _joint_search,
    _split_constraints,
    apply_fallback,
    conflict_counts,
    find_conflicts,
    sic,
    solve,
)
from sitepath.grid import Cell, WeightedGridMap, parse_map
from sitepath.lowlevel import (
    Agent,
    Constraint,
    DeadlineExceeded,
    SearchLimits,
    TimedPath,
    Unreachable,
    bidirectional_astar,
    constrained_astar,
    goal_distances,
    path_cost,
)
from sitepath.mapgen import archetype_scenario, open_field, random_agents
from oracles import joint_state_cost, random_free_cell, random_map
from scenarios import StepClock

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
    """Quadratic re-check of the conflict detector: (kind, i, j, location,
    t) in time order, then by pair, the edge location in agent i's order."""
    ids = sorted(solution)
    horizon = max(len(solution[i]) for i in ids)
    found = []
    for t in range(horizon):
        for x, i in enumerate(ids):
            for j in ids[x + 1 :]:
                pi, pj = solution[i], solution[j]
                if pi.at(t) == pj.at(t):
                    found.append(("vertex", i, j, pi.at(t), t))
                if (
                    t + 1 < horizon
                    and pi.at(t) != pi.at(t + 1)
                    and pi.at(t + 1) == pj.at(t)
                    and pj.at(t + 1) == pi.at(t)
                ):
                    found.append(("edge", i, j, (pi.at(t), pi.at(t + 1)), t))
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
    repeated = 0
    for _ in range(200):
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
        if rng.random() < 0.5:
            # two walks park on one cell: a vertex conflict at every step
            # from the later arrival up to the longest walk's end
            first, second = rng.sample(sorted(sol), 2)
            cells = sol[second].cells + [sol[first].cells[-1]]
            sol[second] = TimedPath(cells=cells, cost=0.0)
        ours = [(c.kind, *c.agents, c.location, c.time) for c in find_conflicts(sol)]
        naive = _naive_conflicts(sol)
        assert ours == naive
        vertices = [c[:4] for c in naive if c[0] == "vertex"]
        repeated += len(set(vertices)) < len(vertices)
    # location, order and multiplicity all count, parked pairs included
    assert repeated > 10, repeated


def _random_walk(rng, grid, free):
    cells = [rng.choice(free)]
    for _ in range(rng.randint(0, 8)):
        cells.append(rng.choice(grid.neighbors(cells[-1])))  # waits included
    return TimedPath(cells=cells, cost=0.0)


def test_child_conflicts_from_parent_equal_a_full_scan():
    rng = random.Random(12)
    grid = parse_map("map 4 4 10\nlayer flat 1\n" + "1 1 1 1\n" * 4)
    free = list(grid.passable_cells())
    seen = dict.fromkeys(
        ("wait", "parked", "swap", "following", "three", "ends-distinct", "ends-shared"),
        0,
    )
    for _ in range(400):
        ids = [f"m{i}" for i in range(rng.randint(3, 6))]
        parent = {i: _random_walk(rng, grid, free) for i in ids}
        changed = rng.choice(sorted(parent))
        child = dict(parent, **{changed: _random_walk(rng, grid, free)})
        if rng.random() < 0.5:
            # distinct ends for the others, as distinct goals give
            ends = rng.sample(free, len(child))
            for (i, p), end in zip(sorted(child.items()), ends):
                if i != changed:
                    child[i] = parent[i] = TimedPath(cells=p.cells + [end], cost=0.0)
        full = find_conflicts(child)
        derived = find_conflicts(child, parent=find_conflicts(parent), changed=changed)
        assert derived == full

        horizon = max(len(p) for p in child.values())
        at = [[p.at(t) for p in child.values()] for t in range(horizon + 1)]
        seen["wait"] += any(
            a == b for p in child.values() for a, b in zip(p.cells, p.cells[1:])
        )
        seen["parked"] += any(
            c.kind == "vertex" and c.time >= min(len(child[i]) for i in c.agents)
            for c in full
        )
        seen["swap"] += any(c.kind == "edge" for c in full)
        seen["following"] += any(
            a != b and a2 == b and b2 != b
            for t in range(horizon - 1)
            for a, a2 in zip(at[t], at[t + 1])
            for b, b2 in zip(at[t], at[t + 1])
        )
        seen["three"] += any(max(row.count(c) for c in row) >= 3 for row in at)
        ends = [p.cells[-1] for i, p in child.items() if i != changed]
        seen["ends-distinct" if len(set(ends)) == len(ends) else "ends-shared"] += 1
    # every case the detector must get right turned up more than once
    assert min(seen.values()) > 10, seen


def test_vertex_split_bans_both_agents():
    c = Conflict(kind="vertex", agents=("a", "b"), location=Cell(2, 2), time=3)
    ca, cb = _split_constraints(c)
    assert {ca.agent, cb.agent} == {"a", "b"}
    for x in (ca, cb):
        assert x.vertex == Cell(2, 2) and x.time == 3
        assert x.from_cell is None and not x.length_only and not x.onward


def test_vertex_split_on_parked_goal_uses_length_bound():
    """A conflict with a finished agent splits into arrival-delay vs detour."""
    c = Conflict(kind="vertex", agents=("a", "b"), location=Cell(2, 2), time=5)
    solution = {
        "a": TimedPath(cells=[Cell(0, 2), Cell(1, 2), Cell(2, 2)], cost=2.0),
        "b": TimedPath(cells=[Cell(2, 0)], cost=0.0),
    }
    bound, mover = _split_constraints(c, solution)
    assert bound.agent == "a" and bound.length_only
    assert bound.vertex == Cell(2, 2) and bound.time == 5 and not bound.onward
    assert mover == Constraint("b", Cell(2, 2), 5, onward=True)
    # the one ban keeps the mover off the cell at every step 5..horizon
    grid = _uniform_grid()
    per_step = [Constraint("b", Cell(2, 2), t) for t in range(5, 9)]
    for goal in grid.passable_cells():
        b = Agent(id="b", start=Cell(2, 0), goal=goal)
        found = []
        for constraints in ([mover], per_step):
            try:
                path = constrained_astar(grid, b, constraints, horizon=8)
                found.append((path.cells, path.cost))
            except Unreachable as exc:
                found.append(str(exc))
        assert found[0] == found[1]


def test_edge_split_bans_each_direction():
    c = Conflict(
        kind="edge",
        agents=("a", "b"),
        location=(Cell(1, 0), Cell(2, 0)),
        time=4,
    )
    ca, cb = _split_constraints(c)
    assert not ca.onward and not cb.onward
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
            solution = _initial_solution(grid, agents, SearchLimits())
        except UnsolvableError:
            continue
        frontier = [(solution, [])]
        for _ in range(4):  # a few CT levels deep
            nxt = []
            for sol, cons in frontier:
                conflicts = find_conflicts(sol)
                if not conflicts:
                    continue
                for con in _split_constraints(conflicts[0], sol):
                    child_cons = cons + [con]
                    agent = next(a for a in agents if a.id == con.agent)
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

    # a head-on pair and a cheap bystander: the cheaper of the pair is
    # admitted first, so the dearer one is deferred
    agents = _agents(((0, 0), (2, 0)), ((2, 0), (0, 0)), ((4, 4), (3, 4)))
    sol = {
        "a0": TimedPath(cells=[Cell(0, 0), Cell(1, 0), Cell(2, 0)], cost=2.0),
        "a1": TimedPath(cells=[Cell(2, 0), Cell(1, 0), Cell(0, 0)], cost=5.0),
        "a2": TimedPath(cells=[Cell(4, 4), Cell(3, 4)], cost=1.0),
    }
    assert find_conflicts(sol)
    assert apply_fallback(agents, sol, find_conflicts(sol), "low-cost") == ["a1"]


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


def test_scenario_rejects_a_bad_deadline_or_threshold():
    grid = _uniform_grid()
    agents = _agents(((0, 0), (1, 1)))
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="deadline must be"):
            Scenario(grid=grid, agents=agents, deadline_s=bad)
    with pytest.raises(ValueError, match="conflict threshold"):
        Scenario(grid=grid, agents=agents, conflict_threshold=-1)
    # a derived scenario is checked too, so `solve` never sees a NaN budget
    with pytest.raises(ValueError, match="deadline must be"):
        replace(archetype_scenario("archetype-1-open-20", 0), deadline_s=float("nan"))


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


@pytest.fixture
def table_builds(monkeypatch):
    """Every goal table the solver builds, as (grid, goal) pairs in order."""
    builds = []

    def counting(grid, goal):
        builds.append((grid, goal))
        return goal_distances(grid, goal)

    monkeypatch.setattr(cbs, "goal_distances", counting)
    return builds


def test_threshold_zero_solve_builds_no_goal_table(table_builds):
    # every attempt falls back at its first CT node, before any replanning
    result = solve(archetype_scenario("archetype-1-open-20", 0, conflict_threshold=0))
    assert result.removed_agents
    assert table_builds == []


def test_goal_tables_built_once_and_only_when_read(table_builds, monkeypatch):
    read = []

    def recording(grid, agent, *args, **kwargs):
        read.append(agent.goal)
        return constrained_astar(grid, agent, *args, **kwargs)

    monkeypatch.setattr(cbs, "constrained_astar", recording)
    grid = open_field(0, 10, 8)
    agents = random_agents(grid, 8, random.Random(0))
    scenario = Scenario(grid=grid, agents=agents, deadline_s=600, conflict_threshold=10_000)
    result = solve(scenario)
    # one attempt on one grid that replans some machines, not all
    assert result.status == "optimal"
    assert all(g is grid for g, _ in table_builds)
    built = [goal for _, goal in table_builds]
    assert len(built) == len(set(built))
    assert set(built) == set(read)
    assert 0 < len(built) < len(agents)


def test_each_constraint_set_is_searched_once_per_attempt(monkeypatch):
    # sibling CT nodes re-split the same conflicts: without the attempt's
    # path store this solve makes 1,006 searches for 57 distinct
    # (machine, own constraints) pairs
    searched = []

    def recording(grid, agent, constraints, *args, **kwargs):
        searched.append((grid, agent.id, frozenset(constraints)))
        return constrained_astar(grid, agent, constraints, *args, **kwargs)

    monkeypatch.setattr(cbs, "constrained_astar", recording)
    scenario = archetype_scenario("archetype-1-open-20", 5, deadline_s=600)
    result = solve(scenario)
    # one attempt: nothing was removed, so nothing fell back
    assert result.status == "optimal"
    assert find_conflicts(result.schedule) == []
    assert result.total_cost == pytest.approx(329)
    assert all(grid is scenario.grid for grid, _, _ in searched)
    # each search is handed its machine's own constraints and no others
    assert all(c.agent == i for _, i, constraints in searched for c in constraints)
    keys = [(i, constraints) for _, i, constraints in searched]
    assert len(keys) == len(set(keys)) == 57


def test_unknown_cells_do_not_count_toward_the_joint_space(monkeypatch):
    # 80 cells, 20 of them passable: 20 ** 3 joint positions are within
    # _COUPLED_SPACE, while 80 ** 3 (unknown cells counted free) are not
    rows = ["1 " * 10] * 2 + ["? " * 10] * 6
    grid = parse_map("map 10 8 10\nlayer ground 1\n" + "\n".join(rows) + "\n")
    assert len(list(grid.passable_cells())) ** 3 <= cbs._COUPLED_SPACE < 80**3
    agents = _agents(((0, 7), (9, 7)), ((9, 7), (0, 7)), ((0, 6), (9, 6)))
    joint = []

    def recording(grid, agents, *args):
        joint.append([a.id for a in agents])
        return _joint_search(grid, agents, *args)

    monkeypatch.setattr(cbs, "_COUPLED_AFTER", 0)
    monkeypatch.setattr(cbs, "_joint_search", recording)
    result = solve(Scenario(grid=grid, agents=agents, deadline_s=600))
    # the first expanded node hands the instance to the joint search
    assert joint == [["a0", "a1", "a2"]]
    assert result.status == "optimal"
    assert find_conflicts(result.schedule) == []
    assert result.total_cost == pytest.approx(joint_state_cost(grid, agents))


def test_joint_search_reads_tables_from_its_store(table_builds):
    rng = random.Random(23)
    done = 0
    while done < 5:
        grid = random_map(rng, max_side=4, obstacle_p=0.15)
        free = list(grid.passable_cells())
        if len(free) < 6:
            continue
        starts, goals = rng.sample(free, 3), rng.sample(free, 3)
        agents = [
            Agent(id=f"a{i}", start=starts[i], goal=goals[i], priority=1.0)
            for i in range(3)
        ]
        truth = joint_state_cost(grid, agents)
        if truth is None:
            continue
        store = _GoalTables(grid, SearchLimits())
        for a in agents:
            store[a.goal] = goal_distances(grid, a.goal)
        schedule = _joint_search(grid, agents, SearchLimits(), store)
        assert table_builds == []
        assert find_conflicts(schedule) == []
        assert sic(schedule) == pytest.approx(truth)
        done += 1


def test_stranded_cascade_blocks_each_round_in_one_map(monkeypatch):
    # threshold 0: the first attempt falls back at its root; parking
    # agent15 at its start covers agent6's goal, so agent6 goes too
    scenario = archetype_scenario(
        "archetype-3-obstacles", 2, conflict_threshold=0, deadline_s=600
    )
    by_id = {a.id: a for a in scenario.agents}
    assert by_id["agent15"].start == by_id["agent6"].goal == Cell(7, 11)
    blocked = []
    with_blocked = WeightedGridMap.with_blocked

    def counting_with_blocked(grid, cells):
        cells = set(cells)
        blocked.append(cells)
        return with_blocked(grid, cells)

    rounds = []

    def recording_fallback(agents, solution, conflicts, *args, **kwargs):
        rounds.append(list(conflicts))
        return apply_fallback(agents, solution, conflicts, *args, **kwargs)

    monkeypatch.setattr(WeightedGridMap, "with_blocked", counting_with_blocked)
    monkeypatch.setattr(cbs, "apply_fallback", recording_fallback)
    result = solve(scenario)

    assert result.status == "feasible_after_removal"
    assert result.removed_agents == ["agent15", "agent6"]
    for agent_id in result.removed_agents:
        assert result.schedule[agent_id].cells == [by_id[agent_id].start]
    assert find_conflicts(result.schedule) == []
    assert len(rounds) == 1
    assert blocked == [{by_id["agent15"].start, by_id["agent6"].start}]
    # the round was handed exactly the root conflicts of the first attempt
    assert rounds[0] == find_conflicts(
        _initial_solution(scenario.grid, scenario.agents, SearchLimits())
    )


@pytest.mark.parametrize("second_attempt", ["deadline", "coupled"])
def test_reaching_the_deadline_stops_the_fleet_at_once(monkeypatch, second_attempt):
    # threshold 0: the first attempt falls back at its root; the second
    # reaches the deadline in the tree, or in the joint search it hands to
    scenario = archetype_scenario(
        "archetype-1-open-20", 0, conflict_threshold=0, deadline_s=600
    )
    attempts = []
    search_ct = cbs._search_ct

    def second_reaches_deadline(*args):
        attempts.append(args[1])
        if len(attempts) == 2:
            if second_attempt == "deadline":
                raise DeadlineExceeded()
            raise cbs._FallbackNeeded(second_attempt)
        return search_ct(*args)

    def joint_reaches_deadline(*args):
        raise DeadlineExceeded()

    rounds = []

    def recording_fallback(*args, **kwargs):
        rounds.append(apply_fallback(*args, **kwargs))
        return rounds[-1]

    monkeypatch.setattr(cbs, "_search_ct", second_reaches_deadline)
    monkeypatch.setattr(cbs, "_joint_search", joint_reaches_deadline)
    monkeypatch.setattr(cbs, "apply_fallback", recording_fallback)
    result = solve(scenario)

    assert len(attempts) == 2
    assert result.status == "stop_all"
    assert result.total_cost == 0.0
    for agent in scenario.agents:
        assert result.schedule[agent.id].cells == [agent.start]
    # one removal round, for the first attempt's threshold, and no other
    assert len(rounds) == 1 and rounds[0]
    # the whole fleet waits, so the stop-all lists no removed machine
    assert result.removed_agents == []
    assert [a.id for a in attempts[1]] == [
        a.id for a in scenario.agents if a.id not in rounds[0]
    ]


def test_a_deadline_gives_the_far_plan_or_stop_all(monkeypatch):
    # 5 s is 800 reads of the step clock: the bridge solves need fewer
    # (seeds 3 and 7 more than 400, so an attempt given half the budget
    # would be cut), the archetype-2 solves more. A stop-all needs no far
    # plan to compare with, so none is solved
    def outcome(result):
        paths = {i: p.cells for i, p in result.schedule.items()}
        return result.status, result.removed_agents, paths

    clock = StepClock(5.0 / 800)
    monkeypatch.setattr(cbs, "time", clock)
    monkeypatch.setattr(lowlevel, "time", clock)
    kept = stopped = 0
    for name in ("archetype-2-open-50", "archetype-4-bridge"):
        for seed in range(10):
            near = outcome(solve(archetype_scenario(name, seed, deadline_s=5)))
            if near[0] == "stop_all":
                stopped += 1
                continue
            far = outcome(solve(archetype_scenario(name, seed, deadline_s=600)))
            assert near == far, (name, seed)
            kept += 1
    assert kept and stopped


def test_a_deadline_in_the_initial_proposals_stops_the_fleet(monkeypatch):
    # one clock read starts the solve and one comes before each proposal:
    # 10 s on a clock that advances 1 s a read is spent at the tenth
    clock = StepClock(1.0)
    monkeypatch.setattr(cbs, "time", clock)
    monkeypatch.setattr(lowlevel, "time", clock)
    proposed = []
    searched = []
    search_ct = cbs._search_ct

    def recording_proposal(grid, start, goal):
        proposed.append(start)
        return bidirectional_astar(grid, start, goal)

    def recording_search(*args):
        searched.append(args)
        return search_ct(*args)

    monkeypatch.setattr(cbs, "bidirectional_astar", recording_proposal)
    monkeypatch.setattr(cbs, "_search_ct", recording_search)
    scenario = archetype_scenario("archetype-2-open-50", 0, deadline_s=10)
    result = solve(scenario)

    assert 0 < len(proposed) < len(scenario.agents)
    assert searched == []
    assert result.status == "stop_all"
    assert result.removed_agents == []
    for agent in scenario.agents:
        assert result.schedule[agent.id].cells == [agent.start]


def test_a_goal_table_is_not_built_past_the_deadline(table_builds):
    grid = _uniform_grid()
    tables = _GoalTables(grid, SearchLimits(deadline=-math.inf))
    with pytest.raises(DeadlineExceeded):
        tables[Cell(4, 4)]
    assert table_builds == []
