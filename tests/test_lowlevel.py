"""Single-agent searches: bidirectional and time-expanded constrained."""

import math
import random
from dataclasses import replace

import pytest

import sitepath.cbs as cbs
import sitepath.lowlevel as lowlevel
from sitepath.grid import Cell, parse_map
from sitepath.lowlevel import (
    Agent,
    BlockedGoalTable,
    Constraint,
    DeadlineExceeded,
    SearchLimits,
    TimedPath,
    Unreachable,
    balanced_heuristics,
    bidirectional_astar,
    constrained_astar,
    default_horizon,
    goal_distances,
    heuristic,
    manhattan,
    path_cost,
    start_distances,
)
from oracles import (
    all_goal_costs,
    all_start_costs,
    dijkstra_cost,
    enumerate_timed_paths,
    random_free_cell,
    random_map,
)
from scenarios import StepClock

UNIFORM = "map 5 5 10\nlayer flat 1\n" + "\n".join(["1 1 1 1 1"] * 5) + "\n"

CORRIDOR = """\
map 5 3 10
layer ground 1
# # # # #
1 1 1 1 1
# # # # #
"""


def _random_pair(grid, rng):
    start = random_free_cell(grid, rng)
    goal = random_free_cell(grid, rng)
    return start, goal


def test_heuristic_is_manhattan_times_cheapest_cell():
    grid = parse_map(UNIFORM)
    assert heuristic(grid, Cell(0, 0), Cell(4, 3)) == 7.0
    assert manhattan(Cell(1, 2), Cell(4, 0)) == 5


def test_heuristic_admissible_on_random_maps():
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        grid = random_map(rng)
        goal = random_free_cell(grid, rng)
        if goal is None:
            continue
        truth = all_goal_costs(grid, goal)
        for cell, cost in truth.items():
            assert heuristic(grid, cell, goal) <= cost + 1e-9
            checked += 1


def test_balanced_heuristics_sum_to_zero():
    rng = random.Random(41)
    for _ in range(20):
        grid = random_map(rng)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None:
            continue
        for c in grid.passable_cells():
            h_f, h_r = balanced_heuristics(grid, c, start, goal)
            assert h_f + h_r == pytest.approx(0.0, abs=1e-9)


def test_bidirectional_simple_line():
    grid = parse_map(CORRIDOR)
    cells, cost = bidirectional_astar(grid, Cell(0, 1), Cell(4, 1))
    assert cells == [Cell(x, 1) for x in range(5)]
    assert cost == 4.0  # start cell is free, four cells entered


def test_bidirectional_start_equals_goal():
    grid = parse_map(UNIFORM)
    cells, cost = bidirectional_astar(grid, Cell(2, 2), Cell(2, 2))
    assert cells == [Cell(2, 2)]
    assert cost == 0.0


def test_bidirectional_unreachable():
    grid = parse_map(
        "map 3 1 10\nlayer g 1\n1 # 1\n"
    )
    with pytest.raises(Unreachable):
        bidirectional_astar(grid, Cell(0, 0), Cell(2, 0))


def test_bidirectional_matches_dijkstra_property():
    """Core optimality check against an independent Dijkstra."""
    rng = random.Random(97)
    done = 0
    while done < 150:
        grid = random_map(rng)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None:
            continue
        truth = dijkstra_cost(grid, start, goal)
        try:
            cells, cost = bidirectional_astar(grid, start, goal)
        except Unreachable:
            assert truth is None
            done += 1
            continue
        assert truth is not None
        assert cost == pytest.approx(truth)
        assert cost == pytest.approx(path_cost(grid, cells))
        assert cells[0] == start and cells[-1] == goal
        done += 1


def test_path_cost_charges_entered_cells_only():
    grid = parse_map(SAMPLE_WEIGHTED)
    cells = [Cell(0, 0), Cell(1, 0), Cell(1, 0), Cell(2, 0)]
    # start free; wait re-charges the occupied cell
    expected = grid.cell_cost(Cell(1, 0)) * 2 + grid.cell_cost(Cell(2, 0))
    assert path_cost(grid, cells) == pytest.approx(expected)
    assert path_cost(grid, cells, priority=3.0) == pytest.approx(3 * expected)


SAMPLE_WEIGHTED = """\
map 3 2 10
layer rough 1
5 9 1
1 5 9
"""


def _index(grid, cell):
    return cell.y * grid.width + cell.x


def test_goal_distances_match_reference():
    rng = random.Random(13)
    for _ in range(40):
        grid = random_map(rng)
        goal = random_free_cell(grid, rng)
        if goal is None:
            continue
        ours = goal_distances(grid, goal)
        truth = all_goal_costs(grid, goal)
        for cell in grid.cells():
            assert ours[_index(grid, cell)] == pytest.approx(truth.get(cell, math.inf))


def test_goal_table_is_inf_exactly_where_the_goal_is_out_of_reach():
    """A table holds one entry per cell; obstacles, unknown cells and
    pockets cut off from the goal read inf, and nothing else does."""
    rng = random.Random(29)
    seen = {"obstacle": 0, "unknown": 0, "pocket": 0}
    for _ in range(60):
        grid = random_map(rng)
        free = list(grid.passable_cells())
        # mark a few passable cells as having no data in the first layer
        unknown = frozenset(rng.sample(free, min(len(free) - 1, rng.randint(0, 4))))
        first = replace(grid.layers[0], unknown=unknown)
        grid = replace(grid, layers=(first,) + grid.layers[1:])
        goal = random_free_cell(grid, rng)
        if goal is None:
            continue
        table = goal_distances(grid, goal)
        truth = all_goal_costs(grid, goal)
        assert len(table) == grid.width * grid.height
        out_of_reach = {_index(grid, c) for c in grid.cells() if c not in truth}
        assert {i for i, v in enumerate(table) if v == math.inf} == out_of_reach
        for cell in grid.cells():
            if cell in grid.obstacles:
                seen["obstacle"] += 1
            elif cell in unknown:
                seen["unknown"] += 1
            elif cell not in truth:
                seen["pocket"] += 1
    assert all(seen.values()), seen


def test_start_distances_match_reference():
    rng = random.Random(17)
    for _ in range(40):
        grid = random_map(rng)
        start = random_free_cell(grid, rng)
        if start is None:
            continue
        ours = start_distances(grid, start)
        truth = all_start_costs(grid, start)
        assert set(ours) == set(truth)
        for cell, v in truth.items():
            assert ours[cell] == pytest.approx(v)
        blocked = [c for c in grid.cells() if not grid.is_passable(c)]
        if blocked:
            assert start_distances(grid, rng.choice(blocked)) == {}


def test_blocked_goal_table_matches_reference():
    """The lazy table equals a full Dijkstra on the map with the cells
    removed, whatever order the cells are asked in."""
    rng = random.Random(19)
    done = banned_goals = unreachable = 0
    while done < 60:
        grid = random_map(rng)
        goal = random_free_cell(grid, rng)
        if goal is None:
            continue
        free = list(grid.passable_cells())
        cells = set(rng.sample(free, min(len(free), rng.randint(1, 6))))
        if done % 5 == 0:
            cells.add(goal)
        cells = frozenset(cells)
        truth = all_goal_costs(grid.with_blocked(cells), goal)
        table = BlockedGoalTable(grid, goal, frozenset(_index(grid, c) for c in cells))
        queries = list(grid.cells())
        rng.shuffle(queries)
        for cell in queries:
            expected = truth.get(cell, math.inf)
            assert table.distance(_index(grid, cell)) == pytest.approx(expected)
        banned_goals += goal in cells
        unreachable += any(c not in truth for c in grid.passable_cells())
        done += 1
    assert banned_goals and unreachable


def test_blocked_goal_table_resumes_after_deadline(monkeypatch):
    """A deadline raised while settling leaves a table that later queries
    finish correctly; settling is not counted as expansions."""
    rng = random.Random(23)
    done = 0
    while done < 20:
        grid = random_map(rng)
        goal = random_free_cell(grid, rng)
        if goal is None or sum(1 for _ in grid.passable_cells()) < 8:
            continue
        cells = frozenset(rng.sample(list(grid.passable_cells()), 2)) - {goal}
        truth = all_goal_costs(grid.with_blocked(cells), goal)
        if len(truth) < 6:  # the deadline must come before the last cell
            continue
        table = BlockedGoalTable(grid, goal, frozenset(_index(grid, c) for c in cells))
        # one clock read per check: the second check, at the fourth
        # settled cell, reaches the deadline
        monkeypatch.setattr(lowlevel, "time", StepClock(1.0))
        limits = SearchLimits(deadline=2.0, stride=2)
        far = max(truth, key=truth.get)
        with pytest.raises(DeadlineExceeded):
            table.distance(_index(grid, far), limits)
        assert limits.expansions == 0
        queries = list(grid.cells())
        rng.shuffle(queries)
        for cell in queries:
            expected = truth.get(cell, math.inf)
            assert table.distance(_index(grid, cell)) == pytest.approx(expected)
        done += 1


def _ban_from(cell, t, horizon):
    """The target split's shape: `m` stays off `cell` from `t` on."""
    return [Constraint(agent="m", vertex=cell, time=tt) for tt in range(t, horizon + 1)]


def test_ban_to_horizon_versus_enumeration():
    """Bans that run to the horizon change neither the optimum nor the
    verdict, against brute force on tiny maps."""
    rng = random.Random(73)
    found = unreachable = 0
    while found + unreachable < 40:
        grid = random_map(rng, max_side=3, obstacle_p=0.1)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None or start == goal:
            continue
        agent = Agent(id="m", start=start, goal=goal, priority=1.0)
        horizon = 7
        constraints = []
        for _ in range(rng.randint(1, 2)):
            constraints += _ban_from(
                random_free_cell(grid, rng), rng.randint(1, 5), horizon
            )
        for _ in range(rng.randint(0, 2)):
            constraints.append(
                Constraint(
                    agent="m", vertex=random_free_cell(grid, rng), time=rng.randint(1, 4)
                )
            )
        candidates = enumerate_timed_paths(grid, agent, constraints, horizon)
        try:
            timed = constrained_astar(grid, agent, constraints, horizon=horizon)
        except Unreachable:
            assert not candidates
            unreachable += 1
            continue
        assert candidates
        assert timed.cost == pytest.approx(min(path_cost(grid, p) for p in candidates))
        assert timed.cost == pytest.approx(path_cost(grid, timed.cells))
        found += 1
    assert found and unreachable


WALL = """\
map 9 5 10
layer ground 1
1 1 1 1 # 1 1 1 1
1 1 1 1 # 1 1 1 1
1 1 1 1 1 1 1 1 1
1 1 1 1 # 1 1 1 1
1 1 1 1 # 1 1 1 1
"""


def test_banned_crossing_is_proved_unreachable_at_once():
    """Banning a wall's one crossing from t on ends the search once the
    states before t run out: at most one expansion per (cell, t) with
    t < 6, where a search to the horizon (t = 56) takes over a thousand."""
    grid = parse_map(WALL)
    crossing = Cell(4, 2)
    agent = Agent(id="m", start=Cell(0, 0), goal=Cell(8, 4), priority=1.0)
    horizon = default_horizon(grid)
    n_free = sum(1 for _ in grid.passable_cells())
    for t in (4, 5, 6):  # the crossing is 6 steps from the start
        limits = SearchLimits()
        with pytest.raises(Unreachable):
            constrained_astar(grid, agent, _ban_from(crossing, t, horizon), limits=limits)
        assert limits.expansions <= n_free * 6
    # a cell banned from earlier on does not make the crossing a wall
    # before its own ban starts
    for early in ([], _ban_from(Cell(0, 4), 1, horizon)):
        timed = constrained_astar(grid, agent, early + _ban_from(crossing, 7, horizon))
        assert timed.at(6) == crossing and timed.cost == pytest.approx(12.0)


def _per_step(constraints, horizon):
    """Each onward ban written out as one ban per step `time ..
    max(horizon, time)`, the form the target split used to build."""
    out = []
    for con in constraints:
        if con.onward:
            last = max(horizon, con.time)
            out += [con._replace(time=t, onward=False) for t in range(con.time, last + 1)]
        else:
            out.append(con)
    return out


def test_onward_ban_equals_its_per_step_expansion():
    """One onward ban searches exactly like its bans per step: the same
    path, cost, `Unreachable` message and expansion count."""
    rng = random.Random(83)
    seen = dict.fromkeys(
        ("goal", "at-horizon", "past-horizon", "off-map", "other-agent", "short",
         "default", "shared", "unreachable", "walls"),
        0,
    )
    for _ in range(2400):
        grid = random_map(rng, max_side=4, obstacle_p=0.15)
        start, goal = _random_pair(grid, rng)
        if start is None:
            continue
        agent = Agent(id="m", start=start, goal=goal, priority=rng.choice((1.0, 2.5)))
        horizon = rng.choice((rng.randint(2, 6), None))
        h = default_horizon(grid) if horizon is None else horizon
        constraints = []
        for _ in range(rng.randint(1, 3)):
            cell = rng.choice(
                (goal, random_free_cell(grid, rng), Cell(grid.width, rng.randrange(2)))
            )
            t = rng.choice((rng.randint(0, 6), h, h + rng.randint(1, 2)))
            constraints.append(Constraint(rng.choice("mmmx"), cell, t, onward=True))
        for _ in range(rng.randint(0, 2)):
            constraints.append(
                Constraint("m", random_free_cell(grid, rng), rng.randint(1, 5))
            )
        expanded = _per_step(constraints, h)
        tables = cbs._GoalTables(grid, SearchLimits()) if rng.random() < 0.5 else None
        outcomes = []
        for form in (constraints, expanded):
            limits = SearchLimits()
            kwargs = {}
            if tables is not None:
                kwargs = dict(h_map=tables[goal], blocked_tables=tables.blocked)
            try:
                timed = constrained_astar(
                    grid, agent, form, horizon=horizon, limits=limits, **kwargs
                )
                outcome = (timed.cells, timed.cost)
            except Unreachable as exc:
                outcome = str(exc)
            outcomes.append((outcome, limits.expansions))
        assert outcomes[0] == outcomes[1], (constraints, horizon)

        mine = [c for c in constraints if c.agent == "m"]
        seen["goal"] += any(c.vertex == goal for c in mine)
        seen["at-horizon"] += any(c.time == h for c in mine)
        seen["past-horizon"] += any(c.time > h for c in mine)
        seen["off-map"] += any(not grid.in_bounds(c.vertex) for c in mine)
        seen["other-agent"] += len(mine) < len(constraints)
        seen["short" if horizon is not None else "default"] += 1
        seen["shared"] += tables is not None and bool(tables._blocked)
        seen["unreachable"] += isinstance(outcomes[0][0], str)
        seen["walls"] += any(
            c.time <= h and grid.in_bounds(c.vertex) and c.vertex != goal for c in mine
        )
    assert min(seen.values()) > 50, seen


def test_constrained_equals_bidirectional_without_constraints():
    rng = random.Random(53)
    done = 0
    while done < 60:
        grid = random_map(rng, max_side=8)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None:
            continue
        try:
            _, free_cost = bidirectional_astar(grid, start, goal)
        except Unreachable:
            done += 1
            continue
        agent = Agent(id="a", start=start, goal=goal, priority=1.0)
        timed = constrained_astar(grid, agent)
        assert timed.cost == pytest.approx(free_cost)
        assert timed.cost == pytest.approx(path_cost(grid, timed.cells))
        done += 1


def test_priority_scales_cost_not_path_choice():
    rng = random.Random(59)
    for _ in range(25):
        grid = random_map(rng, max_side=7)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None:
            continue
        base = Agent(id="a", start=start, goal=goal, priority=1.0)
        heavy = Agent(id="a", start=start, goal=goal, priority=4.0)
        try:
            p1 = constrained_astar(grid, base)
        except Unreachable:
            continue
        p4 = constrained_astar(grid, heavy)
        assert p4.cost == pytest.approx(4.0 * p1.cost)
        assert p4.cells == p1.cells  # deterministic tie-breaking


def test_constrained_respects_vertex_constraint():
    grid = parse_map(CORRIDOR)
    agent = Agent(id="m", start=Cell(0, 1), goal=Cell(4, 1), priority=1.0)
    blocked = Constraint(agent="m", vertex=Cell(2, 1), time=2)
    timed = constrained_astar(grid, agent, [blocked])
    assert timed.at(2) != Cell(2, 1)
    assert timed.cells[-1] == Cell(4, 1)
    # only way through a corridor is to wait one step somewhere
    assert timed.cost == pytest.approx(5.0)


def test_constrained_respects_edge_constraint():
    grid = parse_map(UNIFORM)
    agent = Agent(id="m", start=Cell(0, 0), goal=Cell(2, 0), priority=1.0)
    no_move = Constraint(
        agent="m", vertex=Cell(1, 0), time=1, from_cell=Cell(0, 0)
    )
    timed = constrained_astar(grid, agent, [no_move])
    assert not (timed.at(0) == Cell(0, 0) and timed.at(1) == Cell(1, 0))
    assert timed.cells[-1] == Cell(2, 0)


def test_constraints_for_other_agents_are_ignored():
    grid = parse_map(CORRIDOR)
    agent = Agent(id="m", start=Cell(0, 1), goal=Cell(4, 1), priority=1.0)
    other = Constraint(agent="x", vertex=Cell(2, 1), time=2)
    timed = constrained_astar(grid, agent, [other])
    assert timed.cost == pytest.approx(4.0)


def test_goal_pinned_by_late_constraint():
    """The agent may not settle on the goal while a later ban is pending."""
    grid = parse_map(UNIFORM)
    agent = Agent(id="m", start=Cell(0, 0), goal=Cell(1, 0), priority=1.0)
    late = Constraint(agent="m", vertex=Cell(1, 0), time=3)
    timed = constrained_astar(grid, agent, [late])
    assert timed.at(3) != Cell(1, 0)
    assert timed.cells[-1] == Cell(1, 0)
    assert len(timed.cells) >= 5  # cannot finish before t=4


def test_constrained_optimal_versus_enumeration():
    """Brute-force every timed path on tiny maps and compare optima."""
    rng = random.Random(71)
    done = 0
    while done < 25:
        grid = random_map(rng, max_side=3, obstacle_p=0.1)
        start, goal = _random_pair(grid, rng)
        if start is None or goal is None or start == goal:
            continue
        agent = Agent(id="m", start=start, goal=goal, priority=1.0)
        constraints = []
        for _ in range(rng.randint(0, 3)):
            cell = random_free_cell(grid, rng)
            constraints.append(
                Constraint(agent="m", vertex=cell, time=rng.randint(1, 4))
            )
        horizon = 8
        candidates = enumerate_timed_paths(grid, agent, constraints, horizon)
        best = (
            min(path_cost(grid, p) for p in candidates) if candidates else None
        )
        try:
            timed = constrained_astar(grid, agent, constraints, horizon=horizon)
        except Unreachable:
            assert best is None
            done += 1
            continue
        assert best is not None
        assert timed.cost == pytest.approx(best)
        done += 1


def test_constraints_with_equal_fields_are_one_key():
    a = Constraint(agent="m", vertex=Cell(2, 1), time=3)
    b = Constraint("m", Cell(2, 1), 3, None, False)
    assert a == b and hash(a) == hash(b)
    assert a != Constraint(agent="m", vertex=Cell(2, 1), time=3, from_cell=Cell(1, 1))
    assert a != Constraint(agent="m", vertex=Cell(2, 1), time=3, length_only=True)
    rng = random.Random(79)
    fields = [
        dict(
            agent=rng.choice("mx"),
            vertex=Cell(rng.randrange(4), rng.randrange(4)),
            time=rng.randrange(6),
            from_cell=rng.choice((None, Cell(0, 0))),
            length_only=rng.random() < 0.2,
        )
        for _ in range(30)
    ]
    forward = frozenset(Constraint(**f) for f in fields)
    backward = frozenset(Constraint(**f) for f in reversed(fields))
    assert forward == backward and hash(forward) == hash(backward)
    paths = {("m", forward): "stored"}
    assert paths[("m", backward)] == "stored"


def test_timed_path_goal_stay():
    p = TimedPath(cells=[Cell(0, 0), Cell(1, 0)], cost=1.0)
    assert p.at(0) == Cell(0, 0)
    assert p.at(1) == Cell(1, 0)
    assert p.at(99) == Cell(1, 0)
    assert len(p) == 2


def test_default_horizon():
    grid = parse_map(UNIFORM)
    assert default_horizon(grid) == 4 * (5 + 5)


def test_horizon_limits_search():
    grid = parse_map(CORRIDOR)
    agent = Agent(id="m", start=Cell(0, 1), goal=Cell(4, 1), priority=1.0)
    with pytest.raises(Unreachable):
        constrained_astar(grid, agent, horizon=2)


def test_search_limits_abort(monkeypatch):
    grid = parse_map(UNIFORM)
    agent = Agent(id="m", start=Cell(0, 0), goal=Cell(4, 4), priority=1.0)
    monkeypatch.setattr(lowlevel, "time", StepClock(1.0))
    limits = SearchLimits(deadline=1.0, stride=1)
    with pytest.raises(DeadlineExceeded):
        constrained_astar(grid, agent, limits=limits)


def test_agent_requires_positive_priority():
    for priority in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Agent(id="m", start=Cell(0, 0), goal=Cell(1, 0), priority=priority)
