"""Tests for the benchmark's output checker.

    python3 -m pytest benchmark/test_checker.py -q

Each fault class the checker must catch gets a schedule broken on
purpose; a correct schedule must pass.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
from checker import CheckError, Machine, Plan  # noqa: E402

# y = 0 is the bottom row; the first grid row in the file is the top
SITE_TEXT = """\
map 5 3 10
layer ground 1
1 1 1 1 1
1 1 # 1 1
1 1 1 1 1
layer slope 2
1 5 1 1 1
1 1 0 1 1
1 1 1 1 1
danger 4 2 3
"""

A = Machine("a", (0, 0), (4, 0))
B = Machine("b", (0, 2), (4, 2), priority=2.0)


def site():
    return checker.site_from_text(SITE_TEXT)


def priced(s, machines, paths, status="optimal", **kw) -> Plan:
    prio = {m.id: m.priority for m in machines}
    costs = {a: prio[a] * sum(s.cost.get(c, 0.0) for c in p[1:]) for a, p in paths.items()}
    return Plan(status=status, paths=paths, costs=costs, total=sum(costs.values()), **kw)


def good_paths():
    return {
        "a": [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)],
        "b": [(0, 2), (0, 1), (1, 1), (1, 2), (2, 2), (3, 2), (4, 2)],
    }


def test_prices_follow_layers_multipliers_and_danger():
    s = site()
    assert (2, 1) not in s.cost
    # ground 1 + 2 * slope 5 + danger 3 / distance 3
    assert s.cost[(1, 2)] == pytest.approx(1 + 2 * 5 + 3 / 3)
    assert s.cost[(4, 2)] == pytest.approx(1 + 2 * 1 + 3 / 1)


def test_correct_plan_passes():
    s = site()
    paths = good_paths()
    paths["b"] = checker.shortest(s, B.start, B.goal)[1]
    assert checker.check_plan(s, [A, B], priced(s, [A, B], paths)) == 2


@pytest.mark.parametrize(
    "fault, message",
    [
        ("jump", "jumps"),
        ("obstacle", "blocked"),
        ("swap", "swap"),
        ("vertex", "vertex"),
        ("cost", "reported cost"),
        ("total", "total cost"),
        ("start", "begin"),
        ("goal", "not its goal"),
    ],
)
def test_broken_schedules_are_rejected(fault, message):
    s = site()
    machines = [A, B]
    paths = good_paths()
    paths["b"] = checker.shortest(s, B.start, B.goal)[1]
    status = "feasible_after_removal"
    if fault == "jump":
        paths["a"] = [(0, 0), (2, 0), (3, 0), (4, 0)]
    elif fault == "obstacle":
        paths["a"] = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 0), (4, 0)]
    elif fault == "swap":
        machines = [Machine("c", (0, 1), (1, 1)), Machine("d", (1, 1), (0, 1))]
        paths = {"c": [(0, 1), (1, 1)], "d": [(1, 1), (0, 1)]}
    elif fault == "vertex":
        machines = [Machine("c", (0, 0), (1, 0)), Machine("d", (1, 1), (1, 0))]
        paths = {"c": [(0, 0), (1, 0)], "d": [(1, 1), (1, 0)]}
    elif fault == "start":
        paths["a"] = paths["a"][1:]
    elif fault == "goal":
        paths["a"] = paths["a"][:-1]
    plan = priced(s, machines, paths, status=status)
    if fault == "cost":
        plan.costs["a"] += 1.0
        plan.total += 1.0
    elif fault == "total":
        plan.total += 1.0
    with pytest.raises(CheckError, match=message):
        checker.check_plan(s, machines, plan)


def test_goal_stay_clash_is_a_vertex_clash():
    s = site()
    machines = [Machine("c", (0, 0), (2, 0)), Machine("d", (3, 0), (1, 0))]
    paths = {
        "c": [(0, 0), (1, 0), (2, 0)],  # parks on (2, 0) from t = 2
        "d": [(3, 0), (3, 0), (3, 0), (2, 0), (1, 0)],  # passes it at t = 3
    }
    with pytest.raises(CheckError, match="vertex"):
        checker.check_plan(s, machines, priced(s, machines, paths, "feasible_after_removal"))


def test_removed_machine_must_wait_at_start():
    s = site()
    paths = good_paths()
    paths["b"] = [(0, 2)]
    plan = priced(s, [A, B], paths, "feasible_after_removal", removed={"b"})
    assert checker.check_plan(s, [A, B], plan) == 1
    plan.paths["b"] = [(0, 2), (0, 1)]
    plan = priced(s, [A, B], plan.paths, "feasible_after_removal", removed={"b"})
    with pytest.raises(CheckError, match="moves"):
        checker.check_plan(s, [A, B], plan)


def test_optimal_plan_must_reach_the_conflict_free_optimum():
    s = site()
    paths = good_paths()
    paths["b"] = checker.shortest(s, B.start, B.goal)[1]
    # a wait on the way: valid and collision-free, but not optimal
    paths["a"] = [(0, 0), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    plan = priced(s, [A, B], paths, "optimal")
    with pytest.raises(CheckError, match="optimal"):
        checker.check_plan(s, [A, B], plan)
    plan.status = "feasible_after_removal"
    assert checker.check_plan(s, [A, B], plan) == 2


def test_files_must_agree():
    doc = (
        '{"status": "optimal", "total_cost": 1.0, "removed_agents": [], '
        '"midway_goals": {}, "costs": {"a": 1.0}, "schedule": {"a": [[0, 0], [1, 0]]}}'
    )
    same = "agent name,start,1\na,\"[0, 0]\",\"[1, 0]\"\n"
    other = "agent name,start,1\na,\"[0, 0]\",\"[0, 1]\"\n"
    assert checker.plan_from_files(doc, same).paths == {"a": [(0, 0), (1, 0)]}
    with pytest.raises(CheckError, match="disagree"):
        checker.plan_from_files(doc, other)


CORRIDOR = """\
map 5 2 10
layer ground 1
# # 1 # #
1 1 1 1 1
"""


def test_midway_skips_cells_that_cut_someone_off():
    s = checker.site_from_text(CORRIDOR)
    mover = Machine("m", (1, 0), (4, 0))
    waiting = Machine("w", (0, 0), (4, 0))  # removed: planned to wait in place
    planned = {"w": [(0, 0)]}
    # every corridor cell cuts w off from its goal; only the pocket is safe
    assert checker.expected_midway(s, [mover, waiting], "m", planned) == (2, 1)
    checker.check_midway(s, [mover, waiting], "m", planned, (2, 1))
    with pytest.raises(CheckError, match="midway"):
        checker.check_midway(s, [mover, waiting], "m", planned, (1, 0))


def test_midway_avoids_planned_paths_and_breaks_ties_by_y_then_x():
    s = checker.site_from_text("map 3 3 10\nlayer g 1\n1 1 1\n1 1 1\n1 1 1\n")
    mover = Machine("m", (1, 1), (0, 0))
    other = Machine("o", (0, 0), (2, 2))
    planned = {"o": [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]}
    # (1, 1) is on o's path; of the cost-1 cells (0, 1) and (2, 1) are free
    assert checker.expected_midway(s, [mover, other], "m", planned) == (0, 1)
    with pytest.raises(CheckError):
        checker.check_midway(s, [mover, other], "m", planned, (2, 1))


def test_site_prices_match_the_map_files_the_program_writes():
    from sitepath.grid import parse_map, serialize_map
    from sitepath.mapgen import archetype_scenario

    texts = [SITE_TEXT] + [
        serialize_map(archetype_scenario(name, 1).grid)
        for name in ("archetype-3-obstacles", "archetype-5-mining")
    ]
    for text in texts:
        grid = parse_map(text)
        want = {(c.x, c.y): grid.cell_cost(c) for c in grid.passable_cells()}
        assert checker.site_from_text(text).cost == want
        assert checker.site_from_grid(grid).cost == want


def test_solver_plans_pass():
    from sitepath.cbs import solve
    from sitepath.mapgen import archetype_scenario

    scenario = archetype_scenario("archetype-5-mining", 0)
    result = solve(scenario)
    machines = [
        Machine(a.id, (a.start.x, a.start.y), (a.goal.x, a.goal.y), a.priority)
        for a in scenario.agents
    ]
    plan = checker.plan_from_result(result)
    s = checker.site_from_grid(scenario.grid)
    assert checker.check_plan(s, machines, plan) == len(machines) - len(plan.removed)
    assert not math.isnan(plan.total)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
