"""Conflict statistics and site-optimization advisories."""

import time

import pytest

from sitepath.analysis import (
    ConflictStats,
    LayoutSuggestion,
    apply_layout_suggestion,
    collect_stats,
    stats_from_results,
    suggest_layout,
    suggest_removal,
)
from sitepath.cbs import Conflict, PlanResult, Scenario, find_conflicts, solve
from sitepath.grid import Cell, parse_map
from sitepath.lowlevel import Agent
from sitepath.mapgen import bottleneck_scenario


def _result(conflicts):
    return PlanResult(
        schedule={},
        removed_agents=[],
        conflict_log=conflicts,
        elapsed_initial_s=0.0,
        elapsed_update_s=0.0,
        status="optimal",
    )


def _vc(a, b, cell, t, phase="initial"):
    return Conflict(kind="vertex", agents=(a, b), location=cell, time=t, phase=phase)


def _ec(a, b, ca, cb, t, phase="update"):
    return Conflict(kind="edge", agents=(a, b), location=(ca, cb), time=t, phase=phase)


def test_stats_average_over_runs():
    r1 = _result([_vc("a", "b", Cell(2, 2), 1), _vc("a", "c", Cell(3, 3), 2, "update")])
    r2 = _result([_vc("a", "b", Cell(2, 2), 1)])
    stats = stats_from_results([r1, r2])
    assert stats.runs == 2
    assert stats.vertex_counts[Cell(2, 2)] == pytest.approx(1.0)
    assert stats.vertex_counts[Cell(3, 3)] == pytest.approx(0.5)
    assert stats.per_agent["a"] == (pytest.approx(1.0), pytest.approx(0.5))
    assert stats.agent_total("a") == pytest.approx(1.5)
    assert stats.agent_total("b") == pytest.approx(1.0)
    assert stats.vertex_by_phase["initial"][Cell(2, 2)] == pytest.approx(1.0)
    assert stats.vertex_by_phase["update"][Cell(3, 3)] == pytest.approx(0.5)


def test_edge_locations_are_canonicalized():
    r = _result(
        [
            _ec("a", "b", Cell(1, 0), Cell(2, 0), 1),
            _ec("c", "d", Cell(2, 0), Cell(1, 0), 3),
        ]
    )
    stats = stats_from_results([r])
    assert stats.edge_counts == {(Cell(1, 0), Cell(2, 0)): 2.0}


def test_suggest_removal_is_argmax():
    stats = ConflictStats(per_agent={"a": (3, 1), "b": (0, 5), "c": (1, 0), "z": (0, 0)})
    assert suggest_removal(stats, k=1) == ["b"]
    ranked = suggest_removal(stats, k=10)
    assert ranked == ["b", "a", "c"]  # zero-conflict z never suggested
    totals = [stats.agent_total(a) for a in ranked]
    assert totals == sorted(totals, reverse=True)


def test_suggest_removal_rejects_bad_k():
    with pytest.raises(ValueError):
        suggest_removal(ConflictStats(), k=0)


def test_suggest_layout_targets_hotspot_surroundings():
    grid = parse_map(
        "map 5 5 10\nlayer rough 1\n"
        + "\n".join(["1 1 1 1 1", "1 1 9 1 1", "1 1 9 1 1", "1 1 1 1 1", "1 1 1 1 1"])
        + "\n"
    )
    hotspots = (Cell(1, 2), Cell(1, 3))  # next to the rough column at x=2
    stats = ConflictStats(vertex_counts={h: 5.0 for h in hotspots})
    suggestion = suggest_layout(grid, stats)
    assert Cell(2, 2) in suggestion.cells and Cell(2, 3) in suggestion.cells
    # the surroundings are predominantly 1, so the targets smooth to 1
    for c in suggestion.cells:
        assert suggestion.target_weights[c] == {"rough": 1.0}
        assert c not in hotspots
        assert min(abs(c.x - h.x) + abs(c.y - h.y) for h in hotspots) <= 2


def test_suggest_layout_empty_without_conflicts():
    grid = parse_map("map 2 2 10\nlayer g 1\n1 1\n1 1\n")
    suggestion = suggest_layout(grid, ConflictStats())
    assert suggestion.cells == []
    assert apply_layout_suggestion(grid, suggestion) == grid


def test_apply_layout_opens_blocked_cells():
    grid = parse_map("map 3 1 10\nlayer g 1\n1 # 1\n")
    suggestion = LayoutSuggestion(
        cells=[Cell(1, 0)], target_weights={Cell(1, 0): {"g": 1.0}}
    )
    fixed = apply_layout_suggestion(grid, suggestion)
    assert fixed.is_passable(Cell(1, 0))
    assert fixed.cell_cost(Cell(1, 0)) == 1.0
    assert grid.obstacles  # original untouched


def test_collect_stats_varies_seed_and_counts_runs():
    scenario = bottleneck_scenario(seed=1)
    stats, results = collect_stats(scenario, repetitions=3)
    assert stats.runs == 3 and len(results) == 3
    for r in results:
        assert find_conflicts(r.schedule) == []
    with pytest.raises(ValueError):
        collect_stats(scenario, repetitions=0)


def test_collect_stats_runtime_scales_roughly_linearly():
    scenario = bottleneck_scenario(seed=2)
    t0 = time.monotonic()
    collect_stats(scenario, repetitions=1)
    one = time.monotonic() - t0
    t0 = time.monotonic()
    collect_stats(scenario, repetitions=10)
    ten = time.monotonic() - t0
    assert ten <= max(15 * one, one + 5.0)


def test_layout_fix_reduces_bottleneck_conflicts():
    """Opening the advised cells calms the bottleneck across seeded runs."""
    scenario = bottleneck_scenario(seed=0)
    stats, _ = collect_stats(scenario, repetitions=5)
    suggestion = suggest_layout(scenario.grid, stats)
    assert suggestion.cells
    fixed_grid = apply_layout_suggestion(scenario.grid, suggestion)
    fixed = Scenario(
        grid=fixed_grid,
        agents=scenario.agents,
        deadline_s=scenario.deadline_s,
        conflict_threshold=scenario.conflict_threshold,
        strategy=scenario.strategy,
        seed=scenario.seed,
        name=scenario.name,
    )

    def mean_update_conflicts(sc):
        st, _ = collect_stats(sc, repetitions=20)
        return sum(st.vertex_by_phase["update"].values()) + sum(
            st.edge_by_phase["update"].values()
        )

    before = mean_update_conflicts(scenario)
    after = mean_update_conflicts(fixed)
    assert after < before
