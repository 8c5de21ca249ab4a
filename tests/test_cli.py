"""Command-line workflows: gen-maps, solve, bench, analyze, replan."""

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sitepath.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_STOP_ALL, main
from sitepath.grid import parse_map
from sitepath.scenario import load_scenario
from sitepath.svg import CELL


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen-maps", "--out", str(out), "--seed", "0"]) == EXIT_OK
    return out


def test_gen_maps_writes_loadable_pairs(corpus):
    yamls = sorted(corpus.glob("*.yaml"))
    assert len(yamls) == 5
    for path in yamls:
        scenario = load_scenario(path)
        assert scenario.agents
        assert parse_map((corpus / f"{path.stem}.map").read_text()) == scenario.grid


def _svg_in_bounds(path, grid):
    root = ET.parse(path).getroot()  # raises on malformed XML
    width, height = grid.width * CELL, grid.height * CELL
    ns = "{http://www.w3.org/2000/svg}"
    for rect in root.iter(f"{ns}rect"):
        x, y = float(rect.get("x")), float(rect.get("y"))
        assert 0 <= x < width and 0 <= y < height


def test_solve_writes_artifacts(corpus, tmp_path):
    out = tmp_path / "solved"
    code = main(
        ["solve", str(corpus / "archetype-4-bridge.yaml"), "--out", str(out)]
    )
    assert code == EXIT_OK
    result = json.loads((out / "result.json").read_text())
    assert result["status"] in {"optimal", "feasible_after_removal"}
    schedule_rows = (out / "schedule.csv").read_text().strip().splitlines()
    scenario = load_scenario(corpus / "archetype-4-bridge.yaml")
    assert len(schedule_rows) == 1 + len(scenario.agents)
    _svg_in_bounds(out / "paths.svg", scenario.grid)


def test_solve_bad_scenario_is_input_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nope: 1\n")
    assert main(["solve", str(bad)]) == EXIT_INPUT_ERROR
    assert main(["solve", str(tmp_path / "missing.yaml")]) == EXIT_INPUT_ERROR


def test_bench_rows_reproducible(corpus, tmp_path):
    args = [
        "bench",
        str(corpus),
        "--repetitions",
        "2",
        "--seed",
        "3",
        # generous deadline: wall-clock-triggered fallbacks are the one
        # timing-dependent code path, so keep the threshold the binding limit
        "--deadline-s",
        "60",
    ]
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK

    def stable(path):
        rows = list(csv.reader(path.open()))
        header = rows[0]
        drop = [header.index("initial_search_s"), header.index("update_s")]
        return [
            [v for i, v in enumerate(row) if i not in drop] for row in rows
        ]

    assert stable(out1) == stable(out2)
    rows = list(csv.reader(out1.open()))
    assert len(rows) == 1 + 5
    assert rows[0][0] == "map"


def test_bench_empty_corpus_is_input_error(tmp_path):
    assert main(["bench", str(tmp_path / "nothing")]) == EXIT_INPUT_ERROR


def test_analyze_writes_reports(corpus, tmp_path):
    out = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            str(corpus / "archetype-4-bridge.yaml"),
            "--repetitions",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    grid = load_scenario(corpus / "archetype-4-bridge.yaml").grid
    for name in (
        "vertex_conflicts_initial.svg",
        "vertex_conflicts_update.svg",
        "edge_conflicts_initial.svg",
        "edge_conflicts_update.svg",
    ):
        _svg_in_bounds(out / name, grid)
    report = json.loads((out / "report.json").read_text())
    assert "baseline_total_s" in report
    layout = json.loads((out / "layout_suggestion.json").read_text())
    removal = json.loads((out / "removal.json").read_text())
    assert isinstance(layout.get("cells"), list)
    assert isinstance(removal.get("remove"), list)


def test_replan_command_round_trip(corpus, tmp_path):
    solved = tmp_path / "solved"
    scenario_path = corpus / "archetype-4-bridge.yaml"
    assert main(["solve", str(scenario_path), "--out", str(solved)]) == EXIT_OK
    out = tmp_path / "replanned"
    scenario = load_scenario(scenario_path)
    deviant = scenario.agents[0].id
    code = main(
        [
            "replan",
            str(scenario_path),
            str(solved / "schedule.csv"),
            "--deviation",
            f"{deviant}:lag=2",
            "--now",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code in (EXIT_OK, EXIT_STOP_ALL)
    diff = json.loads((out / "diff.json").read_text())
    assert "changed_agents" in diff and "midway_goals" in diff
    assert (out / "schedule.csv").exists()


def test_replan_bad_deviation_spec(corpus, tmp_path):
    solved = tmp_path / "solved"
    scenario_path = corpus / "archetype-5-mining.yaml"
    assert main(["solve", str(scenario_path), "--out", str(solved)]) == EXIT_OK
    code = main(
        [
            "replan",
            str(scenario_path),
            str(solved / "schedule.csv"),
            "--deviation",
            "agent0:lag=never",
        ]
    )
    assert code == EXIT_INPUT_ERROR


def test_replan_immobile_corridor_exits_stop_all(tmp_path):
    from scenarios import CORRIDOR_TEXT

    (tmp_path / "site.map").write_text(CORRIDOR_TEXT)
    (tmp_path / "site.yaml").write_text(
        "map: site.map\n"
        "agents:\n"
        "  - {id: m0, start: [0, 1], goal: [6, 1]}\n"
        "  - {id: m1, start: [4, 1], goal: [5, 1]}\n"
    )
    solved = tmp_path / "solved"
    assert main(["solve", str(tmp_path / "site.yaml"), "--out", str(solved)]) == EXIT_OK
    code = main(
        [
            "replan",
            str(tmp_path / "site.yaml"),
            str(solved / "schedule.csv"),
            "--deviation",
            "m1:immobile",
            "--out",
            str(tmp_path / "replanned"),
        ]
    )
    assert code == EXIT_STOP_ALL
    diff = json.loads((tmp_path / "replanned" / "diff.json").read_text())
    assert diff["stop_all"] is True


@pytest.fixture(scope="module")
def mining_plan(corpus, tmp_path_factory):
    """The mining scenario and the schedule `sitepath solve` writes for it."""
    solved = tmp_path_factory.mktemp("mining")
    scenario_path = corpus / "archetype-5-mining.yaml"
    assert main(["solve", str(scenario_path), "--out", str(solved)]) == EXIT_OK
    return [str(scenario_path), str(solved / "schedule.csv")]


@pytest.mark.parametrize(
    "extra",
    [
        # a one-step lag puts agent6 on the cell another machine stands on
        ["--now", "3", "--deviation", "agent6:lag=1"],
        ["--deadline-s", "-1"],
        ["--now", "-1"],
    ],
    ids=["start-clash", "negative-deadline", "negative-now"],
)
def test_replan_refuses_bad_input(mining_plan, tmp_path, extra):
    code = main(["replan", *mining_plan, "--out", str(tmp_path)] + extra)
    assert code == EXIT_INPUT_ERROR
    assert not (tmp_path / "result.json").exists()


def test_solve_negative_deadline_is_input_error(corpus, tmp_path):
    scenario_path = corpus / "archetype-5-mining.yaml"
    code = main(["solve", str(scenario_path), "--out", str(tmp_path), "--deadline-s", "-1"])
    assert code == EXIT_INPUT_ERROR
    assert not (tmp_path / "result.json").exists()
