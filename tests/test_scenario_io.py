"""Scenario YAML, schedule CSV and result JSON round trips."""

import csv
import io
import json
from dataclasses import replace

import pytest

from sitepath.cbs import PlanResult, Scenario, sic, solve
from sitepath.grid import Cell, parse_map
from sitepath.lowlevel import Agent, TimedPath
from sitepath.mapgen import archetype_scenario
from sitepath.scenario import (
    ScenarioError,
    csv_to_schedule,
    load_scenario,
    result_to_json,
    save_scenario,
    schedule_to_csv,
)


def _sample_scenario():
    grid = parse_map(
        "map 5 5 10\nlayer flat 1\n" + "\n".join(["1 1 1 1 1"] * 5) + "\n"
    )
    agents = [
        Agent(id="m0", start=Cell(0, 0), goal=Cell(4, 4), priority=2.0),
        Agent(id="m1", start=Cell(0, 4), goal=Cell(4, 0), priority=1.0),
    ]
    return Scenario(
        grid=grid,
        agents=agents,
        deadline_s=3.0,
        conflict_threshold=32,
        strategy="same-dir",
        seed=7,
        name="sample",
    )


def test_scenario_round_trip(tmp_path):
    scenario = _sample_scenario()
    save_scenario(scenario, tmp_path / "s.yaml", tmp_path / "s.map")
    again = load_scenario(tmp_path / "s.yaml")
    assert again.grid == scenario.grid
    assert again.agents == scenario.agents
    assert again.deadline_s == scenario.deadline_s
    assert again.conflict_threshold == scenario.conflict_threshold
    assert again.strategy == scenario.strategy
    assert again.seed == scenario.seed
    assert again.name == scenario.name


def test_archetype_scenarios_round_trip(tmp_path):
    for name in ("archetype-1-open-20", "archetype-4-bridge"):
        scenario = archetype_scenario(name, seed=2)
        save_scenario(scenario, tmp_path / f"{name}.yaml", tmp_path / f"{name}.map")
        again = load_scenario(tmp_path / f"{name}.yaml")
        assert again.grid == scenario.grid
        assert again.agents == scenario.agents


def test_load_missing_map_is_scenario_error(tmp_path):
    (tmp_path / "s.yaml").write_text("map: nope.map\nagents: [{id: a, start: [0, 0], goal: [1, 1]}]\n")
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "s.yaml")


@pytest.mark.parametrize(
    "body",
    [
        "- just\n- a list\n",
        "map: s.map\n",  # no agents
        "map: s.map\nagents: []\n",
        "map: s.map\nagents: [{id: a, start: [0], goal: [1, 1]}]\n",
        "map: s.map\nagents: [{id: a, start: [0, 0], goal: [9, 9]}]\n",  # off-map
        "map: s.map\nstrategy: bogus\nagents: [{id: a, start: [0, 0], goal: [1, 1]}]\n",
        "map: s.map\ndeadline_s: -1\nagents: [{id: a, start: [0, 0], goal: [1, 1]}]\n",
    ],
)
def test_malformed_scenarios_raise(tmp_path, body):
    (tmp_path / "s.map").write_text("map 2 2 10\nlayer g 1\n1 1\n1 1\n")
    (tmp_path / "s.yaml").write_text(body)
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "s.yaml")


def test_schedule_csv_round_trip():
    scenario = _sample_scenario()
    result = solve(scenario)
    text = schedule_to_csv(result.schedule)
    again = csv_to_schedule(text, scenario)
    assert set(again) == set(result.schedule)
    for agent_id, path in result.schedule.items():
        assert again[agent_id].cells == path.cells
        assert again[agent_id].cost == pytest.approx(path.cost)
    assert sic(again) == pytest.approx(result.total_cost)


def test_schedule_csv_shape():
    schedule = {
        "long": TimedPath(cells=[Cell(0, 0), Cell(1, 0), Cell(2, 0)], cost=2.0),
        "short": TimedPath(cells=[Cell(4, 4)], cost=0.0),
    }
    text = schedule_to_csv(schedule)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["agent name", "start", "1", "2"]
    # ragged rows are padded to the same width
    assert all(len(r) == len(rows[0]) for r in rows[1:])
    assert rows[1] == ["long", "[0, 0]", "[1, 0]", "[2, 0]"]
    assert rows[2] == ["short", "[4, 4]", "", ""]


def test_csv_rejects_wrong_start():
    scenario = _sample_scenario()
    schedule = {
        "m0": TimedPath(cells=[Cell(1, 1), Cell(2, 1)], cost=1.0),
        "m1": TimedPath(cells=[Cell(0, 4)], cost=0.0),
    }
    text = schedule_to_csv(schedule)
    with pytest.raises(ScenarioError):
        csv_to_schedule(text, scenario)


def test_csv_rejects_missing_agent():
    scenario = _sample_scenario()
    text = schedule_to_csv(
        {"m0": TimedPath(cells=[Cell(0, 0), Cell(1, 0)], cost=1.0)}
    )
    with pytest.raises(ScenarioError):
        csv_to_schedule(text, scenario)


@pytest.mark.parametrize(
    "row, reason",
    [
        ('m0,"[0, 0]","[1 0]"', "bad cell"),
        ('m0,"[0, 0]","[0, 1]","[2, 1]"', "non-adjacent"),
        ('m0,"[0, 0]","[1, 0]","[1, 1]"', "impassable"),
    ],
    ids=["malformed", "jump", "obstacle"],
)
def test_csv_rejects_invalid_steps(row, reason):
    scenario = _sample_scenario()
    scenario = replace(scenario, grid=scenario.grid.with_blocked([Cell(1, 1)]))
    head = "agent name,start,1,2,3\n"
    waits = 'm1,"[0, 4]","[0, 4]","[0, 3]"\n'
    assert csv_to_schedule(head + 'm0,"[0, 0]","[1, 0]"\n' + waits, scenario)
    with pytest.raises(ScenarioError, match=reason):
        csv_to_schedule(head + row + "\n" + waits, scenario)


def test_result_json_is_complete():
    scenario = _sample_scenario()
    result = solve(scenario)
    doc = json.loads(result_to_json(result))
    assert doc["status"] == result.status
    assert doc["total_cost"] == pytest.approx(result.total_cost)
    assert doc["removed_agents"] == result.removed_agents
    assert set(doc["schedule"]) == set(result.schedule)
    assert doc["elapsed_initial_s"] >= 0.0
    assert doc["elapsed_update_s"] >= 0.0
