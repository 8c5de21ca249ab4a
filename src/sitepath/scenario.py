"""Scenario files, schedule CSVs and result JSON documents.

A scenario is a YAML document pointing at a map file and listing the
fleet:

    map: site.map
    deadline_s: 5.0
    threshold: 64
    strategy: remove
    seed: 0
    agents:
      - {id: agent1, start: [0, 12], goal: [4, 10], priority: 1.0}

Schedules are CSVs shaped like the planning tables used on site: one row
per agent, a start column, then one column per timestep.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import yaml

from .cbs import PlanResult, Scenario
from .grid import Cell, parse_map, serialize_map
from .lowlevel import Agent, TimedPath, path_cost


class ScenarioError(ValueError):
    pass


def _cell(value, context: str) -> Cell:
    # YAML and JSON booleans are ints to Python; `true` is no coordinate
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        raise ScenarioError(f"{context}: expected [x, y], got {value!r}")
    return Cell(*value)


def _number(value, field: str):
    """A number read from YAML, as read; a boolean or a string is refused,
    not converted by `float` or `int`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field} must be a number, got {value!r}")
    return value


def _whole(value, field: str) -> int:
    """A count read from YAML; a fraction is refused too, not truncated
    by `int`."""
    value = _number(value, field)
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{field} must be a whole number, got {value!r}")
    return int(value)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        # libyaml's safe loader when PyYAML was built with it: the same
        # document, several times faster than the pure-Python one
        loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        doc = yaml.load(path.read_text(), Loader=loader)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    try:
        map_path = (path.parent / doc["map"]).resolve()
        agents_doc = doc["agents"]
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing field {exc}") from exc
    if not map_path.exists():
        raise ScenarioError(f"{path}: map file {map_path} not found")
    grid = parse_map(map_path.read_text())
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError(f"{path}: agents must be a non-empty list")
    agents = []
    for entry in agents_doc:
        try:
            agents.append(
                Agent(
                    id=str(entry["id"]),
                    start=_cell(entry["start"], f"agent {entry.get('id')}"),
                    goal=_cell(entry["goal"], f"agent {entry.get('id')}"),
                    priority=float(_number(entry.get("priority", 1.0), "priority")),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}: bad agent entry {entry!r}: {exc}") from exc
    try:
        return Scenario(
            grid=grid,
            agents=agents,
            deadline_s=float(_number(doc.get("deadline_s", 5.0), "deadline_s")),
            conflict_threshold=_whole(doc.get("threshold", 64), "threshold"),
            strategy=str(doc.get("strategy", "remove")),
            seed=_whole(doc.get("seed", 0), "seed"),
            name=str(doc.get("name", path.stem)),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def save_scenario(scenario: Scenario, scenario_path, map_path) -> None:
    """Write the map and scenario files; map path stored relative."""
    scenario_path, map_path = Path(scenario_path), Path(map_path)
    map_path.write_text(serialize_map(scenario.grid))
    doc = {
        "map": map_path.name,
        "name": scenario.name,
        "deadline_s": scenario.deadline_s,
        "threshold": scenario.conflict_threshold,
        "strategy": scenario.strategy,
        "seed": scenario.seed,
        "agents": [
            {
                "id": a.id,
                "start": [a.start.x, a.start.y],
                "goal": [a.goal.x, a.goal.y],
                "priority": a.priority,
            }
            for a in scenario.agents
        ],
    }
    scenario_path.write_text(yaml.safe_dump(doc, sort_keys=False))


# -- schedule CSV --------------------------------------------------------


def schedule_to_csv(schedule: dict) -> str:
    horizon = max((len(p) for p in schedule.values()), default=1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["agent name", "start"] + [str(t) for t in range(1, horizon)])
    for agent_id in sorted(schedule):
        path = schedule[agent_id]
        row = [agent_id] + [f"[{c.x}, {c.y}]" for c in path.cells]
        row += [""] * (horizon + 1 - len(row))
        writer.writerow(row)
    return buf.getvalue()


def csv_to_schedule(text: str, scenario: Scenario) -> dict:
    """Rebuild TimedPaths (costs recomputed from the map) from a CSV."""
    by_id = {a.id: a for a in scenario.agents}
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows:
        raise ScenarioError("empty schedule CSV")
    schedule = {}
    for row in rows[1:]:
        agent_id = row[0]
        if agent_id not in by_id:
            raise ScenarioError(f"schedule lists unknown agent {agent_id!r}")
        if agent_id in schedule:
            raise ScenarioError(f"schedule lists agent {agent_id!r} twice")
        cells = []
        for tok in row[1:]:
            tok = tok.strip()
            if not tok:
                break
            context = f"agent {agent_id}, step {len(cells)}"
            try:
                c = _cell(json.loads(tok), context)
            except json.JSONDecodeError:
                raise ScenarioError(f"{context}: bad cell {tok!r}") from None
            if not scenario.grid.is_passable(c):
                raise ScenarioError(f"{context}: cell {list(c)} is impassable")
            if cells and abs(c.x - cells[-1].x) + abs(c.y - cells[-1].y) > 1:
                raise ScenarioError(f"{context}: jump to non-adjacent cell {list(c)}")
            cells.append(c)
        if not cells:
            raise ScenarioError(f"agent {agent_id}: empty path")
        agent = by_id[agent_id]
        if cells[0] != agent.start:
            raise ScenarioError(f"agent {agent_id}: path does not begin at start")
        schedule[agent_id] = TimedPath(
            cells=cells, cost=path_cost(scenario.grid, cells, agent.priority)
        )
    missing = set(by_id) - set(schedule)
    if missing:
        raise ScenarioError(f"schedule missing agents: {sorted(missing)}")
    return schedule


# -- result JSON ---------------------------------------------------------


def result_to_json(result: PlanResult) -> str:
    doc = {
        "status": result.status,
        "total_cost": result.total_cost,
        "removed_agents": result.removed_agents,
        "elapsed_initial_s": result.elapsed_initial_s,
        "elapsed_update_s": result.elapsed_update_s,
        "conflicts": [
            {
                "kind": c.kind,
                "agents": list(c.agents),
                "time": c.time,
                "phase": c.phase,
                "location": (
                    [c.location.x, c.location.y]
                    if c.kind == "vertex"
                    else [[p.x, p.y] for p in c.location]
                ),
            }
            for c in result.conflict_log
        ],
        "midway_goals": {
            a: [c.x, c.y] for a, c in result.midway_goals.items()
        },
        "schedule": {
            a: [[c.x, c.y] for c in p.cells] for a, p in result.schedule.items()
        },
        "costs": {a: p.cost for a, p in result.schedule.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)
