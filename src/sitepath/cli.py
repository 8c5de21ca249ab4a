"""Command-line front door: `sitepath solve|bench|analyze|replan|gen-maps`."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import (
    apply_layout_suggestion,
    collect_stats,
    suggest_layout,
    suggest_removal,
)
from .cbs import STRATEGIES, PlanResult, Scenario, UnsolvableError, solve
from .grid import MapFormatError
from .mapgen import ARCHETYPES, archetype_scenario
from .replan import IMMOBILE, ExecutionState, inject_delay, replan
from .scenario import (
    ScenarioError,
    csv_to_schedule,
    load_scenario,
    result_to_json,
    save_scenario,
    schedule_to_csv,
)
from .svg import edge_heatmap_svg, paths_svg, vertex_heatmap_svg

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_STOP_ALL = 2


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    overrides = [
        ("--seed", "seed", args.seed),
        ("--deadline-s", "deadline_s", args.deadline_s),
        ("--threshold", "conflict_threshold", args.threshold),
        ("--strategy", "strategy", args.strategy),
    ]
    for flag, name, value in overrides:
        if value is None:
            continue
        # `Scenario` refuses a bad value; refused as input, not by
        # argparse, whose exit code 2 would read as stop-all
        try:
            scenario = replace(scenario, **{name: value})
        except ValueError as exc:
            raise ScenarioError(f"{flag}: {exc}") from exc
    return scenario


def _check_repetitions(args) -> None:
    # collect_stats would raise mid-run; refuse before any solve, exit 1
    if args.repetitions < 1:
        raise ScenarioError(f"--repetitions must be >= 1, got {args.repetitions}")


def cmd_solve(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    result = solve(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schedule.csv").write_text(schedule_to_csv(result.schedule))
    (out / "result.json").write_text(result_to_json(result))
    (out / "paths.svg").write_text(
        paths_svg(scenario.grid, result.schedule, title=scenario.name)
    )
    print(
        f"{scenario.name}: status={result.status} cost={result.total_cost:.1f} "
        f"removed={len(result.removed_agents)}"
    )
    return EXIT_STOP_ALL if result.status == "stop_all" else EXIT_OK


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    scenario_paths = sorted(corpus.glob("*.yaml"))
    _check_repetitions(args)
    if not scenario_paths:
        raise ScenarioError(f"no scenarios in {corpus}")
    rows = []
    any_ok = False
    for path in scenario_paths:
        try:
            scenario = _apply_overrides(load_scenario(path), args)
            stats, results = collect_stats(scenario, args.repetitions)
        except (ScenarioError, MapFormatError, UnsolvableError) as exc:
            rows.append([path.stem, "", "", "", "", "", "", f"error: {exc}", ""])
            continue
        any_ok = True
        n = len(results)
        mean = lambda vals: sum(vals) / n
        conf_initial = mean(
            [sum(1 for c in r.conflict_log if c.phase == "initial") for r in results]
        )
        conf_update = mean(
            [sum(1 for c in r.conflict_log if c.phase == "update") for r in results]
        )
        rows.append(
            [
                scenario.name,
                len(scenario.agents),
                f"{mean([r.elapsed_initial_s for r in results]):.4f}",
                f"{mean([r.elapsed_update_s for r in results]):.4f}",
                f"{mean([r.total_cost for r in results]):.1f}",
                f"{conf_initial:.1f}",
                f"{conf_update:.1f}",
                results[0].status,
                scenario.seed,
            ]
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "map",
                "agents",
                "initial_search_s",
                "update_s",
                "total_cost",
                "conflicts_initial",
                "conflicts_update",
                "status",
                "seed",
            ]
        )
        writer.writerows(rows)
    print(f"wrote {len(rows)} benchmark rows to {out}")
    return EXIT_OK if any_ok else EXIT_INPUT_ERROR


def cmd_gen_maps(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ARCHETYPES:
        scenario = archetype_scenario(name, args.seed)
        save_scenario(scenario, out / f"{name}.yaml", out / f"{name}.map")
        print(f"wrote {name} ({len(scenario.agents)} agents)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    _check_repetitions(args)
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    stats, results = collect_stats(scenario, args.repetitions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for phase in ("initial", "update"):
        (out / f"vertex_conflicts_{phase}.svg").write_text(
            vertex_heatmap_svg(
                scenario.grid,
                stats.vertex_by_phase[phase],
                title=f"vertex conflicts ({phase})",
            )
        )
        (out / f"edge_conflicts_{phase}.svg").write_text(
            edge_heatmap_svg(
                scenario.grid,
                stats.edge_by_phase[phase],
                title=f"edge conflicts ({phase})",
            )
        )
    layout = suggest_layout(scenario.grid, stats)
    removal = suggest_removal(stats, k=1)
    (out / "layout_suggestion.json").write_text(
        json.dumps(
            {
                "target": layout.target,
                "cells": [[c.x, c.y] for c in layout.cells],
                "target_weights": {
                    f"{c.x},{c.y}": w for c, w in layout.target_weights.items()
                },
            },
            indent=2,
        )
    )
    (out / "removal.json").write_text(json.dumps({"remove": removal}, indent=2))

    baseline = sum(r.elapsed_initial_s + r.elapsed_update_s for r in results) / len(
        results
    )
    report = {"baseline_total_s": round(baseline, 4)}
    if not layout.cells and not removal:
        report["optimization"] = "None"
    else:
        if layout.cells:
            fixed = replace(scenario, grid=apply_layout_suggestion(scenario.grid, layout))
            r = solve(fixed)
            report["layout_total_s"] = round(r.elapsed_initial_s + r.elapsed_update_s, 4)
        if removal:
            kept = [a for a in scenario.agents if a.id not in removal]
            r = solve(replace(scenario, agents=kept))
            report["removal_total_s"] = round(r.elapsed_initial_s + r.elapsed_update_s, 4)
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    return EXIT_OK


def _parse_deviation(spec: str) -> tuple:
    agent_id, _, rest = spec.partition(":")
    if not agent_id or not rest:
        raise ScenarioError(f"bad deviation spec {spec!r} (want id:lag=N or id:immobile)")
    if rest == "immobile":
        return agent_id, IMMOBILE
    key, _, value = rest.partition("=")
    if key != "lag" or not value.isdecimal() or int(value) < 1:
        raise ScenarioError(f"bad deviation spec {spec!r}")
    return agent_id, int(value)


def cmd_replan(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    schedule = csv_to_schedule(Path(args.schedule).read_text(), scenario)
    deviations = [_parse_deviation(s) for s in args.deviation]
    planned = PlanResult(
        schedule=schedule,
        removed_agents=[],
        conflict_log=[],
        elapsed_initial_s=0.0,
        elapsed_update_s=0.0,
        status="optimal",
    )
    state = ExecutionState(scenario=scenario, planned=planned, now=args.now)
    for agent_id, lag in deviations:
        state = inject_delay(state, agent_id, lag)
    result = replan(state, deadline_s=scenario.deadline_s)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "schedule.csv").write_text(schedule_to_csv(result.schedule))
    (out / "result.json").write_text(result_to_json(result))
    changed = sorted(
        a.id
        for a in scenario.agents
        if result.schedule[a.id].cells != schedule[a.id].cells
    )
    diff = {
        "changed_agents": changed if deviations else [],
        "midway_goals": {a: [c.x, c.y] for a, c in result.midway_goals.items()},
        "stop_all": result.status == "stop_all",
    }
    (out / "diff.json").write_text(json.dumps(diff, indent=2))
    print(json.dumps(diff))
    return EXIT_STOP_ALL if result.status == "stop_all" else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitepath",
        description="Multi working-machine pathfinding for construction sites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--deadline-s", dest="deadline_s", type=float, default=None)
        p.add_argument("--threshold", type=int, default=None)
        p.add_argument("--strategy", choices=STRATEGIES, default=None)

    p = sub.add_parser("solve", help="solve one scenario")
    p.add_argument("scenario")
    p.add_argument("--out", default="out")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="benchmark a corpus of scenarios")
    p.add_argument("corpus")
    p.add_argument("--repetitions", type=int, default=50)
    p.add_argument("--out", default="bench.csv")
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-maps", help="generate the archetype corpus")
    p.add_argument("--out", default="corpus")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_maps)

    p = sub.add_parser("analyze", help="conflict statistics and advisories")
    p.add_argument("scenario")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--out", default="analysis")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("replan", help="simulate an emergency replan")
    p.add_argument("scenario")
    p.add_argument("schedule", help="schedule.csv produced by `sitepath solve`")
    p.add_argument(
        "--deviation",
        action="append",
        default=[],
        help="agent deviation, e.g. agent16:lag=2 or agent7:immobile",
    )
    p.add_argument("--now", type=int, default=0)
    p.add_argument("--out", default="replan-out")
    common(p)
    p.set_defaults(func=cmd_replan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the CLI's one error boundary: `ScenarioError` and `MapFormatError`
    # are `ValueError`s, and `inject_delay` raises `KeyError`
    try:
        return args.func(args)
    except (ValueError, KeyError, UnsolvableError, OSError) as exc:
        # a `KeyError` quotes its message in `str`, so print the message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
