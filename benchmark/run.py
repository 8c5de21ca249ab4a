#!/usr/bin/env python3
"""Benchmark for sitepath: one workload per run, one process, one thread.

    python3 benchmark/run.py --workload site-cli --seed 0 --seconds 30 --trace 0

A run builds its inputs (set-up), then repeats whole rounds of the
workload's operations while another round should end within `--seconds`
(at least one round), and checks every plan with the benchmark's own
checker. Times are process CPU time rescaled to a fixed host pace
(`pace.py`). The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`). See README.md in this
directory.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
from pace import Pace  # noqa: E402
from tracing import LAYER_METRICS, Patches, Tracer  # noqa: E402

import sitepath.cbs  # noqa: E402
import sitepath.cli  # noqa: E402
import sitepath.mapgen  # noqa: E402
import sitepath.replan  # noqa: E402
from sitepath.grid import WeightedGridMap  # noqa: E402
from sitepath.scenario import save_scenario  # noqa: E402

ARCHETYPES = (
    "archetype-1-open-20",
    "archetype-3-obstacles",
    "archetype-4-bridge",
    "archetype-5-mining",
)
# a deadline no site-cli or large-site operation comes near, so no
# wall-clock fallback can decide an outcome
FAR_DEADLINE_S = 600.0
REPLAN_DEADLINE_S = 5.0
REPLAN_NOW = 3
DEVIATIONS = (1, 2, sitepath.replan.IMMOBILE)
LARGE_SIZES = ((48, 48), (64, 64))  # (side, machines)
STARTS_CLASH = "agent starts must be pairwise distinct"


@dataclass
class Op:
    key: str
    deadline_s: float
    run: object  # () -> outcome; the timed part
    check: object  # outcome -> (signature, machines planned); raises CheckError
    prepare: object = None  # () -> None, run untimed before each `run`


class Failed(Exception):
    """An operation raised; `expected` when it is the known start clash."""

    def __init__(self, message: str, expected: bool):
        super().__init__(message)
        self.expected = expected


def _signature(plan: checker.Plan) -> tuple:
    return (
        plan.status,
        tuple(sorted(plan.removed)),
        round(plan.total, 6),
        tuple(sorted(plan.midway.items())),
        tuple(sorted((a, tuple(p)) for a, p in plan.paths.items())),
    )


def _machines(agents, positions=None) -> list:
    return [
        checker.Machine(
            a.id,
            positions[a.id] if positions else (a.start.x, a.start.y),
            (a.goal.x, a.goal.y),
            a.priority,
        )
        for a in agents
    ]


def _corpus_seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


# -- workloads ------------------------------------------------------------


def setup_site_cli(seeds, work: Path, hooks) -> list:
    """The operator's path: `sitepath solve` on saved archetype scenarios."""
    corpus = work / "corpus"
    corpus.mkdir(parents=True)
    ops = []
    for seed in seeds:
        for name in ARCHETYPES:
            scenario = sitepath.mapgen.archetype_scenario(name, seed)
            stem = f"{name}-s{seed}"
            yaml_path = corpus / f"{stem}.yaml"
            map_path = corpus / f"{stem}.map"
            save_scenario(scenario, yaml_path, map_path)
            ops.append(_cli_op(stem, yaml_path, map_path, work / "out" / stem))
    return ops


def _cli_op(stem, yaml_path, map_path, out) -> Op:
    argv = ["solve", str(yaml_path), "--out", str(out), "--deadline-s", str(FAR_DEADLINE_S)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return sitepath.cli.main(argv)

    def check(code):
        plan = checker.plan_from_files(
            (out / "result.json").read_text(), (out / "schedule.csv").read_text()
        )
        want = 2 if plan.status == "stop_all" else 0
        if code != want:
            raise checker.CheckError(f"exit code {code} for status {plan.status}")
        if not (out / "paths.svg").read_text().rstrip().endswith("</svg>"):
            raise checker.CheckError("paths.svg is not a complete SVG document")
        sig = _signature(plan)
        if sig in seen:
            return sig, seen[sig]
        doc = yaml.safe_load(yaml_path.read_text())
        site = checker.site_from_text(map_path.read_text())
        machines = [
            checker.Machine(
                str(a["id"]), tuple(a["start"]), tuple(a["goal"]), float(a["priority"])
            )
            for a in doc["agents"]
        ]
        seen[sig] = checker.check_plan(site, machines, plan)
        return sig, seen[sig]

    seen = {}
    return Op(stem, FAR_DEADLINE_S, run, check)


def setup_large_site(seeds, work: Path, hooks) -> list:
    """Library solves on big open fields: goal tables and cell costs."""
    ops = []
    for seed in seeds:
        for side, count in LARGE_SIZES:
            grid = sitepath.mapgen.open_field(seed, side, side)
            agents = sitepath.mapgen.random_agents(grid, count, random.Random(seed))
            scenario = sitepath.cbs.Scenario(
                grid=grid,
                agents=agents,
                deadline_s=FAR_DEADLINE_S,
                seed=seed,
                name=f"open-{side}-s{seed}",
            )
            ops.append(_solve_op(scenario))
    return ops


def _solve_op(scenario) -> Op:
    fresh = []

    def prepare():
        # a new map object per solve, so no lazily cached value carries
        # over from one round to the next
        g = scenario.grid
        grid = WeightedGridMap(
            width=g.width,
            height=g.height,
            layers=g.layers,
            obstacles=g.obstacles,
            danger_objects=g.danger_objects,
            cell_size_m=g.cell_size_m,
        )
        fresh.append(replace(scenario, grid=grid))

    def run():
        return sitepath.cbs.solve(fresh.pop())

    def check(result):
        plan = checker.plan_from_result(result)
        sig = _signature(plan)
        if sig not in seen:
            site = checker.site_from_grid(scenario.grid)
            seen[sig] = checker.check_plan(site, _machines(scenario.agents), plan)
        return sig, seen[sig]

    seen = {}
    return Op(scenario.name, scenario.deadline_s, run, check, prepare=prepare)


class ReplanHooks:
    """Wrappers the emergency checks need: the wall time of every solve
    inside `replan` against half its deadline, and the arguments and
    answer of each `midway_goal` call."""

    def __init__(self):
        self.worst = 0.0
        self.midway = []
        self._patches = Patches()

    def install(self):
        solve, midway = sitepath.replan.solve, sitepath.replan.midway_goal

        def timed_solve(scenario):
            start = time.perf_counter()
            try:
                return solve(scenario)
            finally:
                share = (time.perf_counter() - start) / (scenario.deadline_s / 2)
                self.worst = max(self.worst, share)

        def recorded_midway(grid, state, agent_id):
            cell = midway(grid, state, agent_id)
            self.midway.append((state, agent_id, cell))
            return cell

        self._patches.set(sitepath.replan, "solve", timed_solve)
        self._patches.set(sitepath.replan, "midway_goal", recorded_midway)

    def uninstall(self):
        self._patches.undo()


def setup_emergency(seeds, work: Path, hooks) -> list:
    """One deviation plus one replan on executing archetype plans."""
    ops = []
    for seed in seeds:
        for name in ARCHETYPES:
            scenario = sitepath.mapgen.archetype_scenario(
                name, seed, deadline_s=FAR_DEADLINE_S
            )
            base = sitepath.cbs.solve(scenario)
            tight = replace(scenario, conflict_threshold=0, deadline_s=REPLAN_DEADLINE_S)
            site = checker.site_from_grid(scenario.grid)
            for i, agent in enumerate(scenario.agents):
                ops.append(
                    _replan_op(f"{name}-s{seed}-{agent.id}", tight, base, site,
                               agent.id, DEVIATIONS[i % len(DEVIATIONS)], hooks)
                )
    return ops


def _at(path, t):
    return path.cells[min(t, len(path.cells) - 1)]


def _replan_op(key, scenario, base, site, agent_id, lag, hooks) -> Op:
    state = sitepath.replan.ExecutionState(scenario=scenario, planned=base, now=REPLAN_NOW)
    clash = False
    if lag != sitepath.replan.IMMOBILE:
        lagged = _at(base.schedule[agent_id], max(0, REPLAN_NOW - lag))
        clash = any(
            _at(base.schedule[a.id], REPLAN_NOW) == lagged
            for a in scenario.agents
            if a.id != agent_id
        )

    def run():
        moved = sitepath.replan.inject_delay(state, agent_id, lag)
        try:
            return moved, sitepath.replan.replan(moved, deadline_s=REPLAN_DEADLINE_S)
        except ValueError as exc:
            raise Failed(str(exc), clash and str(exc) == STARTS_CLASH) from exc

    def check(outcome):
        moved, result = outcome
        plan = checker.plan_from_result(result)
        sig = _signature(plan)
        if sig in seen:
            return sig, seen[sig]
        positions = {a: (c.x, c.y) for a, c in moved.positions.items()}
        machines = _machines(scenario.agents, positions)
        frozen = {a for a, v in moved.deviations.items() if v == sitepath.replan.IMMOBILE}
        planned = checker.check_plan(site, machines, plan, stationary=frozen)
        calls = hooks.midway
        if plan.midway:
            if len(calls) != 1 or {calls[0][1]: calls[0][2]} != result.midway_goals:
                raise checker.CheckError(f"{key}: midway goal not from one midway search")
            probe, mover, cell = calls[0]
            probe_paths = {
                a: [(c.x, c.y) for c in p.cells] for a, p in probe.planned.schedule.items()
            }
            checker.check_midway(
                site.blocked(positions[a] for a in frozen),
                machines,
                mover,
                probe_paths,
                (cell.x, cell.y),
            )
        seen[sig] = planned
        return sig, planned

    seen = {}
    return Op(key, REPLAN_DEADLINE_S, run, check)


WORKLOADS = {
    "site-cli": (setup_site_cli, "3-5"),
    "large-site": (setup_large_site, "0-1"),
    "emergency-replan": (setup_emergency, "0-0"),
}


# -- measuring ------------------------------------------------------------


def run_round(ops, order, hooks, tracer, pace, errors) -> dict:
    """One pass over every operation: paced times, outcomes and layer
    figures."""
    if tracer is not None:
        tracer.reset()
    spans, outcomes = [], {}  # spans: (start mark, end mark, succeeded)
    planned = failed = 0
    for i in order:
        op = ops[i]
        if op.prepare is not None:
            op.prepare()
        # no operation pays for collecting what an earlier one left behind
        gc.collect()
        hooks.worst, hooks.midway = 0.0, []
        mark = pace.mark()
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a crash other than the known clash is a wrong result
            failed += 1
            spans.append((mark, pace.mark(), False))
            outcomes[op.key] = "failed"
            if not (isinstance(exc, Failed) and exc.expected):
                errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            continue
        wall = time.perf_counter() - start
        spans.append((mark, pace.mark(), True))
        if wall > op.deadline_s / 2 or hooks.worst > 1.0:
            errors.append(f"{op.key}: ran past half its deadline ({wall:.3f} s)")
        try:
            sig, n = op.check(outcome)
        except checker.CheckError as exc:
            errors.append(f"{op.key}: {exc}")
            continue
        outcomes[op.key] = sig
        planned += n
    return {
        "spans": spans,
        "planned": planned,
        "failed": failed,
        "outcomes": outcomes,
        "layers": tracer.snapshot() if tracer is not None else None,
    }


def measure(workload, seed, seconds, trace, corpus=None) -> dict:
    """Set up one workload and run its rounds; returns the result object
    that run.py prints, plus a digest of the operations' outcomes."""
    setup, default_corpus = WORKLOADS[workload]
    work = ROOT / "bench-out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    hooks = ReplanHooks()
    pace = Pace()
    try:
        pace.start()
        paced_from = pace.mark()
        if workload == "emergency-replan":
            hooks.install()
        if tracer is not None:
            tracer.install()
        ops = setup(_corpus_seeds(corpus or default_corpus), work, hooks)
        setup_end = pace.mark()
        mapgen_ms = tracer.snapshot()["mapgen.generate_ms"] if tracer else 0.0
        # one untimed operation first (the first that does not hit the
        # known start clash), so that what the program sets up on its first
        # call in a process is not charged to whichever operation the seed
        # puts first (that made one operation 10 to 15% slower)
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            try:
                op.run()
                break
            except Failed as exc:
                if not exc.expected:
                    raise
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        errors, rounds = [], []
        began = time.perf_counter()
        while True:
            rounds.append(run_round(ops, order, hooks, tracer, pace, errors))
            # start another round only if it should end within --seconds
            spent = time.perf_counter() - began
            if spent * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        pace.stop()
        if tracer is not None:
            tracer.uninstall()
        hooks.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    # set-up runs from the process's start. The interpreter's start and the
    # imports read files and barely move with the host's pace (README.md),
    # so they count in raw CPU time; input generation and base plans are
    # paced like the operations.
    setup_s = paced_from[0] + pace.paced(paced_from, setup_end)
    for r in rounds:
        r["op_s"] = [pace.paced(a, b) if ok else math.inf for a, b, ok in r["spans"]]
        r["total_s"] = sum(pace.paced(a, b) for a, b, _ in r["spans"])
        r["cpu_s"] = sum((b[0] - a[0]) - (b[1] - a[1]) for a, b, _ in r["spans"])
    first = rounds[0]
    for r in rounds[1:]:
        if r["outcomes"] != first["outcomes"] or r["planned"] != first["planned"]:
            errors.append("outcomes differ between rounds of one run")
            break
    digest = hashlib.sha256(
        json.dumps(sorted(first["outcomes"].items())).encode()
    ).hexdigest()[:16]

    if trace:
        metrics = {"trace.total_s": (statistics.median(r["total_s"] for r in rounds), "s")}
        for name, unit in LAYER_METRICS:
            values = [r["layers"][name] for r in rounds]
            if len(set(values)) == 1:
                metrics[name] = (values[0], unit)
                continue
            if unit == "count":
                print(f"warning: {name} differs between rounds: {values}", file=sys.stderr)
            metrics[name] = (statistics.median(values), unit)
        metrics["mapgen.generate_ms"] = (mapgen_ms, "ms")
    else:
        op_s = sorted(t for r in rounds for t in r["op_s"])
        metrics = {
            "total_s": (statistics.median(r["total_s"] for r in rounds), "s"),
            "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
            "machines_planned": (first["planned"], "count"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "result": {
            "correct": not errors,
            "attempted": sum(len(r["op_s"]) for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "rounds": len(rounds),
        "digest": digest,
        "probe_ms": statistics.median(d for _, d in pace.samples) * 1e3,
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="orders the operations")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corpus-seeds",
        default=None,
        help="instance seeds as LO-HI (default: the workload's own range)",
    )
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, args.trace, args.corpus_seeds)
    print(
        f"{args.workload}: {out['rounds']} round(s), outcomes {out['digest']}, "
        f"median probe {out['probe_ms']:.3f} ms, round CPU time {out['cpu_s']:.3f} s",
        file=sys.stderr,
    )
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
