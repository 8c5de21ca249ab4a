"""Per-layer counters and self times, taken from outside the program.

`Tracer.install()` replaces module-level functions of `sitepath` with
wrappers at the name each call resolves through (the solver imports its
helpers by name, so `sitepath.cbs.constrained_astar` is wrapped, not
`sitepath.lowlevel.constrained_astar`), and `uninstall()` puts the
originals back. A span's self time is its wall time minus the time of
the wrapped spans it called, so the `*_ms` figures add up to the traced
wall time. Hot methods (`cell_cost`, `neighbors`, `SearchLimits.tick`)
are counted but not timed.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, metric prefix); each gets `<prefix>_calls` and
# `<prefix>_ms`
SPANS = (
    ("sitepath.cli", "main", "cli.main_self"),
    ("sitepath.cli", "load_scenario", "scenario.load"),
    ("sitepath.scenario", "parse_map", "grid.parse_map"),
    ("sitepath.cli", "schedule_to_csv", "scenario.csv"),
    ("sitepath.cli", "result_to_json", "scenario.json"),
    ("sitepath.cli", "paths_svg", "svg.paths_svg"),
    ("sitepath.cli", "solve", "cbs.solve"),
    ("sitepath.cbs", "solve", "cbs.solve"),
    ("sitepath.replan", "solve", "cbs.solve"),
    ("sitepath.cbs", "goal_distances", "lowlevel.goal_distances"),
    ("sitepath.cbs", "bidirectional_astar", "lowlevel.bidirectional_astar"),
    ("sitepath.cbs", "constrained_astar", "lowlevel.constrained_astar"),
    ("sitepath.cbs", "find_conflicts", "cbs.find_conflicts"),
    ("sitepath.cbs", "apply_fallback", "cbs.fallback"),
    ("sitepath.cbs", "_joint_search", "cbs.joint_search"),
    ("sitepath.replan", "replan", "replan.replan"),
    ("sitepath.replan", "inject_delay", "replan.inject_delay"),
    ("sitepath.replan", "midway_goal", "replan.midway_goal"),
    ("sitepath.replan", "_blocks_someone", "replan.cutoff"),
    ("sitepath.replan", "start_distances", "lowlevel.start_distances"),
    ("sitepath.mapgen", "archetype_scenario", "mapgen.generate"),
    ("sitepath.mapgen", "open_field", "mapgen.generate"),
    ("sitepath.mapgen", "random_agents", "mapgen.generate"),
)

# methods that are counted, not timed: metric name -> (class, method)
COUNTED = {
    "grid.cell_cost_calls": ("WeightedGridMap", "cell_cost"),
    "grid.neighbors_calls": ("WeightedGridMap", "neighbors"),
    "lowlevel.expansions": ("SearchLimits", "tick"),
}

# (metric name, unit) in the order they are reported
LAYER_METRICS = (
    ("lowlevel.goal_distances_calls", "count"),
    ("lowlevel.goal_distances_ms", "ms"),
    ("grid.cell_cost_calls", "count"),
    ("grid.neighbors_calls", "count"),
    ("lowlevel.bidirectional_astar_calls", "count"),
    ("lowlevel.bidirectional_astar_ms", "ms"),
    ("lowlevel.constrained_astar_calls", "count"),
    ("lowlevel.constrained_astar_ms", "ms"),
    ("lowlevel.unreachable_calls", "count"),
    ("lowlevel.unreachable_ms", "ms"),
    ("lowlevel.expansions", "count"),
    ("cbs.solve_calls", "count"),
    ("cbs.solve_self_ms", "ms"),
    ("cbs.find_conflicts_calls", "count"),
    ("cbs.find_conflicts_ms", "ms"),
    ("cbs.fallback_rounds", "count"),
    ("cbs.joint_search_calls", "count"),
    ("replan.replan_self_ms", "ms"),
    ("replan.inject_delay_ms", "ms"),
    ("replan.midway_goal_calls", "count"),
    ("replan.midway_goal_ms", "ms"),
    ("replan.cutoff_checks", "count"),
    ("replan.cutoff_ms", "ms"),
    ("lowlevel.start_distances_ms", "ms"),
    ("cli.main_self_ms", "ms"),
    ("scenario.load_ms", "ms"),
    ("grid.parse_map_ms", "ms"),
    ("scenario.csv_ms", "ms"),
    ("scenario.json_ms", "ms"),
    ("svg.paths_svg_ms", "ms"),
    ("mapgen.generate_ms", "ms"),
)

# metric names that differ from `<prefix>_calls` / `<prefix>_ms`
_RENAME = {
    "cbs.solve_ms": "cbs.solve_self_ms",
    "cbs.fallback_calls": "cbs.fallback_rounds",
    "replan.replan_ms": "replan.replan_self_ms",
    "replan.cutoff_calls": "replan.cutoff_checks",
}


class Patches:
    """Attributes of modules or classes replaced for a while; `undo()` puts
    the originals back, last replaced first."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.counts = Counter()  # span prefix -> calls
        self.events = dict.fromkeys(COUNTED, 0)  # metric name -> calls
        self.ms = defaultdict(float)
        self._children = []  # child wall time of each open span, innermost last
        self._patches = Patches()

    def reset(self) -> None:
        self.counts.clear()
        self.events.update(dict.fromkeys(COUNTED, 0))
        self.ms.clear()

    def snapshot(self) -> dict:
        """Every layer metric accumulated since the last reset."""
        raw = dict(self.events)
        for prefix, n in self.counts.items():
            raw[f"{prefix}_calls"] = n
        for prefix, v in self.ms.items():
            raw[f"{prefix}_ms"] = v
        out = {name: 0 for name, _ in LAYER_METRICS}
        for key, value in raw.items():
            name = _RENAME.get(key, key)
            if name in out:
                out[name] = value
        return out

    def _span(self, prefix, fn):
        counts, ms, children = self.counts, self.ms, self._children
        unreachable = None
        if prefix == "lowlevel.constrained_astar":
            from sitepath.lowlevel import Unreachable as unreachable

        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            children.append(0.0)
            start = time.perf_counter()
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = unreachable is not None and isinstance(exc, unreachable)
                raise
            finally:
                wall = time.perf_counter() - start
                self_ms = (wall - children.pop()) * 1e3
                ms[prefix] += self_ms
                if failed:
                    counts["lowlevel.unreachable"] += 1
                    ms["lowlevel.unreachable"] += self_ms
                if children:
                    children[-1] += wall

        return wrapper

    def _count(self, name, fn):
        # hot path: a plain dict and positional arguments only
        events = self.events

        def wrapper(*args):
            events[name] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import importlib

        from sitepath.grid import WeightedGridMap
        from sitepath.lowlevel import SearchLimits

        for module, attr, prefix in SPANS:
            owner = importlib.import_module(module)
            self._patches.set(owner, attr, self._span(prefix, getattr(owner, attr)))
        owners = {"WeightedGridMap": WeightedGridMap, "SearchLimits": SearchLimits}
        for name, (owner, attr) in COUNTED.items():
            owner = owners[owner]
            self._patches.set(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        self._patches.undo()
