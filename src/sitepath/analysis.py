"""Conflict statistics across repeated runs and site-optimization advice.

Repeated solves (varying only the seed) are averaged into per-cell,
per-edge and per-agent conflict counts, split into the initial phase
(conflicts already present in the bidirectional proposals) and the
update phase (conflicts split during the constraint-tree search). Two
advisories are derived: terrain cells worth modifying near conflict
hotspots, and the agents whose removal would calm things down the most.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .cbs import Scenario, solve
from .grid import Cell, Layer, WeightedGridMap

PHASES = ("initial", "update")


@dataclass
class ConflictStats:
    vertex_counts: dict = field(default_factory=dict)  # Cell -> mean count
    edge_counts: dict = field(default_factory=dict)  # (Cell, Cell) -> mean count
    per_agent: dict = field(default_factory=dict)  # id -> (initial, update)
    runs: int = 0
    # phase-split location counts, used by the heatmap panels
    vertex_by_phase: dict = field(default_factory=lambda: {p: {} for p in PHASES})
    edge_by_phase: dict = field(default_factory=lambda: {p: {} for p in PHASES})

    def agent_total(self, agent_id: str) -> float:
        initial, update = self.per_agent.get(agent_id, (0.0, 0.0))
        return initial + update


def _edge_key(location) -> tuple:
    a, b = location
    return (a, b) if (a.x, a.y) <= (b.x, b.y) else (b, a)


def stats_from_results(results: list) -> ConflictStats:
    """Average conflict counts over a list of PlanResults."""
    runs = len(results)
    vertex: Counter = Counter()
    edge: Counter = Counter()
    vertex_phase = {p: Counter() for p in PHASES}
    edge_phase = {p: Counter() for p in PHASES}
    agent_phase: dict = {}
    for result in results:
        for c in result.conflict_log:
            if c.kind == "vertex":
                vertex[c.location] += 1
                vertex_phase[c.phase][c.location] += 1
            else:
                key = _edge_key(c.location)
                edge[key] += 1
                edge_phase[c.phase][key] += 1
            for a in c.agents:
                counts = agent_phase.setdefault(a, [0, 0])
                counts[0 if c.phase == "initial" else 1] += 1
    return ConflictStats(
        vertex_counts={k: v / runs for k, v in vertex.items()},
        edge_counts={k: v / runs for k, v in edge.items()},
        per_agent={k: (v[0] / runs, v[1] / runs) for k, v in agent_phase.items()},
        runs=runs,
        vertex_by_phase={
            p: {k: v / runs for k, v in vertex_phase[p].items()} for p in PHASES
        },
        edge_by_phase={
            p: {k: v / runs for k, v in edge_phase[p].items()} for p in PHASES
        },
    )


def collect_stats(scenario: Scenario, repetitions: int) -> tuple:
    """Solve `repetitions` times varying only the seed; returns
    (ConflictStats, list of PlanResult)."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    results = []
    for i in range(repetitions):
        run = replace(scenario, seed=scenario.seed + i)
        results.append(solve(run))
    return stats_from_results(results), results


@dataclass
class LayoutSuggestion:
    """Cells proposed for modification near conflict hotspots."""

    cells: list
    target: str = "match surrounding terrain"
    rationale: dict = field(default_factory=dict)  # Cell -> hotspot cluster cells
    target_weights: dict = field(default_factory=dict)  # Cell -> {layer: value}


def _clusters(cells: set) -> list:
    """Manhattan-adjacency connected components, largest count first."""
    remaining = set(cells)
    out = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            c = frontier.pop()
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                n = Cell(c.x + d[0], c.y + d[1])
                if n in remaining:
                    remaining.discard(n)
                    comp.add(n)
                    frontier.append(n)
        out.append(sorted(comp))
    return out


def suggest_layout(
    grid: WeightedGridMap, stats: ConflictStats, k: int = 3
) -> LayoutSuggestion:
    """Advise terrain changes that defuse the k worst conflict hotspots.

    Hotspots are connected clusters of cells whose mean vertex-conflict
    count reaches the 90th percentile of the nonzero counts. For each
    cluster, nearby cells (Manhattan distance <= 2) whose terrain differs
    from the modal weights of the cluster's surroundings are proposed to
    be set to those modal weights; obstacle cells blocking a detour are
    proposed for conversion the same way.
    """
    counts = {c: v for c, v in stats.vertex_counts.items() if v > 0}
    if not counts:
        return LayoutSuggestion(cells=[])
    values = sorted(counts.values())
    cutoff = values[min(len(values) - 1, int(0.9 * (len(values) - 1)))]
    hot = {c for c, v in counts.items() if v >= cutoff}
    clusters = _clusters(hot)
    clusters.sort(key=lambda cl: (-sum(counts[c] for c in cl), cl[0]))

    suggestion = LayoutSuggestion(cells=[])
    for cluster in clusters[:k]:
        cluster_set = set(cluster)
        # modal per-layer weight of the passable 8-neighborhood around the cluster
        ring = set()
        for c in cluster:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    n = Cell(c.x + dx, c.y + dy)
                    if n not in cluster_set and grid.in_bounds(n) and grid.is_passable(n):
                        ring.add(n)
        if not ring:
            continue
        modal = {}
        for layer in grid.layers:
            votes = Counter(layer.weight_at(n) for n in ring)
            top = max(votes.values())
            modal[layer.name] = min(v for v, n in votes.items() if n == top)
        # candidate cells within Manhattan distance 2 of the cluster
        candidates = set()
        for c in cluster:
            for dx in range(-2, 3):
                for dy in range(-2 + abs(dx), 3 - abs(dx)):
                    n = Cell(c.x + dx, c.y + dy)
                    if n not in cluster_set and grid.in_bounds(n):
                        candidates.add(n)
        for n in sorted(candidates):
            if n in suggestion.target_weights:
                continue
            blocked = not grid.is_passable(n)
            differs = blocked or any(
                layer.weight_at(n) != modal[layer.name] for layer in grid.layers
            )
            if differs:
                suggestion.cells.append(n)
                suggestion.rationale[n] = list(cluster)
                suggestion.target_weights[n] = dict(modal)
    return suggestion


def apply_layout_suggestion(
    grid: WeightedGridMap, suggestion: LayoutSuggestion
) -> WeightedGridMap:
    """New map with the suggested cells set to their target weights
    (obstacle/unknown cells become passable)."""
    targets = suggestion.target_weights
    if not targets:
        return grid
    layers = []
    for layer in grid.layers:
        rows = [list(row) for row in layer.weights]
        for c, modal in targets.items():
            rows[c.y][c.x] = modal[layer.name]
        layers.append(
            Layer(
                name=layer.name,
                weights=tuple(tuple(r) for r in rows),
                layer_weight=layer.layer_weight,
                unknown=layer.unknown - set(targets),
            )
        )
    return replace(grid, layers=tuple(layers), obstacles=grid.obstacles - set(targets))


def suggest_removal(stats: ConflictStats, k: int = 1) -> list:
    """The k agents involved in the most conflicts, ties by lower id.
    Agents with zero conflicts are never suggested."""
    if k < 1:
        raise ValueError("k must be >= 1")
    totals = {a: stats.agent_total(a) for a in stats.per_agent}
    ranked = sorted(
        (a for a, t in totals.items() if t > 0), key=lambda a: (-totals[a], a)
    )
    return ranked[:k]
