"""Minimal SVG emitters: path overlays and conflict heatmaps.

Drawings use one CELL-pixel square per map cell with the y axis flipped
so (0, 0) renders bottom-left, matching the site convention.
"""

from __future__ import annotations

import colorsys
from xml.sax.saxutils import escape

from .grid import Cell, WeightedGridMap

CELL = 24


def _px(grid: WeightedGridMap, c: Cell) -> tuple:
    return c.x * CELL, (grid.height - 1 - c.y) * CELL


def _terrain_fill(grid: WeightedGridMap, c: Cell, lo: float, hi: float) -> str:
    if not grid.is_passable(c):
        return "#30415d"
    cost = grid.cell_cost(c)
    frac = 0.0 if hi <= lo else (cost - lo) / (hi - lo)
    # green (easy) to red (hard)
    r = int(120 + 120 * frac)
    g = int(200 - 120 * frac)
    return f"rgb({r},{g},90)"


def _grid_rects(grid: WeightedGridMap) -> list:
    lo = grid.min_cell_cost()
    hi = max((grid.cell_cost(c) for c in grid.passable_cells()), default=lo)
    out = []
    for c in grid.cells():
        x, y = _px(grid, c)
        out.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
            f'fill="{_terrain_fill(grid, c, lo, hi)}" stroke="#ffffff" stroke-width="1"/>'
        )
    return out


def _document(grid: WeightedGridMap, body: list, title: str) -> str:
    w, h = grid.width * CELL, grid.height * CELL
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">',
            f"<title>{escape(title)}</title>",
            *body,
            "</svg>",
        ]
    )


def _agent_color(index: int, count: int) -> str:
    hue = (index / max(1, count)) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.85)
    return f"rgb({int(r * 255)},{int(g * 255)},{int(b * 255)})"


def paths_svg(grid: WeightedGridMap, schedule: dict, title: str = "planned paths") -> str:
    body = _grid_rects(grid)
    ids = sorted(schedule)
    for i, agent_id in enumerate(ids):
        color = _agent_color(i, len(ids))
        pts = []
        for c in schedule[agent_id].cells:
            x, y = _px(grid, c)
            pts.append(f"{x + CELL / 2},{y + CELL / 2}")
        body.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="2.5" opacity="0.8"/>'
        )
        sx, sy = _px(grid, schedule[agent_id].cells[0])
        gx, gy = _px(grid, schedule[agent_id].cells[-1])
        body.append(
            f'<rect x="{sx + 6}" y="{sy + 6}" width="{CELL - 12}" height="{CELL - 12}" '
            f'fill="{color}"/>'
        )
        body.append(
            f'<circle cx="{gx + CELL / 2}" cy="{gy + CELL / 2}" r="{CELL / 4}" '
            f'fill="{color}"/>'
        )
    return _document(grid, body, title)


def vertex_heatmap_svg(
    grid: WeightedGridMap, counts: dict, title: str = "vertex conflicts"
) -> str:
    body = _grid_rects(grid)
    peak = max(counts.values(), default=0.0)
    for c, v in sorted(counts.items()):
        if v <= 0:
            continue
        x, y = _px(grid, c)
        opacity = v / peak if peak else 0.0
        body.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" fill="#d62728" '
            f'opacity="{opacity:.3f}"/>'
        )
    return _document(grid, body, title)


def edge_heatmap_svg(
    grid: WeightedGridMap, counts: dict, title: str = "edge conflicts"
) -> str:
    body = _grid_rects(grid)
    peak = max(counts.values(), default=0.0)
    for (a, b), v in sorted(counts.items()):
        if v <= 0:
            continue
        ax, ay = _px(grid, a)
        bx, by = _px(grid, b)
        opacity = v / peak if peak else 0.0
        body.append(
            f'<line x1="{ax + CELL / 2}" y1="{ay + CELL / 2}" '
            f'x2="{bx + CELL / 2}" y2="{by + CELL / 2}" stroke="#d62728" '
            f'stroke-width="6" opacity="{opacity:.3f}"/>'
        )
    return _document(grid, body, title)
