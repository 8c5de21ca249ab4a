"""Multi-layer weighted grid maps for working-site path planning.

A map is a rectangular grid where every cell carries one weight per
terrain layer (roughness, slope, safety, ...). Obstacles and unknown
cells are impassable. Danger objects add a distance-decaying penalty on
top of the layered terrain cost. Coordinates are (x, y) with (0, 0) at
the bottom-left corner; the first row of a map file is the TOP row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple


class Cell(NamedTuple):
    x: int
    y: int


IMPASSABLE = math.inf

# move order fixed for deterministic search: wait, +x, -x, +y, -y
ORTHOGONAL = (Cell(1, 0), Cell(-1, 0), Cell(0, 1), Cell(0, -1))


class MapFormatError(ValueError):
    """Raised on malformed map files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Layer:
    """One terrain criterion: an m x n weight matrix plus a scalar multiplier."""

    name: str
    weights: tuple  # row-major, weights[y][x], y=0 is the bottom row
    layer_weight: float = 1.0
    unknown: frozenset = frozenset()  # cells with no data; impassable

    def weight_at(self, c: Cell) -> float:
        return self.weights[c.y][c.x]


@dataclass(frozen=True)
class DangerObject:
    """A location machines should keep away from (crane, power station...)."""

    position: Cell
    intensity: float

    def penalty_at(self, c: Cell) -> float:
        dist = abs(c.x - self.position.x) + abs(c.y - self.position.y)
        return self.intensity / max(1, dist)


@dataclass(frozen=True)
class WeightedGridMap:
    width: int
    height: int
    layers: tuple = ()
    obstacles: frozenset = frozenset()
    danger_objects: tuple = ()
    cell_size_m: float = 10.0
    # every cell priced once, indexed y * width + x; IMPASSABLE where blocked
    _costs: tuple = field(init=False, repr=False, compare=False)
    _cheapest: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("map dimensions must be positive")
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        if not self.layers:
            raise ValueError("at least one layer is required")
        for layer in self.layers:
            if len(layer.weights) != self.height or any(
                len(row) != self.width for row in layer.weights
            ):
                raise ValueError(f"layer {layer.name!r} dimensions do not match map")
            if not (math.isfinite(layer.layer_weight) and layer.layer_weight >= 0):
                raise ValueError(
                    f"layer {layer.name!r} has invalid layer_weight {layer.layer_weight}"
                )
            for row in layer.weights:
                for v in row:
                    if not math.isfinite(v) or v < 0:
                        raise ValueError(f"layer {layer.name!r} has invalid weight {v}")
        for c in self.obstacles:
            if not self.in_bounds(c):
                raise ValueError(f"obstacle {c} out of bounds")
        for d in self.danger_objects:
            if not self.in_bounds(d.position):
                raise ValueError(f"danger object at {d.position} out of bounds")
            if not (d.intensity > 0 and math.isfinite(d.intensity)):
                raise ValueError(f"danger object at {d.position} has invalid intensity")
        costs = []
        for c in self.cells():
            if c in self.obstacles or any(c in layer.unknown for layer in self.layers):
                costs.append(IMPASSABLE)
                continue
            terrain = sum(layer.layer_weight * layer.weight_at(c) for layer in self.layers)
            costs.append(terrain + self.danger_penalty(c))
        object.__setattr__(self, "_costs", tuple(costs))
        object.__setattr__(
            self, "_cheapest", min((v for v in costs if v != IMPASSABLE), default=0.0)
        )

    # -- queries ---------------------------------------------------------

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c.x < self.width and 0 <= c.y < self.height

    def is_passable(self, c: Cell) -> bool:
        return self.in_bounds(c) and self._costs[c.y * self.width + c.x] != IMPASSABLE

    def cells(self) -> Iterator[Cell]:
        for y in range(self.height):
            for x in range(self.width):
                yield Cell(x, y)

    def passable_cells(self) -> Iterator[Cell]:
        return (c for c in self.cells() if self.is_passable(c))

    def danger_penalty(self, c: Cell) -> float:
        if not self.in_bounds(c):
            raise ValueError(f"cell {c} out of bounds")
        return sum(d.penalty_at(c) for d in self.danger_objects)

    def cell_cost(self, c: Cell) -> float:
        """Weighted terrain cost of occupying c; IMPASSABLE for blocked cells."""
        if not self.in_bounds(c):
            raise ValueError(f"cell {c} out of bounds")
        return self._costs[c.y * self.width + c.x]

    def min_cell_cost(self) -> float:
        """Cheapest passable cell cost; 0.0 on a fully blocked map."""
        return self._cheapest

    def with_blocked(self, cells) -> WeightedGridMap:
        """This map with `cells` turned into obstacles."""
        return replace(self, obstacles=self.obstacles | frozenset(cells))

    def neighbors(self, c: Cell) -> list[Cell]:
        """Wait plus the passable orthogonal moves (branching factor <= 5)."""
        moves = [c]
        for d in ORTHOGONAL:
            n = Cell(c.x + d.x, c.y + d.y)
            if self.is_passable(n):
                moves.append(n)
        return moves


# -- file format ---------------------------------------------------------
#
#   map <width> <height> <cell_size_m>
#   layer <name> <layer_weight>
#   <height rows of width values; '#'=obstacle, '?'=unknown>
#   (more layer blocks)
#   danger <x> <y> <intensity>
#
# The first grid row in the file is the top of the map (y = height-1).


def _fmt(v: float) -> str:
    return format(v, "g")


def parse_map(text: str) -> WeightedGridMap:
    lines = text.splitlines()
    pos = 0

    def next_line() -> tuple[int, list[str]] | None:
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped:
                return pos, stripped.split()
        return None

    header = next_line()
    if header is None or header[1][0] != "map":
        raise MapFormatError("missing header", header[0] if header else None)
    lineno, tokens = header
    if len(tokens) not in (3, 4):
        raise MapFormatError("header must be 'map <width> <height> [cell_size_m]'", lineno)
    try:
        width, height = int(tokens[1]), int(tokens[2])
        cell_size = float(tokens[3]) if len(tokens) == 4 else 10.0
    except ValueError:
        raise MapFormatError("header values must be numeric", lineno) from None
    if width <= 0 or height <= 0:
        raise MapFormatError("map dimensions must be positive", lineno)

    layers: list[Layer] = []
    obstacles: set[Cell] = set()
    dangers: list[DangerObject] = []
    entry = next_line()
    while entry is not None:
        lineno, tokens = entry
        if tokens[0] == "layer":
            if len(tokens) != 3:
                raise MapFormatError("layer line must be 'layer <name> <weight>'", lineno)
            name = tokens[1]
            try:
                layer_weight = float(tokens[2])
            except ValueError:
                raise MapFormatError(f"bad layer weight {tokens[2]!r}", lineno) from None
            if layer_weight < 0:
                raise MapFormatError("layer weight must be nonnegative", lineno)
            rows: list[list[float]] = [[0.0] * width for _ in range(height)]
            unknown: set[Cell] = set()
            for i in range(height):
                row_entry = next_line()
                if row_entry is None:
                    raise MapFormatError(
                        f"layer {name!r}: expected {height} rows, got {i}", lineno
                    )
                row_lineno, row_tokens = row_entry
                if len(row_tokens) != width:
                    raise MapFormatError(
                        f"expected {width} values, got {len(row_tokens)}", row_lineno
                    )
                y = height - 1 - i  # first file row is the top of the map
                for x, tok in enumerate(row_tokens):
                    if tok == "#":
                        obstacles.add(Cell(x, y))
                    elif tok == "?":
                        unknown.add(Cell(x, y))
                    else:
                        try:
                            v = float(tok)
                        except ValueError:
                            raise MapFormatError(f"bad weight {tok!r}", row_lineno) from None
                        if not math.isfinite(v) or v < 0:
                            raise MapFormatError(f"negative weight {tok}", row_lineno)
                        rows[y][x] = v
            layers.append(
                Layer(
                    name=name,
                    weights=tuple(tuple(r) for r in rows),
                    layer_weight=layer_weight,
                    unknown=frozenset(unknown),
                )
            )
        elif tokens[0] == "danger":
            if len(tokens) != 4:
                raise MapFormatError("danger line must be 'danger <x> <y> <intensity>'", lineno)
            try:
                c = Cell(int(tokens[1]), int(tokens[2]))
                intensity = float(tokens[3])
            except ValueError:
                raise MapFormatError("danger values must be numeric", lineno) from None
            if not (0 <= c.x < width and 0 <= c.y < height):
                raise MapFormatError(f"danger object {tuple(c)} out of bounds", lineno)
            if intensity <= 0:
                raise MapFormatError("danger intensity must be positive", lineno)
            dangers.append(DangerObject(position=c, intensity=intensity))
        else:
            raise MapFormatError(f"unexpected line {' '.join(tokens)!r}", lineno)
        entry = next_line()

    if not layers:
        raise MapFormatError("map declares no layers")
    if obstacles:
        # an obstacle marked in one layer blocks the cell in all of them;
        # zero the stored weights so serialization round-trips
        layers = [
            Layer(
                name=layer.name,
                weights=tuple(
                    tuple(
                        0.0 if Cell(x, y) in obstacles else layer.weights[y][x]
                        for x in range(width)
                    )
                    for y in range(height)
                ),
                layer_weight=layer.layer_weight,
                unknown=layer.unknown - obstacles,
            )
            for layer in layers
        ]
    try:
        return WeightedGridMap(
            width=width,
            height=height,
            layers=tuple(layers),
            obstacles=frozenset(obstacles),
            danger_objects=tuple(dangers),
            cell_size_m=cell_size,
        )
    except ValueError as exc:
        raise MapFormatError(str(exc)) from exc


def serialize_map(grid: WeightedGridMap) -> str:
    out = [f"map {grid.width} {grid.height} {_fmt(grid.cell_size_m)}"]
    for layer in grid.layers:
        out.append(f"layer {layer.name} {_fmt(layer.layer_weight)}")
        for y in range(grid.height - 1, -1, -1):
            row = []
            for x in range(grid.width):
                c = Cell(x, y)
                if c in grid.obstacles:
                    row.append("#")
                elif c in layer.unknown:
                    row.append("?")
                else:
                    row.append(_fmt(layer.weight_at(c)))
            out.append(" ".join(row))
    for d in grid.danger_objects:
        out.append(f"danger {d.position.x} {d.position.y} {_fmt(d.intensity)}")
    return "\n".join(out) + "\n"
