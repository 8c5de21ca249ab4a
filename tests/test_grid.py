"""Map model: parsing, costs, danger penalties, neighborhood."""

import math
import random

import pytest

from sitepath.grid import (
    Cell,
    DangerObject,
    IMPASSABLE,
    Layer,
    MapFormatError,
    WeightedGridMap,
    parse_map,
    serialize_map,
)
from sitepath.mapgen import open_field, two_side_site
from oracles import random_map

SAMPLE = """\
map 4 3 10
layer roughness 1
1 5 9 1
1 # 5 1
1 1 ? 9
layer safety 2
1 1 15 1
1 # 1 1
1 1 ? 1
danger 3 0 12
"""


def test_parse_sample_dimensions():
    grid = parse_map(SAMPLE)
    assert (grid.width, grid.height, grid.cell_size_m) == (4, 3, 10)
    assert [layer.name for layer in grid.layers] == ["roughness", "safety"]
    assert grid.layers[1].layer_weight == 2.0


def test_rows_are_top_down():
    grid = parse_map(SAMPLE)
    # first text row is the highest y
    assert grid.layers[0].weight_at(Cell(1, 2)) == 5.0
    assert grid.layers[0].weight_at(Cell(3, 0)) == 9.0


def test_obstacle_and_unknown_cells_impassable():
    grid = parse_map(SAMPLE)
    assert not grid.is_passable(Cell(1, 1))  # '#'
    assert not grid.is_passable(Cell(2, 0))  # '?'
    assert grid.cell_cost(Cell(1, 1)) == IMPASSABLE
    assert grid.cell_cost(Cell(2, 0)) == IMPASSABLE


def _direct_cost(grid, c):
    """A cell's cost recomputed from the layer and danger fields."""
    if c in grid.obstacles or any(c in layer.unknown for layer in grid.layers):
        return IMPASSABLE
    terrain = sum(layer.layer_weight * layer.weights[c.y][c.x] for layer in grid.layers)
    danger = sum(
        d.intensity / max(1, abs(c.x - d.position.x) + abs(c.y - d.position.y))
        for d in grid.danger_objects
    )
    return terrain + danger


def _sample_and_archetype_maps():
    return [parse_map(SAMPLE), open_field(3), two_side_site(3)]


def test_cell_cost_is_weighted_layer_sum_plus_danger():
    grid = parse_map(SAMPLE)
    # (2, 2): roughness 9*1 + safety 15*2, danger at (3,0) distance 3
    expected = 9.0 + 30.0 + 12.0 / 3
    assert grid.cell_cost(Cell(2, 2)) == pytest.approx(expected)
    for grid in _sample_and_archetype_maps():
        for c in grid.cells():
            assert grid.cell_cost(c) == _direct_cost(grid, c)
            assert grid.is_passable(c) == (_direct_cost(grid, c) != IMPASSABLE)


def test_danger_penalty_clamped_at_own_cell():
    d = DangerObject(position=Cell(3, 0), intensity=12.0)
    assert d.penalty_at(Cell(3, 0)) == 12.0  # denominator clamped at 1
    assert d.penalty_at(Cell(3, 1)) == 12.0
    assert d.penalty_at(Cell(0, 0)) == 4.0


def test_danger_penalty_non_increasing_with_distance():
    rng = random.Random(7)
    for _ in range(50):
        d = DangerObject(
            position=Cell(rng.randint(0, 9), rng.randint(0, 9)),
            intensity=rng.uniform(0.1, 50),
        )
        prev = None
        for dist in range(1, 15):
            val = d.penalty_at(Cell(d.position.x + dist, d.position.y))
            if prev is not None:
                assert val <= prev
            prev = val


def test_cell_cost_lower_bound_property():
    """cost(c) >= min over layers of (layer_weight * min entry), always >= 0."""
    rng = random.Random(11)
    for _ in range(40):
        grid = random_map(rng)
        floor = min(
            layer.layer_weight * min(min(row) for row in layer.weights)
            for layer in grid.layers
        )
        for c in grid.passable_cells():
            assert grid.cell_cost(c) >= floor >= 0.0


def test_neighbors_exclude_impassable_and_include_wait():
    rng = random.Random(23)
    for _ in range(30):
        grid = random_map(rng)
        for c in grid.passable_cells():
            nbrs = grid.neighbors(c)
            assert nbrs[0] == c, "wait action must always be available"
            assert all(grid.is_passable(n) for n in nbrs)
            assert len(nbrs) <= 5
            for n in nbrs[1:]:
                assert abs(n.x - c.x) + abs(n.y - c.y) == 1


def test_round_trip_identity():
    rng = random.Random(5)
    for _ in range(25):
        grid = random_map(rng)
        again = parse_map(serialize_map(grid))
        assert again == grid
        assert parse_map(serialize_map(again)) == again


def test_round_trip_preserves_sample():
    grid = parse_map(SAMPLE)
    assert parse_map(serialize_map(grid)) == grid


def test_min_cell_cost_matches_direct_minimum():
    grid = parse_map(SAMPLE)
    direct = min(grid.cell_cost(c) for c in grid.passable_cells())
    assert grid.min_cell_cost() == direct
    for grid in _sample_and_archetype_maps():
        lo = min(_direct_cost(grid, c) for c in grid.cells())
        assert grid.min_cell_cost() == lo
        cheapest = [c for c in grid.cells() if _direct_cost(grid, c) == lo]
        blocked = grid.with_blocked(cheapest)
        assert blocked.min_cell_cost() > lo
        for c in grid.cells():
            if c in cheapest:
                assert not blocked.is_passable(c)
                assert blocked.cell_cost(c) == IMPASSABLE
            else:
                assert blocked.cell_cost(c) == grid.cell_cost(c)
        # the original map is left as it was
        assert grid.min_cell_cost() == lo
        assert all(grid.is_passable(c) for c in cheapest)
        assert blocked.obstacles == grid.obstacles | set(cheapest)


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "map 0 3 10\nlayer a 1\n",  # zero width
        "map 2 2 10\nlayer a 1\n1 2\n1\n",  # short row
        "map 2 2 10\nlayer a 1\n1 2\n1 x\n",  # bad token
        "map 2 2 10\n",  # no layers
        "map 2 2 10\nlayer a 1\n1 2\n3 4\ndanger 5 0 1\n",  # danger out of bounds
        "map 2 2 10\nlayer a 1\n1 -2\n3 4\n",  # negative weight
        "map 1 1 10\nlayer a inf\n1\n",  # infinite layer weight
    ],
)
def test_malformed_maps_raise_with_line_numbers(text):
    with pytest.raises(MapFormatError) as info:
        parse_map(text)
    assert info.value.line is None or info.value.line >= 1


def test_layer_weights_default_to_one():
    grid = parse_map("map 1 1 10\nlayer only 1\n3\n")
    assert grid.layers[0].layer_weight == 1.0
    assert grid.cell_cost(Cell(0, 0)) == 3.0


def test_map_is_immutable():
    grid = parse_map(SAMPLE)
    with pytest.raises(Exception):
        grid.width = 9
    with pytest.raises(Exception):
        grid.layers[0].layer_weight = 5.0
