"""Seeded generators for working-site map archetypes and scenarios.

Five archetypes mirror typical sites: an open field (with a normal and a
crowded fleet), an obstacle-strewn field, a two-side site joined by a
narrow bridge, and a terraced mining pit with a single ramp. Weights are
drawn from the standard terrain levels: roughness {1, 5, 9}, slope
{1, 5}, safety {1, 15}. A separate bottleneck family feeds the layout /
removal optimization experiments.
"""

from __future__ import annotations

import random
from collections import deque

from .cbs import Scenario
from .grid import Cell, Layer, WeightedGridMap
from .lowlevel import Agent

ROUGHNESS_LEVELS = (1.0, 5.0, 9.0)
SLOPE_LEVELS = (1.0, 5.0)
SAFETY_LEVELS = (1.0, 15.0)


def _layer(width: int, height: int) -> list:
    return [[1.0] * width for _ in range(height)]


def _build(width, height, rough, slope, safety, obstacles) -> WeightedGridMap:
    blocked = frozenset(obstacles)
    for rows in (rough, slope, safety):
        for c in blocked:
            rows[c.y][c.x] = 0.0
    return WeightedGridMap(
        width=width,
        height=height,
        layers=(
            Layer("roughness", tuple(tuple(r) for r in rough)),
            Layer("slope", tuple(tuple(r) for r in slope)),
            Layer("safety", tuple(tuple(r) for r in safety)),
        ),
        obstacles=blocked,
    )


def _component(grid: WeightedGridMap, start: Cell) -> set:
    seen = {start}
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for n in grid.neighbors(c):
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return seen


def _sprinkle(rows, rng, levels, fraction):
    height, width = len(rows), len(rows[0])
    n = int(fraction * width * height)
    for _ in range(n):
        x, y = rng.randrange(width), rng.randrange(height)
        rows[y][x] = rng.choice(levels[1:])


def random_agents(
    grid: WeightedGridMap,
    count: int,
    rng: random.Random,
    prefix: str = "agent",
    max_trip: int = 8,
) -> list:
    """Distinct starts and goals inside the largest connected region.

    Trips are capped at `max_trip` Manhattan cells: machines haul
    between nearby loading and unloading points, they do not cross the
    whole site.
    """
    passable = sorted(grid.passable_cells())
    if not passable:
        raise ValueError("map has no passable cells")
    largest = max(
        (_component(grid, c) for c in passable[:: max(1, len(passable) // 8)]),
        key=len,
    )
    pool = sorted(largest)
    if len(pool) < 2 * count:
        raise ValueError(f"not enough free cells for {count} agents")
    starts = rng.sample(pool, count)
    goals: list = []
    used_goals: set = set()
    for start in starts:
        nearby = [
            c
            for c in pool
            if c != start
            and c not in used_goals
            and 0 < abs(c.x - start.x) + abs(c.y - start.y) <= max_trip
        ]
        if not nearby:
            nearby = [c for c in pool if c != start and c not in used_goals]
        goal = rng.choice(nearby)
        used_goals.add(goal)
        goals.append(goal)
    return [
        Agent(id=f"{prefix}{i + 1}", start=starts[i], goal=goals[i])
        for i in range(count)
    ]


def open_field(seed: int, width: int = 20, height: int = 13) -> WeightedGridMap:
    """Archetype 1/2 base: mostly easy terrain, a few rough patches and
    scattered material stockpiles."""
    rng = random.Random(seed)
    rough = _layer(width, height)
    slope = _layer(width, height)
    safety = _layer(width, height)
    _sprinkle(rough, rng, ROUGHNESS_LEVELS, 0.12)
    _sprinkle(slope, rng, SLOPE_LEVELS, 0.06)
    _sprinkle(safety, rng, SAFETY_LEVELS, 0.03)
    obstacles = set()
    for _ in range(int(0.04 * width * height)):
        obstacles.add(Cell(rng.randrange(width), rng.randrange(height)))
    return _build(width, height, rough, slope, safety, obstacles)


def obstacle_field(seed: int, width: int = 17, height: int = 12) -> WeightedGridMap:
    """Archetype 3: open field cluttered with stockpile blocks."""
    rng = random.Random(seed)
    rough = _layer(width, height)
    slope = _layer(width, height)
    safety = _layer(width, height)
    _sprinkle(rough, rng, ROUGHNESS_LEVELS, 0.15)
    obstacles = set()
    for _ in range(7):
        bx = rng.randrange(1, width - 3)
        by = rng.randrange(1, height - 2)
        for dx in range(rng.randrange(1, 3)):
            for dy in range(rng.randrange(1, 3)):
                obstacles.add(Cell(bx + dx, by + dy))
    return _build(width, height, rough, slope, safety, obstacles)


def two_side_site(
    seed: int, width: int = 20, height: int = 13, bridge_width: int = 1
) -> WeightedGridMap:
    """Archetype 4: two working areas joined by a narrow bridge."""
    rng = random.Random(seed)
    rough = _layer(width, height)
    slope = _layer(width, height)
    safety = _layer(width, height)
    _sprinkle(rough, rng, ROUGHNESS_LEVELS, 0.08)
    wall_x = width // 2
    mid = height // 2
    bridge_rows = set(range(mid, mid + bridge_width))
    obstacles = {Cell(wall_x, y) for y in range(height) if y not in bridge_rows}
    for y in bridge_rows:
        rough[y][wall_x] = 1.0
    return _build(width, height, rough, slope, safety, obstacles)


def mining_site(seed: int, width: int = 17, height: int = 12) -> WeightedGridMap:
    """Archetype 5: nested terraces with a single ramp down."""
    rng = random.Random(seed)
    rough = _layer(width, height)
    slope = _layer(width, height)
    safety = _layer(width, height)
    ramp_x = width // 2
    rings = min(width, height) // 4
    for ring in range(1, rings + 1):
        x0, x1 = 2 * ring, width - 1 - 2 * ring
        y0, y1 = 2 * ring, height - 1 - 2 * ring
        if x0 > x1 or y0 > y1:
            break
        for x in range(x0, x1 + 1):
            for y in (y0, y1):
                if x != ramp_x:
                    slope[y][x] = SLOPE_LEVELS[1]
                    rough[y][x] = ROUGHNESS_LEVELS[1 + (ring % 2)]
        for y in range(y0, y1 + 1):
            for x in (x0, x1):
                slope[y][x] = SLOPE_LEVELS[1]
                rough[y][x] = ROUGHNESS_LEVELS[1 + (ring % 2)]
        # the ramp column stays easy so the pit floor is reachable
        safety[y0][ramp_x] = SAFETY_LEVELS[1]
    _sprinkle(safety, rng, SAFETY_LEVELS, 0.04)
    return _build(width, height, rough, slope, safety, set())


ARCHETYPES = {
    "archetype-1-open-20": (open_field, 20),
    "archetype-2-open-50": (open_field, 50),
    "archetype-3-obstacles": (obstacle_field, 15),
    "archetype-4-bridge": (two_side_site, 12),
    "archetype-5-mining": (mining_site, 10),
}


def archetype_scenario(name: str, seed: int, **overrides) -> Scenario:
    builder, agent_count = ARCHETYPES[name]
    grid = builder(seed)
    rng = random.Random(seed * 7919 + 1)
    if name == "archetype-4-bridge":
        agents = _crossing_agents(grid, agent_count, rng)
    else:
        agents = random_agents(grid, agent_count, rng)
    # crowded archetypes need headroom before troublemaker removal kicks in
    params = dict(name=name, seed=seed, conflict_threshold=256)
    params.update(overrides)
    return Scenario(grid=grid, agents=agents, **params)


def _crossing_agents(grid: WeightedGridMap, count: int, rng: random.Random) -> list:
    """Bridge-site fleet: a third of the machines cross the wall, the
    rest make short local trips on their own side."""
    wall_x = grid.width // 2
    left = sorted(c for c in grid.passable_cells() if c.x < wall_x)
    right = sorted(c for c in grid.passable_cells() if c.x > wall_x)
    crossers = max(2, count // 3)
    starts = rng.sample(left, count // 2) + rng.sample(right, count - count // 2)
    rng.shuffle(starts)
    used_goals: set = set()
    agents = []
    for i, start in enumerate(starts):
        crossing = i < crossers
        on_left = start.x < wall_x
        if crossing:
            pool = right if on_left else left
        else:
            side = left if on_left else right
            pool = [
                c for c in side if 0 < abs(c.x - start.x) + abs(c.y - start.y) <= 6
            ] or side
        choices = [c for c in pool if c not in used_goals and c != start]
        goal = rng.choice(choices)
        used_goals.add(goal)
        agents.append(Agent(id=f"agent{i + 1}", start=start, goal=goal))
    return agents


def bottleneck_scenario(seed: int, convoy: int = 4) -> Scenario:
    """The synthetic bottleneck family for the optimization experiments.

    A convoy crosses a single-cell bridge left to right while one
    opposing machine comes the other way. Convoy starts are staggered so
    the members reach the bridge on consecutive timesteps and never
    conflict with each other; every conflict involves the opposer.
    """
    rng = random.Random(seed)
    width, height = 15, 7
    rough = _layer(width, height)
    slope = _layer(width, height)
    safety = _layer(width, height)
    wall_x = width // 2
    bridge_y = height // 2
    obstacles = {Cell(wall_x, y) for y in range(height) if y != bridge_y}
    grid = _build(width, height, rough, slope, safety, obstacles)

    rows = rng.sample([y for y in range(height) if y != bridge_y], convoy)
    rows.sort(key=lambda r: abs(r - bridge_y))
    max_offset = abs(rows[-1] - bridge_y)
    agents = []
    for i, row in enumerate(rows):
        offset = abs(row - bridge_y)
        reach = max_offset + 1 + i  # distinct bridge arrival times
        start_x = wall_x - reach + offset
        agents.append(
            Agent(
                id=f"agent{i + 1}",
                start=Cell(start_x, row),
                goal=Cell(width - 2, row),
            )
        )
    agents.append(
        Agent(id="agent99", start=Cell(width - 1, bridge_y), goal=Cell(0, bridge_y))
    )
    return Scenario(
        grid=grid, agents=agents, seed=seed, name=f"bottleneck-{seed}"
    )
