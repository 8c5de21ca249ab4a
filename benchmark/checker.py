"""Output checker for the sitepath benchmark.

Everything here is written from the problem statement, not from the
solver: it parses map files itself, prices cells from the raw layer
weights, runs its own Dijkstra and reachability searches and its own
collision scan. It reads a `WeightedGridMap` only through its data
fields (layers, obstacles, danger objects), never through its methods.

A plan is checked for valid paths, no collisions, recomputed costs, the
single-machine lower bound (and equality for an `optimal` plan whenever
the independent shortest paths happen to be mutually conflict-free) and,
for a replan, the definition of the midway parking cell.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from dataclasses import dataclass, field

TOL = 1e-6
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class CheckError(Exception):
    """A plan broke one of the checked properties."""


@dataclass(frozen=True)
class Machine:
    id: str
    start: tuple  # (x, y): scenario start, or actual position for a replan
    goal: tuple
    priority: float = 1.0


@dataclass
class Plan:
    status: str
    paths: dict  # id -> list of (x, y)
    costs: dict  # id -> reported cost
    total: float
    removed: set = field(default_factory=set)
    midway: dict = field(default_factory=dict)  # id -> (x, y)


@dataclass(frozen=True)
class Site:
    """Cell prices of a map; a cell absent from `cost` is impassable."""

    width: int
    height: int
    cost: dict  # (x, y) -> price of entering the cell

    def blocked(self, cells) -> "Site":
        drop = set(cells)
        return Site(
            self.width,
            self.height,
            {c: v for c, v in self.cost.items() if c not in drop},
        )

    def moves(self, c):
        x, y = c
        for dx, dy in STEPS:
            n = (x + dx, y + dy)
            if n in self.cost:
                yield n


def _price(layers, dangers, x, y) -> float:
    terrain = sum(mult * rows[y][x] for mult, rows in layers)
    return terrain + sum(
        inten / max(1, abs(x - dxp) + abs(y - dyp)) for (dxp, dyp), inten in dangers
    )


def site_from_text(text: str) -> Site:
    """Parse the map file format: header, layer blocks (first row is the
    top of the map, '#' obstacle, '?' unknown) and danger lines."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if head[0] != "map":
        raise CheckError("map file has no header")
    width, height = int(head[1]), int(head[2])
    layers, dangers, blocked = [], [], set()
    i = 1
    while i < len(lines):
        tok = lines[i]
        if tok[0] == "layer":
            rows = [[0.0] * width for _ in range(height)]
            for r in range(height):
                y = height - 1 - r
                for x, v in enumerate(lines[i + 1 + r]):
                    if v in ("#", "?"):
                        blocked.add((x, y))
                    else:
                        rows[y][x] = float(v)
            layers.append((float(tok[2]), rows))
            i += 1 + height
        elif tok[0] == "danger":
            dangers.append(((int(tok[1]), int(tok[2])), float(tok[3])))
            i += 1
        else:
            raise CheckError(f"unexpected map line {' '.join(tok)!r}")
    cost = {
        (x, y): _price(layers, dangers, x, y)
        for y in range(height)
        for x in range(width)
        if (x, y) not in blocked
    }
    return Site(width, height, cost)


def site_from_grid(grid) -> Site:
    """Price a map object from its data fields alone."""
    blocked = {(c.x, c.y) for c in grid.obstacles}
    for layer in grid.layers:
        blocked |= {(c.x, c.y) for c in layer.unknown}
    layers = [(layer.layer_weight, layer.weights) for layer in grid.layers]
    dangers = [((d.position.x, d.position.y), d.intensity) for d in grid.danger_objects]
    cost = {
        (x, y): _price(layers, dangers, x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if (x, y) not in blocked
    }
    return Site(grid.width, grid.height, cost)


# -- reading the CLI's output ---------------------------------------------


def _cell(value) -> tuple:
    x, y = value
    return (int(x), int(y))


def plan_from_files(result_json: str, schedule_csv: str) -> Plan:
    """The plan in `result.json`; `schedule.csv` must list the same paths."""
    doc = json.loads(result_json)
    paths = {a: [_cell(c) for c in cells] for a, cells in doc["schedule"].items()}
    rows = [r for r in csv.reader(io.StringIO(schedule_csv)) if r]
    csv_paths = {}
    for row in rows[1:]:
        csv_paths[row[0]] = [_cell(json.loads(tok)) for tok in row[1:] if tok.strip()]
    if csv_paths != paths:
        differ = sorted(set(csv_paths) ^ set(paths)) or sorted(
            a for a in paths if csv_paths[a] != paths[a]
        )
        raise CheckError(f"schedule.csv and result.json disagree on {differ[:5]}")
    return Plan(
        status=doc["status"],
        paths=paths,
        costs={a: float(v) for a, v in doc["costs"].items()},
        total=float(doc["total_cost"]),
        removed=set(doc["removed_agents"]),
        midway={a: _cell(c) for a, c in doc["midway_goals"].items()},
    )


def plan_from_result(result) -> Plan:
    """The plan held by a solver result object, read through its fields."""
    return Plan(
        status=result.status,
        paths={a: [(c.x, c.y) for c in p.cells] for a, p in result.schedule.items()},
        costs={a: p.cost for a, p in result.schedule.items()},
        total=result.total_cost,
        removed=set(result.removed_agents),
        midway={a: (c.x, c.y) for a, c in result.midway_goals.items()},
    )


# -- independent searches -------------------------------------------------


def shortest(site: Site, start, goal):
    """(cost, cells) of a cheapest start->goal route, entering a cell
    costs its price; None when the goal cannot be reached."""
    if start not in site.cost or goal not in site.cost:
        return None
    dist, parent = {start: 0.0}, {start: None}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == goal:
            cells = [u]
            while parent[cells[-1]] is not None:
                cells.append(parent[cells[-1]])
            return d, cells[::-1]
        if d > dist[u]:
            continue
        for v in site.moves(u):
            nd = d + site.cost[v]
            if nd < dist.get(v, math.inf):
                dist[v], parent[v] = nd, u
                heapq.heappush(heap, (nd, v))
    return None


def prices_from(site: Site, start) -> dict:
    """Cheapest cost from `start` to every reachable cell."""
    if start not in site.cost:
        return {}
    dist = {start: 0.0}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in site.moves(u):
            nd = d + site.cost[v]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reachable(site: Site, start, goal) -> bool:
    if start not in site.cost or goal not in site.cost:
        return False
    seen, todo = {start}, [start]
    while todo:
        u = todo.pop()
        if u == goal:
            return True
        for v in site.moves(u):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return False


def collisions(paths: dict) -> list:
    """Vertex clashes (goal-stay included) and swaps, as messages."""
    ids = sorted(paths)
    horizon = max((len(p) for p in paths.values()), default=0)

    def at(a, t):
        p = paths[a]
        return p[t] if t < len(p) else p[-1]

    found = []
    for t in range(horizon):
        seen = {}
        for a in ids:
            c = at(a, t)
            if c in seen:
                found.append(f"vertex clash {seen[c]}/{a} at {c} t={t}")
            seen[c] = a
        if t + 1 < horizon:
            moving = {(at(a, t), at(a, t + 1)): a for a in ids if at(a, t) != at(a, t + 1)}
            for (u, v), a in moving.items():
                b = moving.get((v, u))
                if b is not None and a < b:
                    found.append(f"swap {a}/{b} on {u}<->{v} t={t}")
    return found


# -- the checks -----------------------------------------------------------


def check_plan(site: Site, machines: list, plan: Plan, stationary=()) -> int:
    """Raise CheckError on the first broken property; return how many
    machines got a route to their goal or midway goal.

    `stationary` names machines that must wait where they stand even in
    a plan that is not a stop-all (immobile machines in a replan).
    """
    by_id = {m.id: m for m in machines}
    if set(plan.paths) != set(by_id):
        raise CheckError(
            f"plan lists {sorted(set(plan.paths) ^ set(by_id))[:5]} wrongly"
        )
    waiting = set(by_id) if plan.status == "stop_all" else plan.removed | set(stationary)
    planned = [m for m in machines if m.id not in waiting]

    for m in machines:
        path = plan.paths[m.id]
        if not path or path[0] != m.start:
            raise CheckError(f"{m.id}: path does not begin at {m.start}")
        for t, c in enumerate(path):
            if c not in site.cost:
                raise CheckError(f"{m.id}: enters blocked cell {c} at t={t}")
            if t and abs(c[0] - path[t - 1][0]) + abs(c[1] - path[t - 1][1]) > 1:
                raise CheckError(f"{m.id}: jumps {path[t - 1]} -> {c} at t={t}")
        if m.id in waiting:
            if any(c != m.start for c in path):
                raise CheckError(f"{m.id}: removed or stopped but moves")
        elif path[-1] != plan.midway.get(m.id, m.goal):
            raise CheckError(f"{m.id}: ends at {path[-1]}, not its goal")

    clashes = collisions(plan.paths)
    if clashes:
        raise CheckError(clashes[0])

    for m in machines:
        path = plan.paths[m.id]
        cost = m.priority * sum(site.cost[c] for c in path[1:])
        if abs(cost - plan.costs[m.id]) > TOL * max(1.0, cost):
            raise CheckError(
                f"{m.id}: reported cost {plan.costs[m.id]} but the path costs {cost}"
            )
    total = sum(plan.costs.values())
    if abs(total - plan.total) > TOL * max(1.0, total):
        raise CheckError(f"total cost {plan.total} is not the sum {total}")

    best = {}
    for m in planned:
        target = plan.midway.get(m.id, m.goal)
        found = shortest(site, m.start, target)
        if found is None:
            raise CheckError(f"{m.id}: planned although {target} is unreachable")
        best[m.id] = (m.priority * found[0], found[1])
        if plan.costs[m.id] < best[m.id][0] - TOL * max(1.0, best[m.id][0]):
            raise CheckError(
                f"{m.id}: cost {plan.costs[m.id]} below its optimum {best[m.id][0]}"
            )
    if plan.status == "optimal":
        alone = {a: cells for a, (_, cells) in best.items()}
        alone.update({a: [by_id[a].start] for a in waiting})
        if not collisions(alone):
            bound = sum(c for c, _ in best.values())
            if abs(plan.total - bound) > TOL * max(1.0, bound):
                raise CheckError(
                    f"optimal plan costs {plan.total}, but conflict-free "
                    f"shortest paths cost {bound}"
                )
    return len(planned)


def expected_midway(site: Site, machines: list, agent_id: str, planned_paths: dict):
    """The parking cell the definition asks for, or None.

    It lies on no other machine's planned path (goal-stay included), and
    blocking it leaves every other machine a route from where it stands
    to its goal; among such cells the cheapest for `agent_id` from where
    it stands wins, ties by lower (y, x).
    """
    by_id = {m.id: m for m in machines}
    me = by_id[agent_id]
    others = [m for m in machines if m.id != agent_id]
    occupied = set()
    for m in others:
        occupied.update(planned_paths.get(m.id, [m.start]))
    prices = prices_from(site, me.start)
    for _, y, x in sorted(
        (me.priority * d, c[1], c[0]) for c, d in prices.items() if c not in occupied
    ):
        closed = site.blocked([(x, y)])
        if all(
            m.start == (x, y) or m.start == m.goal or reachable(closed, m.start, m.goal)
            for m in others
        ):
            return (x, y)
    return None


def check_midway(site, machines, agent_id, planned_paths, reported) -> None:
    want = expected_midway(site, machines, agent_id, planned_paths)
    if want != reported:
        raise CheckError(f"{agent_id}: midway cell {reported}, expected {want}")
