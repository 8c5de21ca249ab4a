"""Source hygiene checks that need no linter."""

import ast
import importlib.util
from pathlib import Path

import sitepath
from sitepath.grid import WeightedGridMap
from sitepath.lowlevel import SearchLimits

SOURCES = sorted(Path(sitepath.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def test_every_import_is_used():
    # __init__.py is exempt: its imports are the package's re-export list
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert SOURCES and not unused, unused


def test_names_the_benchmark_wraps_resolve():
    # `--trace 1` patches these by name; a rename would break it silently
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.SPANS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    owners = {"WeightedGridMap": WeightedGridMap, "SearchLimits": SearchLimits}
    missing += [
        f"{owner}.{attr}"
        for owner, attr in tracing.COUNTED.values()
        if not callable(getattr(owners.get(owner), attr, None))
    ]
    assert tracing.SPANS and tracing.COUNTED
    assert not missing, missing


def test_maps_are_built_only_by_the_parser_and_the_generators():
    # every other module derives a map with `dataclasses.replace`, which
    # re-runs the same compilation without a field being forgotten
    callers = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "WeightedGridMap"
    }
    assert callers == {"grid.py", "mapgen.py"}, callers


def test_no_state_outlives_a_call():
    # a cache, a `global` or a mutable module-level container would keep
    # tables and paths alive across solves; search state lives in, and
    # dies with, the objects a caller creates
    allowed = {("mapgen.py", "ARCHETYPES"), ("__init__.py", "__all__")}
    caches = {"cache", "lru_cache", "cached_property"}
    containers = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    makers = {
        "list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque", "OrderedDict"
    }

    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno}: global")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found += [
                    f"{path.name}:{d.lineno}: @{name(d)}"
                    for d in node.decorator_list
                    if name(d) in caches
                ]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and (
                isinstance(node.value, containers)
                or isinstance(node.value, ast.Call) and name(node.value) in makers
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    f"{path.name}:{node.lineno}: {t.id}"
                    for t in targets
                    if (path.name, getattr(t, "id", None)) not in allowed
                ]
    assert SOURCES and not found, found


def test_cli_errors_meet_at_one_boundary():
    # `main` turns an input error into exit 1; a command that grew its own
    # `try` would be a second error path to keep in step with it
    cli = next(path for path in SOURCES if path.name == "cli.py")
    owners = {
        node.name
        for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Try) for n in ast.walk(node))
    }
    assert owners == {"main", "_apply_overrides", "cmd_bench"}, owners


def test_hot_searches_read_the_compiled_map():
    # the goal tables and constrained A* walk `_costs` and `_offsets` by
    # flat index; a `cell_cost` or `neighbors` call would bring `Cell`
    # keys back into their inner loops
    lowlevel = next(path for path in SOURCES if path.name == "lowlevel.py")
    tree = ast.parse(lowlevel.read_text(), filename=str(lowlevel))
    table = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "BlockedGoalTable"
    )
    searches = {
        node.name: node
        for node in tree.body + table.body
        if isinstance(node, ast.FunctionDef)
        and node.name in {"goal_distances", "distance", "constrained_astar"}
    }
    assert set(searches) == {"goal_distances", "distance", "constrained_astar"}
    calls = [
        f"{name}:{node.lineno}: {node.func.attr}"
        for name, search in searches.items()
        for node in ast.walk(search)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"cell_cost", "neighbors"}
    ]
    assert not calls, calls
