"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import sitepath

SOURCES = sorted(Path(sitepath.__file__).parent.glob("*.py"))


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
