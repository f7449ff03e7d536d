"""Static checks on the package source."""

import ast
from pathlib import Path

import lsakit

PACKAGE = Path(lsakit.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_unused_imports_are_found():
    source = "import os\nfrom sys import argv, path as p\nprint(argv)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: p"]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's own imports are its exported names, pinned by
    # test_public_api
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert len(found) >= 10
    assert {name: names for name, names in found.items() if names} == {}
