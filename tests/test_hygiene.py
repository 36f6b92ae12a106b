"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import twistlog

SRC = Path(twistlog.__file__).resolve().parent


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}" for name, line in imported.items() if name not in used]


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # the package namespace re-exports
            unused += _unused_imports(path)
    assert not unused, unused
