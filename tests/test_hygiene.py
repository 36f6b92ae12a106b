"""Source hygiene: every name a module imports is used in that module, and
the library imports no part of the command line."""

import ast
import os
import subprocess
import sys
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


def test_library_import_leaves_the_command_line_unloaded():
    # the parser is built when twistlog.cli is imported, so library users
    # must never import it
    code = "import sys, twistlog; print(sorted({'twistlog.cli', 'argparse'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
