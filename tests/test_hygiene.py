"""Source hygiene: every name a module imports is used in that module, the
library imports no part of the command line, and every name the benchmark
harness reaches for still exists."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistlog

SRC = Path(twistlog.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
        unused += _unused_imports(path)
    assert not unused, unused


MODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))
LIBRARY = [name for name in MODULES if name != "cli"]


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_library_import_leaves_the_command_line_unloaded():
    # the parser is built when twistlog.cli is imported, so library users
    # must never import it
    assert {"tensor", "suite"} <= set(LIBRARY)
    imports = "".join(f"import twistlog.{name}; " for name in LIBRARY)
    loaded = "sorted({'twistlog.cli', 'argparse'} & set(sys.modules))"
    proc = _run_fresh(f"import sys; {imports}print({loaded})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_on_its_own(name):
    # the package namespace imports nothing, so no module may rely on
    # another having been imported first
    proc = _run_fresh(f"import twistlog.{name}")
    assert proc.returncode == 0, proc.stderr


# -- the benchmark surface ------------------------------------------------------


def _resolves(module: str, attr: str) -> bool:
    """Whether twistlog.<module> has ``attr``; "Class.method" is looked up
    in the class dictionary, as the tracer wraps it there."""
    mod = importlib.import_module(f"twistlog.{module}")
    owner, _, method = attr.rpartition(".")
    if owner:
        return method in vars(getattr(mod, owner, object))
    return hasattr(mod, attr)


def _is_tw(node) -> bool:
    """``tw`` or ``state["tw"]``: the namespace of twistlog modules that the
    harness hands to each workload."""
    if isinstance(node, ast.Name):
        return node.id == "tw"
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "tw"
    )


def _tw_references(path: Path) -> set:
    """Every (module, name) reached as tw.<module>.<name>, or as <alias>.<name>
    after ``alias = tw.<module>`` in the same function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    refs = set()
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        aliases = {
            target.id: node.value.attr
            for node in ast.walk(scope)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and _is_tw(node.value.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(scope):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            if isinstance(base, ast.Attribute) and _is_tw(base.value):
                refs.add((base.attr, node.attr))
            elif isinstance(base, ast.Name) and base.id in aliases:
                refs.add((aliases[base.id], node.attr))
    return refs


def _module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no {name}")


def test_every_traced_name_resolves():
    # the tracer looks each (module, attribute) up with getattr, so a
    # renamed or deleted function breaks every --trace 1 run
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [(m, a) for m, a, *_ in tracing.TRACED if not _resolves(m, a)]
    assert not missing, missing


def test_every_name_the_benchmark_calls_resolves():
    modules = _module_constant(PERFBENCH / "run.py", "MODULES")
    for module in modules:
        importlib.import_module(f"twistlog.{module}")
    refs = _tw_references(PERFBENCH / "workloads.py") | _tw_references(PERFBENCH / "run.py")
    assert ("rationals", "BACKEND") in refs
    assert ("johnson", "l_invariant_tensor") in refs
    assert {m for m, _ in refs} <= set(modules) | {"rationals"}
    missing = sorted((m, a) for m, a in refs if not _resolves(m, a))
    assert not missing, missing


# -- public names without a caller ----------------------------------------------

# Public names that nothing in the package or the benchmark harness refers
# to, each kept for a reason; any other such name is dead code.
UNCALLED = {
    "johnson.verify_nilpotent_dependence":
        "the benchmark tracer wraps it by name; twist actions on nilpotent quotients need it",
    "lie.bracket": "test tool: [u, v] by products",
    "lie.bracket_tree_tensor": "test tool: a bracket tree by products",
    "tensor.monomial_tensor": "test tool: one monomial with a coefficient",
    "words.automorphism_to_json": "writer of the conj:FILE automorphism format",
    "derivation.derivation_from_json": "reader of the l-invariant --output json format",
    "words.FreeAutomorphism.boundary_preserving":
        "twists along a Humphries set on the word side need it",
}


def _public_definitions() -> dict:
    """{"module.name" or "module.Class.property": name} for the top-level
    public functions and classes of the package and their properties."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                decorators = {d.id for d in getattr(item, "decorator_list", ()) if isinstance(d, ast.Name)}
                if "property" in decorators and not item.name.startswith("_"):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def _referenced_names(paths) -> set:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller():
    # a reference is a name or an attribute in the package or in the
    # harness's tracer and workloads; tests do not count
    callers = [*SRC.glob("*.py"), PERFBENCH / "tracing.py", PERFBENCH / "workloads.py"]
    used = _referenced_names(callers)
    uncalled = {key for key, name in _public_definitions().items() if name not in used}
    assert uncalled == set(UNCALLED)
