"""The package declares every third-party module its source imports, its
modules use every name they import, and its source calls or names every
function, class and module-level constant it defines."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports anywhere in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the stdlib from Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    third_party = {}
    for path in sorted((ROOT / "src" / "costcast").glob("*.py")):
        for name in imported_modules(path) - set(sys.stdlib_module_names) - {"costcast"}:
            third_party.setdefault(name, path.name)
    assert {"numpy", "orjson"} <= third_party.keys()
    undeclared = {name: where for name, where in third_party.items()
                  if name.lower() not in declared}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def unused_imports(path: Path) -> list:
    """The names a source file binds by an import and never refers to."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    # __init__.py imports its names only to re-export them
    unused = {path.name: names
              for path in sorted((ROOT / "src" / "costcast").glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path))}
    assert not unused, f"imported but never used: {unused}"


# Top-level names that nothing in the package refers to, kept for callers
# outside it.
UNREFERENCED = {
    "planner.rollout": "bench/spans.py traces it by name",
    "motion.episode_to_dict": "the tests' reference episode document",
    "metrics.METRIC_KEYS": "the tests' list of the forecasting metric keys",
}


def definitions_and_references():
    """The package's top-level functions and classes, and its constants
    (names bound by a top-level assignment, dunders aside), each as
    "module.name" -> name, and every name its source reads as a name or an
    attribute."""
    functions, constants, referenced = {}, {}, set()
    for path in sorted((ROOT / "src" / "costcast").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                functions[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants.update((f"{path.stem}.{n.id}", n.id)
                                 for target in targets for n in ast.walk(target)
                                 if isinstance(n, ast.Name) and not n.id.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return functions, constants, referenced


def assert_referenced(defined: dict, referenced: set, exempt: set) -> None:
    unreferenced = {key for key, name in defined.items() if name not in referenced}
    assert unreferenced == exempt, (
        f"defined but never referenced: {sorted(unreferenced - exempt)}; "
        f"referenced now, drop from UNREFERENCED: {sorted(exempt - unreferenced)}")


def test_every_function_and_class_has_a_caller():
    functions, constants, referenced = definitions_and_references()
    assert_referenced(functions, referenced, UNREFERENCED.keys() - constants.keys())


def test_every_module_constant_is_named():
    functions, constants, referenced = definitions_and_references()
    assert_referenced(constants, referenced, UNREFERENCED.keys() - functions.keys())
