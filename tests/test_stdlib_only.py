"""The package imports nothing outside the standard library and itself, and
holds no function that nothing in it refers to."""

import ast
import sys
from collections import Counter
from pathlib import Path

import tdcheck

SRC = Path(tdcheck.__file__).parent


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"tdcheck"}
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert outside == []


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_is_referenced_outside_its_own_body():
    # src/ keeps only what a command runs: a function or method whose name
    # appears in no Name or Attribute node of the package, apart from those
    # inside its own definition, is dead or test-only code
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    counts = Counter(name for tree in trees for name in _referenced_names(tree))
    unreferenced = sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and counts[node.name] == Counter(_referenced_names(node))[node.name]
    )
    assert unreferenced == []
