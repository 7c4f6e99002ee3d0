"""The package imports nothing outside the standard library and itself, holds
no function that nothing in it refers to, and starts without the heavy
standard-library modules a run does not need."""

import ast
import json
import os
import subprocess
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


# Start-up costs that a --jobs 1 run does not need: dataclasses (it imports
# inspect, ast, dis and tokenize), the process pool (multiprocessing, socket,
# pickle, subprocess) and importlib.resources.
NOT_AT_START_UP = (
    "dataclasses", "inspect", "concurrent.futures", "multiprocessing", "importlib.resources",
)

START_UP_PROBE = """
import json, sys
import tdcheck.cli
after_import = sorted(sys.modules)
code = tdcheck.cli.main(["verify-appendix", "--d", "0", "--trials", "1"])
print(json.dumps({"code": code, "after_import": after_import, "after_run": sorted(sys.modules)}))
"""


def test_start_up_loads_every_tdcheck_module_and_no_heavy_one():
    # -S keeps site (and any .pth file it runs) out of sys.modules
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    probe = json.loads(run.stdout.splitlines()[-1])
    assert probe["code"] == 0
    assert [m for m in NOT_AT_START_UP if m in probe["after_run"]] == []
    # tdcheck.cli imports the whole package, so perfbench's tracer, installed
    # after that import, wraps every module before any of them binds a target
    modules = {f"tdcheck.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules - set(probe["after_import"])) == []
