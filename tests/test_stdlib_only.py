"""The package imports nothing outside the standard library and itself, holds
no function that nothing in it refers to or that no command runs, reads the
integer form of a matrix only in fields and linalg, and starts without the
heavy standard-library modules a run does not need."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


def _referenced_names(tree, members_only=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not members_only:
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_is_referenced_outside_its_own_body():
    # src/ keeps only what a command runs: a function whose name appears in no
    # Name or Attribute node of the package, apart from those inside its own
    # definition, is dead or test-only code.  A method or property is reached
    # only as an attribute, so for one only Attribute nodes count: a local
    # variable of the same name does not keep it alive
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    members = {
        node for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    counts = {
        only: Counter(name for tree in trees for name in _referenced_names(tree, only))
        for only in (False, True)
    }
    unreferenced = sorted(
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and counts[node in members][node.name]
        == Counter(_referenced_names(node, node in members))[node.name]
    )
    assert unreferenced == []


# The integer form of a matrix (integer rows over one denominator), the field
# hooks that read and build it, and the rank-factor blocks built on it
INTEGER_FORM = {
    "form", "of_ints", "to_ints", "from_ints", "ratio", "shrink", "primitive", "mat_mul",
    "left", "right", "dens",
}
FORM_OWNERS = {"fields.py", "linalg.py"}


def test_only_fields_and_linalg_name_the_integer_form():
    # every other module works with Matrix, EchelonBasis and RankFactors
    # operations and field elements; a member of INTEGER_FORM named as an
    # attribute anywhere else reads or writes the format outside its owners
    named = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for path in sorted(SRC.glob("*.py")) if path.name not in FORM_OWNERS
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in INTEGER_FORM
    ]
    assert named == []


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


# Functions and methods that the battery below does not call, by qualified
# name, each an error path that no input reaches with the reason it stays.
# None is left: the battery reaches every error path in the package
NOT_RUN: dict = {}


def _defined_functions():
    """{(file, line): qualified name} for every function and method in the
    package, dunders aside; a decorated def is keyed by its first
    decorator's line, which is its code object's co_firstlineno."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.ClassDef):
                    walk(child, path, name + ".")
                    continue
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    found[str(path), line] = f"{path.name}:{name}"
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _cli_battery(tmp_path):
    """Every subcommand over F_p, Q and F_7 at small sizes, the parameter-array
    inputs, and the flipped, pole, proper-closure, malformed and chain-label-less
    tables: each an argv of cli.main."""
    from support import pole_d1_text, proper_closure_d2_text
    from tdcheck.tables import bundled_table_text

    files = {
        "good.json": json.dumps({"d": 1, "theta": ["1", "-1"], "theta_star": ["1", "-1"],
                                 "zeta": ["1", "1"]}),
        "bad.json": json.dumps({"d": 1, "theta": ["1", "-1"], "theta_star": ["1", "-1"],
                                "zeta": ["2", "1"]}),
        "malformed.json": "{",
        "flipped/d1.txt": bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - y1*phi"),
        "pole/d1.txt": pole_d1_text(),
        "proper/d2.txt": proper_closure_d2_text(),
        "ungraded/d1.txt": bundled_table_text(1).replace("r : th1*r\n", "r : th1*r + phi\n"),
        "malformed/d1.txt": bundled_table_text(1).replace("r : th1*r\n", "r : th1*r +\n"),
        "unlabelled/d2.txt": bundled_table_text(2).replace("r2", "rlr2"),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    argvs = [f"check-params --input {tmp_path}/{name}.json{field}"
             for name in ("good", "bad", "malformed") for field in ("", " --field fp")]
    argvs += [f"{command} --d 3 --trials 1{field}"
              for command in ("verify-appendix", "mu-certificate", "shape", "zz rank",
                              "tds roundtrip")
              for field in ("", " --field qq", " --prime 7")]
    argvs += [
        "tds roundtrip --d 4 --trials 1 --field qq",  # the corner-cyclic route
        f"tds roundtrip --input {tmp_path}/good.json --field qq",
        f"tds roundtrip --input {tmp_path}/bad.json",
        f"verify-appendix --d 1 --trials 1 --output {tmp_path}/out.json",
        "zz enumerate --d 3",
        "zz enumerate --d 3 --feasible",
        "zz enumerate --d 3 --exclude-r 1 --exclude-s 2 --max-len 4",
        "convex --r 2",
        "verify-appendix --d 9",
    ]
    argvs += [f"{command} --d 1 --trials 2 --assets {tmp_path}/{table}"
              for table in ("flipped", "ungraded", "malformed")
              for command in ("verify-appendix", "mu-certificate", "tds roundtrip")]
    argvs += [f"{command} --d 1 --prime 3 --trials 4 --assets {tmp_path}/pole"
              for command in ("verify-appendix", "zz rank")]
    argvs += [f"{command} --d 2 --trials 1 --assets {tmp_path}/{table}"
              for table in ("proper", "unlabelled")
              for command in ("verify-appendix", "mu-certificate", "tds roundtrip")]
    return [argv.split() for argv in argvs]


def test_every_function_runs_under_a_cli_battery(tmp_path, capsys):
    # the name guard above passes a dead method that shares its name with a
    # live one; a profile of the battery does not.  suites._realized runs at
    # import, before any profile: SWEEPS holds what it returns
    from support import lowered_d1_table
    from tdcheck import suites
    from tdcheck.cli import main
    from tdcheck.fields import PrimeField
    from tdcheck.poly import MinimalPolynomialError

    battery = _cli_battery(tmp_path)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in battery]
        # a family that fails its minimal polynomial, and a pair that is not graded
        with pytest.raises(MinimalPolynomialError):
            suites._trial_checks("verify-appendix", lowered_d1_table(), PrimeField(), 0, 0)
        suites._trial_checks("tds-roundtrip", lowered_d1_table(), PrimeField(), 0, 0)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert set(codes) == {0, 1, 2}
    assert {name: f.__qualname__.split(".")[0] for name, f in suites.SWEEPS.items()} == {
        **dict.fromkeys(["verify-appendix", "mu-certificate", "shape", "zz-rank"], "_realized"),
        "tds-roundtrip": "_roundtrip_trial"}
    defined = _defined_functions()
    uncalled = sorted(name for key, name in defined.items() if key not in called)
    assert uncalled == sorted(["suites.py:_realized"] + list(NOT_RUN))
    assert set(NOT_RUN) <= set(defined.values())
