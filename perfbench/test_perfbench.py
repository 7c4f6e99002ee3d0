"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, tiny=True) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, unit in got.items():
        assert f"\n{name} " in out and out.split(f"\n{name} ")[1].split("\n")[0].endswith(unit)
    assert "\nabsent " not in out
    assert "\nfailed_ratio 0 ratio" in out


def test_gate_flags_a_wrong_digest(tmp_path):
    convex = next(i for i in workloads.build("small-runs", 0, tmp_path, tiny=True)
                  if i.argv[0] == "convex")
    runner = run.Runner({convex.key: "0" * 64}, time.monotonic() + 60)
    assert runner.run(convex)[2] is None
    assert runner.failures == ["stdout digest differs from the pinned one"]
    runner.pinned = {}
    digest = runner.run(convex)[2]
    runner.pinned = {convex.key: digest}
    assert runner.run(convex)[2] == digest
    assert runner.attempted == 3 and len(runner.failures) == 1


def test_self_times_add_up_to_no_more_than_each_invocation(tmp_path):
    invs = workloads.build("roundtrip-qq", 0, tmp_path, tiny=True)
    runner = run.Runner({}, time.monotonic() + 120)
    metrics, tr = run.measure_traced(runner, invs, 0, tmp_path / "trace.json")
    assert runner.failures == []
    roots = [i for i, parent in enumerate(tr.parents) if parent < 0]
    assert [tr.name_table[tr.names[i]] for i in roots] == ["cli.main"] * len(invs)
    self_times = tr.self_times()
    for root in roots:
        inv = tr.invs[root]
        total = sum(t for t, i in zip(self_times, tr.invs) if i == inv)
        assert total <= tr.ends[root] - tr.starts[root] + 1e-9
    assert min(self_times) >= -1e-9
    dumped = json.loads((tmp_path / "trace.json").read_text())
    assert len(dumped["spans"]["start"]) == len(tr.starts)


def test_missing_target_is_marked_absent(monkeypatch, capsys):
    renamed = tuple(("realization", "shape_check_renamed", name)
                    if name == "realization.shape_check" else (module, attr, name)
                    for module, attr, name in tracer.TARGETS)
    monkeypatch.setattr(tracer, "TARGETS", renamed)
    argv = ["--workload", "relations", "--seed", "0", "--seconds", "1", "--trace", "1"]
    assert run.main(argv, tiny=True) == 0
    out = capsys.readouterr().out
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)
    gone = ["realization.shape_check.calls", "realization.shape_check.self_s"]
    assert [metrics[name]["value"] for name in gone] == [0, 0]
    assert f"\nabsent {' '.join(gone)}\n" in out
    assert metrics["cli.main.calls"]["value"] >= 1


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "relations"]) != 0
    assert capsys.readouterr().out == ""


def test_an_invocation_past_the_deadline_fails_as_timed_out(tmp_path):
    slow = workloads.build("relations", 0, tmp_path)[-2]  # d = 5, 20 fp trials
    runner = run.Runner({}, time.monotonic() + 0.5)
    assert runner.run(slow)[2] is None
    assert run._run_in_process(runner, slow)[1] is None
    assert runner.failures == ["timed out", "timed out"]


def test_every_per_layer_metric_belongs_to_a_layer_of_the_table():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    prefixes = {m["name"].split(".")[0] for m in SPEC["per_layer"]}
    assert prefixes == set(layers)
