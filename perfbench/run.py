"""Outside-in benchmark for tdcheck.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relations --seed 0 --seconds 30 --trace 0

With --trace 0 it runs the workload's CLI invocations one after another, each
as its own `python -m tdcheck.cli` process with PYTHONPATH=src and --jobs 1
(closed loop, one client), gates every report, and prints the end-to-end
metrics.  With --trace 1 it runs each invocation twice in-process through
`tdcheck.cli.main`, untraced and then with spans installed (see tracer.py),
checks that both give the same report, and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_STARTS = 21  # set-up probes per pass, at least; setup_s is their median
IMPORT_STARTS = 5  # fresh-interpreter imports per traced run
RUN_LIMIT_S = 170  # every child is killed once the run is this old
DEFAULT_SEED = 0  # the seed at which digests.json pins every report


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class InvocationTimeout(BaseException):
    """Raised by SIGALRM inside an in-process invocation that ran too long;
    a BaseException so the program's own handlers do not catch it."""


def _alarm(signum, frame):
    raise InvocationTimeout


class Runner:
    """Spawns CLI processes one at a time and gates what each prints."""

    def __init__(self, pinned: dict, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.pinned = pinned
        self.deadline = deadline
        self.attempted = 0
        self.failures: list = []
        OUT.mkdir(exist_ok=True)

    def run(self, inv: workloads.Invocation):
        """(wall seconds, peak RSS in KiB, stdout digest or None if failed)."""
        out, err = OUT / "stdout", OUT / "stderr"
        argv = [sys.executable, "-m", "tdcheck.cli", *inv.argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        timed_out = _wait_exit(pid, self.deadline - time.monotonic())
        elapsed = time.perf_counter() - t0
        _, status, usage = os.wait4(pid, 0)
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        stdout = out.read_bytes()
        return elapsed, usage.ru_maxrss, self.check(inv, code, stdout, err.read_text())

    def check(self, inv, code, stdout: bytes, stderr: str = "", want: str = None):
        """Gate one report; return its digest, or None after recording why not."""
        self.attempted += 1
        why = workloads.gate(inv, code, stdout, self.pinned)
        digest = hashlib.sha256(stdout).hexdigest()
        if why is None and want is not None and digest != want:
            why = "digest differs from the untraced run"
        if why is None:
            return digest
        self.failures.append(why)
        print(f"FAILED ({why}): PYTHONPATH=src python3 -m tdcheck.cli "
              f"{shlex.join(inv.argv)}", flush=True)
        tail = stderr.strip().splitlines()[-5:]
        for line in tail:
            print(f"    {line}", file=sys.stderr)
        return None


def _wait_exit(pid: int, timeout: float) -> bool:
    """Wait until pid exits without reaping it; kill it after timeout.
    True if it had to be killed."""
    killed = []
    lock = threading.Lock()
    exited = threading.Event()

    def kill():
        with lock:
            if not exited.is_set():
                os.kill(pid, signal.SIGKILL)
                killed.append(True)

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    with lock:
        exited.set()
    timer.cancel()
    return bool(killed)


def measure(runner: Runner, invs: list, seed: int, seconds: float) -> dict:
    """End-to-end metrics: passes over invs until another pass would end
    after `seconds` (at least one); wall_s is the median pass.  The set-up
    probes run a few before each invocation, so they are spread over the
    whole run and a slow phase of the machine does not move them all."""
    probe = workloads.setup_probe(seed)
    runner.run(probe)  # warm-up: byte-compiles src/
    per_invocation = -(-SETUP_STARTS // len(invs))
    starts, walls, rss = [], [], 0
    t0, pass_s = time.perf_counter(), 0.0
    while not walls or time.perf_counter() - t0 + pass_s <= seconds:
        p0, wall = time.perf_counter(), 0.0
        for inv in invs:
            starts += [runner.run(probe)[0] for _ in range(per_invocation)]
            elapsed, maxrss, _ = runner.run(inv)
            wall += elapsed
            rss = max(rss, maxrss)
        walls.append(wall)
        pass_s = time.perf_counter() - p0
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": rss / 1024,
    }


def measure_traced(runner: Runner, invs: list, seed: int, trace_path: Path):
    """Each invocation in-process through tdcheck.cli.main, untraced and then
    traced right after it, so both see the same machine load; the two
    reports must match.  Returns (per-layer metrics, tracer)."""
    runner.run(workloads.setup_probe(seed))  # warm-up: byte-compiles src/
    import_s = statistics.median(_import_time(runner.env) for _ in range(IMPORT_STARTS))
    _cli()  # the tracer wraps what this imports

    tr = tracer.Tracer()
    untraced_wall = traced_wall = 0.0
    for i, inv in enumerate(invs):
        elapsed, digest = _run_in_process(runner, inv)
        untraced_wall += elapsed
        tr.invocation = i
        tr.install()
        try:
            traced_wall += _run_in_process(runner, inv, digest)[0]
        finally:
            tr.uninstall()
    tr.dump(trace_path, [list(inv.argv) for inv in invs])
    metrics = {"cli.import_s": import_s, **tr.metrics(),
               "trace.overhead_ratio": traced_wall / untraced_wall}
    return metrics, tr


def _run_in_process(runner: Runner, inv: workloads.Invocation, want: str = None):
    """Call tdcheck.cli.main on inv with stdout and stderr captured and gate
    the report: (wall seconds, digest or None)."""
    cli = _cli()
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(runner.deadline - time.monotonic(), 1e-3))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inv.argv))
    except InvocationTimeout:
        code = None
    except Exception as exc:  # a traceback is a failed invocation, not a crash
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, runner.check(inv, code, out.getvalue().encode(), err.getvalue(), want)


def _cli():
    """tdcheck.cli imported from ./src into this process."""
    src = str(Path("src").resolve())
    if src not in sys.path:
        sys.path.insert(0, src)
    import tdcheck.cli

    return tdcheck.cli


def _import_time(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import tdcheck.cli; "
            "print(time.perf_counter() - t)")
    r, w = os.pipe()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, w, 1)])
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    os.waitpid(pid, 0)
    return float(text)


def environment(seed: int) -> dict:
    head = Path(".git/HEAD")
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            commit = Path(".git", ref[5:]).read_text().strip()
    return {"commit": commit, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}


def main(argv=None, tiny: bool = False) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/tdcheck/cli.py").is_file():
        print("perfbench: run from the root of a tdcheck checkout (no src/tdcheck)",
              file=sys.stderr)
        return 2
    env = environment(args.seed)
    pinned = json.loads((HERE / "digests.json").read_text())["digests"]
    runner = Runner(pinned, time.monotonic() + RUN_LIMIT_S)
    invs = workloads.build(args.workload, args.seed, OUT, tiny)

    if args.trace:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        values, _ = measure_traced(runner, invs, args.seed, path)
        unit = units("per_layer")
    else:
        values = measure(runner, invs, args.seed, args.seconds)
        unit = units("end_to_end")
    env["loadavg_end"] = os.getloadavg()
    (OUT / "stdout").unlink(missing_ok=True)
    (OUT / "stderr").unlink(missing_ok=True)

    # A metric that cannot be measured (its function was renamed away) is
    # printed as 0, so the result line always holds every metric, and is
    # named on the "absent" line.
    absent = [name for name in unit if name not in values]
    values = {name: values.get(name, 0) for name in unit}
    failed = len(runner.failures)
    print(f"environment {json.dumps(env)}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {unit[name]}")
    if absent:
        print("absent " + " ".join(absent))
    print(f"failed_ratio {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
