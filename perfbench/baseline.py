"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py [--out FILE]

From the root of a checkout, for each workload: untraced runs at seeds
1..10, then one traced run at the default seed.  Prints, with units, each
end-to-end metric's median, quartiles and spread (interquartile range over
median), failed_ratio (failed over attempted invocations, summed over the
runs), and the traced run's per-layer metrics.  --out also writes the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = 10


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summarise(workload: str) -> dict:
    runs = [bench(workload, seed, 0) for seed in range(1, SEEDS + 1)]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out = {"runs": SEEDS, "end_to_end": {}, "failed_ratio": failed / attempted}
    print(f"{workload}: {SEEDS} runs")
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        out["end_to_end"][m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "values": values,
        }
        print(f"  {m['name']} {med:.6g} {m['unit']} (q1 {q1:.6g}, q3 {q3:.6g}, "
              f"spread {spread:.3f}, bound {m['bound']})")
    print(f"  failed_ratio {out['failed_ratio']:.6g} ratio ({failed} of {attempted})")
    traced = bench(workload, 0, 1)
    out["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    out["per_layer_correct"] = traced["correct"]
    for name, m in traced["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    summary = {w["name"]: summarise(w["name"]) for w in SPEC["workloads"]}
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
