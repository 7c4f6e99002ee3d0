"""Workloads of the tdcheck benchmark and the gate every report must pass.

A workload is a list of CLI invocations made one after another.  Every input
(the `--seed` of each invocation and the check-params array file) is derived
from the benchmark seed, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

WORKLOADS = ("relations", "roundtrip-qq", "small-runs")


@dataclass(frozen=True)
class Invocation:
    argv: tuple  # arguments after `python -m tdcheck.cli`
    checks: int  # number of checks the report must hold

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _mu_checks(d: int) -> int:
    return 1 if d == 0 else d * d + 2 * d + 3


# Checks per trial, by subcommand and diameter, as the report lays them out:
# realize, rel5 (2 (d+1)^2), rel6 and rel7 (2 each), the d(d+1)(d+2)/3 band
# triples of rel8 and rel9 each, and the chain certificate.
CHECKS_PER_TRIAL = {
    "verify-appendix": lambda d: 1 + 2 * (d + 1) ** 2 + 4
    + 2 * (d * (d + 1) * (d + 2) // 3) + _mu_checks(d),
    "mu-certificate": lambda d: 1 + _mu_checks(d),
    "shape": lambda d: 1 + 2 * (d + 1) + 2,
    "zz rank": lambda d: 3,
    "tds roundtrip": lambda d: 12 + d,
}


def sweep(command: str, d: int, trials: int, field: str, seed: int) -> Invocation:
    argv = (*command.split(), "--d", str(d), "--trials", str(trials),
            "--field", field, "--seed", str(seed), "--jobs", "1")
    return Invocation(argv, trials * CHECKS_PER_TRIAL[command](d))


def setup_probe(seed: int) -> Invocation:
    """An invocation that does no trial work beyond one d = 0 trial."""
    return sweep("verify-appendix", 0, 1, "fp", seed)


def build(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list:
    """The workload's invocations for this seed; `tiny` caps every size for
    smoke tests (d <= 2, trials <= 2, r <= 6)."""
    rng = random.Random(f"{workload}/{seed}")

    def run(command, d, trials, field="fp"):
        if tiny:
            d, trials = min(d, 2), min(trials, 2)
        return sweep(command, d, trials, field, rng.randrange(1 << 32))

    if workload == "relations":
        # The acceptance fixture's shape: 20 fp and 2 qq trials per diameter.
        return [inv for d in range(6)
                for inv in (run("verify-appendix", d, 20, "fp"),
                            run("verify-appendix", d, 2, "qq"))]
    if workload == "roundtrip-qq":
        # d = 3 takes the word-span irreducibility route, d = 4, 5 the
        # corner-cyclic one.  Several trials each, since the cost of a
        # rational trial varies with the sampled values.
        return [run("tds roundtrip", 3, 4, "qq"), run("tds roundtrip", 4, 8, "qq"),
                run("tds roundtrip", 5, 4, "qq")]
    if workload == "small-runs":
        d_zz, r = (2, 6) if tiny else (5, 16)
        array = write_parameter_array(rng, out_dir / f"array-{seed}.json")
        return [
            run("verify-appendix", 2, 200),
            run("zz rank", 3, 200),
            run("mu-certificate", 4, 100),
            run("shape", 4, 50),
            run("tds roundtrip", 2, 100, "qq"),
            Invocation(("check-params", "--input", array, "--field", "qq"), 2),
            Invocation(("convex", "--r", str(r)), 1),
            Invocation(("zz", "enumerate", "--d", str(d_zz), "--exclude-r", "0",
                        "--exclude-s", str(d_zz)), 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_parameter_array(rng: random.Random, path: Path, d: int = 5) -> str:
    """Write a random admissible parameter array; return its path as given.

    Eigenvalue lists are quadratic in i, which satisfies the beta-recurrence
    with beta = 2 (all guards hold), and zeta is redrawn until zeta_d and the
    weighted ladder sum of condition (ii) are nonzero.
    """
    def quadratic():
        while True:
            a, b, c = (rng.randint(-60, 60) for _ in range(3))
            xs = [a + b * i + c * i * i for i in range(d + 1)]
            if len(set(xs)) == d + 1:
                return xs

    theta, theta_star = quadratic(), quadratic()
    while True:
        zeta = [Fraction(1)] + [Fraction(rng.randint(-99, 99), rng.randint(1, 12))
                                for _ in range(d)]
        if zeta[d] != 0 and _ladder_sum(theta, theta_star, zeta) != 0:
            break
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "d": d,
        "theta": [str(x) for x in theta],
        "theta_star": [str(x) for x in theta_star],
        "zeta": [str(z) for z in zeta],
    }))
    return str(path)


def _ladder_sum(theta, theta_star, zeta) -> Fraction:
    """sum_i eta_{d-i}(t_0) eta*_{d-i}(s_0) z_i, eta_k walking from the back."""
    d = len(theta) - 1

    def eta(xs, k):
        out = Fraction(1)
        for j in range(k):
            out *= xs[0] - xs[d - j]
        return out

    return sum(eta(theta, d - i) * eta(theta_star, d - i) * zeta[i] for i in range(d + 1))


def gate(inv: Invocation, returncode: Optional[int], stdout: bytes,
         pinned: dict) -> Optional[str]:
    """Why the invocation's report is not acceptable, or None if it is."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(rep, dict) or rep.get("overall") is not True:
        return "overall is not true"
    n = len(rep.get("checks", ()))
    if n != inv.checks:
        return f"{n} checks, expected {inv.checks}"
    want = pinned.get(inv.key)
    if want is not None and hashlib.sha256(stdout).hexdigest() != want:
        return "stdout digest differs from the pinned one"
    return None
