"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and timings.  Every tolerance is pinned here:

  1. relation sweep, d = 0..5: 20 prime-field trials and 2 rational trials
     per diameter, zero failures tolerated;
  2. chain certificate: same trials, every chain and corner identity exact,
     zero failures;
  3. transcription mutations: every single-coefficient sign flip in the d=3
     table is detected in at least 19 of 20 prime-field trials;
  4. combinatorial goldens: feasible words verbatim for d <= 4 (counts
     1,2,4,8,16), count 32 at d = 5, convex spanning sets for r = 1,2,3;
  5. rank experiment: feasible-word images have rank 2^d in at least 19 of 20
     prime-field trials per diameter, failures reported with replay data;
  6. round trip: 10 random valid parameter arrays per diameter reconstruct
     their split sequence exactly with all axioms passing;
  7. validator goldens: the d=3 symmetric integer array gives beta = 2 and
     vanishing second differences; zeta_0 != 1 and zeta_d = 0 are rejected
     with their condition ids;
  8. the back-to-front ladder expansion identity holds coefficientwise for
     100 random eigenvalue lists with d <= 8.
"""

import time
from fractions import Fraction

import pytest

from tdcheck.fields import FieldSpec, Rationals
from tdcheck.params import (
    COND_ZETA0,
    COND_ZETAD,
    ParameterArray,
    derive_context,
    validate_parameter_array,
)
from tdcheck.fields import Sampler
from tdcheck.suites import run_sweep
from tdcheck.tables import load_table
from tdcheck.zigzag import enumerate_convex_spanning, enumerate_feasible, word_text

from support import (
    coefficient_slots,
    eta_expansion_check,
    failure_ids,
    mutation_detections,
    with_negated_coefficient,
)

QQ = Rationals()

FP_TRIALS = 20
QQ_TRIALS = 2
SEED = 20240811


def announce(n: int, ok: bool, detail: str, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} ({detail}; {time.time() - started:.1f}s)")


@pytest.fixture(scope="module")
def relation_reports():
    """One relation+certificate sweep per (d, field kind), shared by 1 and 2."""
    out = {}
    for d in range(6):
        for kind, trials in (("fp", FP_TRIALS), ("qq", QQ_TRIALS)):
            out[(d, kind)] = run_sweep(
                "verify-appendix", d, FieldSpec(kind, seed=SEED + d), trials
            )
    return out


def _split_checks(report):
    relations, chains = [], []
    for c in report.checks:
        trial, rest = c.id.split(".", 1)
        (chains if rest.startswith("mu.") else relations).append(c)
    return relations, chains


def test_criterion_1_relation_suite(relation_reports):
    started = time.time()
    failures = []
    total = 0
    for (d, kind), rep in sorted(relation_reports.items()):
        relations, _ = _split_checks(rep)
        total += len(relations)
        failures.extend((d, kind, c) for c in relations if not c.passed)
        # every instance is present: the band sweep has d(d+1)(d+2)/3 triples
        trials = FP_TRIALS if kind == "fp" else QQ_TRIALS
        band = sum(1 for c in relations if c.id.split(".", 1)[1].startswith("rel8."))
        assert band == trials * d * (d + 1) * (d + 2) // 3
    ok = not failures
    announce(1, ok, f"{total} relation checks, {len(failures)} failures", started)
    assert ok, failures[:10]


def test_criterion_2_chain_certificate(relation_reports):
    started = time.time()
    failures = []
    total = 0
    for (d, kind), rep in sorted(relation_reports.items()):
        _, chains = _split_checks(rep)
        total += len(chains)
        failures.extend((d, kind, c) for c in chains if not c.passed)
        if d >= 1:
            # every chain step is actually exercised in every trial
            expected = {"mu.astar.phi", "mu.es0.phi", "mu.i0.identity"}
            for i in range(1, d + 1):
                expected.update(f"mu.i{i}.rchain.h{h}" for h in range(i))
                expected.update(f"mu.i{i}.lchain.h{h}" for h in range(i - 1))
                expected.add(f"mu.i{i}.weight")
                expected.add(f"mu.i{i}.identity")
            trials = FP_TRIALS if kind == "fp" else QQ_TRIALS
            for t in range(trials):
                ids = {
                    c.id.split(".", 1)[1]
                    for c in chains
                    if c.id.startswith(f"t{t:03d}.")
                }
                assert ids == expected, (d, kind, t)
    ok = not failures
    announce(2, ok, f"{total} chain checks, {len(failures)} failures", started)
    assert ok, failures[:10]


def test_criterion_3_transcription_mutations():
    started = time.time()
    table = load_table(3)
    slots = coefficient_slots(table)
    weak = []
    flips = 0
    for slot in slots:
        mutated = with_negated_coefficient(table, *slot)
        hits = mutation_detections(table, mutated, FieldSpec("fp", seed=SEED), 20)
        flips += 1
        if hits < 19:
            weak.append((slot[0], str(slot[1]), slot[2], hits))
    # the d = 3 table has 32 action terms: fewer flips would pass vacuously
    ok = flips == 32 and not weak
    announce(3, ok, f"{flips} sign flips, all detected in >= 19/20 trials", started)
    assert ok, (flips, weak)


def test_criterion_4_combinatorial_goldens():
    started = time.time()
    table = {
        0: ["e*0"],
        1: ["e*0", "e1 e*0"],
        2: ["e*0", "e1 e*0", "e2 e*0", "e*1 e2 e*0"],
        3: [
            "e*0", "e1 e*0", "e2 e*0", "e3 e*0",
            "e*1 e2 e*0", "e*1 e3 e*0", "e*2 e3 e*0", "e2 e*1 e3 e*0",
        ],
        4: [
            "e*0", "e1 e*0", "e2 e*0", "e3 e*0", "e4 e*0",
            "e*1 e2 e*0", "e*1 e3 e*0", "e*1 e4 e*0",
            "e*2 e3 e*0", "e*2 e4 e*0", "e*3 e4 e*0",
            "e2 e*1 e3 e*0", "e2 e*1 e4 e*0", "e3 e*1 e4 e*0", "e3 e*2 e4 e*0",
            "e*2 e3 e*1 e4 e*0",
        ],
    }
    for d, expected in table.items():
        got = [word_text(w) for w in enumerate_feasible(d)]
        assert got == expected, f"d={d}"
        assert len(got) == 2**d
    count5 = len(enumerate_feasible(5))
    assert count5 == 32  # computed 2^d count; the verbatim goldens stop at d=4
    assert enumerate_convex_spanning(1) == [()]
    assert enumerate_convex_spanning(2) == [(), (1,)]
    assert enumerate_convex_spanning(3) == [(), (1,), (2, 1)]
    announce(4, True, f"feasible tables verbatim for d<=4, d=5 count {count5}", started)


def test_criterion_5_rank_experiment():
    started = time.time()
    shortfall = []
    drops = []
    for d in range(6):
        rep = run_sweep("zz-rank", d, FieldSpec("fp", seed=SEED + 50 + d), FP_TRIALS)
        per_trial_ok = []
        for t in range(FP_TRIALS):
            trial_checks = [c for c in rep.checks if c.id.startswith(f"t{t:03d}.")]
            good = all(c.passed for c in trial_checks)
            per_trial_ok.append(good)
            if not good:
                drops.extend(c.detail for c in trial_checks if not c.passed)
        if sum(per_trial_ok) < 19:
            shortfall.append((d, sum(per_trial_ok)))
    ok = not shortfall
    detail = f"rank 2^d in 20/20 trials for every d" if not drops else f"drops: {drops}"
    announce(5, ok, detail, started)
    if drops:
        print("rank drops with replay data:", drops)
    assert ok, (shortfall, drops)


def test_criterion_6_roundtrip():
    started = time.time()
    failures = []
    for d in range(6):
        rep = run_sweep("tds-roundtrip", d, FieldSpec("fp", seed=SEED + 80 + d), 10)
        failures.extend((d, c.id, c.detail) for c in rep.failures())
    ok = not failures
    announce(6, ok, "60 arrays reconstructed exactly", started)
    assert ok, failures[:10]


def test_criterion_7_validator_goldens():
    started = time.time()
    theta = [Fraction(x) for x in (3, 1, -1, -3)]
    ctx = derive_context(theta, theta, [Fraction(1)] * 3, QQ)
    assert ctx.beta == 2
    assert ctx.epsilon == [Fraction(0), Fraction(0)]
    pa = ParameterArray(3, theta, theta, [Fraction(x) for x in (1, 0, 0, 5)])
    assert validate_parameter_array(pa, QQ).passed
    bad_zd = ParameterArray(3, theta, theta, [Fraction(x) for x in (1, 0, 0, 0)])
    assert COND_ZETAD in failure_ids(validate_parameter_array(bad_zd, QQ))
    bad_z0 = ParameterArray(3, theta, theta, [Fraction(x) for x in (2, 0, 0, 5)])
    assert COND_ZETA0 in failure_ids(validate_parameter_array(bad_z0, QQ))
    announce(7, True, "beta=2, eps=0, rejection ids exact", started)


def test_criterion_8_ladder_expansion_identity():
    started = time.time()
    sampler = Sampler(FieldSpec("qq", seed=SEED + 99))
    checked = 0
    for trial in range(100):
        d = trial % 8 + 1
        thetas = sampler.distinct(d + 1)
        assert eta_expansion_check(thetas, QQ), thetas
        checked += 1
    assert checked == 100
    announce(8, True, f"{checked} random lists, identity exact", started)
