import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdcheck
from tdcheck import suites, zigzag
from tdcheck.cli import main
from tdcheck.report import VerificationReport

from support import lowered_d1_table, pole_d1_text, proper_closure_d2_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_appendix_passes_and_prints_json(capsys):
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "2", "--field", "fp",
        "--seed", "7",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["overall"] is True
    assert rep["command"] == "verify-appendix"
    assert rep["field"] == {
        "kind": "fp",
        "prime": 4611686018427387847,
        "rng": "splitmix64",
    }
    assert rep["trials"] == 2
    assert "all passed" in err


def test_identical_invocations_are_byte_identical(capsys):
    args = ["mu-certificate", "--d", "2", "--trials", "3", "--seed", "11"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


JOBS_SWEEPS = (
    ["verify-appendix"], ["mu-certificate"], ["shape"], ["zz", "rank"],
    ["tds", "roundtrip", "--field", "qq"],
)


def test_jobs_do_not_change_the_report(capsys):
    # each trial's records (the table, the context, the checks) cross the pool by pickle
    for command in JOBS_SWEEPS:
        base = [*command, "--d", "2", "--trials", "4", "--seed", "5"]
        code1, out1, _ = run_cli(capsys, *base, "--jobs", "1")
        code2, out2, _ = run_cli(capsys, *base, "--jobs", "2")
        assert code1 == code2 == 0 and out1 == out2, command


def test_check_params_rejects_bad_zeta0(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "d": 1,
                "theta": ["1", "-1"],
                "theta_star": ["1", "-1"],
                "zeta": ["2", "1"],
            }
        )
    )
    code, out, err = run_cli(capsys, "check-params", "--input", str(bad))
    assert code == 1
    rep = json.loads(out)
    assert rep["overall"] is False
    failed = [c["id"] for c in rep["checks"] if not c["passed"]]
    assert "(ii) zeta_0=1" in failed


def test_check_params_accepts_valid_array(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "d": 1,
                "theta": ["1", "-1"],
                "theta_star": ["1", "-1"],
                "zeta": ["1", "1"],
            }
        )
    )
    code, out, _ = run_cli(capsys, "check-params", "--input", str(good))
    assert code == 0
    assert json.loads(out)["overall"] is True


def test_zz_enumerate_feasible_d2(capsys):
    code, out, err = run_cli(capsys, "zz", "enumerate", "--d", "2", "--feasible")
    assert code == 0
    expected = ["e*0", "e1 e*0", "e2 e*0", "e*1 e2 e*0"]
    words = [line for line in err.strip().splitlines() if line.startswith("e")]
    assert words == expected
    rep = json.loads(out)
    assert rep["overall"] is True
    words_check = next(c for c in rep["checks"] if c["id"] == "zz.words")
    assert json.loads(words_check["detail"]) == expected


def test_convex_subcommand(capsys):
    code, out, err = run_cli(capsys, "convex", "--r", "3")
    assert code == 0
    assert "[1]" in err and "[2, 1]" in err


def test_tds_roundtrip_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "tds", "roundtrip", "--d", "1", "--trials", "2", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["command"] == "tds-roundtrip"


def test_tds_roundtrip_from_input_file(tmp_path, capsys):
    array = tmp_path / "array.json"
    array.write_text(
        json.dumps(
            {
                "d": 1,
                "theta": ["1", "-1"],
                "theta_star": ["1", "-1"],
                "zeta": ["1", "1"],
            }
        )
    )
    code, out, _ = run_cli(
        capsys, "tds", "roundtrip", "--input", str(array), "--field", "qq"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["overall"] is True
    extracted = next(c for c in rep["checks"] if c["id"] == "tds.extracted")
    tds = json.loads(extracted["detail"])
    assert tds["diameter"] == 1
    assert tds["split"] == ["1", "1"]
    assert tds["sharp"] is True


def test_tds_roundtrip_requires_d_or_input(capsys):
    assert run_cli(capsys, "tds", "roundtrip")[0] == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        # flags of random round trips are refused with --input, not silently dropped
        ("--d 5", "--d"),
        ("--d 2", "--d"),
        ("--trials 7", "--trials"),
        ("--trials 10", "--trials"),
        ("--jobs 3", "--jobs"),
        ("--jobs 1", "--jobs"),
        ("--d 5 --trials 7 --jobs 3", "--d"),
    ],
)
def test_tds_roundtrip_input_refuses_random_trial_flags(argv, flag, tmp_path, capsys):
    array = write_array(tmp_path, {"d": 1, "theta": ["1", "-1"], "theta_star": ["1", "-1"],
                                   "zeta": ["1", "1"]})
    code, out, err = run_cli(capsys, "tds", "roundtrip", "--input", array, *argv.split())
    assert (code, out, err) == (2, "", f"tdcheck: {flag} does not apply to --input\n")
    code, out, _ = run_cli(capsys, "tds", "roundtrip", "--input", array)
    assert code == 0 and json.loads(out)["trials"] == 1


def test_tds_roundtrip_defaults_to_ten_trials_and_one_job(monkeypatch, capsys):
    seen = []

    def recorded(command, d, field, seed, trials, assets, jobs):
        seen.append((command, d, trials, jobs))
        return real_run_sweep(command, d, field, seed, 1, assets, 1)

    real_run_sweep = suites.run_sweep
    monkeypatch.setattr("tdcheck.cli.run_sweep", recorded)
    assert run_cli(capsys, "tds", "roundtrip", "--d", "1")[0] == 0
    assert run_cli(capsys, "tds", "roundtrip", "--d", "1", "--trials", "3", "--jobs", "2")[0] == 0
    assert seen == [("tds-roundtrip", 1, 10, 1), ("tds-roundtrip", 1, 3, 2)]


def test_usage_error_exit_code(capsys):
    assert run_cli(capsys, "verify-appendix", "--nope")[0] == 2
    assert run_cli(capsys, "verify-appendix")[0] == 2  # missing --d
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_prime_flag_rejected_for_rationals(capsys):
    code, _, err = run_cli(
        capsys, "verify-appendix", "--d", "0", "--field", "qq", "--prime", "7",
        "--trials", "1",
    )
    assert code == 2
    assert "--prime" in err


@pytest.mark.parametrize(
    "prime,message",
    [("100", "100 is not prime"), (str(2**82), "primality check only supports")],
    ids=["100", "2**82"],
)
def test_unusable_prime_is_a_usage_error(prime, message, capsys):
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "1", "--prime", prime
    )
    assert (code, out) == (2, "")
    assert err.startswith("tdcheck: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv,need,have",
    [
        ("verify-appendix --d 5 --trials 2 --prime 3", 6, 3),
        ("verify-appendix --d 5 --trials 2 --prime 5", 6, 5),
        ("verify-appendix --d 5 --trials 2 --prime 5 --jobs 2", 6, 5),
        ("verify-appendix --d 2 --trials 2 --prime 2", 3, 2),
        ("zz rank --d 3 --trials 1 --prime 3", 4, 3),
        ("tds roundtrip --d 5 --prime 5", 6, 5),
        ("tds roundtrip --d 1 --prime 2", 3, 2),
    ],
)
def test_prime_below_d_plus_one_is_a_usage_error(argv, need, have, capsys):
    # d + 1 distinct eigenvalues cannot be drawn from fewer field elements, and
    # no d = 1 array over F_2 is valid (tests/test_params.py): refused before
    # any draw, not after MAX_ATTEMPTS rejected candidates
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"tdcheck: field too small: need {need} distinct values, {have} available\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        # zigzag-only flags are refused with --feasible, not silently dropped
        ("--d 2 --feasible --exclude-r 1", "--exclude-r does not apply to --feasible"),
        ("--d 2 --feasible --exclude-s 0", "--exclude-s does not apply to --feasible"),
        ("--d 2 --feasible --max-len 3", "--max-len does not apply to --feasible"),
        ("--d 2 --feasible --exclude-r 0", "--exclude-r does not apply to --feasible"),
        ("--d 1 --max-len -1", "--max-len must be nonnegative"),
        ("--d -2 --exclude-s 0", "d must be nonnegative"),
        ("--d -2", "d must be nonnegative"),
        ("--d -2 --feasible", "d must be nonnegative"),
    ],
)
def test_zz_enumerate_flag_misuse_is_a_usage_error(argv, message, capsys):
    code, out, err = run_cli(capsys, "zz", "enumerate", *argv.split())
    assert (code, out, err) == (2, "", f"tdcheck: {message}\n")


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "verify-appendix --d 4 --trials 2 --prime 5",
            "90b273add77ea0865614b5e46932d4ee5b5034a65a9c7fb18d6d2110457e2712",
        ),
        (
            "tds roundtrip --d 5 --trials 2 --prime 7",
            "f898e5ea2d93e0a067f8904423c8eb86bb3bd657b56eb15bb08841b190c8489c",
        ),
        (
            "tds roundtrip --d 1 --trials 2 --prime 3",
            "0cb06321929878ff936d253ceacb23f2f1936df6c1fdce871c8d2bd940327936",
        ),
    ],
)
def test_prime_of_d_plus_one_elements_still_samples(argv, digest, capsys):
    # the smallest usable primes keep their sample streams and reports
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,message",
    [
        ("verify-appendix --d 2 --trials 1", "no admissible context found after 0 attempts"),
        ("tds roundtrip --d 2 --trials 1", "no valid parameter array found after 0 attempts"),
    ],
)
def test_exhausted_sampler_fails_the_trial_as_one_sample_check(argv, message, monkeypatch, capsys):
    from tdcheck import params
    from tdcheck.fields import derive_seed

    monkeypatch.setattr(params, "MAX_ATTEMPTS", 0)
    code, out, err = run_cli(capsys, *argv.split())
    detail = f"trial 0, seed {derive_seed(0, 0)}: {message}"
    assert code == 1
    assert json.loads(out)["checks"] == [{"detail": detail, "id": "t000.sample", "passed": False}]
    assert err.splitlines()[1:] == [f"  FAIL t000.sample: {detail}"]


def test_output_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "shape", "--d", "0", "--trials", "1", "--output", str(target)
    )
    assert code == 0
    assert target.read_text().strip() == out.strip()


@pytest.mark.parametrize(
    "argv",
    [("verify-appendix", "--d", "1", "--trials", "1"), ("zz", "enumerate", "--d", "2")],
    ids=["verify-appendix", "zz-enumerate"],
)
@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no-parent", "directory"])
def test_unwritable_output_is_a_usage_error(argv, target, tmp_path, capsys):
    # refused before any trial or enumeration runs: no report, no word echo
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
    assert (code, out) == (2, "")
    assert err == f"tdcheck: cannot write --output {tmp_path / target}\n"
    assert list(tmp_path.iterdir()) == []


def test_failing_verification_exits_one(tmp_path, capsys):
    # a corrupted asset directory: flip one coefficient sign in the d=1 table
    from tdcheck.tables import bundled_table_text

    assets = tmp_path
    for d in range(6):
        (assets / f"d{d}.txt").write_text(bundled_table_text(d))
    (assets / "d1.txt").write_text(
        bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - y1*phi")
    )
    code, out, _ = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "2", "--seed", "1",
        "--assets", str(assets),
    )
    assert code == 1
    assert json.loads(out)["overall"] is False


def test_a_table_that_lowers_under_a_is_a_usage_error_at_its_term(tmp_path, capsys):
    # r -> phi added to a: a term that moves down a row block under a breaks
    # the split grading, which the parser checks before any trial runs
    from tdcheck.tables import bundled_table_text

    text = bundled_table_text(1).replace("r : th1*r\n", "r : th1*r + phi\n")
    (tmp_path / "d1.txt").write_text(text)
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "2", "--assets", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err == ("tdcheck: action a: term phi of r must move one row block up, from row 1"
                   " to row 2 at line 10, column 13\n")


def test_a_sweep_whose_family_fails_its_minimal_polynomial_is_a_usage_error(capsys, monkeypatch):
    # the parser's grading proves the minimal polynomial of every table it
    # reads, so no trial reports one: a table built past the parser raises at
    # the first trial, and the command prints one line and exits 2, also
    # when the error crosses the process pool
    monkeypatch.setattr(suites, "load_table", lambda d, assets=None: lowered_d1_table())
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, "verify-appendix", "--d", "1", "--trials", "2",
                                 "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == "tdcheck: minimal polynomial check failed: product has rank 2, expected 0\n"


@pytest.mark.parametrize("command", ["verify-appendix", "mu-certificate", "shape", "zz-rank",
                                     "tds-roundtrip"])
def test_a_table_built_past_the_parser_fails_only_a_sweep_that_reads_its_family(command):
    # a sweep that builds the family of a raises; shape and the weight
    # certificate build no family (the certificate reads the corner row of
    # e*_0, from a* alone), and construction reads that row too.  The round
    # trip's extraction meets the table at its numeric grading check, before
    # it builds either family
    from tdcheck.fields import PrimeField
    from tdcheck.poly import MinimalPolynomialError

    def failed():
        checks = suites._trial_checks(command, lowered_d1_table(), PrimeField(), 0, 0)
        return [c.id for c in checks if not c.passed]

    if command in ("verify-appendix", "zz-rank"):
        with pytest.raises(MinimalPolynomialError, match="product has rank 2, expected 0"):
            failed()
        return
    ids = failed()
    assert ids[:1] == {"mu-certificate": [], "shape": [],
                       "tds-roundtrip": ["t000.tds.grading.a"]}[command]
    assert "t000.tds.construct" not in ids


def test_each_sweep_builds_only_the_idempotent_families_it_reads(monkeypatch):
    # shape reads the row blocks and the weight certificate the corner row
    # of e*_0, so neither builds a family; the relation suite, the
    # feasible-word walk and the round trip's extraction read both families,
    # each built once per trial
    from tdcheck import realization
    from tdcheck.fields import PrimeField
    from tdcheck.tables import load_table

    calls = []
    lagrange = realization.lagrange_idempotents

    def counted(op, values):
        calls.append(1)
        return lagrange(op, values)

    monkeypatch.setattr(realization, "lagrange_idempotents", counted)
    table, counts = load_table(3), {}
    for command in suites.SWEEPS:
        for t in range(2):
            calls.clear()
            checks = suites._trial_checks(command, table, PrimeField(), 0, t)
            assert all(c.passed for c in checks)
            counts[command, t] = len(calls)
    assert counts == {(command, t): n for command, n in (
        ("verify-appendix", 2), ("mu-certificate", 0), ("shape", 0), ("zz-rank", 2),
        ("tds-roundtrip", 2)) for t in range(2)}


@pytest.mark.parametrize("field", ["fp", "qq"])
def test_a_round_trip_trial_reads_the_split_once(field, monkeypatch):
    # construction reads the realization's split and extraction reads it back:
    # one split_sequence per trial at every d
    from tdcheck import realization
    from tdcheck.fields import PrimeField, Rationals
    from tdcheck.tables import load_table

    calls = []
    split_sequence = realization.split_sequence

    def counted(*args):
        calls.append(1)
        return split_sequence(*args)

    monkeypatch.setattr(realization, "split_sequence", counted)
    f = PrimeField() if field == "fp" else Rationals()
    counts = []
    for d in range(6):
        calls.clear()
        checks = suites._trial_checks("tds-roundtrip", load_table(d), f, 0, 0)
        assert all(c.passed for c in checks), d
        counts.append(len(calls))
    assert counts == [1] * 6


@pytest.mark.parametrize("field", ["fp", "qq"])
def test_a_pair_transposes_each_operator_once_per_trial(field, monkeypatch):
    # the corner walks a*^T, the split a^T and extraction's dual closure both,
    # all from the pair's one transposed pair: two transposes wherever the
    # split is read, none where it is not
    from tdcheck.fields import PrimeField, Rationals
    from tdcheck.linalg import Matrix
    from tdcheck.tables import load_table

    calls = []
    transpose = Matrix.transpose

    def counted(self):
        calls.append(1)
        return transpose(self)

    monkeypatch.setattr(Matrix, "transpose", counted)
    f = PrimeField() if field == "fp" else Rationals()
    table, counts = load_table(5), {}
    for command in suites.SWEEPS:
        calls.clear()
        checks = suites._trial_checks(command, table, f, 0, 0)
        assert all(c.passed for c in checks), command
        counts[command] = len(calls)
    assert counts == {"verify-appendix": 2, "mu-certificate": 2, "shape": 0, "zz-rank": 0,
                      "tds-roundtrip": 2}


def pole_table(tmp_path):
    """support.pole_d1_text as the d1.txt of an --assets directory."""
    (tmp_path / "d1.txt").write_text(pole_d1_text())
    return str(tmp_path)


@pytest.mark.parametrize("argv", [("verify-appendix",), ("mu-certificate",), ("shape",),
                                  ("zz", "rank")])
def test_a_coefficient_with_a_pole_at_a_sampled_point_fails_that_trial(argv, tmp_path, capsys):
    # each trial at a pole fails as realize.evaluate and names its seed; the
    # sweep exits 1 with a report, and the trial replays alone.  Where the
    # scale is not 1 the chain certificate fails too, as it should
    from tdcheck.fields import PrimeField, derive_seed
    from tdcheck.tables import load_table

    assets = pole_table(tmp_path)
    code, out, _ = run_cli(capsys, *argv, "--d", "1", "--prime", "3", "--trials", "20",
                           "--seed", "0", "--assets", assets)
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    poles = [c for c in failed if ".realize." in c["id"]]
    assert poles and all(re.fullmatch(r"t\d{3}\.realize\.evaluate", c["id"]) for c in poles)
    if argv in (("shape",), ("zz", "rank")):
        assert poles == failed
    for c in poles:
        trial = int(c["id"][1:4])
        assert c["detail"] == (f"trial {trial}, seed {derive_seed(0, trial)}:"
                               " zero base with negative power in '(th0-ths0)^-1'")
    command = argv[0] if len(argv) == 1 else "zz-rank"
    replay = suites._trial_checks(command, load_table(1, assets), PrimeField(3), 0, trial)
    assert [(c.id, c.passed, c.detail) for c in replay] == [(c["id"], False, c["detail"])]


@pytest.mark.parametrize(
    "argv,code",
    [(("verify-appendix",), 1), (("mu-certificate",), 1), (("shape",), 0),
     (("zz", "rank"), 0), (("tds", "roundtrip"), 0)],
)
def test_table_without_a_chain_label_fails_the_certificate_only(argv, code, tmp_path, capsys):
    # r2 renamed rlr2 throughout: same row index, same matrices, no label r^2
    from tdcheck.tables import bundled_table_text

    (tmp_path / "d2.txt").write_text(re.sub(r"\br2\b", "rlr2", bundled_table_text(2)))
    got, out, err = run_cli(capsys, *argv, "--d", "2", "--trials", "1", "--assets", str(tmp_path))
    failures = [line.strip() for line in err.splitlines() if line.startswith("  FAIL ")]
    assert got == code and json.loads(out)["overall"] is (code == 0)
    if code:
        assert failures == [
            "FAIL t000.mu.labels: trial 0, seed 10451216379200822465:"
            " chain labels not in basis: r2"
        ]
    else:
        assert failures == []


def test_a_raising_step_fault_fails_every_chain_that_reads_it(tmp_path, capsys):
    # a.phi = th0 phi - r: the raising step h = 0 fails, and so does the corner
    # identity, under every i >= 1 of both trials
    from tdcheck.tables import bundled_table_text

    for d in range(6):
        (tmp_path / f"d{d}.txt").write_text(bundled_table_text(d))
    text = bundled_table_text(3)
    assert "phi : th0*phi + r\n" in text
    (tmp_path / "d3.txt").write_text(text.replace("phi : th0*phi + r\n", "phi : th0*phi - r\n"))
    code, out, err = run_cli(
        capsys, "mu-certificate", "--d", "3", "--trials", "2", "--seed", "5",
        "--assets", str(tmp_path),
    )
    assert code == 1
    seeds = {0: 7958955049054603978, 1: 7191089600892374487}
    assert err.splitlines() == ["mu-certificate: 38 checks over 2 trial(s), 12 FAILED"] + [
        f"  FAIL t{t:03d}.mu.i{i}.{line}"
        for t in (0, 1) for i in (1, 2, 3)
        for line in (
            f"rchain.h0: trial {t}, seed {seeds[t]}: (a - th0).r^0 != r^1",
            f"identity: trial {t}, seed {seeds[t]}:"
            f" e*_0 tau_{i}(a) e*_0 phi has the wrong coefficient",
        )
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "68b260a2d94f5161ac7034c87bafac4fc8898ad5b347b744d43b28c30bc9d4ac"
    )


DIGITS = "1" * 5000  # longer than int() converts from text by default (4,300)


@pytest.mark.parametrize(
    "old,new",
    [("+ y1*phi", f"+ {coeff}*phi") for coeff in (
        "(" * 300 + "y1" + ")" * 300,
        "(y1" + "+0" * 5000 + ")",
        "th0^3000000",
        DIGITS,
        f"y1^{DIGITS}",
        f"th{DIGITS}",
    )] + [("phi\nr\n", f"phi\nr{DIGITS}\n"), ("d = 1", f"d = 0{DIGITS}")],
    ids=["parens", "sum", "exponent", "digits-literal", "digits-exponent",
         "digits-scalar-index", "digits-basis-label", "digits-header"],
)
def test_too_deeply_nested_table_is_a_usage_error(old, new, tmp_path, capsys):
    from tdcheck.tables import bundled_table_text

    text = bundled_table_text(1)
    assert old in text
    (tmp_path / "d1.txt").write_text(text.replace(old, new, 1))
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "1", "--assets", str(tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("tdcheck: ") and len(err.strip().splitlines()) == 1
    assert " at line " in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv", [("verify-appendix",), ("tds", "roundtrip")], ids=["verify-appendix", "tds-roundtrip"]
)
def test_scalar_index_with_a_leading_zero_is_a_usage_error(argv, tmp_path, capsys):
    # y01 names no scalar (only y1 is bound): one verdict, the table's line and column
    from tdcheck.tables import bundled_table_text

    (tmp_path / "d1.txt").write_text(bundled_table_text(1).replace("y1*phi", "y01*phi"))
    code, out, err = run_cli(capsys, *argv, "--d", "1", "--trials", "1", "--assets", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == (
        "tdcheck: unknown scalar name 'y01': index 01 has a leading zero at line 14, column 14\n"
    )


def proper_closure_assets(directory):
    from tdcheck.tables import bundled_table_text

    for d in range(6):
        text = proper_closure_d2_text() if d == 2 else bundled_table_text(d)
        (directory / f"d{d}.txt").write_text(text)
    return str(directory)


@pytest.mark.parametrize(
    "argv,trials,digest",
    [
        ((), 3, "5147b6bea9c96ad0e9d68a85409fc9fdf83e3b5fe74a2570480403b02231de0b"),
        (("--field", "qq"), 2, "7cd65bc91b37e17274bcde94697d0b20b4466dff1680dee9abd50fd43b128ffa"),
    ],
    ids=["fp", "qq"],
)
def test_roundtrip_on_a_proper_closure_restricts_the_pair(argv, trials, digest, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "tds", "roundtrip", "--d", "2", "--trials", str(trials), *argv,
        "--assets", proper_closure_assets(tmp_path),
    )
    assert code == 1
    checks = json.loads(out)["checks"]
    for t in range(trials):
        mine = [c for c in checks if c["id"].startswith(f"t{t:03d}.")]
        assert any(
            c["id"].startswith(f"t{t:03d}.tds.note.") and c["detail"].endswith(
                ": degenerate parameter point: closure dim 3/4, support length 3/3")
            for c in mine
        )
        assert sorted(c["id"] for c in mine if not c["passed"]) == [
            f"t{t:03d}.tds.band.e.2.0", f"t{t:03d}.tds.band.es.0.2"
        ]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def write_array(tmp_path, obj) -> str:
    path = tmp_path / "array.json"
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def test_reducible_roundtrip_reports_one_irreducibility_failure(tmp_path, capsys):
    array = write_array(
        tmp_path,
        {"d": 2, "theta": ["1", "2", "3"], "theta_star": ["1", "2", "3"],
         "zeta": ["1", "1", "1"]},
    )
    code, out, _ = run_cli(capsys, "tds", "roundtrip", "--field", "qq", "--input", array)
    assert code == 1
    irreducible = [c for c in json.loads(out)["checks"] if c["id"] == "tds.irreducible"]
    assert len(irreducible) == 1 and not irreducible[0]["passed"]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_is_a_usage_error(trials, capsys):
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", trials
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(jobs, capsys):
    code, out, err = run_cli(
        capsys, "verify-appendix", "--d", "1", "--trials", "2", "--jobs", jobs
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_jobs_never_start_more_workers_than_trials(monkeypatch, capsys):
    started = []

    class RecordingPool:
        """Records max_workers and maps in-process: no worker is started."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_sweep imports the pool class from concurrent.futures on its jobs > 1 branch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: 8)
    base = ["shape", "--d", "1", "--trials", "3", "--seed", "5"]
    code, out, _ = run_cli(capsys, *base, "--jobs", "100000")
    assert code == 0 and started == [3]
    assert out == run_cli(capsys, *base, "--jobs", "1")[1]
    # nor more than CPUs: trials above the CPU count start one worker per CPU,
    # and on one CPU (or an unknown count) --jobs > 1 still runs a pool
    for cpus, want in ((8, 8), (1, 1), (None, 1)):
        monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
        started.clear()
        code, out, _ = run_cli(capsys, "shape", "--d", "1", "--trials", "12", "--jobs", "5000")
        assert code == 0 and started == [want]


MALFORMED = {
    "zero denominator": {"d": 1, "theta": ["1/0", "1"], "theta_star": ["1", "-1"],
                         "zeta": ["1", "1"]},
    "top-level array": [1, ["1", "-1"], ["1", "-1"], ["1", "1"]],
    "string for a list": {"d": 2, "theta": "123", "theta_star": ["1", "2", "3"],
                          "zeta": ["1", "1", "1"]},
    "number for a scalar": {"d": 1, "theta": [1, -1], "theta_star": ["1", "-1"],
                            "zeta": ["1", "1"]},
    "fractional d": {"d": 1.5, "theta": ["1", "-1"], "theta_star": ["1", "-1"],
                     "zeta": ["1", "1"]},
    "missing key": {"d": 1, "theta": ["0", "1"]},
}


@pytest.mark.parametrize("obj", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_array_is_rejected_cleanly(obj, tmp_path, capsys):
    array = write_array(tmp_path, obj)
    code, out, _ = run_cli(capsys, "check-params", "--input", array)
    assert code == 1
    parse = [c for c in json.loads(out)["checks"] if c["id"] == "params.parse"]
    assert len(parse) == 1 and not parse[0]["passed"]

    code, out, err = run_cli(capsys, "tds", "roundtrip", "--input", array)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_scalar_with_a_huge_exponent_fails_parse_or_is_a_usage_error(tmp_path, capsys):
    array = write_array(
        tmp_path,
        {"d": 1, "theta": ["1e30000000", "-1"], "theta_star": ["1", "-1"], "zeta": ["1", "1"]},
    )
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "check-params", "--field", "qq", "--input", array)
    parse = [c for c in json.loads(out)["checks"] if c["id"] == "params.parse"]
    assert code == 1 and not parse[0]["passed"]
    assert parse[0]["detail"] == "malformed input: scalar '1e30000000' has more than 4300 digits"
    code, out, err = run_cli(capsys, "tds", "roundtrip", "--field", "qq", "--input", array)
    assert (code, out) == (2, "")
    assert err == "tdcheck: scalar '1e30000000' has more than 4300 digits\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("prime", [[], ["--prime", "7"]], ids=["default-prime", "f7"])
@pytest.mark.parametrize("scalar", [DIGITS, "1/" + DIGITS, "-" + DIGITS + "/3"],
                         ids=["integer", "denominator", "numerator"])
def test_prime_field_refuses_an_over_long_scalar_by_name(scalar, prime, tmp_path, capsys):
    array = write_array(
        tmp_path, {"d": 1, "theta": [scalar, "-1"], "theta_star": ["1", "-1"], "zeta": ["1", "1"]}
    )
    message = f"scalar {scalar[:24]!r} has more than 4300 digits"
    code, out, err = run_cli(capsys, "tds", "roundtrip", "--input", array, *prime)
    assert (code, out, err) == (2, "", f"tdcheck: {message}\n")
    code, out, _ = run_cli(capsys, "check-params", "--field", "fp", "--input", array, *prime)
    parse = [c for c in json.loads(out)["checks"] if c["id"] == "params.parse"]
    assert code == 1 and parse[0]["detail"] == f"malformed input: {message}"


def test_roundtrip_input_above_max_diameter_is_a_usage_error(tmp_path, capsys):
    array = write_array(
        tmp_path,
        {"d": 6, "theta": [str(i) for i in range(7)],
         "theta_star": [str(i) for i in range(7)], "zeta": ["1"] * 7},
    )
    code, out, err = run_cli(capsys, "tds", "roundtrip", "--input", array)
    assert (code, out) == (2, "")
    assert err == run_cli(capsys, "tds", "roundtrip", "--d", "6")[2]
    assert len(err.strip().splitlines()) == 1


def test_convex_over_budget_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(zigzag, "MAX_CONVEX_SEQUENCES", 41)
    code, out, err = run_cli(capsys, "convex", "--r", "10")  # p(10) = 42
    assert (code, out) == (2, "")
    assert err.startswith("tdcheck: ") and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# fuzzing the --input parameter-array file

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
SCALARS = st.sampled_from(
    ["0", "1", "-1", "2", "3", "-2", "1/2", "-3/4", "1/0", "x", "1.5", "", " 2 ",
     0, 1, 1.5, None, True, [], {}]
)


@st.composite
def _array_objects(draw):
    d = draw(st.integers(-1, 7))

    def scalars():
        n = draw(st.one_of(st.just(max(d + 1, 0)), st.integers(0, 9)))
        return draw(st.lists(SCALARS, min_size=n, max_size=n))

    return {"d": d, "theta": scalars(), "theta_star": scalars(), "zeta": scalars()}


INPUT_DOCUMENTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    _array_objects().map(json.dumps),
    st.text(max_size=40),
)
INPUT_COMMANDS = (
    ("check-params", "--field", "qq"),
    ("check-params", "--field", "fp"),
    ("tds", "roundtrip", "--field", "fp"),
)


def _main_on_document(argv, document):
    """main(argv + --input FILE) with FILE holding `document`: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "array.json"
        path.write_text(document)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


# documents nested past the parser's recursion limit
DEEP_DOCUMENTS = ("[" * 100000, '{"d": ' + "[" * 100000)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INPUT_COMMANDS), INPUT_DOCUMENTS)
@example(INPUT_COMMANDS[0], DEEP_DOCUMENTS[0])
@example(INPUT_COMMANDS[2], DEEP_DOCUMENTS[0])
@example(INPUT_COMMANDS[1], DEEP_DOCUMENTS[1])
@example(INPUT_COMMANDS[2], DEEP_DOCUMENTS[1])
def test_any_input_file_gives_a_report_or_a_usage_error(argv, document):
    code, out, err = _main_on_document(argv, document)
    if code == 2:
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    else:
        assert code in (0, 1)
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["overall"] is (code == 0)



def test_zz_enumerate_echoes_each_word_once(capsys, monkeypatch):
    def words_detail(out):
        return next(c for c in json.loads(out)["checks"] if c["id"] == "zz.words")["detail"]

    summary = "zz-enumerate: 2 checks over 1 trial(s), all passed\n"
    code, out, err = run_cli(capsys, "zz", "enumerate", "--d", "3", "--feasible")
    assert code == 0
    words = json.loads(words_detail(out))
    assert len(words) == 8
    assert err == "".join(w + "\n" for w in words) + summary
    # an empty word list (no CLI input yields one) echoes nothing
    monkeypatch.setattr("tdcheck.cli.enumerate_zz", lambda *a, **k: ({}, iter([])))
    code, out, err = run_cli(capsys, "zz", "enumerate", "--d", "1")
    assert code == 0
    assert err == summary
    assert words_detail(out) == "[]"


ZZ_STREAMS = (
    ("zz", "enumerate", "--d", "3", "--exclude-r", "0", "--exclude-s", "3"),
    ("zz", "enumerate", "--d", "1", "--max-len", "300"),  # about 270,000 characters
    ("zz", "enumerate", "--d", "4", "--feasible"),
    # the last length, 6,212 words from 4,148 parents, comes in more than one slice
    ("zz", "enumerate", "--d", "4", "--exclude-r", "0", "--exclude-s", "4"),
)


@pytest.mark.parametrize("argv", ZZ_STREAMS, ids=["lengths", "chunks", "feasible", "slices"])
def test_zz_enumerate_streams_one_report_to_stdout_and_output(argv, tmp_path, capsys):
    target = tmp_path / "words.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert target.read_bytes() == out.encode()
    rep = json.loads(out)
    words = json.loads(rep["checks"][1]["detail"])
    assert rep["checks"][1]["id"] == "zz.words"
    assert rep["checks"][0]["detail"].startswith(f"{len(words)} words;")
    # the streamed bytes are those of the report built with its detail whole
    whole = VerificationReport(command="zz-enumerate", field={"kind": "none"}, trials=1)
    whole.add(rep["checks"][0]["id"], True, rep["checks"][0]["detail"])
    whole.add("zz.words", True, json.dumps(words, separators=(",", ":")))
    assert out == whole.to_json() + "\n"
    assert err == "".join(w + "\n" for w in words) + whole.summary() + "\n"
    assert err.count("\n") == len(words) + 1


# runs that peaked at 108 and 194 MB while they held every copy of their words at once
LONG_WORD_RUNS = (
    ("--d", "1", "--max-len", "2600"),
    ("--d", "2", "--exclude-r", "2", "--exclude-s", "2", "--max-len", "200"),
)

# Linux folds the peak of the process a child was spawned from into the
# child's ru_maxrss (the peak before exec counts), so the CLI is spawned from
# a bare interpreter rather than from the test process, and that one reads
# the CLI's peak with os.wait4.
PEAK_PROBE = """
import os, subprocess, sys
with open(os.devnull, "w") as sink:
    child = subprocess.Popen(sys.argv[1:], stdout=sink, stderr=sink)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv", LONG_WORD_RUNS, ids=["d1-2600", "d2-200"])
def test_zz_enumerate_peak_memory_does_not_grow_with_the_output(argv):
    src = str(Path(tdcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = subprocess.run(
        [sys.executable, "-c", PEAK_PROBE,
         sys.executable, "-m", "tdcheck.cli", "zz", "enumerate", *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, peak_kib = map(int, probe.stdout.split())
    assert code == 0
    assert peak_kib / 1024 < 40
