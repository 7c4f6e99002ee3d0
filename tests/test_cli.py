import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck import zigzag
from tdcheck.cli import main


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


def test_jobs_do_not_change_the_report(capsys):
    base = ["shape", "--d", "1", "--trials", "4", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *base, "--jobs", "2")
    assert out1 == out2


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


def test_output_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "shape", "--d", "0", "--trials", "1", "--output", str(target)
    )
    assert code == 0
    assert target.read_text().strip() == out.strip()


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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INPUT_COMMANDS), INPUT_DOCUMENTS)
def test_any_input_file_gives_a_report_or_a_usage_error(argv, document):
    code, out, err = _main_on_document(argv, document)
    if code == 2:
        assert out == ""
        assert len(err.strip().splitlines()) == 1
    else:
        assert code in (0, 1)
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["overall"] is (code == 0)

