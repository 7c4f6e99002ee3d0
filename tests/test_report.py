import pytest

from tdcheck.report import Check, ReportError, VerificationReport


def make(command="verify", field=None, checks=(), trials=1):
    rep = VerificationReport(
        command=command,
        field=dict(field or {"kind": "fp", "prime": 101, "rng": "splitmix64"}),
        seed=7,
        asset_version="module-table v1",
        trials=trials,
    )
    rep.checks.extend(checks)
    return rep


def test_overall_is_conjunction():
    rep = make(checks=[Check("a", True), Check("b", True)])
    assert rep.overall
    rep.add("c", False, "broke")
    assert not rep.overall
    assert [c.id for c in rep.failures()] == ["c"]


def test_json_roundtrip_is_byte_identical():
    rep = make(
        checks=[Check("z.last", True, "ok"), Check("a.first", False, "boom")]
    )
    text = rep.to_json()
    again = VerificationReport.from_json(text).to_json()
    assert again == text


def test_serialization_sorts_check_ids():
    rep = make(checks=[Check("b", True), Check("a", True)])
    obj = rep.to_dict()
    assert [c["id"] for c in obj["checks"]] == ["a", "b"]


def test_duplicate_check_ids_rejected():
    rep = make(checks=[Check("a", True), Check("a", True)])
    with pytest.raises(ReportError):
        rep.to_json()


def test_summary_mentions_failures():
    rep = make(checks=[Check("a", False, "exploded")])
    text = rep.summary()
    assert "FAIL a" in text and "exploded" in text
