"""Golden reports: the exit code and the SHA-256 of stdout for fixed
invocations of every subcommand, run in-process through `tdcheck.cli.main`.

A refactor that changes any report byte, or any exit code, fails here.  The
digests were taken from the code before the sweep paths were single-sourced;
regenerate them only for a deliberate change of report content.
"""

import hashlib
import json
import re

import pytest

from tdcheck.cli import main
from tdcheck.fields import PrimeField
from tdcheck.params import random_admissible_context
from tdcheck.realization import mu_certificate, realize, verify_relations
from tdcheck.report import failed
from tdcheck.tables import bundled_table_text, load_table

# The README's d = 3 parameter array.
README_ARRAY = {
    "d": 3,
    "theta": ["3", "1", "-1", "-3"],
    "theta_star": ["3", "1", "-1", "-3"],
    "zeta": ["1", "0", "0", "5"],
}
# Rational arrays whose round trip cannot be certified on the image mod
# DEFAULT_PRIME = 2^62 - 57, so the exact rational route decides: the first
# two put the prime in zeta_d, the third in a denominator.
P = "4611686018427387847"
IMAGE_FALLBACK_ARRAYS = {
    # the word span of the image pair is short
    "short_image": {
        "d": 2, "theta": ["0", "1", "3"], "theta_star": ["0", "2", "5"], "zeta": ["1", "4", P],
    },
    # the dual closure of the image corner row is short
    "corner_image": {
        "d": 4,
        "theta": ["0", "1", "3", "6", "10"],
        "theta_star": ["0", "2", "5", "9", "14"],
        "zeta": ["1", "3", "-2", "5", P],
    },
    # a denominator vanishes mod the prime: no image is formed
    "image_den": {
        "d": 2, "theta": ["0", "1", "3"], "theta_star": ["0", "2", "5"], "zeta": ["1", "1/" + P, "7"],
    },
}
BAD_ZETA0_ARRAY = {
    "d": 1,
    "theta": ["1", "-1"],
    "theta_star": ["1", "-1"],
    "zeta": ["2", "1"],
}

# (argv, exit code, sha256 of stdout).  "{array}", "{bad_zeta0}", "{assets}"
# and the IMAGE_FALLBACK_ARRAYS keys are replaced by files written under the
# test's tmp_path; the assets copy has the d = 1 entry `ths1*r + y1*phi`
# flipped to `- y1*phi`.
GOLDEN = [
    (
        "verify-appendix --d 3 --trials 3 --seed 1",
        0,
        "1c61e4848ce25cd02eae9a955c35296528f714c6ac5f67585eceedfe5f252b4d",
    ),
    (
        "verify-appendix --d 2 --trials 2 --field qq --seed 2",
        0,
        "f8afe1b0627e3ffb1297a5ee7ff51199efa4adfe5f7a15005213cf58f5bd2197",
    ),
    (
        "mu-certificate --d 4 --trials 3 --seed 3",
        0,
        "cd2c63e01949c9c38bdc82e9f63b136ca76e65a584b955e2d56ecd8e6b8f12fb",
    ),
    (
        "shape --d 3 --trials 3 --seed 4",
        0,
        "b10a4b37d3c55614067c15ae310aaa87ca87b53fad027c545ce622c135f3c007",
    ),
    (
        "zz rank --d 3 --trials 3 --seed 5",
        0,
        "8125077e785276f199e631f90e879b734200851c311ab7766d71f57be524c87c",
    ),
    (
        "zz enumerate --d 3 --feasible",
        0,
        "3f5ae5e03bddb0df0030217d80c578aaf0f4e1bfd402d2540332fca4f07cdb4e",
    ),
    (
        "zz enumerate --d 3 --exclude-r 0 --exclude-s 3",
        0,
        "f3a1d2ea6c22c0abdd9ff54c3ee3573d9b52f02d6dd7e5d930df6e1fd3e44a56",
    ),
    (
        "convex --r 6",
        0,
        "3fa7e94767042b1f3c213a9c686088b82c7a8394c8e3bd97b657e4e3ac3b6f89",
    ),
    (
        "tds roundtrip --d 3 --trials 2 --seed 6",
        0,
        "5e534b0818f1859b6780ef40e216974f7dbc12f407d67f94642b7203d79f4b38",
    ),
    (
        "tds roundtrip --d 2 --trials 2 --field qq --seed 7",
        0,
        "72263c13151faa01fff045ae4cded1630c3710c2efdfce5c1e6920977b924392",
    ),
    (
        "tds roundtrip --input {array} --field qq",
        0,
        "63b5b3d805249adf3fb724039e4c7da40d70a306dbfea8c2ab52b31fbecb24f3",
    ),
    (
        "check-params --input {array} --field qq",
        0,
        "2505553291da9fb19e22e9c5577b4ece2132709434c9f5fea606ef11c776b61a",
    ),
    (
        "check-params --input {bad_zeta0}",
        1,
        "7510fa7606ed210b743b254e9685094d042342728d74c2929eec15b042d31df2",
    ),
    (
        "verify-appendix --d 1 --trials 1 --seed 1 --assets {assets}",
        1,
        "6efd3d55e7afc5dbeefffc1b632dcd08651d3a963bd87d2c7069318fb7f7f3f5",
    ),
    (
        "tds roundtrip --d 1 --trials 1 --seed 3 --assets {assets}",
        1,
        "d22656ada6542a9d55fd95fab6f73857384a728b16cb24d9d913575c1819e7ba",
    ),
    # The beta path of both samplers over Q and at small primes, where the
    # beta guard and the recurrence's repeat check reject many draws.
    (
        "verify-appendix --d 4 --trials 2 --field qq --seed 8",
        0,
        "b986fafd23cd2440f12bf9e7c84ef38bc62e1ae8eb91fb7ca5f7936c6b863dd8",
    ),
    (
        "tds roundtrip --d 4 --trials 2 --field qq --seed 12",
        0,
        "af74dd3b52d1e40c3a4e263b3bad38d01b0d60a3b7ba89fe0e5fc3db5f226fad",
    ),
    (
        "verify-appendix --d 3 --trials 3 --prime 7 --seed 11",
        0,
        "0f79e46605c2b61aae047cf01cece57ad3a3ee1fe0d874c9e05d1962aa8d740b",
    ),
    (
        "shape --d 5 --trials 4 --prime 11 --seed 10",
        0,
        "abf6c2496bccf9401e9a90b70efad89a70e7f81fb8317fa054f07c8d08491c06",
    ),
    (
        "tds roundtrip --d 5 --trials 2 --prime 11 --seed 9",
        0,
        "5290550d53ebdd43be5ab56a8956846069ed5d8c3fbbb4f440d332cf1cccd3c4",
    ),
    (
        "tds roundtrip --input {short_image} --field qq",
        0,
        "b60a9d38f0323b9e3ea9a19dd4ff55fd9535fa2cb088b44db2ff590f6709b65a",
    ),
    (
        "tds roundtrip --input {corner_image} --field qq",
        0,
        "7422fc0ea9cc64e5361c36bdb5329473c8a7dc469110c766597b07218ce0dbca",
    ),
    (
        "tds roundtrip --input {image_den} --field qq",
        0,
        "034d582a7003902f29ae7a0b5756a94fb763fc742dc3fae789e0f396cb9e4956",
    ),
]


@pytest.fixture
def files(tmp_path):
    array = tmp_path / "array.json"
    array.write_text(json.dumps(README_ARRAY))
    bad = tmp_path / "bad_zeta0.json"
    bad.write_text(json.dumps(BAD_ZETA0_ARRAY))
    assets = tmp_path / "assets"
    assets.mkdir()
    for d in range(6):
        (assets / f"d{d}.txt").write_text(bundled_table_text(d))
    (assets / "d1.txt").write_text(
        bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - y1*phi")
    )
    paths = {"array": array, "bad_zeta0": bad, "assets": assets}
    for name, obj in IMAGE_FALLBACK_ARRAYS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return paths


def run(argv: str, files, capsys):
    code = main(argv.format(**files).split())
    out = capsys.readouterr().out
    return code, out, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv,want_code,want_digest", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_golden_report(argv, want_code, want_digest, files, capsys):
    code, _, digest = run(argv, files, capsys)
    assert code == want_code
    assert digest == want_digest


def test_corrupted_table_fails_the_construct_step(files, capsys):
    code, out, _ = run(
        "tds roundtrip --d 1 --trials 1 --seed 3 --assets {assets}", files, capsys
    )
    assert code == 1
    construct = next(
        c for c in json.loads(out)["checks"] if c["id"] == "t000.tds.construct"
    )
    assert not construct["passed"]
    assert "g.1" in construct["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        "verify-appendix --d 1 --trials 3 --seed 1 --assets {assets}",
        # at p = 7 the flipped sign goes unseen where y1 = 0: 3 of the 20
        # trials pass, so a replay at the wrong seed would disagree
        "verify-appendix --d 1 --trials 20 --prime 7 --seed 1 --assets {assets}",
    ],
    ids=["default-prime", "f7"],
)
def test_each_trial_replays_from_its_report(argv, files, capsys):
    # the report's field record and each check's "trial i, seed S" detail
    # are all a replay needs
    code, out, _ = run(argv, files, capsys)
    assert code == 1
    rep = json.loads(out)
    field = PrimeField(rep["field"]["prime"])
    table = load_table(1, files["assets"])
    seeds, failing = {}, {}
    for c in rep["checks"]:
        trial, seed = map(int, re.match(r"trial (\d+), seed (\d+)", c["detail"]).groups())
        seeds[trial] = seed
        if not c["passed"]:
            failing.setdefault(trial, set()).add(c["id"].split(".", 1)[1])
    assert failing and all(ids == {"mu.i1.weight", "mu.i1.identity"} for ids in failing.values())
    for trial, seed in seeds.items():
        real = realize(table, random_admissible_context(1, field, seed), field)
        replayed = {c.id for c in failed(verify_relations(real) + mu_certificate(real))}
        assert replayed == failing.get(trial, set()), trial
