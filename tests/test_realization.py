from fractions import Fraction

import pytest

from tdcheck.fields import PrimeField, Rationals
from tdcheck.linalg import Matrix
from tdcheck.params import derive_context, random_admissible_context
from tdcheck.realization import (
    RankFactors,
    RealizationError,
    mu_certificate,
    realize,
    shape_check,
    split_sequence,
    verify_relations,
)
from tdcheck.report import failed
from tdcheck.tables import load_table

from support import (
    coefficient_slots, elements, mat_add, scaled, with_negated_coefficient, zero_matrix,
)

QQ = Rationals()
FP = PrimeField()


def fr(xs):
    return [Fraction(x) for x in xs]


def qq_context(d, theta, theta_star, y):
    return derive_context(fr(theta), fr(theta_star), fr(y), QQ)


def test_d0_realization_is_scalar():
    ctx = qq_context(0, [4], [9], [])
    real = realize(load_table(0), ctx, QQ)
    assert real.a == Matrix(QQ, [[Fraction(4)]])
    assert real.astar == Matrix(QQ, [[Fraction(9)]])
    assert real.e[0] == Matrix.identity(QQ, 1)
    assert real.estar[0] == Matrix.identity(QQ, 1)
    assert not failed(verify_relations(real))
    assert not failed(mu_certificate(real))


def test_d1_realization_matches_hand_matrices():
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    real = realize(load_table(1), ctx, QQ)
    assert real.a == Matrix(QQ, [fr([0, 0]), fr([1, 1])])
    assert real.astar == Matrix(QQ, [fr([5, 7]), fr([0, 2])])
    assert not failed(verify_relations(real))


def test_d1_corner_identity_hand_value():
    # e*_0 (a - th0) phi = y1/(ths0 - ths1) phi = 7/3 phi for the values above
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    real = realize(load_table(1), ctx, QQ)
    phi = real.basis_vector(real.basis[0])
    v = real.a.apply(phi)  # th0 = 0, so (a - th0).phi = a.phi
    got = real.estar[0].apply(v)
    assert got == [Fraction(7, 3), Fraction(0)]
    assert not failed(mu_certificate(real))


def test_d2_chain_walks_the_expected_labels():
    ctx = qq_context(2, [0, 1, 3], [0, 2, 5], [4, 6])
    real = realize(load_table(2), ctx, QQ)
    checks = mu_certificate(real)
    assert not failed(checks)
    ids = [c.id for c in checks]
    # the i=2 chain climbs phi -> r -> r^2 and descends lr^2 -> y2 phi
    for needed in ("mu.i2.rchain.h0", "mu.i2.rchain.h1", "mu.i2.weight", "mu.i2.identity"):
        assert needed in ids


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "qq"])
def test_full_suite_random_context(d, field):
    ctx = random_admissible_context(d, field, 500 + d)
    real = realize(load_table(d), ctx, field)
    assert not failed(verify_relations(real))
    assert not failed(mu_certificate(real))
    assert not failed(shape_check(real))


def test_d3_dual_idempotent_rank_three():
    ctx = random_admissible_context(3, FP, 61)
    real = realize(load_table(3), ctx, FP)
    assert real.estar[1].rank() == 3


@pytest.mark.parametrize("d,expected", [(0, [1]), (3, [1, 3, 3, 1]), (5, [1, 5, 10, 10, 5, 1])])
def test_shape_profiles(d, expected):
    ctx = random_admissible_context(d, FP, 70 + d)
    real = realize(load_table(d), ctx, FP)
    assert real.factors.ranks == expected
    assert real.dual_factors.ranks == expected
    assert not failed(shape_check(real))


def test_triple_product_d1_exact_value():
    # e*_0 e_1 e*_0 phi = zeta_1 phi / ((th1-th0)(ths0-ths1)) = 7/3 phi here
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    real = realize(load_table(1), ctx, QQ)
    phi = real.basis_vector(real.basis[0])
    vec = real.estar[0].apply(real.e[1].apply(real.estar[0].apply(phi)))
    assert vec == [Fraction(7, 3), Fraction(0)]


def test_split_sequence_reads_weights_at_phi():
    # zeta_0 = 1 followed by the weights y_1, y_2 of the realized table
    ctx = qq_context(2, [0, 1, 3], [0, 2, 5], [4, 6])
    real = realize(load_table(2), ctx, QQ)
    phi = real.basis_vector(real.basis[0])
    split = split_sequence(real.a, real.estar[0], ctx.theta, ctx.theta_star, phi)
    assert split == fr([1, 4, 6])


def test_split_sequence_marks_non_multiples():
    # corner = identity: tau_1(a) v = a v - 0 v is not a multiple of v
    a = Matrix(QQ, [fr([0, 0]), fr([1, 1])])
    corner = Matrix.identity(QQ, 2)
    split = split_sequence(a, corner, fr([0, 1]), fr([5, 2]), fr([1, 0]))
    assert split == [Fraction(1), None]


def test_realize_rejects_mismatched_context():
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    with pytest.raises(ValueError):
        realize(load_table(2), ctx, QQ)


def test_realize_detects_one_flipped_coefficient():
    table = load_table(3)
    ctx = random_admissible_context(3, FP, 88)
    # flip the raising coefficient in the entry for l2r3
    slot = next(
        (a, src, k)
        for (a, src, k) in coefficient_slots(table)
        if a == "a" and str(src) == "l2r3" and k == 1
    )
    mutated = with_negated_coefficient(table, *slot)
    try:
        real = realize(mutated, ctx, FP)
    except RealizationError:
        return  # caught at the minimal-polynomial / rank stage
    assert failed(verify_relations(real))


def test_rational_realization_reduces_to_prime_field_realization():
    # realize one integer context over the rationals and over F_p; the
    # entrywise reduction mod p of the rational matrices must agree
    from tdcheck.fields import DEFAULT_PRIME, PrimeField

    p = DEFAULT_PRIME
    fp = PrimeField(p)
    theta, theta_star, y = [0, 1, 3], [0, 2, 5], [4, 6]
    ctx_qq = qq_context(2, theta, theta_star, y)
    ctx_fp = derive_context(
        [fp.from_int(x) for x in theta],
        [fp.from_int(x) for x in theta_star],
        [fp.from_int(x) for x in y],
        fp,
    )
    table = load_table(2)
    real_qq = realize(table, ctx_qq, QQ)
    real_fp = realize(table, ctx_fp, fp)

    def reduce(x):
        return x.numerator * pow(x.denominator, -1, p) % p

    for mat_qq, mat_fp in (
        (real_qq.a, real_fp.a),
        (real_qq.astar, real_fp.astar),
        (real_qq.estar[0], real_fp.estar[0]),
        (real_qq.e[2], real_fp.e[2]),
    ):
        got = [[reduce(x) for x in row] for row in elements(mat_qq)]
        assert got == elements(mat_fp)


def test_relation_report_check_coordinates():
    ctx = random_admissible_context(2, FP, 91)
    real = realize(load_table(2), ctx, FP)
    ids = {c.id for c in verify_relations(real)}
    assert "rel5.e.0.1" in ids
    assert "rel6.es" in ids
    assert "rel7.e" in ids
    assert "rel8.0.2.0" in ids and "rel8.0.2.1" in ids
    assert "rel9.2.0.1" in ids
    assert "rel8.0.1.0" in ids  # k = 0: rel5.es.0.1's block, recorded as a band check too


# ---------------------------------------------------------------------------
# The block reading of the relations against full n x n sandwich products


def reference_relation_checks(real):
    """verify_relations' (id, passed, detail) list from full sandwich products."""
    out = []
    ident = Matrix.identity(real.field, real.dim)
    for tag, idems, values, op in (
        ("e", real.e, real.context.theta, real.a),
        ("es", real.estar, real.context.theta_star, real.astar),
    ):
        d = len(idems) - 1
        for i in range(d + 1):
            for j in range(d + 1):
                prod = idems[i] * idems[j]
                ok = prod.is_zero() if i != j else prod == idems[i]
                detail = "" if ok else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}"
                out.append((f"rel5.{tag}.{i}.{j}", ok, detail))
        total = idems[0]
        for m in idems[1:]:
            total = mat_add(total, m)
        ok = total == ident
        out.append((f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
        recon = scaled(idems[0], values[0])
        for i in range(1, d + 1):
            recon = mat_add(recon, scaled(idems[i], values[i]))
        ok = recon == op
        detail = "" if ok else f"operator != sum of eigenvalue * {tag}_i"
        out.append((f"rel7.{tag}", ok, detail))
    for tag, idems, op in (("rel8", real.estar, real.a), ("rel9", real.e, real.astar)):
        d = len(idems) - 1
        for j in range(d + 1):
            power = idems[j]
            for k in range(max(j, d - j)):
                if k > 0:
                    power = op * power
                for i in range(d + 1):
                    if k < abs(i - j):
                        ok = (idems[i] * power).is_zero()
                        detail = "" if ok else f"sandwich ({i},{j},{k}) is nonzero"
                        out.append((f"{tag}.{i}.{j}.{k}", ok, detail))
    return out


def relation_triples(real):
    return [(c.id, c.passed, c.detail) for c in verify_relations(real)]


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize(
    "field,seed", [(QQ, 900), (FP, 901), (PrimeField(7), 0)], ids=["qq", "fp", "f7"]
)
def test_block_relations_match_full_sandwiches_on_random_contexts(d, field, seed):
    ctx = random_admissible_context(d, field, seed)
    real = realize(load_table(d), ctx, field)
    assert relation_triples(real) == reference_relation_checks(real)


@pytest.mark.parametrize("d", [2, 3])
def test_block_relations_match_full_sandwiches_on_mutated_tables(d):
    table = load_table(d)
    ctx = random_admissible_context(d, FP, 5)
    failing = 0
    for slot in coefficient_slots(table):
        try:
            real = realize(with_negated_coefficient(table, *slot), ctx, FP)
        except RealizationError:
            continue
        want = reference_relation_checks(real)
        assert relation_triples(real) == want, slot
        failing += not all(ok for _, ok, _ in want)
    assert failing  # some mutation survives realize and fails a relation


def test_block_relations_match_full_sandwiches_off_idempotent_families():
    # e and e* replaced by matrices that are not orthogonal idempotents:
    # a sum of two idempotents, a zero matrix, a scaled idempotent, a^2
    ctx = random_admissible_context(3, FP, 902)
    real = realize(load_table(3), ctx, FP)
    e = [mat_add(real.e[0], real.e[1]), zero_matrix(FP, real.dim), scaled(real.e[2], 2), real.e[3]]
    estar = [real.estar[0], mat_add(real.estar[1], real.estar[3]), real.a * real.a, real.estar[3]]
    bent = real._replace(factors=RankFactors.of(e), dual_factors=RankFactors.of(estar))
    want = reference_relation_checks(bent)
    assert relation_triples(bent) == want
    failed = {cid.split(".")[0] for cid, ok, _ in want if not ok}
    assert {"rel5", "rel8", "rel9"} <= failed


def counted_products(monkeypatch) -> list:
    """A list that gains one entry per PrimeField.mat_mul call."""
    products = []
    mat_mul = PrimeField.mat_mul

    def counted(self, a, b):
        products.append(1)
        return mat_mul(self, a, b)

    monkeypatch.setattr(PrimeField, "mat_mul", counted)
    return products


@pytest.mark.parametrize("d", range(6))
def test_band_walk_keeps_its_order_and_multiplies_no_further_than_its_range(d, monkeypatch):
    # the relation checks walk 1 <= k < d + 1, the round trip's extraction k = 1 only
    real = realize(load_table(d), random_admissible_context(d, FP, 920 + d), FP)
    products = counted_products(monkeypatch)
    for top in (1, 2, d + 1):
        products.clear()
        got = list(real.dual_factors.band_blocks(real.a, top))
        assert [t[:3] for t in got] == [
            (i, j, k) for j in range(d + 1) for k in range(1, top) for i in range(d + 1)
            if k < abs(i - j)
        ]
        assert all(ok for *_, ok in got)
        # per j: one thin product per step k - 1 -> k, one stacked product per k read
        tops = [min(top, max(j, d - j)) for j in range(d + 1)]
        assert len(products) == sum(2 * max(t - 1, 0) for t in tops)


def test_relation_suite_forms_only_the_products_it_reads(monkeypatch):
    # per family: one product for rel5 (and the k = 0 band blocks), one for
    # rel6/rel7, and two per band step k >= 1
    reals = [realize(load_table(d), random_admissible_context(d, FP, 930 + d), FP) for d in range(6)]
    products = counted_products(monkeypatch)
    counts = []
    for real in reals:
        products.clear()
        assert all(c.passed for c in verify_relations(real))
        counts.append(len(products))
    assert counts == [4, 4, 12, 28, 48, 76]


def test_rank_factors_multiply_back_to_the_family():
    ctx = random_admissible_context(3, QQ, 903)
    real = realize(load_table(3), ctx, QQ)
    fam = real.dual_factors
    for m, left, right, den in zip(real.estar, fam.left, fam.right, fam.dens):
        assert Matrix.of_ints(QQ, QQ.mat_mul(left, right), den) == m
    assert fam.ranks == [1, 3, 3, 1]


def reference_sum_checks(real):
    """rel6/rel7 (id, passed, detail) from scaled and summed n x n matrices."""
    out = []
    ident = Matrix.identity(real.field, real.dim)
    for tag, idems, values, op in (
        ("e", real.e, real.context.theta, real.a),
        ("es", real.estar, real.context.theta_star, real.astar),
    ):
        total = idems[0]
        for m in idems[1:]:
            total = mat_add(total, m)
        ok = total == ident
        out.append((f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
        recon = scaled(idems[0], values[0])
        for i in range(1, len(idems)):
            recon = mat_add(recon, scaled(idems[i], values[i]))
        ok = recon == op
        detail = "" if ok else f"operator != sum of eigenvalue * {tag}_i"
        out.append((f"rel7.{tag}", ok, detail))
    return out


def sum_triples(real):
    return [t for t in relation_triples(real) if t[0].split(".")[0] in ("rel6", "rel7")]


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize(
    "field,seed", [(QQ, 910), (FP, 911), (PrimeField(7), 1)], ids=["qq", "fp", "f7"]
)
def test_entrywise_sums_match_matrix_sums_on_random_contexts(d, field, seed):
    ctx = random_admissible_context(d, field, seed)
    real = realize(load_table(d), ctx, field)
    assert sum_triples(real) == reference_sum_checks(real)


@pytest.mark.parametrize("f", [QQ, FP], ids=["qq", "fp"])
def test_entrywise_sums_fail_off_idempotent_families(f):
    # the hand-built family of test_block_relations_match_full_sandwiches_off_
    # idempotent_families, in both fields: neither sum can hold
    ctx = random_admissible_context(3, f, 902)
    real = realize(load_table(3), ctx, f)
    e = [mat_add(real.e[0], real.e[1]), zero_matrix(f, real.dim), scaled(real.e[2], 2), real.e[3]]
    estar = [real.estar[0], mat_add(real.estar[1], real.estar[3]), real.a * real.a, real.estar[3]]
    bent = real._replace(factors=RankFactors.of(e), dual_factors=RankFactors.of(estar))
    want = reference_sum_checks(bent)
    assert sum_triples(bent) == want
    assert [cid for cid, ok, _ in want if not ok] == ["rel6.e", "rel7.e", "rel6.es", "rel7.es"]
