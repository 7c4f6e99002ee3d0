import dataclasses
from fractions import Fraction

import pytest

from tdcheck.fields import FieldSpec, Rationals
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
from tdcheck.tables import load_table

QQ = Rationals()


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
    assert verify_relations(real).overall
    assert mu_certificate(real).overall


def test_d1_realization_matches_hand_matrices():
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    real = realize(load_table(1), ctx, QQ)
    assert real.a == Matrix(QQ, [fr([0, 0]), fr([1, 1])])
    assert real.astar == Matrix(QQ, [fr([5, 7]), fr([0, 2])])
    assert verify_relations(real).overall


def test_d1_corner_identity_hand_value():
    # e*_0 (a - th0) phi = y1/(ths0 - ths1) phi = 7/3 phi for the values above
    ctx = qq_context(1, [0, 1], [5, 2], [7])
    real = realize(load_table(1), ctx, QQ)
    phi = real.basis_vector(real.basis[0])
    v = real.a.apply(phi)  # th0 = 0, so (a - th0).phi = a.phi
    got = real.estar[0].apply(v)
    assert got == [Fraction(7, 3), Fraction(0)]
    assert mu_certificate(real).overall


def test_d2_chain_walks_the_expected_labels():
    ctx = qq_context(2, [0, 1, 3], [0, 2, 5], [4, 6])
    real = realize(load_table(2), ctx, QQ)
    rep = mu_certificate(real)
    assert rep.overall
    ids = [c.id for c in rep.checks]
    # the i=2 chain climbs phi -> r -> r^2 and descends lr^2 -> y2 phi
    for needed in ("mu.i2.rchain.h0", "mu.i2.rchain.h1", "mu.i2.weight", "mu.i2.identity"):
        assert needed in ids


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("kind", ["fp", "qq"])
def test_full_suite_random_context(d, kind):
    spec = FieldSpec(kind, seed=500 + d)
    ctx = random_admissible_context(d, spec)
    real = realize(load_table(d), ctx, spec.build_field())
    assert verify_relations(real).overall
    assert mu_certificate(real).overall
    assert shape_check(real).overall


def test_d3_dual_idempotent_rank_three():
    spec = FieldSpec("fp", seed=61)
    ctx = random_admissible_context(3, spec)
    real = realize(load_table(3), ctx, spec.build_field())
    assert real.estar[1].rank() == 3


@pytest.mark.parametrize("d,expected", [(0, [1]), (3, [1, 3, 3, 1]), (5, [1, 5, 10, 10, 5, 1])])
def test_shape_profiles(d, expected):
    spec = FieldSpec("fp", seed=70 + d)
    ctx = random_admissible_context(d, spec)
    real = realize(load_table(d), ctx, spec.build_field())
    assert real.ranks == expected
    assert real.dual_ranks == expected
    assert shape_check(real).overall


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
    spec = FieldSpec("fp", seed=88)
    ctx = random_admissible_context(3, spec)
    field = spec.build_field()
    # flip the raising coefficient in the entry for l2r3
    slot = next(
        (a, src, k)
        for (a, src, k) in table.coefficient_slots()
        if a == "a" and str(src) == "l2r3" and k == 1
    )
    mutated = table.with_negated_coefficient(*slot)
    try:
        real = realize(mutated, ctx, field)
    except RealizationError:
        return  # caught at the minimal-polynomial / rank stage
    assert not verify_relations(real).overall


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
        got = [[reduce(x) for x in row] for row in mat_qq.rows]
        assert got == mat_fp.rows


def test_relation_report_check_coordinates():
    spec = FieldSpec("fp", seed=91)
    ctx = random_admissible_context(2, spec)
    real = realize(load_table(2), ctx, spec.build_field())
    ids = {c.id for c in verify_relations(real).checks}
    assert "rel5.e.0.1" in ids
    assert "rel6.es" in ids
    assert "rel7.e" in ids
    assert "rel8.0.2.0" in ids and "rel8.0.2.1" in ids
    assert "rel9.2.0.1" in ids
    assert "rel8.0.1.0" in ids  # k = 0 band checks repeat orthogonality


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
                ok = prod.is_zero() if i != j else (prod - idems[i]).is_zero()
                detail = "" if ok else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}"
                out.append((f"rel5.{tag}.{i}.{j}", ok, detail))
        total = idems[0]
        for m in idems[1:]:
            total = total + m
        ok = (total - ident).is_zero()
        out.append((f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
        recon = idems[0].scale(values[0])
        for i in range(1, d + 1):
            recon = recon + idems[i].scale(values[i])
        ok = (recon - op).is_zero()
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
    return [(c.id, c.passed, c.detail) for c in verify_relations(real).checks]


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize(
    "spec",
    [FieldSpec("qq", seed=900), FieldSpec("fp", seed=901), FieldSpec("fp", prime=7, seed=0)],
    ids=["qq", "fp", "f7"],
)
def test_block_relations_match_full_sandwiches_on_random_contexts(d, spec):
    ctx = random_admissible_context(d, spec)
    real = realize(load_table(d), ctx, spec.build_field())
    assert relation_triples(real) == reference_relation_checks(real)


@pytest.mark.parametrize("d", [2, 3])
def test_block_relations_match_full_sandwiches_on_mutated_tables(d):
    table = load_table(d)
    spec = FieldSpec("fp", seed=5)
    ctx = random_admissible_context(d, spec)
    field = spec.build_field()
    failing = 0
    for slot in table.coefficient_slots():
        try:
            real = realize(table.with_negated_coefficient(*slot), ctx, field)
        except RealizationError:
            continue
        want = reference_relation_checks(real)
        assert relation_triples(real) == want, slot
        failing += not all(ok for _, ok, _ in want)
    assert failing  # some mutation survives realize and fails a relation


def test_block_relations_match_full_sandwiches_off_idempotent_families():
    # e and e* replaced by matrices that are not orthogonal idempotents:
    # a sum of two idempotents, a zero matrix, a scaled idempotent, a^2
    spec = FieldSpec("fp", seed=902)
    ctx = random_admissible_context(3, spec)
    f = spec.build_field()
    real = realize(load_table(3), ctx, f)
    e = [real.e[0] + real.e[1], Matrix.zero(f, real.dim), real.e[2].scale(2), real.e[3]]
    estar = [real.estar[0], real.estar[1] + real.estar[3], real.a * real.a, real.estar[3]]
    bent = dataclasses.replace(
        real, e=e, estar=estar, factors=RankFactors.of(e), dual_factors=RankFactors.of(estar)
    )
    want = reference_relation_checks(bent)
    assert relation_triples(bent) == want
    failed = {cid.split(".")[0] for cid, ok, _ in want if not ok}
    assert {"rel5", "rel8", "rel9"} <= failed


def test_rank_factors_multiply_back_to_the_family():
    spec = FieldSpec("qq", seed=903)
    ctx = random_admissible_context(3, spec)
    real = realize(load_table(3), ctx, QQ)
    fam = real.dual_factors
    for m, left, right in zip(real.estar, fam.left, fam.right):
        assert Matrix(QQ, QQ.mat_mul(left, right)) == m
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
            total = total + m
        ok = (total - ident).is_zero()
        out.append((f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
        recon = idems[0].scale(values[0])
        for i in range(1, len(idems)):
            recon = recon + idems[i].scale(values[i])
        ok = (recon - op).is_zero()
        detail = "" if ok else f"operator != sum of eigenvalue * {tag}_i"
        out.append((f"rel7.{tag}", ok, detail))
    return out


def sum_triples(real):
    return [t for t in relation_triples(real) if t[0].split(".")[0] in ("rel6", "rel7")]


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize(
    "spec",
    [FieldSpec("qq", seed=910), FieldSpec("fp", seed=911), FieldSpec("fp", prime=7, seed=1)],
    ids=["qq", "fp", "f7"],
)
def test_entrywise_sums_match_matrix_sums_on_random_contexts(d, spec):
    ctx = random_admissible_context(d, spec)
    real = realize(load_table(d), ctx, spec.build_field())
    assert sum_triples(real) == reference_sum_checks(real)


@pytest.mark.parametrize("kind", ["qq", "fp"])
def test_entrywise_sums_fail_off_idempotent_families(kind):
    # the hand-built family of test_block_relations_match_full_sandwiches_off_
    # idempotent_families, in both fields: neither sum can hold
    spec = FieldSpec(kind, seed=902)
    ctx = random_admissible_context(3, spec)
    f = spec.build_field()
    real = realize(load_table(3), ctx, f)
    e = [real.e[0] + real.e[1], Matrix.zero(f, real.dim), real.e[2].scale(2), real.e[3]]
    estar = [real.estar[0], real.estar[1] + real.estar[3], real.a * real.a, real.estar[3]]
    bent = dataclasses.replace(
        real, e=e, estar=estar, factors=RankFactors.of(e), dual_factors=RankFactors.of(estar)
    )
    want = reference_sum_checks(bent)
    assert sum_triples(bent) == want
    assert [cid for cid, ok, _ in want if not ok] == ["rel6.e", "rel7.e", "rel6.es", "rel7.es"]
