from fractions import Fraction
from math import comb

import pytest

from tdcheck.fields import PrimeField, Rationals, derive_seed
from tdcheck.linalg import Matrix
from tdcheck.params import derive_context, random_admissible_context
from tdcheck.realization import (
    RankFactors,
    mu_certificate,
    realize,
    shape_check,
    split_sequence,
    verify_relations,
)
from tdcheck.report import failed
from tdcheck.tdsystem import extract_td_system
from tdcheck.tables import load_table

from support import (
    coefficient_slots, elements, is_graded, mat_add, scaled, term_edits,
    with_negated_coefficient, zero_matrix,
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
    assert is_graded(mutated)  # so realize cannot fail: a relation must
    assert failed(verify_relations(realize(mutated, ctx, FP)))


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
        mutated = with_negated_coefficient(table, *slot)
        if not is_graded(mutated):  # a diagonal term flipped: the parser rejects it
            continue
        real = realize(mutated, ctx, FP)
        want = reference_relation_checks(real)
        assert relation_triples(real) == want, slot
        failing += not all(ok for _, ok, _ in want)
    assert failing  # some graded mutation fails a relation


@pytest.mark.parametrize("d,field", [(d, FP) for d in range(1, 5)] + [(d, QQ) for d in (1, 2, 3)]
                         + [(5, FP)], ids=lambda x: getattr(x, "kind", x))
def test_sliced_and_echelon_factors_give_the_same_relation_checks_on_graded_edits(d, field):
    # realize reads each e_i's factors at its row block, exact because the
    # table is graded; an echelon form gives factors of the same e_i.  Every
    # graded sign flip, drop and doubling of one term is compared, but at
    # d = 5 only every 19th (18 of 342, each about 30 ms), which keeps the
    # whole test below 3 s
    table = load_table(d)
    ctx = random_admissible_context(d, field, 77 + d)
    edits = [(kind, slot, t) for kind, slot, t in term_edits(table) if is_graded(t)]
    # every off-diagonal term, three ways; no diagonal edit is graded
    assert len(edits) == 3 * sum(len(terms) - 1 for action in (table.a_action, table.astar_action)
                                 for terms in action.values())
    failing = 0
    for kind, slot, edited in edits[::19 if d == 5 else 1]:
        real = realize(edited, ctx, field)
        echelon = real._replace(factors=RankFactors.of(real.e),
                                dual_factors=RankFactors.of(real.estar))
        got = relation_triples(real)
        assert got == relation_triples(echelon), (kind, slot)
        failing += not all(ok for _, ok, _ in got)
    assert failing or d == 1


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
    # the relation checks walk k < d + 1, the round trip's extraction k < 2
    real = realize(load_table(d), random_admissible_context(d, FP, 920 + d), FP)
    fam = real.dual_factors
    products = counted_products(monkeypatch)
    for top in (1, 2, d + 1):
        products.clear()
        read, formed = [], []
        for level in fam.blocks(real.a, top):
            read.append(list(level))
            formed.append(len(products))
            # R_i B_i = I, and the band holds: every other block is zero
            for (i, j), b in level.items():
                assert b == [[fam.dens[i] * (i == j and x == y) for y in range(fam.ranks[j])]
                             for x in range(fam.ranks[i])]
        # level 0 reads every block; level k >= 1 the blocks with k < |i - j|,
        # up to the last level below top that has one
        assert read == [
            [(i, j) for j in range(d + 1) for i in range(d + 1) if not k or k < abs(i - j)]
            for k in range(min(top, max(d, 1)))
        ]
        # one stacked product at level 0, then op V and one stacked product per level
        assert formed == [1 + 2 * k for k in range(len(read))]
    # started at level 1 (the extraction's walk), it reads the same levels
    # above 0 and forms no stacked product at level 0
    products.clear()
    assert [list(level) for level in fam.blocks(real.a, d + 1, 1)] == read[1:]
    assert len(products) == 2 * (len(read) - 1)


def test_relation_suite_forms_only_the_products_it_reads(monkeypatch):
    # per family: one product at level 0 of the block walk (rel5 and the k = 0
    # band blocks), two per band level k >= 1, and none for the rel6/rel7 sums
    reals = [realize(load_table(d), random_admissible_context(d, FP, 930 + d), FP) for d in range(6)]
    products = counted_products(monkeypatch)
    counts = []
    for real in reals:
        products.clear()
        assert all(c.passed for c in verify_relations(real))
        counts.append(len(products))
    assert counts == [2, 2, 6, 10, 14, 18]


def test_extraction_forms_only_the_band_products_it_reads(monkeypatch):
    # per family at d >= 2: op V and the stacked product at level 1 of the
    # block walk, which starts there; below d = 2 level 1 has no block
    reals = [realize(load_table(d), random_admissible_context(d, FP, 930 + d), FP) for d in range(6)]
    products = counted_products(monkeypatch)
    counts = []
    for real in reals:
        products.clear()
        ctx = real.context
        tds = extract_td_system(real.a, real.astar, real.basis_vector(real.basis[0]), ctx.theta,
                                ctx.theta_star, (real.factors, real.dual_factors))
        assert tds.axiom_failures == []
        counts.append(len(products))
    assert counts == [0, 0, 4, 4, 4, 4]


def test_weight_certificate_reads_each_chain_step_once(monkeypatch):
    # a*.phi, the split walk (one product at i = 0, two per i >= 1), each of
    # the d raising steps once, and the lowering steps and the weight step of
    # every i: 1 + (2d + 1) + d + d(d - 1)/2 + d
    reals = [realize(load_table(d), random_admissible_context(d, FP, 940 + d), FP) for d in range(6)]
    applied = []
    apply = Matrix.apply

    def counted(self, vec):
        applied.append(1)
        return apply(self, vec)

    monkeypatch.setattr(Matrix, "apply", counted)
    counts = []
    for real in reals:
        applied.clear()
        assert all(c.passed for c in mu_certificate(real))
        counts.append(len(applied))
    assert counts == [0, 6, 11, 17, 24, 32]


def test_rank_factors_multiply_back_to_the_family():
    ctx = random_admissible_context(3, QQ, 903)
    real = realize(load_table(3), ctx, QQ)
    for fam in (real.factors, real.dual_factors):
        for m, left, right, den in zip(fam.idems, fam.left, fam.right, fam.dens):
            assert Matrix.of_ints(QQ, QQ.mat_mul(left, right), den) == m
        assert fam.ranks == [1, 3, 3, 1]


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_realize_reads_its_factors_at_the_row_blocks_without_an_echelon(field, monkeypatch):
    def refused(self):
        raise AssertionError("realize formed an echelon")

    monkeypatch.setattr(Matrix, "echelon", refused)
    for d in range(6):
        real = realize(load_table(d), random_admissible_context(d, field, 904 + d), field)
        at = 0
        for i in range(d + 1):
            block = range(at, at + comb(d, i))  # row block i: its C(d, i) labels
            at = block.stop
            for fam in (real.factors, real.dual_factors):
                ints, den = fam.idems[i].form
                assert fam.right[i] == [ints[k] for k in block] and fam.dens[i] == den * den
                assert fam.left[i] == [[row[k] for k in block] for row in ints]
        assert at == real.dim


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


def test_sign_flips_that_realize_never_fail_the_two_sums():
    # once lagrange_idempotents returns, sum E_i = I and sum t_i E_i = A hold
    # for any operator (poly.py): a graded flip of d3.txt fails other
    # relations, never rel6 or rel7 (16 graded flips of 32, 48 trials, 264
    # failures)
    table = load_table(3)
    realized, others = 0, 0
    for slot in coefficient_slots(table):
        mutated = with_negated_coefficient(table, *slot)
        if not is_graded(mutated):
            continue
        for k in range(3):
            ctx = random_admissible_context(3, FP, derive_seed(k << 32, 0))
            real = realize(mutated, ctx, FP)
            ids = [c.id.split(".")[0] for c in failed(verify_relations(real))]
            assert "rel6" not in ids and "rel7" not in ids
            realized += 1
            others += len(ids)
    assert (realized, others) == (48, 264)
