import json
from collections import deque
from fractions import Fraction
from math import comb

import pytest

from tdcheck import realization, tdsystem
from tdcheck.cli import main
from tdcheck.fields import DEFAULT_PRIME, PrimeField, Rationals, Sampler, derive_seed
from tdcheck.linalg import EchelonBasis, Matrix, restrict
from tdcheck.params import ParameterArray, random_admissible_context, random_valid_parameter_array
from tdcheck.realization import OperatorPair, context_env, realize, split_sequence
from tdcheck.tables import FORMAT_VERSION, bundled_table_text, load_table, parse_table
from tdcheck.tdsystem import (
    InvalidParameterArrayError,
    TDSystemReport,
    _corner_cyclic_irreducible,
    construct_from_params,
    extract_td_system,
    irreducibility_check,
    roundtrip,
    submodule_closure,
)

from support import (
    assert_corner_reads_e0, coefficient_slots, coordinates, dual_closure, elements, is_graded,
    krawtchouk_pair, lagrange_family, leonard_pair, proper_closure_d2_text, reference_restrict,
    two_closure_irreducible, with_negated_coefficient,
)

QQ = Rationals()
FP = PrimeField()


def fr(xs):
    return [Fraction(x) for x in xs]


def idempotent_families(a, astar, theta, theta_star):
    """Both full Lagrange families of the pair, as n x n matrices: the pair
    need not be graded."""
    return lagrange_family(a, theta), lagrange_family(astar, theta_star)


def d1_array():
    return ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([1, 1]))


# ---------------------------------------------------------------------------
# construction


def test_construct_d1_and_corner_elements_vanish():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    assert real.dim == 2
    # y_1 was set to zeta_1 = 1: the array is the realization's context
    assert real.context == d1_array() and context_env(real.context, QQ)["y1"] == 1


def test_construct_rejects_zeta_d_zero():
    pa = ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([1, 0]))
    with pytest.raises(InvalidParameterArrayError) as err:
        construct_from_params(pa, QQ, load_table(pa.d))
    assert "(ii) zeta_d!=0" in str(err.value)


def test_construct_d0_trivial():
    pa = ParameterArray(0, fr([4]), fr([2]), fr([1]))
    real = construct_from_params(pa, QQ, load_table(pa.d))
    assert real.dim == 1


# ---------------------------------------------------------------------------
# closures


def test_closure_of_phi_is_whole_space_for_d1():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    assert closure.dim == 2


def test_closure_of_fixed_coordinate_in_diagonal_toy():
    a = Matrix(QQ, [fr([5, 0]), fr([0, 7])])
    closure = submodule_closure(a, a, fr([1, 0]))
    assert closure.dim == 1


def test_closure_is_idempotent():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    rows = elements(closure)
    again = submodule_closure(real.a, real.astar, rows[0])
    for row in rows:
        assert coordinates(again, row) is not None
    assert again.dim == closure.dim


def test_closure_rejects_zero_seed():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        submodule_closure(a, a, fr([0, 0]))


# ---------------------------------------------------------------------------
# irreducibility via the word-span criterion: the reference grows the span of
# the words by matrix products, support.two_closure_irreducible reads two
# closures from a rank-one member, support.dual_closure the dual closure of a
# row alone, and irreducibility_check returns D, the dual closure of a pair's
# corner row, when phi = e_0 generates the module


def test_one_dimensional_module_is_irreducible():
    a = Matrix(QQ, [[Fraction(3)]])
    assert reference_word_span_irreducible(a, a, QQ)
    assert dual_closure(a, a, [QQ.one]).dim == 1  # e*_0 = I = 1 1^T


def test_diagonal_pair_is_reducible():
    a = Matrix(QQ, [fr([2, 0]), fr([0, 3])])
    assert not reference_word_span_irreducible(a, a, QQ)
    assert not two_closure_irreducible(a, a, rank_one_of(a.shift(Fraction(3))))


def test_d1_realized_pair_spans_four_dimensions():
    field = PrimeField()
    pa = ParameterArray(
        1,
        [field.from_int(1), field.from_int(-1)],
        [field.from_int(1), field.from_int(-1)],
        [field.one, field.one],
    )
    real = construct_from_params(pa, field, load_table(pa.d))
    assert reference_word_span_irreducible(real.a, real.astar, field)
    # D of e*_0's corner row; phi generates the module
    assert irreducibility_check(real).dim == real.dim == 2


def test_three_dimensional_burnside_sanity():
    # diagonal with distinct entries plus a cyclic shift generate all of M_3
    a = Matrix(QQ, [fr([0, 0, 0]), fr([0, 1, 0]), fr([0, 0, 2])])
    astar = Matrix(QQ, [fr([0, 1, 0]), fr([0, 0, 1]), fr([1, 0, 0])])
    assert reference_word_span_irreducible(a, astar, QQ)
    assert two_closure_irreducible(a, astar, rank_one_of(a * a.shift(QQ.one)))  # diag(0, 0, 2)


def reference_word_span(a, astar, field):
    """The word span grown by matrix products: BFS over words, shortest
    first, each flattened to its integer form (a multiple of the word: the
    same line).  The span's reduced echelon basis."""
    n = a.nrows
    basis = EchelonBasis(field, n * n)
    queue = deque([Matrix.identity(field, n)])
    basis.add([int(i == j) for i in range(n) for j in range(n)])
    while queue:
        m = queue.popleft()
        for g in (a, astar):
            prod = g * m
            if basis.add([x for row in prod.form[0] for x in row]):
                queue.append(prod)
    return basis


def reference_word_span_irreducible(a, astar, field):
    """Does the reference word span have dimension n^2?"""
    return reference_word_span(a, astar, field).dim == a.nrows ** 2


def random_pairs(field, seed):
    """(trial, k, a, astar) for 60 random pairs of size n <= 4: unconstrained
    (k = 0), or with a zero lower-left block (rows k.., columns ..k-1), block
    upper triangular, so the first k coordinates are invariant."""
    s = Sampler(field, seed)
    f = field
    for trial in range(60):
        n = trial % 4 + 1
        k = trial // 4 % n

        def draw():
            return Matrix(
                f, [[f.zero if i >= k > j else s.scalar() for j in range(n)] for i in range(n)]
            )

        a = draw()
        yield trial, k, a, draw()


# ---------------------------------------------------------------------------
# irreducibility from a rank-one member: two closures against the word span


def rank_one_of(m):
    """(v, w) with m = c v w^T when m has rank 1: v a nonzero column, w its
    first nonzero row; else None."""
    if m.rank() != 1:
        return None
    rows = elements(m)
    w = next(r for r in rows if any(r))
    j = next(k for k, x in enumerate(w) if x)
    return [r[j] for r in rows], w


def rank_one_idempotents(a, astar, theta, theta_star):
    """(v, w) of every rank-one member of the pair's two Lagrange families."""
    families = idempotent_families(a, astar, theta, theta_star)
    return [m for fam in families for e in fam if (m := rank_one_of(e))]


def rank_one_word(a, astar):
    """(v, w) of a rank-one member among the words of length at most 3 and,
    over a prime field, the shifts g - c I of either operator; else None."""
    field = a.field
    shifts = range(field.p) if field.kind == "fp" else ()
    words = [a, astar] + [g.shift(field.from_int(c)) for g in (a, astar) for c in shifts]
    words += [x * y for x in (a, astar) for y in (a, astar)]
    words += [x * y for x in words[-4:] for y in (a, astar)]
    return next(filter(None, map(rank_one_of, words)), None)


def assert_routes_agree(a, astar, members):
    """Every rank-one member decides as the reference word span; the verdict."""
    want = reference_word_span_irreducible(a, astar, a.field)
    for m in members:
        assert_member_decides(a, astar, m, want)
    return want


def assert_member_decides(a, astar, member, want):
    """The two closures of the member (v, w) decide as the reference, and so
    does the dual closure of w alone wherever v generates the module, as phi
    does for extraction's corner e*_0."""
    v, w = member
    assert two_closure_irreducible(a, astar, member) == want
    if submodule_closure(a, astar, v).dim == a.nrows:
        assert (dual_closure(a, astar, w).dim == a.nrows) == want


@pytest.mark.parametrize(
    "field", [QQ, FP, PrimeField(7), PrimeField(11), PrimeField(13), PrimeField(31)],
    ids=["qq", "fp", "f7", "f11", "f13", "f31"],
)
def test_two_closures_match_the_word_span_on_realized_pairs(field):
    verdicts = []
    for d in (1, 2, 3):
        table = load_table(d)
        for t in range(20):
            pa = random_valid_parameter_array(d, field, derive_seed(d << 32, t))
            real = construct_from_params(pa, field, table)
            ctx = real.context
            members = rank_one_idempotents(real.a, real.astar, ctx.theta, ctx.theta_star)
            assert len(members) == 4  # e_0, e_d, e*_0 and e*_d
            want = assert_routes_agree(real.a, real.astar, members)
            # phi generates the module: only D, the dual closure of e*_0's
            # row, is read, and both routes return it
            if submodule_closure(real.a, real.astar, real.phi).dim == real.dim:
                dual = irreducibility_check(real)
                assert (dual.dim == real.dim) == want
                assert _corner_cyclic_irreducible(real).form == dual.form
            verdicts.append(want)
    # at a small prime the sampled points meet the reducible locus
    assert all(verdicts) == (field in (QQ, FP)), verdicts.count(False)


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_two_closures_match_the_word_span_on_a_restricted_pair(field):
    pa = random_valid_parameter_array(2, field, 3 << 32)
    real = construct_from_params(pa, field, parse_table(proper_closure_d2_text()))
    closure = submodule_closure(real.a, real.astar, real.basis_vector(real.basis[0]))
    assert closure.dim == 3
    a, astar = restrict(real.a, closure), restrict(real.astar, closure)
    members = rank_one_idempotents(a, astar, pa.theta, pa.theta_star)
    assert members and assert_routes_agree(a, astar, members)
    # phi is e_0 on W and generates it: D, the dual closure of the
    # restricted pair's corner row, alone decides
    pair = OperatorPair(a, astar, pa.theta, pa.theta_star,
                        restriction_blocks(closure, real.blocks))
    assert irreducibility_check(pair).dim == 3


@pytest.mark.parametrize(
    "field,seed", [(QQ, 31), (PrimeField(7), 32)], ids=["qq", "f7"]
)
def test_two_closures_match_the_word_span_on_random_pairs(field, seed):
    # a rank-one member found among short words (rank_one_word)
    verdicts = []
    for trial, _, a, astar in random_pairs(field, seed):
        member = rank_one_word(a, astar)
        if member is not None:
            verdicts.append(assert_routes_agree(a, astar, [member]))
    assert set(verdicts) == ({True} if field is QQ else {True, False}), verdicts


@pytest.mark.parametrize(
    "field,seed", [(QQ, 31), (PrimeField(7), 32)], ids=["qq", "f7"]
)
def test_word_span_closure_matches_matrix_product_reference(field, seed):
    # the rank-one members read from the reference span's reduced echelon
    # basis: all n^2 unit matrices when the span is full
    verdicts = set()
    for trial, k, a, astar in random_pairs(field, seed):
        n = a.nrows
        span = reference_word_span(a, astar, field)
        want = span.dim == n * n
        assert not (k and want), trial  # a block-triangular pair is reducible
        rows, _ = span.form
        flat = (Matrix.of_ints(field, [row[i : i + n] for i in range(0, n * n, n)])
                for row in rows)
        members = [m for m in map(rank_one_of, flat) if m]
        assert len(members) >= (n * n if want else 0), trial
        for m in members:
            assert_member_decides(a, astar, m, want)
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_flags_an_asymmetric_shape(field):
    # a graded pair at the blocks [0], [1, 2], [3, 4] and theta = theta* =
    # [0, 1, 2]: a raises 0 -> 1, 1 -> 3 and 2 -> 4, a* lowers 3 -> 2, so
    # phi = e_0 generates all 5 dimensions (e_0, e_1, e_3, e_2, e_4) and the
    # shape is [1, 2, 2].  It fails two more axioms: a* moves a's eigenvector
    # for theta_0 into the eigenspace of theta_2 (band e.2.0), and nothing
    # lowers into block 0, so e*_0's row is e_0^T, whose dual closure is a
    # line (reducible)
    def operator(moves):
        return Matrix(field, [[field.from_int(diag[i] if i == j else (j, i) in moves)
                               for j in range(5)] for i in range(5)])

    values, diag = [field.from_int(x) for x in (0, 1, 2)], [0, 1, 1, 2, 2]
    a, astar = operator({(0, 1), (1, 3), (2, 4)}), operator({(3, 2)})
    tds = extract_td_system(OperatorPair(a, astar, values, values, [[0], [1, 2], [3, 4]]))
    assert (tds.closure_dim, tds.shape, tds.diameter, tds.irreducible) == (5, [1, 2, 2], 2, False)
    assert tds.axiom_failures == [
        ("tds.band.e.2.0", "sandwich is nonzero"),
        ("tds.shape.symmetric", "shape [1, 2, 2] is not symmetric"),
        ("tds.irreducible", "a proper invariant subspace exists"),
    ]


# ---------------------------------------------------------------------------
# certificates on the image mod DEFAULT_PRIME

P = DEFAULT_PRIME


def closure_calls(monkeypatch):
    """Record each call of submodule_closure, the one on the image mod p
    included: (field kind, operator rows, seed, dimension found)."""
    calls = []
    closure = tdsystem.submodule_closure

    def recorded(a, astar, seed):
        basis = closure(a, astar, seed)
        calls.append((a.field.kind, elements(a), list(seed), basis.dim))
        return basis

    monkeypatch.setattr(tdsystem, "submodule_closure", recorded)
    return calls


def qq_echelon_adds(monkeypatch):
    """Count EchelonBasis.add calls over the rationals."""
    adds = []
    add = EchelonBasis.add

    def counted(self, vec):
        if self.field.kind == "qq":
            adds.append(1)
        return add(self, vec)

    monkeypatch.setattr(EchelonBasis, "add", counted)
    return adds


def test_image_certified_word_span_matches_reference_over_q(monkeypatch):
    # each closure of a rank-one member runs on the image mod p first: full
    # images decide True, a short one falls back to the exact loop.  The
    # pairs: the random pairs with a rank-one word, a reducible diagonal pair
    # and an irreducible one whose image is short, a* being 0 mod p
    diag = Matrix(QQ, [fr([1, 0]), fr([0, 2])])
    pairs = [(a, astar, rank_one_word(a, astar)) for _, _, a, astar in random_pairs(QQ, 31)]
    pairs += [(diag, diag, rank_one_of(diag.shift(QQ.one))),
              (diag, Matrix(QQ, [fr([0, P]), fr([P, 0])]), rank_one_of(diag.shift(QQ.one)))]
    seen = set()
    for trial, (a, astar, member) in enumerate(pairs):
        if member is None:
            continue
        want = reference_word_span_irreducible(a, astar, QQ)
        with monkeypatch.context() as m:
            calls, adds = closure_calls(m), qq_echelon_adds(m)
            assert two_closure_irreducible(a, astar, member) == want, trial
        kinds = [kind for kind, *_ in calls]
        assert kinds == ["fp", "qq"] * (len(kinds) // 2), trial  # the image, then over Q
        on_image = all(dim == a.nrows for kind, _, _, dim in calls if kind == "fp")
        assert want or not on_image, trial  # full mod p is full over Q
        assert bool(adds) != on_image, trial  # only a short image runs the exact loop
        seen.add((on_image, want))
    assert seen == {(True, True), (False, True), (False, False)}


def test_image_closure_can_be_short_where_the_exact_closure_is_full(monkeypatch):
    a = Matrix(QQ, [fr([0, 0]), fr([P, 0])])
    calls = closure_calls(monkeypatch)
    assert tdsystem.submodule_closure(a, a, fr([1, 0])).dim == 2
    assert calls == [("fp", [[0, 0], [0, 0]], [1, 0], 1), ("qq", elements(a), fr([1, 0]), 2)]


def test_no_image_over_a_prime_field_or_for_a_denominator_divisible_by_p(monkeypatch):
    calls = closure_calls(monkeypatch)
    one, third, tiny = Matrix(QQ, [fr([1])]), Matrix(QQ, [[Fraction(1, 3)]]), Fraction(1, P)
    for a, astar, seed in [
        (Matrix(QQ, [[tiny]]), one, fr([1])),
        (third, Matrix(QQ, [[2 * tiny]]), fr([1])),
        (one, one, [tiny]),
        (Matrix(FP, [[1]]), Matrix(FP, [[1]]), [1]),
    ]:
        calls.clear()
        assert tdsystem.submodule_closure(a, astar, seed).dim == 1
        assert [kind for kind, *_ in calls] == [a.field.kind]  # the exact loop only
    # any other denominator is inverted mod p
    calls.clear()
    a = Matrix(QQ, [[Fraction(1, 3), Fraction(-1)], fr([0, 0])])
    tdsystem.submodule_closure(a, a, [Fraction(1, 3), Fraction(0)])
    assert calls[0] == ("fp", [[pow(3, -1, P), P - 1], [0, 0]], [pow(3, -1, P), 0], 1)


def test_corner_that_vanishes_mod_p_falls_back_to_the_exact_route(monkeypatch):
    a = Matrix(QQ, [fr([1, 0]), fr([0, 2])])
    astar = Matrix(QQ, [fr([1, 1]), fr([1, 1])])
    calls = closure_calls(monkeypatch)
    assert dual_closure(a, astar, fr([P, 0])).dim == 2  # a corner row that is 0 mod p
    assert [(kind, dim) for kind, _, _, dim in calls] == [("qq", 2)]


def test_seed_of_multiples_of_p_falls_back_to_the_exact_loop(monkeypatch):
    a = Matrix(QQ, [fr([0, 1]), fr([1, 0])])
    calls = closure_calls(monkeypatch)
    assert tdsystem.submodule_closure(a, a, fr([P, 0])).dim == 2
    assert [(kind, dim) for kind, _, _, dim in calls] == [("qq", 2)]


def test_full_image_closure_is_the_identity_basis_without_exact_elimination(monkeypatch):
    real = construct_from_params(d1_array(), QQ, load_table(1))
    phi = real.basis_vector(real.basis[0])
    want = Matrix.identity(QQ, 2).echelon().form
    adds = qq_echelon_adds(monkeypatch)
    closure = tdsystem.submodule_closure(real.a, real.astar, phi)
    assert adds == []  # the image settled it: no exact elimination ran
    assert closure.pivots == [0, 1] and closure.form == want


# ---------------------------------------------------------------------------
# extraction


def extract(real, theta, theta_star, blocks=None):
    """extract_td_system on a new pair: realize's operators at the given
    lists and realize's row blocks, or the given blocks."""
    return extract_td_system(OperatorPair(real.a, real.astar, theta, theta_star,
                                          real.blocks if blocks is None else blocks))


def extract_realized(real):
    """extract_td_system on the realization itself, as roundtrip calls it."""
    return extract_td_system(real)


def test_extract_d1_report_matches_hand_values():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    tds = extract_realized(real)
    assert tds.axiom_failures == []
    assert tds.diameter == 1
    assert tds.eigenvalues == fr([1, -1])
    assert tds.dual_eigenvalues == fr([1, -1])
    assert tds.shape == [1, 1]
    assert tds.sharp
    assert tds.split == fr([1, 1])
    assert tds.irreducible is True
    assert not tds.degenerate


GRADING_A = ("tds.grading.a", "a is not its eigenvalue on block j plus a map to block j+1")
GRADING_ASTAR = ("tds.grading.astar",
                 "astar is not its eigenvalue on block j plus a map to block j-1")


def assert_aborted(tds, failures):
    assert tds.axiom_failures == failures and tds.notes == [
        "extraction aborted: the pair is not graded"]
    assert (tds.diameter, tds.shape, tds.irreducible, tds.degenerate) == (-1, [], None, True)


def test_extract_flags_axiom_failures_for_swapped_eigenvalues():
    ctx = random_admissible_context(2, FP, 3111)
    real = realize(load_table(2), ctx, FP)
    swapped = [ctx.theta[1], ctx.theta[0], ctx.theta[2]]
    assert_aborted(extract(real, swapped, ctx.theta_star), [GRADING_A])
    assert_aborted(extract(real, ctx.theta, ctx.theta_star[::-1]), [GRADING_ASTAR])


def test_extract_reports_shifted_or_longer_lists_as_grading_failures():
    # no family is built: a shifted list would fail its minimal polynomial
    ctx = random_admissible_context(2, FP, 3112)
    real = realize(load_table(2), ctx, FP)
    shifted = [FP.add(x, FP.one) for x in ctx.theta]  # distinct, not the spectrum of a
    pair = OperatorPair(real.a, real.astar, shifted, ctx.theta_star, real.blocks)
    assert_aborted(extract_td_system(pair), [GRADING_A])
    assert not {"factors", "dual_factors", "split"} & set(vars(pair))
    longer = ctx.theta_star + [FP.from_int(7)]  # one value more than the blocks
    assert_aborted(extract(real, ctx.theta, longer), [GRADING_ASTAR])
    assert_aborted(extract(real, longer, longer), [GRADING_A, GRADING_ASTAR])


def test_extract_with_generic_weights_passes_band_conditions():
    # the realized module is a module for the generator algebra even when the
    # weights are not tied to any split sequence, so the band conditions hold
    for d in (2, 3):
        ctx = random_admissible_context(d, FP, 777 + d)
        real = realize(load_table(d), ctx, FP)
        tds = extract_realized(real)
        assert not any(cid.startswith("tds.band") for cid, _ in tds.axiom_failures)
        assert tds.sharp and tds.shape[0] == 1


def reference_band_failures(real, theta, theta_star):
    """extract_td_system's tds.band failures from full sandwich products."""
    phi = real.basis_vector(real.basis[0])
    closure = submodule_closure(real.a, real.astar, phi)
    a_sub = reference_restrict(real.a, closure)
    astar_sub = reference_restrict(real.astar, closure)
    factors, dual_factors = idempotent_families(a_sub, astar_sub, theta, theta_star)
    out = []
    for tag, fam, op in (("es", dual_factors, a_sub), ("e", factors, astar_sub)):
        for j in range(len(fam)):
            op_fam_j = op * fam[j]
            for i in range(len(fam)):
                if abs(i - j) > 1 and not (fam[i] * op_fam_j).is_zero():
                    out.append((f"tds.band.{tag}.{i}.{j}", "sandwich is nonzero"))
    return out


def band_failures(tds):
    return [(cid, det) for cid, det in tds.axiom_failures if cid.startswith("tds.band")]


def test_extract_band_blocks_with_rank_zero_restricted_idempotents():
    # d = 1 module read against diameter-2 lists and an empty last block: the
    # extra eigenvalues 5 and 7 are not in the spectrum, so e_2 and e*_2
    # restrict to rank 0
    real = construct_from_params(d1_array(), QQ, load_table(1))
    theta, theta_star, blocks = fr([1, -1, 5]), fr([1, -1, 7]), real.blocks + [[]]
    tds = extract(real, theta, theta_star, blocks)
    assert band_failures(tds) == reference_band_failures(real, theta, theta_star) == []
    assert tds.diameter == 1 and tds.shape == [1, 1] and tds.degenerate
    # the split is read on the support's lists, not the pair's full ones
    assert tds.split == fr([1, 1])
    pair = OperatorPair(real.a, real.astar, theta, theta_star, blocks)
    assert pair.split == fr([1, 1, 0])


def assert_band_blocks_match_full_sandwiches_on_graded_flips(field):
    """Every graded sign flip of d3.txt: the band blocks fail where the full
    sandwiches do, and some fail."""
    table, failing = load_table(3), 0
    ctx = random_admissible_context(3, field, 3111)
    for slot in coefficient_slots(table):
        flipped = with_negated_coefficient(table, *slot)
        if not is_graded(flipped):
            continue
        real = realize(flipped, ctx, field)
        want = reference_band_failures(real, ctx.theta, ctx.theta_star)
        assert band_failures(extract_realized(real)) == want, slot
        failing += bool(want)
    assert failing


def test_extract_band_blocks_match_full_sandwiches_when_they_fail():
    assert_band_blocks_match_full_sandwiches_on_graded_flips(FP)


def test_extract_band_blocks_match_full_sandwiches_when_they_fail_over_q():
    assert_band_blocks_match_full_sandwiches_on_graded_flips(QQ)


def padded_pair(real):
    """realize's pair (+) [theta_d] and (+) [theta*_d], the pad coordinate in
    the last block: the closure of phi = e_0 is the realized module, a
    proper W of dimension 2^d in 2^d + 1."""
    f, ctx, d = real.field, real.context, real.d

    def padded(m, t):
        return Matrix(f, [row + [f.zero] for row in elements(m)] + [[f.zero] * m.ncols + [t]])

    a, astar = padded(real.a, ctx.theta[d]), padded(real.astar, ctx.theta_star[d])
    blocks = real.blocks[:d] + [list(real.blocks[d]) + [real.dim]]
    return OperatorPair(a, astar, ctx.theta, ctx.theta_star, blocks)


def restriction_blocks(closure, blocks):
    """Block j of a pair restricted to the closure: its pivots in block j."""
    return [[k for k, p in enumerate(closure.pivots) if p in b] for b in blocks]


def assert_phi_is_e0_on(closure, blocks):
    """phi = e_0 lies in the closure with coordinates e_0 there, and the
    restricted pair's block 0 is [0]: the restriction keeps the contract."""
    f, n = closure.field, closure.width
    e0 = [f.one] + [f.zero] * (closure.dim - 1)
    assert coordinates(closure, [f.one] + [f.zero] * (n - 1)) == e0
    assert restriction_blocks(closure, blocks)[0] == [0]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_restricts_a_pair_to_a_proper_closure(field, d):
    ctx = random_admissible_context(d, field, 40 + d)
    real = realize(load_table(d), ctx, field)
    pair = padded_pair(real)
    closure = submodule_closure(pair.a, pair.astar, pair.phi)
    assert_phi_is_e0_on(closure, pair.blocks)
    restricted = OperatorPair(restrict(pair.a, closure), restrict(pair.astar, closure),
                              ctx.theta, ctx.theta_star, restriction_blocks(closure, pair.blocks))
    for read in (pair, restricted):  # the corner is e*_0's row before and after
        assert_corner_reads_e0(read)
    tds = extract_td_system(pair)
    plain = extract_realized(real)
    assert tds.closure_dim == real.dim == 2 ** d and tds.degenerate
    assert f"degenerate parameter point: closure dim {2 ** d}/{2 ** d + 1}," in tds.notes[-1]
    # the padded pair's families, of rank 2 at d, would give shape [..., 2]
    assert (tds.split, tds.shape) == (plain.split, plain.shape)
    assert tds.axiom_failures == plain.axiom_failures == [] and tds.irreducible


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_grades_a_proper_closure_at_its_pivots(field):
    # the closure of phi in proper_closure_d2_text's module, trials 0-4: each
    # reduced row of W lies in its pivot's row block, so the restricted pair
    # is graded at the pivots in each block and its shape is [1, 1, 1]
    table = parse_table(proper_closure_d2_text())
    for t in range(5):
        pa = random_valid_parameter_array(2, field, derive_seed(0, t))
        real = construct_from_params(pa, field, table)
        closure = submodule_closure(real.a, real.astar, real.phi)
        assert_phi_is_e0_on(closure, real.blocks)
        at = {k: j for j, b in enumerate(real.blocks) for k in b}
        for row, piv in zip(elements(closure), closure.pivots):
            assert {at[k] for k, x in enumerate(row) if x} == {at[piv]}, t
        tds = extract_td_system(real)
        assert (tds.closure_dim, tds.shape, tds.diameter) == (3, [1, 1, 1], 2), t
        assert not [cid for cid, _ in tds.axiom_failures if cid.startswith("tds.grading")], t


@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_reuses_the_families_only_on_the_whole_module(field, monkeypatch):
    real = realize(load_table(2), random_admissible_context(2, field, 5), field)
    real.split  # a round trip reads it, and no family, before extraction
    calls, splits = [], []
    lagrange = realization.lagrange_idempotents

    def counted(op, values):
        calls.append((op.nrows, values))
        return lagrange(op, values)

    def counted_split(a, *args):
        splits.append(a.nrows)
        return split_sequence(a, *args)

    monkeypatch.setattr(realization, "lagrange_idempotents", counted)
    monkeypatch.setattr(realization, "split_sequence", counted_split)
    ctx = real.context
    once = [(real.dim, ctx.theta_star), (real.dim, ctx.theta)]  # the band walks' order
    assert extract_realized(real).closure_dim == real.dim
    # the whole module: the realization's families are built here, once
    # each, and its split is read as it is
    assert (calls, splits) == (once, [])
    assert extract_realized(real).closure_dim == real.dim
    assert (calls, splits) == (once, [])  # a second read builds nothing
    assert extract_td_system(padded_pair(real)).degenerate
    # a proper W: rebuilt there, once per operator, and one split read on W
    assert (calls[2:], splits) == (once, [real.dim])
    extract(real, ctx.theta, ctx.theta_star)
    assert (calls[4:], splits[1:]) == (once, [real.dim])  # a new pair: built here


def test_split_extraction_recovers_zeta_on_full_module():
    pa = ParameterArray(2, fr([0, 1, 3]), fr([0, 2, 5]), fr([1, 4, 6]))
    field = QQ
    real = construct_from_params(pa, field, load_table(pa.d))
    tds = extract_realized(real)
    assert tds.closure_dim == real.dim
    assert tds.split == pa.zeta


@pytest.mark.parametrize(
    "p,theta,theta_star,zeta",
    [(7, [0, 1, 6], [0, 6, 3], [1, 1, 1]),
     (7, [1, 6, 2], [0, 6, 2], [1, 3, 2]),
     (13, [8, 5, 1], [7, 0, 4], [1, 9, 11])],
    ids=["f7-a", "f7-b", "f13"],
)
def test_extract_reads_the_irreducible_quotient_of_a_reducible_module(p, theta, theta_star, zeta):
    # at these points phi generates the d = 2 module, which is reducible.
    # Its largest submodule without phi is M, the annihilator of D, the dual
    # closure of e*_0's corner row.  The pair on W/M is the transposed pair
    # restricted to D, transposed back; phi's coordinates there are its
    # pairings with D's rows, and its block j is D's pivots in row block j:
    # each of D's reduced rows lies in its pivot's block.  Extraction takes
    # that pair as it is
    field = PrimeField(p)
    real = construct_from_params(ParameterArray(2, theta, theta_star, zeta), field, load_table(2))
    tds = extract_td_system(real)
    assert (tds.irreducible, tds.shape) == (False, [1, 2, 1])
    dual = irreducibility_check(real)  # the D that extraction keeps
    assert dual.dim == 3

    def quotient(op):
        return restrict(op.transpose(), dual).transpose()

    # the quotient keeps the contract: phi's image is e_0 there, and block 0 is [0]
    assert Matrix(field, elements(dual)).apply(real.phi) == [field.one] + [field.zero] * 2
    blocks = restriction_blocks(dual, real.blocks)
    assert blocks[0] == [0]
    pair = OperatorPair(quotient(real.a), quotient(real.astar), theta, theta_star, blocks)
    quo = extract_td_system(pair)
    assert quo.axiom_failures == []
    for read in (real, pair):  # the corner is e*_0's row on the module and on W/M
        assert_corner_reads_e0(read)
    assert (quo.closure_dim, quo.shape, quo.split, quo.irreducible) == (3, [1, 1, 1], zeta, True)


# ---------------------------------------------------------------------------
# TD pairs that no table builds: Leonard pairs in split form and Krawtchouk
# tensor pairs (support.leonard_pair, support.krawtchouk_pair)


def krawtchouk(field, d):
    i = field.from_int
    return krawtchouk_pair(field, d, i(1), i(2), i(3), i(3), [i(c) for c in range(1, d + 1)])


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_passes_on_a_leonard_pair_in_split_form(field, d):
    for seed in (0, 1):
        ctx = random_admissible_context(d, field, seed)
        tds = extract_td_system(leonard_pair(field, ctx.theta, ctx.theta_star, field.one))
        assert tds.axiom_failures == [] and tds.irreducible, seed
        assert (tds.closure_dim, tds.shape, tds.degenerate) == (d + 1, [1] * (d + 1), False)


@pytest.mark.parametrize("d", range(1, 6))
@pytest.mark.parametrize("field", [QQ, FP], ids=["qq", "fp"])
def test_extract_passes_on_a_krawtchouk_pair_and_the_table_round_trips_its_array(field, d):
    # distinct couplings: the tensor module is irreducible, of binomial shape,
    # and the bundled table at its array (theta, theta*, split) round-trips
    tds = extract_td_system(krawtchouk(field, d))
    assert tds.axiom_failures == [] and tds.irreducible and not tds.degenerate
    assert tds.shape == [comb(d, j) for j in range(d + 1)]
    pa = ParameterArray(d, tds.eigenvalues, tds.dual_eigenvalues, tds.split)
    rep = roundtrip(pa, field, load_table(d))
    assert rep.overall, [(c.id, c.detail) for c in rep.failures()]


# The Leonard arrays at theta_i = i^2 and theta*_i = i^2 + 3i (beta = 2),
# zeta the split of leonard_pair there at vphi1 = 1.  At each, the bundled
# table's module is reducible: D, the dual closure of its corner row, has
# dimension d + 1 of 2^d, and W/M, M the annihilator of D, is the Leonard
# pair.  Pinned as they stand: the round trip fails only tds.irreducible
LEONARD_ARRAYS = {
    2: ["1", "-15", "435"],
    3: ["1", "-35", "8260/3", "-735140/3"],
    4: ["1", "-63", "18711/2", "-8027019/4", "1565268705/4"],
    5: ["1", "-99", "118008/5", "-221973048/25", "495443843136/125", "-177864339685824/125"],
}


def leonard_array(d) -> dict:
    return {"d": d, "theta": [str(i * i) for i in range(d + 1)],
            "theta_star": [str(i * i + 3 * i) for i in range(d + 1)], "zeta": LEONARD_ARRAYS[d]}


@pytest.mark.parametrize("d", sorted(LEONARD_ARRAYS))
def test_the_pinned_leonard_arrays_are_the_split_of_a_leonard_pair(d):
    for field in (QQ, FP):
        pa = ParameterArray.from_json(json.dumps(leonard_array(d)), field)
        tds = extract_td_system(leonard_pair(field, pa.theta, pa.theta_star, field.one))
        assert tds.axiom_failures == [] and tds.split == pa.zeta


@pytest.mark.parametrize("d", sorted(LEONARD_ARRAYS))
@pytest.mark.parametrize("field", ["fp", "qq"])
def test_a_leonard_array_round_trip_fails_only_irreducibility(field, d, tmp_path, capsys,
                                                             monkeypatch):
    # each irreducibility route returns D, which extraction keeps: record it
    duals = []
    for name in ("irreducibility_check", "_corner_cyclic_irreducible"):
        def recorded(pair, route=getattr(tdsystem, name)):
            dual = route(pair)
            duals.append(dual.dim)
            return dual

        monkeypatch.setattr(tdsystem, name, recorded)
    path = tmp_path / "leonard.json"
    path.write_text(json.dumps(leonard_array(d)))
    code = main(["tds", "roundtrip", "--input", str(path), "--field", field])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [c["id"] for c in rep["checks"] if not c["passed"]] == ["tds.irreducible"]
    assert duals == [d + 1]
    assert f"closure of phi has dimension {2 ** d} of {2 ** d}" in json.dumps(rep)


# ---------------------------------------------------------------------------
# round trips


def test_tds_report_serializes():
    real = construct_from_params(d1_array(), QQ, load_table(1))
    tds = extract_realized(real)
    obj = tds.to_dict(QQ)
    assert obj["diameter"] == 1
    assert obj["eigenvalues"] == ["1", "-1"]
    assert obj["split"] == ["1", "1"]
    assert obj["sharp"] is True and obj["irreducible"] is True


def test_tds_report_dict_has_one_key_per_field():
    # a graded sign flip of d2.txt (a's phi -> r term) fails band checks
    table = load_table(2)
    flipped = with_negated_coefficient(table, "a", table.basis[0], 1)
    real = realize(flipped, random_admissible_context(2, FP, 3111), FP)
    tds = extract_realized(real)
    obj = tds.to_dict(FP)
    assert list(obj) == list(TDSystemReport._fields)
    assert obj["axiom_failures"] == [{"id": c, "detail": t} for c, t in tds.axiom_failures]
    assert obj["axiom_failures"] and obj["eigenvalues"] == [FP.format(x) for x in tds.eigenvalues]
    assert len(obj["eigenvalues"]) == 3


def test_roundtrip_d1_golden():
    rep = roundtrip(d1_array(), QQ, load_table(1))
    assert rep.overall, [c for c in rep.failures()]


def test_roundtrip_d0_trivial():
    pa = ParameterArray(0, fr([3]), fr([8]), fr([1]))
    rep = roundtrip(pa, QQ, load_table(pa.d))
    assert rep.overall


def test_roundtrip_reports_validation_failure():
    pa = ParameterArray(1, fr([1, -1]), fr([1, -1]), fr([2, 1]))
    rep = roundtrip(pa, QQ, load_table(pa.d))
    assert not rep.overall
    assert any(c.id == "tds.valid" and not c.passed for c in rep.checks)
    assert rep.asset_version == FORMAT_VERSION  # the table was loaded


def test_roundtrip_reports_construct_failure_with_the_table_version():
    # the corrupted d = 1 table of tests/test_golden.py: y1*phi negated
    table = parse_table(bundled_table_text(1).replace("ths1*r + y1*phi", "ths1*r - y1*phi"))
    rep = roundtrip(d1_array(), QQ, table)
    construct = next(c for c in rep.checks if c.id == "tds.construct")
    assert not construct.passed and "g.1" in construct.detail
    assert rep.asset_version == FORMAT_VERSION


@pytest.mark.parametrize("d", range(6))
def test_roundtrip_random_arrays_prime_field(d):
    from tdcheck.params import random_valid_parameter_array

    pa = random_valid_parameter_array(d, FP, 4200 + d)
    rep = roundtrip(pa, FP, load_table(pa.d))
    assert rep.overall, [(c.id, c.detail) for c in rep.failures()]


def test_roundtrip_qq_d3_word_span_report_is_pinned(capsys):
    # The width-64 word-span echelon over the rationals (d = 3, dim W = 8);
    # the digest was taken before the echelon kept its rows as integers.
    import hashlib

    from tdcheck.cli import main

    code = main("tds roundtrip --d 3 --trials 1 --field qq --seed 1".split())
    out = capsys.readouterr().out
    assert code == 0
    assert "irreducibility via full word-span dimension" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9b10e6b3f79487fb72f66b59efd0af49e5907eb5e8c307f9ed5e662a6f773cee"
    )
