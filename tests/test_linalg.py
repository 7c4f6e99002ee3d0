from collections import Counter
from copy import deepcopy
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck.fields import DEFAULT_PRIME, PrimeField, Rationals, Sampler
from tdcheck.linalg import EchelonBasis, Matrix, graded, restrict
from tdcheck.params import random_admissible_context
from tdcheck.realization import realize
from tdcheck.tables import load_table
from tdcheck.tdsystem import submodule_closure

from support import (
    coordinates, elements, identity, is_zero, proper_closure_d2_text, rank, read_form,
    reference_restrict, shifted, zero_matrix,
)

QQ = Rationals()


def frac_matrix(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def test_identity_and_zero():
    eye = identity(QQ, 3)
    z = zero_matrix(QQ, 3)
    assert eye * eye == eye
    assert eye * z == z
    assert is_zero(z) and not is_zero(eye)


def test_product_matches_hand_value():
    a = frac_matrix([[1, 2], [3, 4]])
    b = frac_matrix([[5, 6], [7, 8]])
    assert a * b == frac_matrix([[19, 22], [43, 50]])


@pytest.mark.parametrize("f", [QQ, PrimeField()], ids=["qq", "fp"])
def test_empty_forms_keep_their_shapes(f):
    # a form with no rows takes its width from ncols, and products and
    # transposes keep it
    empty = Matrix.of_ints(f, [], 1, 2)
    prod = empty * identity(f, 2)  # 0 x 2 times 2 x 2
    assert (prod.nrows, prod.ncols, prod.form) == (0, 2, ([], 1))
    prod = Matrix.of_ints(f, [[], []]) * Matrix.of_ints(f, [], 1, 3)  # 2 x 0 times 0 x 3
    assert (prod.nrows, prod.ncols) == (2, 3) and prod == Matrix.of_ints(f, [[0] * 3] * 2)
    flipped = Matrix.of_ints(f, [], 1, 3).transpose()
    assert (flipped.nrows, flipped.ncols, flipped.form) == (3, 0, ([[], [], []], 1))
    assert (flipped.transpose().nrows, flipped.transpose().ncols) == (0, 3)


@pytest.mark.parametrize(
    "f", [QQ, PrimeField(101), PrimeField()], ids=["qq-None", "fp-101", "fp-None"]
)
def test_mat_mul_kernel_matches_generic_dot(f):
    s = Sampler(f, 17)
    n = 6
    a = Matrix(f, [[s.scalar() for _ in range(n)] for _ in range(n)])
    b = Matrix(f, [[s.scalar() for _ in range(n)] for _ in range(n)])
    prod = a * b
    for i in range(n):
        for j in range(n):
            want = reduce(f.add, map(f.mul, elements(a)[i], [r[j] for r in elements(b)]), f.zero)
            assert elements(prod)[i][j] == want


def test_apply_is_column_action():
    a = frac_matrix([[2, 0], [1, 5]])
    assert a.apply([Fraction(1), Fraction(0)]) == [Fraction(2), Fraction(1)]


def test_rank_and_echelon():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    assert rank(identity(QQ, 4)) == 4
    assert rank(zero_matrix(QQ, 2, 5)) == 0


def test_echelon_basis_coordinates_and_containment():
    basis = EchelonBasis(QQ, 3)
    assert basis.add([Fraction(1), Fraction(1), Fraction(0)])
    assert basis.add([Fraction(0), Fraction(0), Fraction(2)])
    assert not basis.add([Fraction(2), Fraction(2), Fraction(6)])
    assert basis.dim == 2
    assert basis.form == ([[1, 1, 0], [0, 0, 1]], 1) and basis.pivots == [0, 2]
    assert coordinates(basis, [Fraction(3), Fraction(3), Fraction(-1)]) is not None
    assert coordinates(basis, [Fraction(1), Fraction(0), Fraction(0)]) is None
    vec = [Fraction(5), Fraction(5), Fraction(4)]
    coords = coordinates(basis, vec)
    assert coords == [vec[p] for p in basis.pivots]  # the entries at the pivots
    recon = [QQ.zero] * 3
    for c, row in zip(coords, elements(basis)):
        recon = [QQ.add(x, QQ.mul(c, y)) for x, y in zip(recon, row)]
    assert recon == vec


def test_echelon_rows_are_reduced():
    basis = EchelonBasis(QQ, 3)
    basis.add([Fraction(2), Fraction(4), Fraction(2)])
    basis.add([Fraction(1), Fraction(3), Fraction(0)])
    for row, piv in zip(elements(basis), basis.pivots):
        assert row[piv] == 1
        for other in basis.pivots:
            if other != piv:
                assert row[other] == 0


def test_restrict_operator_on_invariant_plane():
    a = frac_matrix([[1, 0, 0], [0, 2, 1], [0, 0, 2]])
    basis = EchelonBasis(QQ, 3)
    basis.add([Fraction(0), Fraction(1), Fraction(0)])
    basis.add([Fraction(0), Fraction(0), Fraction(1)])
    assert restrict(a, basis) == reference_restrict(a, basis) == frac_matrix([[2, 1], [0, 2]])
    bad = EchelonBasis(QQ, 3)
    bad.add([Fraction(0), Fraction(1), Fraction(1)])
    cycle = frac_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for restriction in (restrict, reference_restrict):
        with pytest.raises(ValueError, match="^subspace is not invariant under the operator$"):
            restriction(cycle, bad)


@pytest.mark.parametrize("d", range(5))
@pytest.mark.parametrize(
    "field", [QQ, PrimeField(), PrimeField(7)], ids=["qq", "fp", "f7"]
)
def test_restrict_matches_the_reference_on_realized_closures(field, d):
    # closures seeded at every basis vector, under the realized pair and
    # under (a, a): a* need not leave the second kind invariant, and both
    # restrictions must then raise
    real = realize(load_table(d), random_admissible_context(d, field, 60 + d), field)
    n, restricted, proper, raised = real.dim, 0, 0, 0
    for i in range(n):
        seed = [field.one if j == i else field.zero for j in range(n)]
        for pair in ((real.a, real.astar), (real.a, real.a)):
            closure = submodule_closure(*pair, seed)
            proper += closure.dim < n
            for op in (real.a, real.astar):
                try:
                    want = reference_restrict(op, closure)
                except ValueError:
                    raised += 1
                    with pytest.raises(ValueError):
                        restrict(op, closure)
                else:
                    restricted += 1
                    assert restrict(op, closure) == want
    assert restricted >= 3 * n
    if d:  # at these points some closure under (a, a) is proper
        assert proper and raised


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(), PrimeField(7)], ids=["qq", "fp", "f7"]
)
def test_graded_reads_the_split_grading_of_realized_pairs(field):
    # a is theta_j on row block j plus a raise, a* theta*_j plus a lowering.
    # The other direction, a shifted or short list, blocks that miss or
    # repeat an index, a lowering entry of a and an entry off the diagonal
    # inside a block each fail
    for d in range(6):
        real = realize(load_table(d), random_admissible_context(d, field, 70 + d), field)
        theta, theta_star, blocks, n = real.theta, real.theta_star, real.blocks, real.dim
        assert graded(real.a, theta, blocks, 1) and graded(real.astar, theta_star, blocks, -1)
        assert graded(real.a, theta + [field.zero], blocks + [[]], 1)  # an empty block
        assert graded(real.a, theta, blocks, -1) is graded(real.astar, theta_star, blocks, 1) \
            is (d == 0)
        assert not graded(real.a, [field.add(t, field.one) for t in theta], blocks, 1)
        assert not graded(real.a, theta[:-1], blocks, 1)
        assert not graded(real.a, theta, blocks[:-1] + [list(blocks[-1])[:-1]], 1)
        assert not graded(real.a, theta, blocks[:-1] + [list(blocks[-1]) + [0]], 1)
        # block d into block 0; inside block 1, which has two indices at d >= 2
        for r, c in [(0, n - 1)] * (d >= 1) + [(1, 2)] * (d >= 2):
            rows = elements(real.a)
            rows[r][c] = field.add(rows[r][c], field.one)
            assert not graded(Matrix(field, rows), theta, blocks, 1), (d, r, c)


def test_prime_field_rank():
    f = PrimeField(7)
    m = Matrix(f, [[1, 2], [3, 6]])  # second row = 3 * first mod 7
    assert rank(m) == 1


# ---------------------------------------------------------------------------
# The integer-row kernels against the per-entry field arithmetic they replaced


class ReferenceEchelonBasis:
    """The reduced echelon basis as it was kept before its rows became
    integer vectors: every entry a field element, every step field ops."""

    def __init__(self, field, width):
        self.field = field
        self.width = width
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        f = self.field
        v = list(vec)
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            coords.append(c)
            if c:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        if any(v):
            return None
        return coords


def reference_apply(m, vec):
    """Matrix times column vector as one field dot product per row."""
    f = m.field
    return [reduce(f.add, map(f.mul, row, vec), f.zero) for row in elements(m)]


SEEDED_FIELDS = [(QQ, 31), (PrimeField(), 32), (PrimeField(7), 33)]
FIELD_IDS = ["qq", "fp", "f7"]


def random_entry(s, density):
    """A random scalar, zero with probability 1 - density; over qq a ratio."""
    f = s.field
    if s.rng.randrange(1000) >= density * 1000:
        return f.zero
    x = s.scalar()
    if f.kind == "qq":
        den = s.scalar()
        x = x / den if den else x
    return x


def random_vector(s, width, density=1.0):
    return [random_entry(s, density) for _ in range(width)]


def combination(s, vecs, width):
    """A random linear combination of vecs (the zero vector if vecs is empty)."""
    f = s.field
    out = [f.zero] * width
    for v in vecs:
        c = random_entry(s, 0.7)
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, v)]
    return out


def assert_same_basis(got, want):
    assert got.dim == want.dim
    assert got.pivots == want.pivots
    assert elements(got) == want.rows


def assert_same_queries(s, got, want, width, added):
    # a probe is in the span iff adding it to a copy does not grow it, and
    # inside the span its coordinates are its entries at the pivots
    probes = [
        [s.field.zero] * width,
        combination(s, added, width),
        combination(s, added[:2], width),
        random_vector(s, width),
        random_vector(s, width, 0.2),
    ]
    for v in probes:
        inside = want.contains(v)
        assert deepcopy(got).add(v) is not inside
        assert coordinates(got, v) == want.coordinates(v)
        assert ([v[p] for p in got.pivots] if inside else None) == want.coordinates(v)


@pytest.mark.parametrize("field,seed", SEEDED_FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("width,density", [(1, 1.0), (5, 1.0), (9, 0.25), (16, 0.1)])
def test_echelon_matches_reference_on_random_inputs(field, seed, width, density):
    s = Sampler(field, seed)
    for _ in range(4):
        got, want = EchelonBasis(s.field, width), ReferenceEchelonBasis(s.field, width)
        assert_same_basis(got, want)
        assert_same_queries(s, got, want, width, [])
        added = []
        for step in range(width + 4):
            # a few independent vectors, then dependent ones and zeros mixed in
            if step % 5 == 4:
                v = [s.field.zero] * width
            elif step % 3 == 2:
                v = combination(s, added, width)
            else:
                v = random_vector(s, width, density)
            assert got.add(v) == want.add(v)
            added.append(v)
            assert_same_basis(got, want)
        assert_same_queries(s, got, want, width, added)


@pytest.mark.parametrize("p,seed", [(7, 41), (11, 42), (DEFAULT_PRIME, 43)], ids=["f7", "f11", "fp"])
@pytest.mark.parametrize("width", [32, 64])
def test_prime_echelon_matches_reference_at_word_span_widths(p, seed, width):
    # F_p steps leave entries unreduced until the residual is complete; they
    # grow most when every entry and multiplier is p - 1.  full is
    # (p - 1) J + (2 - p) I, invertible since 2 - width is a unit mod these p.
    f, top = PrimeField(p), p - 1
    s = Sampler(f, seed)
    full = [[1 if j == k else top for j in range(width)] for k in range(width)]
    half = [random_vector(s, width, 0.5) for _ in range(width // 2)]
    for seq in (full, [[top] * width] + half + [[top] * width] + full):
        got, want = EchelonBasis(f, width), ReferenceEchelonBasis(f, width)
        for v in seq:
            assert got.add(v) == want.add(v)
            assert got.pivots == want.pivots
            assert all(0 <= x < p for row in got._ints for x in row)  # stored rows stay reduced
        assert got.dim == width
        assert_same_basis(got, want)
        assert_same_queries(s, got, want, width, seq)
        tops = [top] * width
        assert [tops[p] for p in got.pivots] == coordinates(got, tops) == tops
        assert want.coordinates(tops) == tops
    # the whole space as read without elimination, queried as the grown basis
    whole = EchelonBasis.whole_space(f, width)
    assert_same_basis(whole, want)
    assert_same_queries(s, whole, want, width, full)
    assert coordinates(whole, [top] * width) is not None and not whole.add([top] * width)


@pytest.mark.parametrize("field,seed", SEEDED_FIELDS, ids=FIELD_IDS)
def test_echelon_matches_reference_on_rank_deficient_spans(field, seed):
    # rank 3 inside width 12: every later vector is dependent
    s = Sampler(field, seed)
    width = 12
    gens = [random_vector(s, width, 0.5) for _ in range(3)]
    got, want = EchelonBasis(s.field, width), ReferenceEchelonBasis(s.field, width)
    for v in gens + [combination(s, gens, width) for _ in range(10)]:
        assert got.add(v) == want.add(v)
    assert_same_basis(got, want)
    assert got.dim <= 3
    assert_same_queries(s, got, want, width, gens)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([f for f, _ in SEEDED_FIELDS]),
    st.integers(0, 2**32),
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
)
def test_mat_mul_matches_reference_dot(f, seed, shape, density_a, density_b):
    # inner dimension 0 and n x 0 right operands (the rank-0 B_i blocks of
    # RankFactors) included; a 0 x m right operand is the empty list
    s = Sampler(f, seed)
    n, k, m = shape
    a = [random_vector(s, k, density_a) for _ in range(n)]
    b = [random_vector(s, m, density_b) for _ in range(k)]
    (ia, da), (ib, db) = f.to_ints(a), f.to_ints(b)
    got = read_form(f, f.mat_mul(ia, ib), da * db)
    want = [[reduce(f.add, map(f.mul, row, col), f.zero) for col in zip(*b)] for row in a]
    assert got == want
    if f.kind == "qq":  # zero sums too come back as Fraction(0), not int 0
        assert all(type(x) is Fraction for row in got for x in row)
    else:
        assert all(0 <= x < f.p for row in got for x in row)


@pytest.mark.parametrize("field,seed", SEEDED_FIELDS, ids=FIELD_IDS)
def test_apply_matches_reference(field, seed):
    s = Sampler(field, seed)
    for n, m, density in ((1, 1, 1.0), (4, 7, 1.0), (12, 12, 0.15), (9, 5, 0.0)):
        mat = Matrix(s.field, [random_vector(s, m, density) for _ in range(n)])
        for vdensity in (1.0, 0.3, 0.0):
            v = random_vector(s, m, vdensity)
            assert mat.apply(v) == reference_apply(mat, v)
            if n == m:  # (mat - t I) v, read on mat's own integer form
                t = s.scalar()
                assert mat.apply(v, t) == reference_apply(shifted(mat, t), v)
                assert mat.apply(v, s.field.zero) == mat.apply(v)


@pytest.mark.parametrize("field,seed", SEEDED_FIELDS, ids=FIELD_IDS)
def test_apply_after_shift_and_copy_reads_the_new_entries(field, seed):
    # the first apply prepares and caches the matrix; a shifted or copied
    # matrix that is then changed must not read that cache
    s = Sampler(field, seed)
    n = 6
    mat = Matrix(s.field, [random_vector(s, n, 0.5) for _ in range(n)])
    v = random_vector(s, n)
    assert mat.apply(v) == reference_apply(mat, v)
    moved = shifted(mat, s.scalar())
    assert moved.apply(v) == reference_apply(moved, v)
    rows = elements(mat)
    rows[0] = random_vector(s, n)  # a new row list: mat keeps its entries
    copied = Matrix(s.field, rows)
    assert elements(copied) != elements(mat)
    assert copied.apply(v) == reference_apply(copied, v)
    assert mat.apply(v) == reference_apply(mat, v)


def test_tracer_entry_points_see_both_fields(monkeypatch, capsys):
    # perfbench's layer metrics wrap these two names on the classes and tag
    # each call with the receiver's field; both must keep seeing every call
    from tdcheck.cli import main

    counts = Counter()

    def counting(name, fn):
        def wrapper(self, *args):
            counts[name, self.field.kind] += 1
            return fn(self, *args)

        return wrapper

    monkeypatch.setattr(EchelonBasis, "add", counting("add", EchelonBasis.add))
    monkeypatch.setattr(Matrix, "apply", counting("apply", Matrix.apply))
    assert main("tds roundtrip --d 2 --trials 1 --field qq --seed 0 --jobs 1".split()) == 0
    assert main("zz rank --d 2 --trials 1 --field fp --seed 0 --jobs 1".split()) == 0
    assert main("zz rank --d 2 --trials 1 --field qq --seed 0 --jobs 1".split()) == 0
    capsys.readouterr()
    for name in ("add", "apply"):
        for kind in ("qq", "fp"):
            assert counts[name, kind] > 0, (name, kind)


# each width over both primes; over Q the dense width 64 is left out, as
# its Fraction reference alone takes seconds
CANONICAL_ROW_CASES = [
    (width, density, field, seed, name)
    for field, seed, name in ((PrimeField(7), 51, "f7"), (PrimeField(DEFAULT_PRIME), 52, "fp"),
                              (QQ, 53, "qq"))
    for width, density in ((6, 1.0), (12, 0.3), (32, 0.15), (64, 0.5))
    if name != "qq" or width < 64
]


@pytest.mark.parametrize("width,density,field,seed", [c[:4] for c in CANONICAL_ROW_CASES],
                         ids=[f"{w}-{d}-{name}" for w, d, _, _, name in CANONICAL_ROW_CASES])
def test_forward_elimination_keeps_rows_canonical(width, density, field, seed):
    # an insert eliminates forward only and leaves older rows as they are:
    # every stored row is its line's canonical integer representative, zero
    # before its pivot, and `form` back-substitutes to the reduced rows
    s = Sampler(field, seed)
    got, want = EchelonBasis(field, width), ReferenceEchelonBasis(field, width)
    added = []
    for step in range(width + 8):
        v = combination(s, added, width) if step % 4 == 3 else random_vector(s, width, density)
        assert got.add(v) == want.add(v)
        added.append(v)
        for row, piv in zip(got._ints, got.pivots):
            assert all(type(x) is int for x in row) and not any(row[:piv])
            if field.kind == "fp":
                assert all(0 <= x < field.p for x in row) and row[piv] == 1
            else:
                assert gcd(*row) == 1 and row[piv] > 0
        assert got.pivots == want.pivots
        assert elements(got) == want.rows
    assert_same_basis(got, want)


def fraction_product(a, b):
    """a times b by the schoolbook triple loop over Fractions; as in the
    kernel, a 0 x m right operand is the empty list, so the product has no
    columns."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def assert_lowest(form):
    ints, den = form
    assert den > 0 and gcd(den, *(x for row in ints for x in row)) == 1


# entries: zero a third of the time, signed, with denominators up to 10^40
fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 6, 10**40])),
)


def fraction_rows(nrows, ncols, zero_row, zero_col):
    rows = st.lists(st.lists(fractions, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)

    def blank(m):  # a zero row and a zero column, where the shape has them
        m = [list(r) for r in m]
        if zero_row is not None and nrows:
            m[zero_row % nrows] = [Fraction(0)] * ncols
        if zero_col is not None and ncols:
            for r in m:
                r[zero_col % ncols] = Fraction(0)
        return m
    return rows.map(blank)


@st.composite
def product_operands(draw):
    n, k, m, w = (draw(st.integers(0, 5)) for _ in range(4))
    zeros = lambda: draw(st.one_of(st.none(), st.integers(0, 4)))  # noqa: E731
    return tuple(draw(fraction_rows(r, c, zeros(), zeros())) for r, c in ((n, k), (k, m), (m, w)))


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_rational_product_form_matches_the_fraction_triple_loop(operands):
    # the integer form of a product (the kernel on the operands' integer
    # rows, over the product of their denominators) is reduced and reads
    # back as the schoolbook product, also with 0-row and 0-column shapes
    a, b, c = operands
    (ia, da), (ib, db), (ic, dc) = (QQ.to_ints(x) for x in operands)
    ab = Matrix.of_ints(QQ, QQ.mat_mul(ia, ib), da * db)
    assert_lowest(ab.form)
    assert elements(ab) == fraction_product(a, b)
    if not b:  # a 0 x m operand: ab has lost its width m
        return
    abc = QQ.mat_mul(ab.form[0], ic)
    assert read_form(QQ, abc, ab.form[1] * dc) == fraction_product(fraction_product(a, b), c)
    if all(x and x[0] for x in operands):  # no empty side: a Matrix carries the shapes
        ma, mb, mc = (Matrix(QQ, x) for x in operands)
        prod = (ma * mb) * mc
        assert_lowest(prod.form)
        assert elements(prod) == fraction_product(fraction_product(a, b), c)
        assert prod == ma * (mb * mc)


def test_no_rational_product_clears_denominators(monkeypatch, capsys, tmp_path):
    # over Q a matrix keeps its integer form, so only matrices assembled
    # from scalars (table evaluation, vectors) reach the clearing function,
    # the round trip on a proper closure included
    import tdcheck.fields as fields
    from tdcheck.cli import main

    inside, reached, calls = [], [], Counter()

    def guarded(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    clear = fields._to_int_rows

    def clearing(rows):
        calls["clear"] += 1
        reached.extend(inside[-1:])
        return clear(rows)

    monkeypatch.setattr(fields, "_to_int_rows", clearing)
    monkeypatch.setattr(Rationals, "mat_mul", guarded("mat_mul", Rationals.mat_mul))
    (tmp_path / "d2.txt").write_text(proper_closure_d2_text())
    for argv, code in (("verify-appendix --d 3 --field qq --trials 1", 0),
                       ("tds roundtrip --d 3 --field qq --trials 1", 0),
                       (f"tds roundtrip --d 2 --field qq --trials 1 --assets {tmp_path}", 1)):
        assert main(argv.split()) == code
    capsys.readouterr()
    assert reached == []
    assert calls["mat_mul"] and calls["clear"]


def test_reduced_rows_are_read_only_to_restrict(monkeypatch, capsys, tmp_path):
    # closures and ranks read an echelon basis's dim and pivots; only
    # restrict reads its reduced rows, once per restricted operator, which
    # on the proper-closure d = 2 table is two per trial
    from tdcheck.cli import main

    reads, form = Counter(), EchelonBasis.form

    def counted(basis):
        reads[basis.field.kind] += 1
        return form.fget(basis)

    monkeypatch.setattr(EchelonBasis, "form", property(counted))
    for argv, code in [*((f"tds roundtrip --d {d} --trials 2 --field qq", 0) for d in (2, 3, 4)),
                       ("zz rank --d 3 --trials 2 --field qq", 0),
                       ("tds roundtrip --d 3 --trials 8 --prime 7", 1)]:
        assert main(f"{argv} --seed 0 --jobs 1".split()) == code, argv
    assert not reads
    (tmp_path / "d2.txt").write_text(proper_closure_d2_text())
    for field in ("qq", "fp"):
        argv = f"tds roundtrip --d 2 --trials 3 --field {field} --seed 0 --jobs 1 --assets {tmp_path}"
        assert main(argv.split()) == 1
        assert reads == {field: 2 * 3}
        reads.clear()
    capsys.readouterr()
