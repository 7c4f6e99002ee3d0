from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck.fields import FieldSpec, PrimeField, Rationals, Sampler
from tdcheck.linalg import EchelonBasis, Matrix, restrict_operator, vec_eq, vec_is_zero

from support import zero_matrix

QQ = Rationals()


def frac_matrix(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def test_identity_and_zero():
    eye = Matrix.identity(QQ, 3)
    z = zero_matrix(QQ, 3)
    assert eye * eye == eye
    assert eye * z == z
    assert z.is_zero() and not eye.is_zero()


def test_product_matches_hand_value():
    a = frac_matrix([[1, 2], [3, 4]])
    b = frac_matrix([[5, 6], [7, 8]])
    assert a * b == frac_matrix([[19, 22], [43, 50]])


@pytest.mark.parametrize("kind,prime", [("qq", None), ("fp", 101), ("fp", None)])
def test_mat_mul_kernel_matches_generic_dot(kind, prime):
    spec = FieldSpec(kind, prime=prime, seed=17)
    s = Sampler(spec)
    f = s.field
    n = 6
    a = Matrix(f, [[s.scalar() for _ in range(n)] for _ in range(n)])
    b = Matrix(f, [[s.scalar() for _ in range(n)] for _ in range(n)])
    prod = a * b
    for i in range(n):
        for j in range(n):
            want = reduce(f.add, map(f.mul, a.rows[i], [r[j] for r in b.rows]), f.zero)
            assert prod.rows[i][j] == want


def test_apply_is_column_action():
    a = frac_matrix([[2, 0], [1, 5]])
    assert a.apply([Fraction(1), Fraction(0)]) == [Fraction(2), Fraction(1)]


def test_rank_and_echelon():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert Matrix.identity(QQ, 4).rank() == 4
    assert zero_matrix(QQ, 2, 5).rank() == 0


def test_echelon_basis_coordinates_and_containment():
    basis = EchelonBasis(QQ, 3)
    assert basis.add([Fraction(1), Fraction(1), Fraction(0)])
    assert basis.add([Fraction(0), Fraction(0), Fraction(2)])
    assert not basis.add([Fraction(2), Fraction(2), Fraction(6)])
    assert basis.dim == 2
    assert basis.contains([Fraction(3), Fraction(3), Fraction(-1)])
    assert not basis.contains([Fraction(1), Fraction(0), Fraction(0)])
    coords = basis.coordinates([Fraction(5), Fraction(5), Fraction(4)])
    assert coords is not None
    recon = [QQ.zero] * 3
    for c, row in zip(coords, basis.rows):
        recon = [QQ.add(x, QQ.mul(c, y)) for x, y in zip(recon, row)]
    assert vec_eq(QQ, recon, [Fraction(5), Fraction(5), Fraction(4)])


def test_echelon_rows_are_reduced():
    basis = EchelonBasis(QQ, 3)
    basis.add([Fraction(2), Fraction(4), Fraction(2)])
    basis.add([Fraction(1), Fraction(3), Fraction(0)])
    for row, piv in zip(basis.rows, basis.pivots):
        assert row[piv] == 1
        for other in basis.pivots:
            if other != piv:
                assert row[other] == 0


def test_restrict_operator_on_invariant_plane():
    a = frac_matrix([[1, 0, 0], [0, 2, 1], [0, 0, 2]])
    basis = EchelonBasis(QQ, 3)
    basis.add([Fraction(0), Fraction(1), Fraction(0)])
    basis.add([Fraction(0), Fraction(0), Fraction(1)])
    sub = restrict_operator(QQ, a, basis)
    assert sub == frac_matrix([[2, 1], [0, 2]])
    bad = EchelonBasis(QQ, 3)
    bad.add([Fraction(0), Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        restrict_operator(QQ, frac_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), bad)


def test_prime_field_rank():
    f = PrimeField(7)
    m = Matrix(f, [[1, 2], [3, 6]])  # second row = 3 * first mod 7
    assert m.rank() == 1


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
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        for i, row in enumerate(self.rows):
            c = row[piv]
            if not f.is_zero(c):
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec):
        return vec_is_zero(self.field, self.reduce(vec))

    def coordinates(self, vec):
        f = self.field
        v = list(vec)
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            coords.append(c)
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        if not vec_is_zero(f, v):
            return None
        return coords


def reference_apply(m, vec):
    """Matrix times column vector as one field dot product per row."""
    f = m.field
    return [reduce(f.add, map(f.mul, row, vec), f.zero) for row in m.rows]


FIELD_SPECS = [
    FieldSpec("qq", seed=31), FieldSpec("fp", seed=32), FieldSpec("fp", prime=7, seed=33)
]
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
    assert got.rows == want.rows


def assert_same_queries(s, got, want, width, added):
    probes = [
        [s.field.zero] * width,
        combination(s, added, width),
        combination(s, added[:2], width),
        random_vector(s, width),
        random_vector(s, width, 0.2),
    ]
    for v in probes:
        assert got.contains(v) == want.contains(v)
        assert got.coordinates(v) == want.coordinates(v)


@pytest.mark.parametrize("spec", FIELD_SPECS, ids=FIELD_IDS)
@pytest.mark.parametrize("width,density", [(1, 1.0), (5, 1.0), (9, 0.25), (16, 0.1)])
def test_echelon_matches_reference_on_random_inputs(spec, width, density):
    s = Sampler(spec)
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


@pytest.mark.parametrize("spec", FIELD_SPECS, ids=FIELD_IDS)
def test_echelon_matches_reference_on_rank_deficient_spans(spec):
    # rank 3 inside width 12: every later vector is dependent
    s = Sampler(spec)
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
    st.sampled_from(FIELD_SPECS),
    st.integers(0, 2**32),
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
    st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
)
def test_mat_mul_matches_reference_dot(spec, seed, shape, density_a, density_b):
    # inner dimension 0 and n x 0 right operands (the rank-0 B_i blocks of
    # RankFactors) included; a 0 x m right operand is the empty list
    s = Sampler(spec.with_seed(seed))
    f = s.field
    n, k, m = shape
    a = [random_vector(s, k, density_a) for _ in range(n)]
    b = [random_vector(s, m, density_b) for _ in range(k)]
    got = f.mat_mul(a, b)
    want = [[reduce(f.add, map(f.mul, row, col), f.zero) for col in zip(*b)] for row in a]
    assert got == want
    if f.kind == "qq":  # zero sums too come back as Fraction(0), not int 0
        assert all(type(x) is Fraction for row in got for x in row)
    else:
        assert all(0 <= x < f.p for row in got for x in row)


@pytest.mark.parametrize("spec", FIELD_SPECS, ids=FIELD_IDS)
def test_apply_matches_reference(spec):
    s = Sampler(spec)
    for n, m, density in ((1, 1, 1.0), (4, 7, 1.0), (12, 12, 0.15), (9, 5, 0.0)):
        mat = Matrix(s.field, [random_vector(s, m, density) for _ in range(n)])
        for vdensity in (1.0, 0.3, 0.0):
            v = random_vector(s, m, vdensity)
            assert mat.apply(v) == reference_apply(mat, v)


@pytest.mark.parametrize("spec", FIELD_SPECS, ids=FIELD_IDS)
def test_apply_after_shift_and_copy_reads_the_new_entries(spec):
    # the first apply prepares and caches the matrix; a shifted or copied
    # matrix that is then changed must not read that cache
    s = Sampler(spec)
    n = 6
    mat = Matrix(s.field, [random_vector(s, n, 0.5) for _ in range(n)])
    v = random_vector(s, n)
    assert mat.apply(v) == reference_apply(mat, v)
    shifted = mat.shift(s.scalar())
    assert shifted.apply(v) == reference_apply(shifted, v)
    copied = mat.copy()
    copied.rows[0] = random_vector(s, n)
    assert copied.apply(v) == reference_apply(copied, v)
    assert mat.apply(v) == reference_apply(mat, v)


def test_tracer_entry_points_see_both_fields(monkeypatch, capsys):
    # perfbench's layer metrics wrap these two names on the classes and tag
    # each call with the receiver's field; both must keep seeing every call
    from collections import Counter

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
    capsys.readouterr()
    for name in ("add", "apply"):
        for kind in ("qq", "fp"):
            assert counts[name, kind] > 0, (name, kind)
