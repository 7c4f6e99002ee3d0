from fractions import Fraction
from math import factorial

import pytest

from tdcheck.fields import PrimeField, Rationals, Sampler
from tdcheck.linalg import Matrix
from tdcheck.poly import MinimalPolynomialError, PolyError, ladder, lagrange_idempotents

import support
from support import elements, eta_expansion_check, lagrange_family, mat_add, scaled, zero_matrix

QQ = Rationals()


def fr(xs):
    return [Fraction(x) for x in xs]


def test_tau_zero_is_one():
    assert ladder(QQ, fr([5, 6, 7]), Fraction(11))[0] == 1
    assert ladder(QQ, [], Fraction(11)) == [1]


def test_tau_two_example():
    # roots 0 and 1: x(x-1), value 6 at x=3
    assert ladder(QQ, fr([0, 1, 2]), Fraction(3)) == fr([1, 3, 6, 6])


def test_eta_one_uses_the_back_of_the_list():
    thetas = fr([3, 1, -1, -3])
    eta = ladder(QQ, thetas[::-1], Fraction(2))
    assert eta[1] == 5  # x + 3 at x = 2
    assert eta[2] == 5 * 3  # (x + 3)(x + 1)


def test_ladder_entries_monic_of_exact_degree():
    # entry i is monic of degree i in x: its i-th forward difference over
    # x = 0..i is i!, and its (i+1)-th over x = 0..i+1 is 0
    s = Sampler(QQ, 11)
    thetas = s.distinct(7)
    for roots in (thetas, thetas[::-1]):
        values = [ladder(QQ, roots, Fraction(x)) for x in range(len(roots) + 2)]
        for i in range(len(roots) + 1):
            column = [v[i] for v in values[: i + 2]]
            diffs = [column]
            while len(diffs[-1]) > 1:
                prev = diffs[-1]
                diffs.append([b - a for a, b in zip(prev, prev[1:])])
            assert diffs[i][0] == factorial(i)
            assert diffs[i + 1] == [0]


def test_tau_splits_multiplicatively_at_random_points():
    # tau_{i+j}(x) over the list equals tau_i(x) times the ladder of
    # t_i..t_{i+j-1}, checked at 20 random points
    s = Sampler(QQ, 23)
    thetas = s.distinct(9)
    for i, j in ((2, 3), (0, 5), (4, 4), (1, 7)):
        for _ in range(20):
            x = s.scalar()
            taus = ladder(QQ, thetas, x)
            assert taus[i + j] == QQ.mul(taus[i], ladder(QQ, thetas[i : i + j], x)[j])


def test_lagrange_idempotent_single_point():
    a = Matrix(QQ, [[Fraction(9)]])
    (e0,) = lagrange_family(a, fr([9]))
    assert e0 == Matrix.identity(QQ, 1)
    assert lagrange_idempotents(a, fr([9])) == ([Matrix.identity(QQ, 1)], [[1]])


def test_lagrange_idempotents_two_by_two():
    th0, th1 = Fraction(2), Fraction(5)
    a = Matrix(QQ, [[th0, Fraction(0)], [Fraction(1), th1]])
    e0, e1 = lagrange_family(a, [th0, th1])
    # e1 sends the first basis vector to the second scaled by 1/(th1-th0)
    assert e1.apply([Fraction(1), Fraction(0)]) == [Fraction(0), Fraction(1, 3)]
    assert e1.apply([Fraction(0), Fraction(1)]) == [Fraction(0), Fraction(1)]
    assert mat_add(e0, e1) == Matrix.identity(QQ, 2)
    assert (e0 * e1).is_zero()
    assert e0 * e0 == e0
    recon = mat_add(scaled(e0, th0), scaled(e1, th1))
    assert recon == a


def test_lagrange_idempotents_random_triangular():
    # lower triangular with distinct diagonal is diagonalizable with the
    # diagonal as spectrum, so the product over all shifts vanishes
    s = Sampler(QQ, 41)
    n = 5
    thetas = s.distinct(n)
    rows = []
    for i in range(n):
        rows.append([s.scalar() for _ in range(i)] + [thetas[i]] + [QQ.zero] * (n - i - 1))
    a = Matrix(QQ, rows)
    idems = lagrange_family(a, thetas)
    eye = Matrix.identity(QQ, n)
    total = zero_matrix(QQ, n)
    recon = zero_matrix(QQ, n)
    for i, e in enumerate(idems):
        assert e * e == e
        total = mat_add(total, e)
        recon = mat_add(recon, scaled(e, thetas[i]))
        for j in range(i + 1, n):
            assert (e * idems[j]).is_zero()
    assert total == eye
    assert recon == a
    assert sum(e.rank() for e in idems) == n


@pytest.mark.parametrize("f", [QQ, PrimeField()], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_lagrange_idempotents_equal_the_full_products(f, n):
    # each E_i against prod_{j != i} (A - t_j I) / (t_i - t_j), identity
    # factors included, so skipping the products by I changes no entry
    s = Sampler(f, 40 + n)
    thetas = s.distinct(n)
    a = Matrix(
        f,
        [[s.scalar() for _ in range(i)] + [thetas[i]] + [f.zero] * (n - i - 1)
         for i in range(n)],
    )
    for i, e in enumerate(lagrange_family(a, thetas)):
        numer, den = Matrix.identity(f, n), f.one
        for j, t in enumerate(thetas):
            if j != i:
                numer = numer * a.shift(t)
                den = f.mul(den, f.sub(thetas[i], t))
        assert elements(e) == elements(scaled(numer, f.inv(den)))


@pytest.mark.parametrize("d", range(6))
def test_lagrange_family_forms_only_the_products_it_reads(d, monkeypatch):
    # the d products of the prefix chain P_2..P_{d+1} (the last is the
    # minimal-polynomial check); the Newton form is the chain and each E_i's
    # coefficients, and no E_i is formed
    f = PrimeField()
    s = Sampler(f, 60 + d)
    thetas = s.distinct(d + 1)
    a = Matrix(
        f,
        [[s.scalar() for _ in range(i)] + [thetas[i]] + [f.zero] * (d - i)
         for i in range(d + 1)],
    )
    products = []
    mat_mul = PrimeField.mat_mul

    def counted(self, x, y):
        products.append(1)
        return mat_mul(self, x, y)

    monkeypatch.setattr(PrimeField, "mat_mul", counted)
    chain, coeffs = lagrange_idempotents(a, thetas)
    assert len(products) == d
    monkeypatch.undo()
    assert len(chain) == d + 1 and all(len(cs) == d + 1 and not any(cs[:i])
                                       for i, cs in enumerate(coeffs))
    power = Matrix.identity(f, d + 1)
    for k, t in enumerate(thetas):  # P_k = (A - t_0)...(A - t_{k-1})
        assert chain[k] == power
        power = power * a.shift(t)
    idems = lagrange_family(a, thetas)
    assert sum(e.rank() for e in idems) == d + 1
    for i, e in enumerate(idems):
        assert e * e == e and a * e == scaled(e, thetas[i])


def test_lagrange_rejects_repeated_eigenvalue():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(PolyError):
        lagrange_idempotents(a, fr([3, 3]))


def test_minimal_polynomial_failure_names_rank():
    # [[0,1],[0,0]] is nilpotent, not diagonalizable over {0, 1}
    a = Matrix(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    with pytest.raises(MinimalPolynomialError) as err:
        lagrange_idempotents(a, fr([0, 1]))
    assert err.value.rank == 1
    assert "rank 1" in str(err.value)


def test_eta_expansion_trivial_and_hand_cases():
    assert eta_expansion_check(fr([4]), QQ)  # single point: eta_0 = 1
    # two points 0, 1: eta_1 = x - 1 = (x) + (-1)
    assert eta_expansion_check(fr([0, 1]), QQ)


def test_eta_expansion_holds_for_random_lists():
    s = Sampler(QQ, 57)
    for trial in range(100):
        d = trial % 8 + 1
        thetas = s.distinct(d + 1)
        assert eta_expansion_check(thetas, QQ)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_eta_expansion_catches_one_wrong_weight(monkeypatch, d):
    # perturb one weight eta_{d-i}(t_0) at a time (the weights are the one
    # ladder taken at t_0 itself): comparing the two sides at x = 0..d must
    # then fail.  With t = 0..d the error term tau_i vanishes at x = 0..i-1,
    # so a wrong weight of tau_d shows only at the last point x = d
    thetas = fr(range(d + 1))
    real = support.ladder
    for k in range(d + 1):

        def skewed(field, roots, x):
            out = real(field, roots, x)
            if x is thetas[0]:
                out[k] = field.add(out[k], field.one)
            return out

        monkeypatch.setattr(support, "ladder", skewed)
        assert not eta_expansion_check(thetas, QQ)
        monkeypatch.setattr(support, "ladder", real)
        assert eta_expansion_check(thetas, QQ)
