import pickle
from fractions import Fraction
from math import factorial

import pytest

from tdcheck.fields import PrimeField, Rationals, Sampler
from tdcheck.linalg import Matrix
from tdcheck.params import random_admissible_context
from tdcheck.poly import GradingError, PolyError, ladder, lagrange_idempotents
from tdcheck.realization import realize
from tdcheck.tables import load_table

import support
from support import (
    eta_expansion_check, identity, is_zero, lagrange_family, mat_add, rank, rebuilt, scaled,
    zero_matrix,
)

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
    assert e0 == identity(QQ, 1)
    fam = lagrange_idempotents(a, fr([9]), [[0]], 1)
    assert (fam.right, fam.left, fam.dens) == ([[[1]]], [[[1]]], [1])


def test_lagrange_idempotents_two_by_two():
    th0, th1 = Fraction(2), Fraction(5)
    a = Matrix(QQ, [[th0, Fraction(0)], [Fraction(1), th1]])
    e0, e1 = lagrange_family(a, [th0, th1])
    # e1 sends the first basis vector to the second scaled by 1/(th1-th0)
    assert e1.apply([Fraction(1), Fraction(0)]) == [Fraction(0), Fraction(1, 3)]
    assert e1.apply([Fraction(0), Fraction(1)]) == [Fraction(0), Fraction(1)]
    assert mat_add(e0, e1) == identity(QQ, 2)
    assert is_zero(e0 * e1)
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
    eye = identity(QQ, n)
    total = zero_matrix(QQ, n)
    recon = zero_matrix(QQ, n)
    for i, e in enumerate(idems):
        assert e * e == e
        total = mat_add(total, e)
        recon = mat_add(recon, scaled(e, thetas[i]))
        for j in range(i + 1, n):
            assert is_zero(e * idems[j])
    assert total == eye
    assert recon == a
    assert sum(map(rank, idems)) == n


@pytest.mark.parametrize("f", [QQ, PrimeField()], ids=["qq", "fp"])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_lagrange_idempotents_equal_the_full_products(f, n):
    # B_i R_i against prod_{j != i} (A - t_j I) / (t_i - t_j), the reference
    # family multiplied out from the definition, and R_i B_i = I, on random
    # graded operators no table builds: n eigenvalues on blocks of 1 to 3
    # shuffled coordinates, random maps from each block to the next along
    # the step, read as a (raising) and as a* (lowering)
    s = Sampler(f, 40 + n)
    thetas = s.distinct(n)
    sizes = [1 + s.rng.randrange(3) for _ in thetas]
    coords = list(range(sum(sizes)))
    for k in range(len(coords) - 1, 0, -1):
        j = s.rng.randrange(k + 1)
        coords[k], coords[j] = coords[j], coords[k]
    blocks = [coords[sum(sizes[:j]):sum(sizes[:j + 1])] for j in range(n)]
    for step in (1, -1):
        rows = [[f.zero] * len(coords) for _ in coords]
        for j, block in enumerate(blocks):
            for c in block:
                rows[c][c] = thetas[j]
                if 0 <= j + step < n:
                    for r in blocks[j + step]:
                        rows[r][c] = s.scalar()
        a = Matrix(f, rows)
        fam = lagrange_idempotents(a, thetas, blocks, step)
        assert rebuilt(fam) == lagrange_family(a, thetas)
        for i, (right, left) in enumerate(zip(fam.right, fam.left)):
            assert fam.is_unit(i, f.mat_mul(right, left))


@pytest.mark.parametrize("field", [QQ, PrimeField()], ids=["qq", "fp"])
@pytest.mark.parametrize("d", range(6))
def test_a_family_forms_d_minus_one_products_and_none_n_by_n(field, d, monkeypatch):
    # the d(d + 1)/2 path products out of the blocks, level by level: the
    # strip of V_1 is read off the operator, and each later strip is one
    # product, |V_k| rows by n columns; no chain member, P_i Q_i or E_i is
    # formed.  The factors rebuild the family, each e_i of rank |U_i|
    real = realize(load_table(d), random_admissible_context(d, field, 60 + d), field)
    shapes, mat_mul = [], type(field).mat_mul

    def recorded(self, x, y):
        out = mat_mul(self, x, y)
        shapes.append((len(out), len(out[0])))
        return out

    monkeypatch.setattr(type(field), "mat_mul", recorded)
    fams = real.factors, real.dual_factors
    monkeypatch.undo()
    sizes = [len(block) for block in real.blocks]
    n = real.dim
    # a raises, so its strips are at U_2..U_d; a* lowers, so at U_{d-2}..U_0
    assert shapes == [(size, n) for size in sizes[2:] + sizes[-3::-1]]
    assert all(rows < n for rows, _ in shapes)
    for fam, op, values in zip(fams, (real.a, real.astar), (real.theta, real.theta_star)):
        assert fam.ranks == [len(b[0]) for b in fam.left] == sizes
        assert rebuilt(fam) == lagrange_family(op, values)


def test_lagrange_rejects_repeated_eigenvalue():
    a = scaled(identity(QQ, 2), Fraction(3))  # graded at [0], [1], 3 on both
    with pytest.raises(PolyError, match="repeated eigenvalue"):
        lagrange_idempotents(a, fr([3, 3]), [[0], [1]], 1)


def test_an_ungraded_operator_is_refused_by_name():
    # e_1 -> e_0 + e_1 lowers block 1 into block 0, so the operator is
    # refused as a raising one and read as a lowering one.  The error names
    # the operator by its step and pickles as itself
    a = Matrix(QQ, [fr([0, 1]), fr([0, 1])])
    with pytest.raises(GradingError) as err:
        lagrange_idempotents(a, fr([0, 1]), [[0], [1]], 1)
    assert str(err.value) == "a is not its eigenvalue on block j plus a map to block j+1"
    assert isinstance(err.value, PolyError)
    again = pickle.loads(pickle.dumps(err.value))
    assert (type(again), str(again)) == (GradingError, str(err.value))
    with pytest.raises(GradingError, match="^astar is not .* block j-1$"):
        lagrange_idempotents(a, fr([1, 0]), [[0], [1]], -1)
    fam = lagrange_idempotents(a, fr([0, 1]), [[0], [1]], -1)
    assert rebuilt(fam) == lagrange_family(a, fr([0, 1]))


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
