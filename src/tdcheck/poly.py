"""Ladder polynomial values and primitive idempotents over an exact field.

The ladder polynomials are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a list t_0..t_d (the starred ones over the dual list).  Only their values
are needed, so `ladder` returns them at one point as prefix products.
Primitive idempotents of an operator with eigenvalue list t are the Lagrange
basis polynomials L_i(x) = prod_{j != i} (x - t_j) / (t_i - t_j) at A, read
as E_i = c_i P_i Q_i on two prefix chains, one from each end of the list:

    P_i = (A - t_0 I)...(A - t_{i-1} I),  Q_i = (A - t_{i+1} I)...(A - t_d I),
    c_i = 1 / prod_{m != i} (t_i - t_m),  P_0 = Q_d = I,

c_i the last `ladder` value over the other nodes at t_i.  linalg.RankFactors
reads each rank factor of E_i as one scaled slice of P_i or Q_i (its
docstring proves this exact on a graded pair); no E_i is formed.  The P chain
runs one step further, to P_d (A - t_d I) = prod_j (A - t_j I), which must be
0; that check doubles as a transcription-error detector for the bundled
module tables.  sum_i L_i = 1 and, for d >= 1, sum_i t_i L_i = x have
degree at most d and agree at the d + 1 distinct nodes, so they are
polynomial identities: sum E_i = I and sum t_i E_i = A for any operator over
any field.  At d = 0, t_0 E_0 = t_0 I is A because the check A - t_0 I = 0
passed.  The arithmetic is exact, so rel6 and rel7 cannot fail once this
returns, and the relation suite reports them as records.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import List, Sequence, Tuple

from .linalg import Matrix


class PolyError(ValueError):
    pass


class MinimalPolynomialError(PolyError):
    """prod (A - t_i I) != 0 for the supplied eigenvalue list.  Its one
    argument is the rank, so it crosses a process pool unchanged."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(rank)

    def __str__(self) -> str:
        return f"minimal polynomial check failed: product has rank {self.rank}, expected 0"


def ladder(field, roots: Sequence, x) -> list:
    """Prefix products [1, (x - r_0), (x - r_0)(x - r_1), ...] at the point x.

    Over t_0..t_d the entries are tau_0(x)..tau_{d+1}(x); over the reversed
    list they are eta_0(x)..eta_{d+1}(x).
    """
    out = [field.one]
    for r in roots:
        out.append(field.mul(out[-1], field.sub(x, r)))
    return out


def lagrange_idempotents(a: Matrix, thetas: Sequence) -> List[Tuple[object, Matrix, Matrix]]:
    """Primitive idempotents of `a` for the eigenvalue list `thetas`, as the
    triples (c_i, P_i, Q_i) with E_i = c_i P_i Q_i (module docstring).

    Requires the list entries pairwise distinct and prod (A - t_i I) = 0.
    The P chain costs d products, the last of them the minimal-polynomial
    check, and the Q chain d - 1.
    """
    f = a.field
    if len(set(thetas)) < len(thetas):
        raise PolyError("repeated eigenvalue")
    ident, shifts = Matrix.identity(f, a.nrows), [a.shift(t) for t in thetas]
    ps = [ident, *accumulate(shifts, mul)]  # P_0..P_d, then the full product
    if not ps[-1].is_zero():
        raise MinimalPolynomialError(ps[-1].rank())
    qs = [ident, *accumulate(shifts[:0:-1], mul)][::-1]  # Q_0..Q_d
    return [(f.inv(ladder(f, thetas[:i] + thetas[i + 1:], t)[-1]), ps[i], qs[i])
            for i, t in enumerate(thetas)]
