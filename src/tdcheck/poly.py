"""Ladder polynomial values and primitive idempotents over an exact field.

The ladder polynomials are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a list t_0..t_d (the starred ones over the dual list).  Only their values
are needed, so `ladder` returns them at one point as prefix products.
Primitive idempotents of an operator with eigenvalue list t are the Lagrange
basis polynomials L_i(x) = prod_{j != i} (x - t_j) / (t_i - t_j) at A, read
in their Newton form on the prefix chain P_k = (A - t_0 I)...(A - t_{k-1} I):

    E_i = sum_{k = i..d} P_k / prod_{m <= k, m != i} (t_i - t_m),

since the divided difference of L_i over t_0..t_k is 1 / prod_{m <= k, m != i}
(t_i - t_m) for k >= i and 0 below (L_i is 1 at t_i and 0 at the other
nodes).  It is the same polynomial, so the same matrix.  The chain runs one
step further, to P_{d+1} = prod_j (A - t_j I), which must be 0; that check
doubles as a transcription-error detector for the bundled module tables.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence

from .linalg import Matrix


class PolyError(ValueError):
    pass


class MinimalPolynomialError(PolyError):
    """prod (A - t_i I) != 0 for the supplied eigenvalue list."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(
            f"minimal polynomial check failed: product has rank {rank}, expected 0"
        )


def ladder(field, roots: Sequence, x) -> list:
    """Prefix products [1, (x - r_0), (x - r_0)(x - r_1), ...] at the point x.

    Over t_0..t_d the entries are tau_0(x)..tau_{d+1}(x); over the reversed
    list they are eta_0(x)..eta_{d+1}(x).
    """
    out = [field.one]
    for r in roots:
        out.append(field.mul(out[-1], field.sub(x, r)))
    return out


def lagrange_idempotents(a: Matrix, thetas: Sequence) -> List[Matrix]:
    """Primitive idempotents of `a` for the eigenvalue list `thetas`.

    Requires the list entries pairwise distinct and prod (A - t_i I) = 0.
    The prefix chain costs d products, the last of them the minimal-polynomial
    check; each E_i is then one sum over the nonzeros of the integer forms of
    P_i..P_d (module docstring) over one denominator.  P_0 = I is read as its
    diagonal and never built.
    """
    f = a.field
    d = len(thetas) - 1
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if thetas[i] == thetas[j]:
                raise PolyError(f"repeated eigenvalue at positions {i}, {j}")
    chain = []  # P_1..P_d
    full = a.shift(thetas[0])
    for t in thetas[1:]:
        chain.append(full)
        full = full * a.shift(t)
    if not full.is_zero():
        raise MinimalPolynomialError(full.rank())
    n = a.nrows
    # the nonzeros of each P_k by row-major index, and its denominator; P_0 = I
    # is its diagonal
    nonzeros = [[(r * (n + 1), 1) for r in range(n)]] + [
        [(at, x) for at, x in enumerate(x for row in m.form[0] for x in row) if x] for m in chain
    ]
    dens = [1] + [m.form[1] for m in chain]
    out = []
    for i in range(d + 1):
        # (numerator, denominator) of 1 / prod_{m <= k, m != i} (t_i - t_m), k = i..d
        prod, ratios = f.one, []
        for m in range(d + 1):
            if m != i:
                prod = f.mul(prod, f.sub(thetas[i], thetas[m]))
            if m >= i:
                ratios.append(f.ratio(f.inv(prod)))
        total = lcm(*(q * den for (_, q), den in zip(ratios, dens[i:])))
        acc = [0] * (n * n)
        for (num, q), den, nz in zip(ratios, dens[i:], nonzeros[i:]):
            c = num * (total // (q * den))
            for at, x in nz:
                acc[at] += c * x
        acc = f.shrink(acc)
        out.append(Matrix.of_ints(f, [acc[r : r + n] for r in range(0, n * n, n)], total))
    return out
