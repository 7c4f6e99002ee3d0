"""Ladder polynomial values and primitive idempotents over an exact field.

The ladder polynomials are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a list t_0..t_d (the starred ones over the dual list).  Only their values
are needed, so `ladder` returns them at one point as prefix products.
Primitive idempotents of an operator with eigenvalue list t are computed by
the explicit Lagrange product

    E_i = prod_{j != i} (A - t_j I) / (t_i - t_j)

after first checking the full product prod_j (A - t_j I) = 0; that check
doubles as a transcription-error detector for the bundled module tables.
"""

from __future__ import annotations

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


def shifted_products(a: Matrix, thetas: Sequence) -> List[Matrix]:
    """Prefix products P_i = (A - t_0 I)...(A - t_{i-1} I), i = 0..d+1."""
    out = [Matrix.identity(a.field, a.nrows)]
    for t in thetas:
        out.append(a.shift(t) if len(out) == 1 else out[-1] * a.shift(t))
    return out


def lagrange_idempotents(a: Matrix, thetas: Sequence) -> List[Matrix]:
    """Primitive idempotents of `a` for the eigenvalue list `thetas`.

    Requires the list entries pairwise distinct and prod (A - t_i I) = 0.
    Uses prefix/suffix products so each E_i costs one extra multiplication;
    a product by the identity (I.X = X exactly) is never formed.
    """
    f = a.field
    d = len(thetas) - 1
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if thetas[i] == thetas[j]:
                raise PolyError(f"repeated eigenvalue at positions {i}, {j}")
    prefix = shifted_products(a, thetas)
    full = prefix[-1]
    if not full.is_zero():
        raise MinimalPolynomialError(full.rank())
    # suffix[i] = (A - t_d I)...(A - t_{i+1} I): the factors commute, and the
    # walk stops at t_1, since no E_i reads the full product
    suffix = shifted_products(a, thetas[:0:-1])[::-1]
    out = []
    for i in range(d + 1):
        if i == 0:  # prefix[0] = I
            numer = suffix[0]
        elif i == d:  # suffix[d] = I
            numer = prefix[d]
        else:
            numer = prefix[i] * suffix[i]
        den = f.one
        for j in range(d + 1):
            if j != i:
                den = f.mul(den, f.sub(thetas[i], thetas[j]))
        out.append(numer.scale(f.inv(den)))
    return out

