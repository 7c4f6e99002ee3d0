"""Ladder polynomial values and primitive idempotents over an exact field.

The ladder polynomials are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a list t_0..t_d (the starred ones over the dual list).  Only their values
are needed, so `ladder` returns them at one point as prefix products.
Primitive idempotents of an operator with eigenvalue list t are the Lagrange
basis polynomials L_i(x) = prod_{j != i} (x - t_j) / (t_i - t_j) at A, read
in their Newton form on the prefix chain P_k = (A - t_0 I)...(A - t_{k-1} I):

    E_i = sum_{k = i..d} c_ik P_k,  c_ik = 1 / prod_{m <= k, m != i} (t_i - t_m),

since the divided difference of L_i over t_0..t_k is c_ik for k >= i and 0
below (L_i is 1 at t_i and 0 at the other nodes): the same polynomial, so the
same matrix, with P_0 = I.  The product under c_ik is entry k of `ladder`
over the other nodes at t_i, so each row is one ladder, inverted from k = i.
linalg.RankFactors reads each E_i from the chain and the c_ik, never formed.
The chain runs one step further, to P_{d+1} = prod_j (A - t_j I), which must
be 0; that check doubles as a transcription-error detector for the bundled
module tables.  Summed over i, P_k's coefficient is
the divided difference of 1 over t_0..t_k and, weighted by t_i, that of x:
sum E_i = I and sum t_i E_i = t_0 I + P_1 = A for any operator over any field,
so rel6 and rel7 (these sums, regrouped over the chain) cannot fail once this returns.
"""

from __future__ import annotations

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


def lagrange_idempotents(a: Matrix, thetas: Sequence) -> Tuple[List[Matrix], List[list]]:
    """Primitive idempotents of `a` for the eigenvalue list `thetas` in Newton
    form (module docstring): the chain P_0 = I..P_d and the rows c_i0..c_id.

    Requires the list entries pairwise distinct and prod (A - t_i I) = 0.
    The prefix chain costs d products, the last of them the minimal-polynomial
    check.
    """
    f = a.field
    d = len(thetas) - 1
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if thetas[i] == thetas[j]:
                raise PolyError(f"repeated eigenvalue at positions {i}, {j}")
    chain = [Matrix.identity(f, a.nrows)]  # P_0..P_d
    full = a.shift(thetas[0])
    for t in thetas[1:]:
        chain.append(full)
        full = full * a.shift(t)
    if not full.is_zero():
        raise MinimalPolynomialError(full.rank())
    coeffs = [[f.zero] * i + [f.inv(p) for p in ladder(f, thetas[:i] + thetas[i + 1:], t)[i:]]
              for i, t in enumerate(thetas)]
    return chain, coeffs
