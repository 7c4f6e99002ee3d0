"""Ladder polynomial values and primitive idempotents over an exact field.

The ladder polynomials are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a list t_0..t_d (the starred ones over the dual list).  Only their values
are needed, so `ladder` returns them at one point as prefix products.

The primitive idempotents of A for its eigenvalue list are the Lagrange
polynomials L_i(x) = prod_{k != i} (x - t_k) / (t_i - t_k) at A, read off
A's split grading (linalg.graded, checked first).  Number the blocks along
the grading step, V_k = U_k for a (it raises) and U_{d-k} for a* (it
lowers): A is t_k I on V_k plus N_k = A[V_{k+1}, V_k].  Every polynomial g
has g(A)[V_b, V_a] = g[t_a..t_b] Pi(b, a), the divided difference times the
path product Pi(b, a) = N_{b-1}...N_a (Pi(a, a) = I), and 0 for b < a
(Opitz's formula; by induction on deg g, as (x g)(A)[V_b, V_a] = t_b
g(A)[V_b, V_a] + N_{b-1} g(A)[V_{b-1}, V_a] and (x g)[t_a..t_b] = t_b
g[t_a..t_b] + g[t_a..t_{b-1}]).  As L_i(t_k) = delta_ik, L_i[t_a..t_b] is
1 / prod_{a <= k <= b, k != i} (t_i - t_k) when a <= i <= b, else 0.  Split
that product and Pi(b, a) = Pi(b, i) Pi(i, a) at i: E_i = B_i R_i with

    R_i[:, V_m] = c_i tau_m(t_i) Pi(i, m)  for m <= i,
    B_i[V_m, :] = h_m Pi(m, i)              for m >= i,

zero elsewhere, h_m = prod_{k > m} (t_i - t_k) and c_i = 1 / prod_{k != i}
(t_i - t_k), and R_i B_i = I.  They are c_i P_i[V_i, :] and Q_i[:, V_i] for
P_i = prod_{k < i} (A - t_k) and Q_i = prod_{k > i} (A - t_k), neither of
which is formed.  One `ladder` per i, over t_d..t_{i+1}, then t_0..t_{i-1},
at t_i, gives h_d..h_i, then h_i tau_m(t_i), the last 1 / c_i;
linalg.RankFactors.of forms the path products and scales them.

The grading implies the minimal polynomial: tau_{d+1} vanishes at every
node, so do all its divided differences there, and so every block of
prod_k (A - t_k).  sum L_i = 1 and, for d >= 1, sum t_i L_i = x have degree
at most d and agree at the d + 1 distinct nodes, so sum E_i = I and sum t_i
E_i = A; at d = 0 the grading makes A = t_0 I = t_0 E_0.  So rel6 and rel7
cannot fail once `lagrange_idempotents` returns: they are records.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import itemgetter
from typing import Sequence

from .linalg import Matrix, RankFactors, graded


class PolyError(ValueError):
    pass


class GradingError(PolyError):
    """An operator not graded at the blocks, named by its one argument, the
    step (a raises, a* lowers), in extraction's tds.grading words."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(step)

    def __str__(self) -> str:
        tag = "a" if self.step > 0 else "astar"
        return f"{tag} is not its eigenvalue on block j plus a map to block j{self.step:+d}"


def ladder(field, roots: Sequence, x) -> list:
    """Prefix products [1, (x - r_0), (x - r_0)(x - r_1), ...] at the point x.

    Over t_0..t_d the entries are tau_0(x)..tau_{d+1}(x); over the reversed
    list they are eta_0(x)..eta_{d+1}(x).
    """
    return [field.one, *accumulate(map(field.sub, repeat(x), roots), field.mul)]


def lagrange_idempotents(op: Matrix, thetas: Sequence, blocks, step: int) -> RankFactors:
    """Rank factors of op's primitive idempotents (module docstring): op graded
    at the blocks, step +1 (a) or -1 (a*), else GradingError; thetas distinct, else PolyError."""
    if not graded(op, thetas, blocks, step):
        raise GradingError(step)
    t = thetas if step > 0 else thetas[::-1]
    ladders = [ladder(op.field, t[:i:-1] + t[:i], x) for i, x in enumerate(t)]
    if not all(map(itemgetter(-1), ladders)):  # 1 / c_i is 0 exactly when t_i is repeated
        raise PolyError("repeated eigenvalue")
    return RankFactors.of(op, blocks, step, ladders)
