"""Realize a module table at a specialization context and machine-check it.

realize() turns the symbolic table into two exact matrices acting on the
2^d-dimensional module.  An OperatorPair (a pair, two eigenvalue lists and
the blocks of its split grading, phi its first basis vector; the round
trip's extraction takes one) builds each family of primitive idempotents on
first read, as one linalg.RankFactors object read at the blocks, and its
split at phi from the corner row of e*_0, which no family builds.  A
ModuleRealization is the pair of a table at a context, read at the table's
row blocks.  The check operations then verify, as exact matrix identities:

  * the defining relations of the generator algebra: idempotent orthogonality
    and the band conditions e*_i a^k e*_j = 0 and e_i a*^k e_j = 0 for
    k < |i-j| (completeness and eigenvalue reconstruction are proved, below);
  * the weight certificate: the raising/lowering chains through the labels
    phi, r, r^2, ..., l^{i-1} r^i and the resulting identity
    e*_0 tau_i(a) e*_0 . phi = y_i phi / prod_{j=1..i} (s_0 - s_j),
    whose denominator follows the split-sequence convention; the
    realization's split (split_sequence, cached) is the left-hand side,
    which construction compares with zeta and extraction reads back (a
    table without one of the chain labels fails as mu.labels);
  * the shape (idempotent ranks = binomial coefficients, symmetric, unimodal).

Orthogonality and the band conditions are read through the rank factors
e_i = B_i R_i: e_i X e_j = 0 exactly when the block R_i X B_j is zero, and
e_i e_j = delta_ij e_i exactly when R_i B_j = delta_ij I (RankFactors.is_unit
at i = j), so no n x n sandwich product is formed.  One walk
(RankFactors.blocks) reads the blocks level by level: level 0 is every
R_i B_j, from one product, and level k >= 1 the R_i op^k B_j with k < |i-j|
on the open half, step * (j - i) > k for op's grading step (+1 for a, -1
for a*), from two.  rel5 reads level 0, where each off-diagonal verdict is
also the band condition at k = 0; rel8 and rel9 read the levels above.  The
round trip's extraction starts the same walk at level 1.

The other half is zero on a graded pair, and the walk yields it as empty
blocks, which pass: A is th_j on U_j plus a map into U_{j+1}, so every
polynomial in A, e_i included, is block lower triangular; R_i sits on the
columns of U_0..U_i and B_j on the rows of U_j..U_d; and (A*)^k lowers a
block index by at most k, so R_i (A*)^k B_j = 0 when j > i + k.  The mirror
argument gives R*_i A^k B*_j = 0 when i > j + k.

Completeness and eigenvalue reconstruction (rel6, rel7), sum e_i = I and
sum t_i e_i = A, are reported as passing records and not computed: poly.py
proves both for the Newton form once lagrange_idempotents returns.

Any failed identity is reported with enough coordinates to replay it.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Dict, List, Sequence, Tuple

from .fields import Field
from .linalg import Matrix, RankFactors
from .params import SpecializationContext
from .poly import ladder, lagrange_idempotents
from .report import Check
from .tables import PHI, BasisLabel, ModuleTable, chain_label, evaluate, power_label


class OperatorPair:
    """A pair (a, a*) at two eigenvalue lists and the blocks of its split
    grading; phi is the first basis vector e_0, and block 0 is [0].  Its two
    Lagrange families (of a, then of a*, read at the blocks by
    RankFactors.of), its transposed pair (a^T, a*^T), its corner row and its
    split are built on first read; each operator is transposed once.
    On a graded pair (tables.check_grading, linalg.graded) A - th_j raises
    block U_j into U_{j+1}, so prod (A - th_k) = 0 and e_i is block
    triangular with diagonal blocks delta_ij I, of rank |U_i|; likewise for
    A*, which lowers.  So A* e_0 = th*_0 e_0, and e*_0 = e_0 w^T /
    eta*_d(th*_0) for the corner row w^T = e_0^T prod_{j >= 1} (A* - th*_j).
    A realization, its restriction to a proper closure of phi and a quotient
    whose first coordinate is phi's image are all inside this contract.
    Only a pair built past the grading check can raise
    MinimalPolynomialError when a family is first read."""

    def __init__(self, a: Matrix, astar: Matrix, theta: List, theta_star: List,
                 blocks: List[Sequence[int]]):
        self.a, self.astar, self.theta, self.theta_star = a, astar, theta, theta_star
        self.blocks = blocks

    @cached_property
    def factors(self) -> RankFactors:
        return RankFactors.of(*lagrange_idempotents(self.a, self.theta), self.blocks)

    @cached_property
    def dual_factors(self) -> RankFactors:
        return RankFactors.of(*lagrange_idempotents(self.astar, self.theta_star), self.blocks)

    @cached_property
    def transposed(self) -> Tuple[Matrix, Matrix]:
        return self.a.transpose(), self.astar.transpose()

    @cached_property
    def corner(self) -> list:
        """The corner row of e*_0, from d one-row products; the split and
        extraction's dual closure read it.  A ValueError unless block 0 is [0]."""
        if list(self.blocks[0]) != [0]:
            raise ValueError(f"block 0 is {list(self.blocks[0])}, not [0]: no corner row")
        row = self.phi
        for t in self.theta_star[1:]:
            row = self.transposed[1].apply(row, t)
        return row

    @cached_property
    def split(self) -> list:
        """The split sequence read at phi from the corner row: the weight
        certificate compares it with 1, y_1, ..., y_d, construction with
        zeta, and extraction reads its first delta + 1 entries back."""
        return split_sequence(self.transposed[0], self.corner, self.theta, self.theta_star)

    @property
    def phi(self) -> list:
        f = self.field
        return [f.one] + [f.zero] * (self.dim - 1)

    @property
    def field(self) -> Field:
        return self.a.field

    @property
    def dim(self) -> int:
        return self.a.nrows

    @property
    def d(self) -> int:
        return len(self.theta) - 1


class ModuleRealization(OperatorPair):
    """A table realized at one context: the pair at the context's lists, the
    families read at the table's row blocks."""

    def __init__(self, table: ModuleTable, context: SpecializationContext,
                 a: Matrix, astar: Matrix):
        self.table, self.context = table, context
        super().__init__(a, astar, context.theta, context.theta_star, table.row_blocks)

    @property
    def basis(self) -> List[BasisLabel]:
        return self.table.basis

    def basis_vector(self, label: BasisLabel) -> list:
        f = self.field
        v = [f.zero] * self.dim
        v[self.basis.index(label)] = f.one
        return v


def context_env(ctx: SpecializationContext) -> Dict[str, object]:
    env: Dict[str, object] = {}
    for prefix, values, first in (("th", ctx.theta, 0), ("ths", ctx.theta_star, 0),
                                  ("y", ctx.y, 1), ("eps", ctx.epsilon, 0)):
        env.update((f"{prefix}{i}", v) for i, v in enumerate(values, first))
    if ctx.beta is not None:
        env["beta"] = ctx.beta
    return env


def realize(
    table: ModuleTable, ctx: SpecializationContext, field: Field
) -> ModuleRealization:
    """Evaluate the table at ctx into the pair (a, a*); the idempotent
    families are built when a check first reads them."""
    if table.d != ctx.d:
        raise ValueError(f"table is for d={table.d}, context for d={ctx.d}")
    env = context_env(ctx)
    n = len(table.basis)
    index = {label: i for i, label in enumerate(table.basis)}
    memo: dict = {}  # one value per shared coefficient subtree, for both operators

    def assemble(action) -> Matrix:
        cols = []
        for src in table.basis:
            col = [field.zero] * n
            for coeff, target in action[src]:
                val = evaluate(coeff, env, field, memo)
                row = index[target]
                col[row] = field.add(col[row], val)
            cols.append(col)
        return Matrix(field, zip(*cols))

    return ModuleRealization(table, ctx, assemble(table.a_action), assemble(table.astar_action))


# ---------------------------------------------------------------------------
# Relation suite


def _idempotent_family_checks(
    tag: str, band: str, fam: RankFactors, other: Matrix, step: int
) -> Tuple[List[Check], List[Check]]:
    """rel5..rel7 of one family, and its band checks e_i other^k e_j = 0 for
    k < |i-j| (tagged `band`), read from the walk fam.blocks(other, step,
    d + 1), step the grading step of other.  rel5 reads its level 0, every
    R_i B_j, and each off-diagonal verdict there is also the band check at
    k = 0; a block the grading proves zero is empty, and passes.  rel6 and
    rel7 are records: poly.py proves them."""
    checks, walk = [], []
    levels = fam.blocks(other, step, len(fam.ranks))
    base = next(levels)
    for i, j in sorted(base):
        if i == j:
            ok = fam.is_unit(i, base[i, j])
        else:
            ok = not any(map(any, base[i, j]))
            walk.append((j, 0, i, ok))
        detail = "" if ok else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}"
        checks.append(Check(f"rel5.{tag}.{i}.{j}", ok, detail))
    walk += [(j, k, i, not any(map(any, block)))
             for k, level in enumerate(levels, 1) for (i, j), block in level.items()]
    checks += [Check(f"rel6.{tag}", True, ""), Check(f"rel7.{tag}", True, "")]
    # the band blocks in the order j, then k, then i
    return checks, [
        Check(f"{band}.{i}.{j}.{k}", ok, "" if ok else f"sandwich ({i},{j},{k}) is nonzero")
        for j, k, i, ok in sorted(walk)
    ]


def verify_relations(real: ModuleRealization) -> List[Check]:
    """Exact checks of all defining relations on the realized module."""
    e, rel9 = _idempotent_family_checks("e", "rel9", real.factors, real.astar, -1)
    es, rel8 = _idempotent_family_checks("es", "rel8", real.dual_factors, real.a, 1)
    return e + es + rel8 + rel9


# ---------------------------------------------------------------------------
# Weight certificate (the chain computation behind the injectivity argument)


def mu_certificate(real: ModuleRealization) -> List[Check]:
    """Check the raising/lowering chains and the resulting corner identity.

    A chain step (op - t).v = c w, v and w the basis vectors at two labels,
    is read as op.apply(v) == c w + t v, the target written directly.  Each
    raising step of phi -> r -> ... -> r^d is read once and reported under
    every i past it."""
    f, d, ctx, index = real.field, real.d, real.context, real.basis.index
    if real.basis[0] != PHI:
        return [Check("mu.phi", False, "first basis label is not phi")]
    labels = [chain_label(h, i) for i in range(1, d + 1) for h in range(i)]
    missing = [str(label) for label in labels if label not in real.basis]
    if missing:
        return [Check("mu.labels", False, "chain labels not in basis: " + ", ".join(missing))]
    if d == 0:
        return [Check("mu.vacuous", True, "d = 0: chain conditions are vacuous")]

    def step(op: Matrix, t, src: BasisLabel, dst: BasisLabel, c) -> bool:
        k, want = index(src), [f.zero] * real.dim
        want[index(dst)] = c
        want[k] = f.add(want[k], t)
        return op.apply(real.basis_vector(src)) == want

    checks: List[Check] = []

    def add(cid: str, ok: bool, text: str) -> None:
        checks.append(Check(cid, ok, "" if ok else text))

    # entry 0 of the split reads e*_0 phi = phi; given that, tau_i(a) acts on
    # phi directly and the split must be 1, y_1, ..., y_d
    corner = [c == y for c, y in zip(real.split, [f.one, *ctx.y])]
    ok = step(real.astar, ctx.theta_star[0], PHI, PHI, f.zero)
    add("mu.astar.phi", ok, "a*.phi != ths0 * phi")
    add("mu.es0.phi", corner[0], "e*_0.phi != phi")
    checks.append(Check("mu.i0.identity", True, "tau_0 = 1 and e*_0 phi = phi"))
    raising = [step(real.a, ctx.theta[h], power_label("r", h), power_label("r", h + 1), f.one)
               for h in range(d)]
    for i in range(1, d + 1):
        # raising chain phi -> r -> ... -> r^i
        for h in range(i):
            add(f"mu.i{i}.rchain.h{h}", raising[h], f"(a - th{h}).r^{h} != r^{h + 1}")
        # lowering chain r^i -> l r^i -> ... -> l^{i-1} r^i
        for h in range(i - 1):
            ok = step(real.astar, ctx.theta_star[i - h], chain_label(h, i),
                      chain_label(h + 1, i), f.one)
            add(f"mu.i{i}.lchain.h{h}", ok, f"(a* - ths{i - h}).l^{h}r^{i} != l^{h + 1}r^{i}")
        # final lowering step hits y_i * phi
        ok = step(real.astar, ctx.theta_star[1], chain_label(i - 1, i), PHI, ctx.y[i - 1])
        add(f"mu.i{i}.weight", ok, f"(a* - ths1).l^{i - 1}r^{i} != y{i} phi")
        add(f"mu.i{i}.identity", corner[i], f"e*_0 tau_{i}(a) e*_0 phi has the wrong coefficient")
    return checks


def split_sequence(at: Matrix, corner: list, theta: List, theta_star: List) -> list:
    """c_0..c_d with e*_0 tau_i(a) e_0 = c_i e_0 / prod_{j=1..i} (s_0 - s_j),
    s = theta_star: with e*_0 = e_0 corner / eta*_d(s_0) (OperatorPair), c_i
    is entry 0 of corner tau_i(a), one product by at = a^T per i, over eta*_{d-i}(s_0)."""
    f, d, rows = at.field, len(theta_star) - 1, [corner]
    for t in theta[:d]:
        rows.append(at.apply(rows[-1], t))
    etas = ladder(f, theta_star[:0:-1], theta_star[0])
    return [f.div(row[0], etas[d - i]) for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# Shape


def shape_check(real: ModuleRealization) -> List[Check]:
    """Idempotent ranks: binomials C(d,i), symmetric and unimodal.  e_i and
    e*_i have rank |U_i| (OperatorPair): the row-block sizes are read,
    and no family is built."""
    d, ranks = real.d, [len(block) for block in real.table.row_blocks]
    checks = [Check(f"shape.{tag}.{i}", r == comb(d, i), f"rank {r}, expected {comb(d, i)}")
              for i, r in enumerate(ranks) for tag in ("e", "es")]
    sym = all(ranks[i] == ranks[d - i] for i in range(d + 1))
    uni = all(ranks[i - 1] <= ranks[i] for i in range(1, d // 2 + 1))
    return checks + [
        Check("shape.symmetric", sym, str(ranks)),
        Check("shape.unimodal", uni, str(ranks)),
    ]
