"""Realize a module table at a specialization context and machine-check it.

realize() turns the symbolic table into two exact matrices acting on the
2^d-dimensional module and builds both families of primitive idempotents
(idempotent_families, shared with the round-trip extraction).  Each family
is one RankFactors object, which holds the e_i beside their rank factors,
read off the table's split grading; a ModuleRealization is the table, the
context, the pair and those two objects, and everything else it offers (e,
e*, d, the basis) is read from them.  The check operations then verify, as
exact matrix identities:

  * the defining relations of the generator algebra: idempotent orthogonality
    and completeness, eigenvalue reconstruction, and the band conditions
    e*_i a^k e*_j = 0 and e_i a*^k e_j = 0 for k < |i-j|;
  * the weight certificate: the raising/lowering chains through the labels
    phi, r, r^2, ..., l^{i-1} r^i and the resulting identity
    e*_0 tau_i(a) e*_0 . phi = y_i phi / prod_{j=1..i} (s_0 - s_j),
    whose denominator follows the split-sequence convention; split_sequence
    reads the left-hand side, and the round trip reads its split back with it
    (a table without one of the chain labels fails as mu.labels);
  * the shape (idempotent ranks = binomial coefficients, symmetric, unimodal).

Orthogonality and the band conditions are read through the rank factors
e_i = B_i R_i (RankFactors): e_i X e_j = 0 exactly when the block R_i X B_j
is zero, and e_i e_j = delta_ij e_i exactly when R_i B_j = delta_ij I, so no
n x n sandwich product is formed.  One walk (RankFactors.blocks) reads every
block level by level: level 0 is every R_i B_j, from one product, and level
k >= 1 the R_i op^k B_j with k < |i-j|, from two.  rel5 reads level 0, where
each off-diagonal verdict is also the band condition at k = 0; rel8 and rel9
read the levels above.  The round trip's extraction starts the same walk
at level 1.  Completeness and eigenvalue reconstruction (rel6, rel7) compare
sum e_i and sum t_i e_i, added over the nonzeros of the integer forms, with I
and the operator; they hold for any operator (poly.py), so no table fails them.

Any failed identity is reported with enough coordinates to replay it.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .fields import Field
from .linalg import Matrix, combination, flat_nonzeros
from .params import SpecializationContext
from .poly import MinimalPolynomialError, lagrange_idempotents
from .report import Check
from .tables import PHI, BasisLabel, ModuleTable, chain_label, evaluate, power_label


class RealizationError(ValueError):
    """A structural invariant failed while realizing a table."""

    def __init__(self, failures: List[Tuple[str, str]]):
        self.failures = failures
        super().__init__(
            "; ".join(f"{name}: {detail}" for name, detail in failures)
        )


class RankFactors(NamedTuple):
    """A family of matrices e_i with their exact rank factorizations e_i = B_i R_i.

    B_i is the columns of e_i at r_i = rank e_i indices U_i and R_i has r_i
    rows, I at U_i: e_i's rows there (`of` at a graded table's row blocks) or
    its reduced echelon rows, U_i their pivots.  B_i has full column rank and
    R_i full row rank, so for any X, e_i X e_j = 0 iff R_i X B_j = 0, and
    e_i e_j = c e_i iff R_i B_j = c I (i = j) or 0 (i != j), orthogonal
    idempotents or not.  Blocks are integer rows of the integer forms
    (linalg.Matrix): R_i is right[i] / r_i and B_i is left[i] / b_i with
    dens[i] = r_i * b_i, so a zero test of any block product needs no
    denominator, and rank 0 (R_i 0 x n, B_i n x 0) needs no special case.
    `blocks` walks R_i op^k B_j one level k at a time.
    """

    idems: List[Matrix]  # e_i
    right: List[List[list]]  # R_i: r_i rows of length n
    left: List[List[list]]  # B_i: n rows of length r_i
    dens: List[int]

    @classmethod
    def of(cls, idems: List[Matrix], blocks: Optional[List[range]] = None) -> "RankFactors":
        """Each e_i's factors at U_i = blocks[i], where e_i[U_i, U_i] = I and
        rank e_i = |U_i| (realize); without blocks, from e_i's echelon form."""
        right, left, dens = [], [], []
        for i, m in enumerate(idems):
            ints, den = m.form
            if blocks is None:
                basis = m.echelon()
                (rows, rden), cols = basis.form, basis.pivots
            else:
                cols, rden = blocks[i], den
                rows = [ints[p] for p in cols]
            right.append(rows)
            left.append([[row[p] for p in cols] for row in ints])
            dens.append(rden * den)
        return cls(idems, right, left, dens)

    @property
    def field(self) -> Field:
        return self.idems[0].field

    @property
    def ranks(self) -> List[int]:
        return [len(r) for r in self.right]

    def blocks(self, op: Matrix, top: int, start: int = 0) -> Iterator[dict]:
        """The integer blocks R_i op^k B_j, one level k at a time for
        start <= k < top: {(i, j): block} over every (i, j) at k = 0 and over
        the (i, j) with k < |i - j| above, in the order j, then i.  Level 0 is
        one product of the stacked R_i with V = [B_0 | ... | B_d].  Each later
        level sets V <- op V over only the B_j that still have a block to
        read, and one product of the stacked R_i that read one there cuts out
        all of its blocks; a level below start forms no such product.  The
        walk ends at the last level below top with a block to read: op^k B_j
        is formed no further."""
        f, d, ranks = self.field, len(self.right) - 1, self.ranks

        def spans(keys) -> dict:  # where each R_i (rows) or B_j (columns) sits in a stack
            starts = accumulate((ranks[x] for x in keys), initial=0)
            return {x: slice(at, at + ranks[x]) for x, at in zip(keys, starts)}

        cols, v = range(d + 1), [sum(rows, []) for rows in zip(*self.left)]
        for k in range(top):
            pairs = [(i, j) for j in cols for i in range(d + 1) if not k or k < abs(i - j)]
            if not pairs:
                return
            if k:  # op V over the B_j still read
                at, cols = spans(cols), sorted({j for _, j in pairs})
                v = f.mat_mul(op.form[0], [[x for j in cols for x in row[at[j]]] for row in v])
            if k < start:
                continue
            rows = sorted({i for i, _ in pairs})
            prod = f.mat_mul([r for i in rows for r in self.right[i]], v)
            up, at = spans(rows), spans(cols)
            yield {(i, j): [row[at[j]] for row in prod[up[i]]] for i, j in pairs}


class ModuleRealization(NamedTuple):
    """A table realized at one context: the pair and the rank factors of
    its two idempotent families (of a, then of a*)."""

    table: ModuleTable
    context: SpecializationContext
    a: Matrix
    astar: Matrix
    factors: RankFactors
    dual_factors: RankFactors

    @property
    def e(self) -> List[Matrix]:
        return self.factors.idems

    @property
    def estar(self) -> List[Matrix]:
        return self.dual_factors.idems

    @property
    def d(self) -> int:
        return self.table.d

    @property
    def field(self) -> Field:
        return self.a.field

    @property
    def basis(self) -> List[BasisLabel]:
        return self.table.basis

    @property
    def dim(self) -> int:
        return len(self.table.basis)

    def basis_vector(self, label: BasisLabel) -> list:
        f = self.field
        v = [f.zero] * self.dim
        v[self.table.basis.index(label)] = f.one
        return v


def context_env(ctx: SpecializationContext) -> Dict[str, object]:
    env: Dict[str, object] = {}
    for prefix, values, first in (("th", ctx.theta, 0), ("ths", ctx.theta_star, 0),
                                  ("y", ctx.y, 1), ("eps", ctx.epsilon, 0)):
        env.update((f"{prefix}{i}", v) for i, v in enumerate(values, first))
    if ctx.beta is not None:
        env["beta"] = ctx.beta
    return env


def idempotent_families(
    a: Matrix, astar: Matrix, theta: List, theta_star: List,
    blocks: Optional[List[range]] = None,
) -> Tuple[RankFactors, RankFactors]:
    """Both Lagrange families of the pair with their rank factors (of e,
    of e*), read at blocks if given (RankFactors.of).

    Raises RealizationError naming minpoly.a and/or minpoly.astar when the
    eigenvalue list does not annihilate its operator.
    """
    families: List[List[Matrix]] = []
    failures: List[Tuple[str, str]] = []
    for tag, op, values in (("a", a, theta), ("astar", astar, theta_star)):
        try:
            families.append(lagrange_idempotents(op, values))
        except MinimalPolynomialError as err:
            failures.append((f"minpoly.{tag}", str(err)))
    if failures:
        raise RealizationError(failures)
    e, estar = families
    return RankFactors.of(e, blocks), RankFactors.of(estar, blocks)


def realize(
    table: ModuleTable, ctx: SpecializationContext, field: Field
) -> ModuleRealization:
    """Evaluate the table at ctx and build both idempotent families.

    The table must be graded (tables.check_grading, which parse_table runs):
    on the row blocks U_j, A - th_j raises U_j into U_{j+1}, so prod (A - th_k)
    = 0 and e_i is block triangular with diagonal blocks delta_ij I, of rank
    |U_i| = C(d, i); likewise for A*.  The factors are read at the blocks."""
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

    a = assemble(table.a_action)
    astar = assemble(table.astar_action)

    starts = list(accumulate((comb(table.d, j) for j in range(table.d + 1)), initial=0))
    blocks = [range(s, t) for s, t in zip(starts, starts[1:])]
    families = idempotent_families(a, astar, ctx.theta, ctx.theta_star, blocks)
    return ModuleRealization(table, ctx, a, astar, *families)


# ---------------------------------------------------------------------------
# Relation suite


def _idempotent_family_checks(
    tag: str, band: str, fam: RankFactors, values: List, op: Matrix, other: Matrix
) -> Tuple[List[Check], List[Check]]:
    """rel5..rel7 of one family, and its band checks e_i other^k e_j = 0 for
    k < |i-j| (tagged `band`), read from the walk fam.blocks(other, d + 1).
    rel5 reads its level 0, every R_i B_j, and each off-diagonal verdict
    there is also the band check at k = 0."""
    checks, walk = [], []
    d, f, n = len(fam.idems) - 1, fam.field, op.nrows
    levels = fam.blocks(other, d + 1)
    base = next(levels)
    for i, j in sorted(base):
        if i == j:  # R_i B_i = I: the integer block is dens[i] * I
            r, unit = fam.ranks[i], fam.dens[i]
            ok = base[i, j] == [[unit if k == l else 0 for l in range(r)] for k in range(r)]
        else:
            ok = not any(map(any, base[i, j]))
            walk.append((j, 0, i, ok))
        detail = "" if ok else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}"
        checks.append(Check(f"rel5.{tag}.{i}.{j}", ok, detail))
    walk += [(j, k, i, not any(map(any, block)))
             for k, level in enumerate(levels, 1) for (i, j), block in level.items()]
    # rel6, rel7: sum e_i and sum t_i e_i, each added over the nonzeros of the
    # integer forms of the e_i over one denominator
    nonzeros = [flat_nonzeros(m) for m in fam.idems]
    for cid, weights, want, text in (
        ("rel6", [(1, 1)] * (d + 1), Matrix.identity(f, n), f"sum of {tag}_i != identity"),
        ("rel7", [f.ratio(t) for t in values], op, f"operator != sum of eigenvalue * {tag}_i"),
    ):
        terms = [(t, q * m.form[1], nz) for (t, q), m, nz in zip(weights, fam.idems, nonzeros)]
        ok = combination(f, n, terms) == want
        checks.append(Check(f"{cid}.{tag}", ok, "" if ok else text))
    # the band blocks in the order j, then k, then i
    return checks, [
        Check(f"{band}.{i}.{j}.{k}", ok, "" if ok else f"sandwich ({i},{j},{k}) is nonzero")
        for j, k, i, ok in sorted(walk)
    ]


def verify_relations(real: ModuleRealization) -> List[Check]:
    """Exact checks of all defining relations on the realized module."""
    ctx = real.context
    e, rel9 = _idempotent_family_checks("e", "rel9", real.factors, ctx.theta, real.a, real.astar)
    es, rel8 = _idempotent_family_checks(
        "es", "rel8", real.dual_factors, ctx.theta_star, real.astar, real.a
    )
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

    corner = corner_identities(real)
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


def split_sequence(a: Matrix, corner: Matrix, theta: List, theta_star: List, v: List) -> list:
    """c_0..c_d with corner . tau_i(a) v = c_i v / prod_{j=1..i} (s_0 - s_j),
    s = theta_star and d + 1 = len(theta_star); None where the image is not a
    multiple of v.  tau_i(a) v is walked incrementally, one product per i."""
    f = a.field
    pivot = next(k for k, x in enumerate(v) if x)
    w, den, out = v, f.one, []
    for i in range(len(theta_star)):
        if i:
            t = theta[i - 1]
            w = [f.sub(x, f.mul(t, y)) for x, y in zip(a.apply(w), w)]
            den = f.mul(den, f.sub(theta_star[0], theta_star[i]))
        img = corner.apply(w)
        c = f.div(img[pivot], v[pivot])
        out.append(f.mul(c, den) if img == [f.mul(c, x) for x in v] else None)
    return out


def corner_identities(real: ModuleRealization) -> List[bool]:
    """For i = 0..d: e*_0 tau_i(a) e*_0 phi = y_i phi / prod_{j=1..i} (s_0 - s_j)?

    Entry 0 (y_0 = 1) reads e*_0 phi = phi; given that, tau_i(a) acts on phi
    directly and the split read at phi must be 1, y_1, ..., y_d.
    """
    ctx = real.context
    phi = real.basis_vector(real.basis[0])
    split = split_sequence(real.a, real.estar[0], ctx.theta, ctx.theta_star, phi)
    return [c == y for c, y in zip(split, [real.field.one] + list(ctx.y))]


# ---------------------------------------------------------------------------
# Shape


def shape_check(real: ModuleRealization) -> List[Check]:
    """Idempotent ranks: binomials C(d,i), symmetric and unimodal."""
    d = real.d
    ranks, dual_ranks = real.factors.ranks, real.dual_factors.ranks
    checks = []
    for i in range(d + 1):
        want = comb(d, i)
        for tag, r in (("e", ranks), ("es", dual_ranks)):
            checks.append(Check(f"shape.{tag}.{i}", r[i] == want, f"rank {r[i]}, expected {want}"))
    sym = all(ranks[i] == ranks[d - i] for i in range(d + 1))
    uni = all(ranks[i - 1] <= ranks[i] for i in range(1, d // 2 + 1))
    return checks + [
        Check("shape.symmetric", sym, str(ranks)),
        Check("shape.unimodal", uni, str(ranks)),
    ]
