"""Realize a module table at a specialization context and machine-check it.

realize() turns the symbolic table into two exact matrices acting on the
2^d-dimensional module, builds both families of primitive idempotents
(idempotent_families, shared with the round-trip extraction), and asserts
the structural invariants (minimal polynomials, eigenspace ranks).  Each
family is one RankFactors object, which holds the e_i beside their rank
factors; a ModuleRealization is the table, the context, the pair and those
two objects, and everything else it offers (e, e*, d, the basis) is read
from them.  The check operations then verify, as exact matrix identities:

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
n x n sandwich product is formed.  Every R_i B_j of a family comes from one
product; for i != j that block is also the band condition at k = 0, so its
one verdict is recorded as rel5 and as the k = 0 band check.  The band walk
(RankFactors.band_blocks) reads 1 <= k < |i-j|; it is the round trip's too,
whose extraction reads the same blocks at k = 1 only.
Completeness and eigenvalue reconstruction are one product per family:
[e_0 | ... | e_d] times the column of blocks [I | t_i I] is
[sum e_i | sum t_i e_i], compared with [I | op] by `==`.

Any failed identity is reported with enough coordinates to replay it.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, lcm
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .fields import Field
from .linalg import Matrix, common_form, vec_scale, vec_sub
from .params import SpecializationContext
from .poly import MinimalPolynomialError, lagrange_idempotents
from .report import Check
from .tables import BasisLabel, ModuleTable, chain_label, evaluate, power_label


class RealizationError(ValueError):
    """A structural invariant failed while realizing a table."""

    def __init__(self, failures: List[Tuple[str, str]]):
        self.failures = failures
        super().__init__(
            "; ".join(f"{name}: {detail}" for name, detail in failures)
        )


class RankFactors(NamedTuple):
    """A family of matrices e_i with their exact rank factorizations e_i = B_i R_i.

    R_i is the nonzero rows of the reduced echelon form of e_i and B_i is the
    columns of e_i at R_i's pivots.  B_i has full column rank and R_i full
    row rank, so for any X, e_i X e_j = 0 iff R_i X B_j = 0, and
    e_i e_j = c e_i iff R_i B_j = c I (i = j) or 0 (i != j): no assumption
    about the family being orthogonal idempotents is needed.  Blocks are
    integer rows, read from the integer forms (linalg.Matrix) of e_i and of
    its echelon basis: R_i is right[i] / r_i and B_i is left[i] / b_i with
    dens[i] = r_i * b_i, so B_i R_i = left[i] right[i] / dens[i], and a zero
    test of any block product needs no denominator.  Blocks are plain row
    lists, so rank 0 (R_i 0 x n, B_i n x 0) needs no special case.
    `sandwich` cuts the blocks R_i x from one product, and `band_blocks`
    reads the band conditions e_i op^k e_j = 0 at k >= 1 through it; at k = 0
    the block is R_i B_j, which the relation suite reads with rel5.
    """

    idems: List[Matrix]  # e_i
    right: List[List[list]]  # R_i: r_i rows of length n
    left: List[List[list]]  # B_i: n rows of length r_i
    dens: List[int]

    @classmethod
    def of(cls, idems: List[Matrix]) -> "RankFactors":
        right, left, dens = [], [], []
        for m in idems:
            basis = m.echelon()
            rows, rden = basis.form
            ints, den = m.form
            right.append(rows)
            left.append([[row[p] for p in basis.pivots] for row in ints])
            dens.append(rden * den)
        return cls(idems, right, left, dens)

    @property
    def field(self) -> Field:
        return self.idems[0].field

    @property
    def ranks(self) -> List[int]:
        return [len(r) for r in self.right]

    def sandwich(self, rows: Sequence[int], x: List[list]) -> List[List[list]]:
        """The integer blocks right[i] x for i in rows, cut from one product
        of the stacked right[i]; x is a list of n integer rows."""
        prod = self.field.mat_mul([r for i in rows for r in self.right[i]], x)
        out, at = [], 0
        for i in rows:
            out.append(prod[at : at + len(self.right[i])])
            at += len(self.right[i])
        return out

    def band_blocks(self, op: Matrix, top: int) -> Iterator[Tuple[int, int, int, bool]]:
        """(i, j, k, is R_i op^k B_j = 0?) for 1 <= k < top with k < |i - j|, in
        the order j, then k, then i: with R_i and B_j from one family, whether
        e_i op^k e_j = 0.  op^k B_j is walked one thin product per k, up to
        the last k below top with a block to read and no further, and one
        product of the stacked R_i gives all the blocks at k."""
        d = len(self.right) - 1
        for j in range(d + 1):
            power = self.left[j]
            for k in range(1, min(top, max(j, d - j))):
                power = self.field.mat_mul(op.form[0], power)
                rows = [i for i in range(d + 1) if k < abs(i - j)]
                for i, b in zip(rows, self.sandwich(rows, power)):
                    yield i, j, k, not any(map(any, b))


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
    for i, t in enumerate(ctx.theta):
        env[f"th{i}"] = t
    for i, t in enumerate(ctx.theta_star):
        env[f"ths{i}"] = t
    for i, v in enumerate(ctx.y, start=1):
        env[f"y{i}"] = v
    for i, v in enumerate(ctx.epsilon):
        env[f"eps{i}"] = v
    if ctx.beta is not None:
        env["beta"] = ctx.beta
    return env


def idempotent_families(
    a: Matrix, astar: Matrix, theta: List, theta_star: List
) -> Tuple[RankFactors, RankFactors]:
    """Both Lagrange families of the pair with their rank factors: (of e,
    of e*).  The factors reuse the echelon form that the ranks are counted
    from.

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
    return RankFactors.of(e), RankFactors.of(estar)


def realize(
    table: ModuleTable, ctx: SpecializationContext, field: Field
) -> ModuleRealization:
    """Evaluate the table at ctx and assert every realization invariant."""
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

    factors, dual_factors = idempotent_families(a, astar, ctx.theta, ctx.theta_star)
    failures: List[Tuple[str, str]] = []
    for i in range(table.d + 1):
        want = comb(table.d, i)
        for tag, got in (("e", factors.ranks[i]), ("es", dual_factors.ranks[i])):
            if got != want:
                failures.append(
                    (f"rank.{tag}.{i}", f"rank {got}, expected C({table.d},{i}) = {want}")
                )
    if failures:
        raise RealizationError(failures)

    return ModuleRealization(table, ctx, a, astar, factors, dual_factors)


# ---------------------------------------------------------------------------
# Relation suite


def _idempotent_family_checks(
    tag: str, band: str, fam: RankFactors, values: List, op: Matrix, other: Matrix
) -> Tuple[List[Check], List[Check]]:
    """rel5..rel7 of one family, and its band checks e_i other^k e_j = 0 for
    k < |i-j| (tagged `band`), read as R_i (other^k B_j) = 0.  At k = 0 that
    block is R_i B_j, which rel5 reads, so its verdict is recorded for both."""
    checks, zero = [], []
    d = len(fam.idems) - 1
    f = fam.field
    # every R_i B_j block from one product: stacked R_i times the B_j side by side
    blocks = fam.sandwich(range(d + 1), [sum(rows, []) for rows in zip(*fam.left)])
    offsets = [0, *accumulate(fam.ranks)]
    for i in range(d + 1):
        for j in range(d + 1):
            block = [row[offsets[j] : offsets[j + 1]] for row in blocks[i]]
            if i == j:  # R_i B_i = I: the integer block is dens[i] * I
                r, unit = fam.ranks[i], fam.dens[i]
                ok = block == [[unit if k == l else 0 for l in range(r)] for k in range(r)]
            else:
                ok = not any(map(any, block))
                zero.append((i, j, 0, ok))
            checks.append(
                Check(
                    f"rel5.{tag}.{i}.{j}",
                    ok,
                    "" if ok else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}",
                )
            )
    # rel6, rel7: [e_0 | ... | e_d] times [I | t_i I] stacked is [sum e_i | sum t_i e_i]
    n = op.nrows
    parts, den = common_form(fam.idems)
    ratios = [f.ratio(t) for t in values]
    tden = lcm(*(q for _, q in ratios))
    column = []
    for t, q in ratios:
        for k in range(n):
            row = [0] * (2 * n)
            row[k], row[n + k] = tden, t * (tden // q)
            column.append(row)
    sums = f.mat_mul([sum(rows, []) for rows in zip(*parts)], column)
    ok = Matrix.of_ints(f, [row[:n] for row in sums], den * tden) == Matrix.identity(f, n)
    checks.append(Check(f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
    ok = Matrix.of_ints(f, [row[n:] for row in sums], den * tden) == op
    checks.append(
        Check(f"rel7.{tag}", ok, "" if ok else f"operator != sum of eigenvalue * {tag}_i")
    )
    # the band blocks in the order j, then k, then i
    walk = sorted([*zero, *fam.band_blocks(other, d + 1)], key=lambda b: (b[1], b[2], b[0]))
    return checks, [
        Check(f"{band}.{i}.{j}.{k}", ok, "" if ok else f"sandwich ({i},{j},{k}) is nonzero")
        for i, j, k, ok in walk
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
    """Check the raising/lowering chains and the resulting corner identity."""
    f = real.field
    d = real.d
    ctx = real.context
    phi = real.basis_vector(real.basis[0])
    if real.basis[0] != BasisLabel(()):
        return [Check("mu.phi", False, "first basis label is not phi")]
    labels = [chain_label(h, i) for i in range(1, d + 1) for h in range(i)]
    missing = [str(label) for label in labels if label not in real.basis]
    if missing:
        return [Check("mu.labels", False, "chain labels not in basis: " + ", ".join(missing))]
    if d == 0:
        return [Check("mu.vacuous", True, "d = 0: chain conditions are vacuous")]

    av_phi = real.astar.apply(phi)
    ok = av_phi == vec_scale(f, ctx.theta_star[0], phi)
    corner = corner_identities(real)
    checks = [
        Check("mu.astar.phi", ok, "" if ok else "a*.phi != ths0 * phi"),
        Check("mu.es0.phi", corner[0], "" if corner[0] else "e*_0.phi != phi"),
        Check("mu.i0.identity", True, "tau_0 = 1 and e*_0 phi = phi"),
    ]

    def step(cid: str, op: Matrix, t, label: BasisLabel, want: list, text: str) -> None:
        # one chain step: (op - t).v == want for the basis vector v at label
        v = real.basis_vector(label)
        ok = vec_sub(f, op.apply(v), vec_scale(f, t, v)) == want
        checks.append(Check(cid, ok, "" if ok else text))

    for i in range(1, d + 1):
        # raising chain phi -> r -> ... -> r^i
        for h in range(i):
            step(f"mu.i{i}.rchain.h{h}", real.a, ctx.theta[h], power_label("r", h),
                 real.basis_vector(power_label("r", h + 1)),
                 f"(a - th{h}).r^{h} != r^{h + 1}")
        # lowering chain r^i -> l r^i -> ... -> l^{i-1} r^i
        for h in range(i - 1):
            step(f"mu.i{i}.lchain.h{h}", real.astar, ctx.theta_star[i - h], chain_label(h, i),
                 real.basis_vector(chain_label(h + 1, i)),
                 f"(a* - ths{i - h}).l^{h}r^{i} != l^{h + 1}r^{i}")
        # final lowering step hits y_i * phi
        step(f"mu.i{i}.weight", real.astar, ctx.theta_star[1], chain_label(i - 1, i),
             vec_scale(f, ctx.y[i - 1], phi), f"(a* - ths1).l^{i - 1}r^{i} != y{i} phi")
        ok = corner[i]
        detail = "" if ok else f"e*_0 tau_{i}(a) e*_0 phi has the wrong coefficient"
        checks.append(Check(f"mu.i{i}.identity", ok, detail))
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
            w = vec_sub(f, a.apply(w), vec_scale(f, theta[i - 1], w))
            den = f.mul(den, f.sub(theta_star[0], theta_star[i]))
        img = corner.apply(w)
        c = f.div(img[pivot], v[pivot])
        out.append(f.mul(c, den) if img == vec_scale(f, c, v) else None)
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
        checks.append(Check(f"shape.e.{i}", ranks[i] == want, f"rank {ranks[i]}, expected {want}"))
        checks.append(
            Check(f"shape.es.{i}", dual_ranks[i] == want, f"rank {dual_ranks[i]}, expected {want}")
        )
    sym = all(ranks[i] == ranks[d - i] for i in range(d + 1))
    uni = all(ranks[i - 1] <= ranks[i] for i in range(1, d // 2 + 1))
    return checks + [
        Check("shape.symmetric", sym, str(ranks)),
        Check("shape.unimodal", uni, str(ranks)),
    ]
