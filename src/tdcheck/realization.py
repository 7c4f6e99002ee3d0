"""Realize a module table at a specialization context and machine-check it.

realize() turns the symbolic table into two exact matrices acting on the
2^d-dimensional module, builds both families of primitive idempotents, and
asserts the structural invariants (minimal polynomials, eigenspace ranks).
The check operations then verify, as exact matrix identities:

  * the defining relations of the generator algebra: idempotent orthogonality
    and completeness, eigenvalue reconstruction, and the band conditions
    e*_i a^k e*_j = 0 and e_i a*^k e_j = 0 for k < |i-j|;
  * the weight certificate: the raising/lowering chains through the labels
    phi, r, r^2, ..., l^{i-1} r^i and the resulting identity
    e*_0 tau_i(a) e*_0 . phi = y_i phi / prod_{j=1..i} (s_0 - s_j),
    whose denominator follows the split-sequence convention;
  * the shape (idempotent ranks = binomial coefficients, symmetric, unimodal);
  * nonvanishing of the corner triple products e*_0 e_0 e*_0 and
    e*_0 e_d e*_0 on phi, with the exact value of the latter.

Any failed identity is reported with enough coordinates to replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Tuple

from .fields import Field, field_echo
from .linalg import Matrix, vec_eq, vec_is_zero, vec_scale, vec_sub
from .params import SpecializationContext
from .poly import MinimalPolynomialError, lagrange_idempotents
from .report import Check, VerificationReport
from .tables import BasisLabel, ModuleTable, chain_label, evaluate, power_label


class RealizationError(ValueError):
    """A structural invariant failed while realizing a table."""

    def __init__(self, failures: List[Tuple[str, str]]):
        self.failures = failures
        super().__init__(
            "; ".join(f"{name}: {detail}" for name, detail in failures)
        )


@dataclass
class ModuleRealization:
    d: int
    field: Field
    context: SpecializationContext
    basis: List[BasisLabel]
    index: Dict[BasisLabel, int]
    a: Matrix
    astar: Matrix
    e: List[Matrix]  # idempotents of a, ordered by eigenvalue list
    estar: List[Matrix]  # idempotents of astar
    table_version: str

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_vector(self, label: BasisLabel) -> list:
        f = self.field
        v = [f.zero] * self.dim
        v[self.index[label]] = f.one
        return v

    def report(self, command: str) -> VerificationReport:
        return VerificationReport(
            command=command,
            field=field_echo(self.field),
            asset_version=self.table_version,
            trials=1,
        )


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


def realize(
    table: ModuleTable, ctx: SpecializationContext, field: Field
) -> ModuleRealization:
    """Evaluate the table at ctx and assert every realization invariant."""
    if table.d != ctx.d:
        raise ValueError(f"table is for d={table.d}, context for d={ctx.d}")
    env = context_env(ctx)
    n = len(table.basis)
    index = {label: i for i, label in enumerate(table.basis)}

    def assemble(action) -> Matrix:
        cols = []
        for src in table.basis:
            col = [field.zero] * n
            for coeff, target in action[src]:
                val = evaluate(coeff, env, field)
                row = index[target]
                col[row] = field.add(col[row], val)
            cols.append(col)
        return Matrix.from_columns(field, cols)

    a = assemble(table.a_action)
    astar = assemble(table.astar_action)

    failures: List[Tuple[str, str]] = []
    e: List[Matrix] = []
    estar: List[Matrix] = []
    try:
        e = lagrange_idempotents(a, ctx.theta)
    except MinimalPolynomialError as err:
        failures.append(("minpoly.a", str(err)))
    try:
        estar = lagrange_idempotents(astar, ctx.theta_star)
    except MinimalPolynomialError as err:
        failures.append(("minpoly.astar", str(err)))
    if not failures:
        for i in range(table.d + 1):
            want = comb(table.d, i)
            got = e[i].rank()
            if got != want:
                failures.append(
                    ("rank.e.%d" % i, f"rank {got}, expected C({table.d},{i}) = {want}")
                )
            got = estar[i].rank()
            if got != want:
                failures.append(
                    ("rank.es.%d" % i, f"rank {got}, expected C({table.d},{i}) = {want}")
                )
    if failures:
        raise RealizationError(failures)

    return ModuleRealization(
        d=table.d,
        field=field,
        context=ctx,
        basis=list(table.basis),
        index=index,
        a=a,
        astar=astar,
        e=e,
        estar=estar,
        table_version=table.version,
    )


# ---------------------------------------------------------------------------
# Relation suite


def _idempotent_family_checks(
    tag: str, idems: List[Matrix], values: List, op: Matrix, identity: Matrix
) -> List[Check]:
    checks = []
    d = len(idems) - 1
    for i in range(d + 1):
        for j in range(d + 1):
            prod = idems[i] * idems[j]
            expected_zero = prod.is_zero() if i != j else (prod - idems[i]).is_zero()
            checks.append(
                Check(
                    f"rel5.{tag}.{i}.{j}",
                    expected_zero,
                    "" if expected_zero else f"{tag}_{i} {tag}_{j} != delta * {tag}_{i}",
                )
            )
    total = idems[0]
    for m in idems[1:]:
        total = total + m
    ok = (total - identity).is_zero()
    checks.append(Check(f"rel6.{tag}", ok, "" if ok else f"sum of {tag}_i != identity"))
    recon = idems[0].scale(values[0])
    for i in range(1, d + 1):
        recon = recon + idems[i].scale(values[i])
    ok = (recon - op).is_zero()
    checks.append(
        Check(f"rel7.{tag}", ok, "" if ok else f"operator != sum of eigenvalue * {tag}_i")
    )
    return checks


def _band_checks(tag: str, idems: List[Matrix], op: Matrix) -> List[Check]:
    """e_i op^k e_j = 0 for k < |i-j|, sharing the op^k e_j products."""
    checks = []
    d = len(idems) - 1
    for j in range(d + 1):
        maxk = max(j, d - j)
        power = idems[j]
        for k in range(maxk):
            if k > 0:
                power = op * power
            for i in range(d + 1):
                if k < abs(i - j):
                    prod = idems[i] * power
                    ok = prod.is_zero()
                    checks.append(
                        Check(
                            f"{tag}.{i}.{j}.{k}",
                            ok,
                            "" if ok else f"sandwich ({i},{j},{k}) is nonzero",
                        )
                    )
    return checks


def verify_relations(real: ModuleRealization) -> VerificationReport:
    """Exact checks of all defining relations on the realized module."""
    rep = real.report("verify-relations")
    identity = Matrix.identity(real.field, real.dim)
    rep.checks.extend(
        _idempotent_family_checks("e", real.e, real.context.theta, real.a, identity)
    )
    rep.checks.extend(
        _idempotent_family_checks(
            "es", real.estar, real.context.theta_star, real.astar, identity
        )
    )
    rep.checks.extend(_band_checks("rel8", real.estar, real.a))
    rep.checks.extend(_band_checks("rel9", real.e, real.astar))
    return rep


# ---------------------------------------------------------------------------
# Weight certificate (the chain computation behind the injectivity argument)


def mu_certificate(real: ModuleRealization) -> VerificationReport:
    """Check the raising/lowering chains and the resulting corner identity."""
    rep = real.report("mu-certificate")
    f = real.field
    d = real.d
    ctx = real.context
    phi = real.basis_vector(real.basis[0])
    if real.basis[0] != BasisLabel(()):
        rep.add("mu.phi", False, "first basis label is not phi")
        return rep
    if d == 0:
        rep.add("mu.vacuous", True, "d = 0: chain conditions are vacuous")
        return rep

    av_phi = real.astar.apply(phi)
    ok = vec_eq(f, av_phi, vec_scale(f, ctx.theta_star[0], phi))
    rep.add("mu.astar.phi", ok, "" if ok else "a*.phi != ths0 * phi")
    ok = vec_eq(f, real.estar[0].apply(phi), phi)
    rep.add("mu.es0.phi", ok, "" if ok else "e*_0.phi != phi")

    rep.add("mu.i0.identity", True, "tau_0 = 1 and e*_0 phi = phi")

    corner = corner_identities(real)
    for i in range(1, d + 1):
        # raising chain phi -> r -> ... -> r^i
        for h in range(i):
            v = real.basis_vector(power_label("r", h))
            img = vec_sub(f, real.a.apply(v), vec_scale(f, ctx.theta[h], v))
            want = real.basis_vector(power_label("r", h + 1))
            ok = vec_eq(f, img, want)
            rep.add(
                f"mu.i{i}.rchain.h{h}",
                ok,
                "" if ok else f"(a - th{h}).r^{h} != r^{h + 1}",
            )
        # lowering chain r^i -> l r^i -> ... -> l^{i-1} r^i
        for h in range(i - 1):
            v = real.basis_vector(chain_label(h, i))
            img = vec_sub(
                f, real.astar.apply(v), vec_scale(f, ctx.theta_star[i - h], v)
            )
            want = real.basis_vector(chain_label(h + 1, i))
            ok = vec_eq(f, img, want)
            rep.add(
                f"mu.i{i}.lchain.h{h}",
                ok,
                "" if ok else f"(a* - ths{i - h}).l^{h}r^{i} != l^{h + 1}r^{i}",
            )
        # final lowering step hits y_i * phi
        v = real.basis_vector(chain_label(i - 1, i))
        img = vec_sub(f, real.astar.apply(v), vec_scale(f, ctx.theta_star[1], v))
        want = vec_scale(f, ctx.y[i - 1], phi)
        ok = vec_eq(f, img, want)
        rep.add(
            f"mu.i{i}.weight", ok, "" if ok else f"(a* - ths1).l^{i - 1}r^{i} != y{i} phi"
        )
        ok = corner[i - 1]
        rep.add(
            f"mu.i{i}.identity",
            ok,
            "" if ok else f"e*_0 tau_{i}(a) e*_0 phi has the wrong coefficient",
        )
    return rep


def corner_identities(real: ModuleRealization) -> List[bool]:
    """For i = 1..d: e*_0 tau_i(a) e*_0 phi = y_i phi / prod_{j=1..i} (s_0 - s_j)?

    e*_0 phi = phi is checked separately, so tau_i(a) acts on phi directly.
    """
    f = real.field
    ctx = real.context
    phi = real.basis_vector(real.basis[0])
    v, den, out = phi, f.one, []
    for i in range(1, real.d + 1):
        v = vec_sub(f, real.a.apply(v), vec_scale(f, ctx.theta[i - 1], v))
        den = f.mul(den, f.sub(ctx.theta_star[0], ctx.theta_star[i]))
        want = vec_scale(f, f.div(ctx.y[i - 1], den), phi)
        out.append(vec_eq(f, real.estar[0].apply(v), want))
    return out


# ---------------------------------------------------------------------------
# Shape


@dataclass
class ShapeResult:
    ranks: List[int]
    dual_ranks: List[int]
    report: VerificationReport


def shape_check(real: ModuleRealization) -> ShapeResult:
    """Idempotent ranks: binomials C(d,i), symmetric and unimodal."""
    rep = real.report("shape")
    d = real.d
    ranks = [m.rank() for m in real.e]
    dual_ranks = [m.rank() for m in real.estar]
    for i in range(d + 1):
        want = comb(d, i)
        rep.add(
            f"shape.e.{i}",
            ranks[i] == want,
            f"rank {ranks[i]}, expected {want}",
        )
        rep.add(
            f"shape.es.{i}",
            dual_ranks[i] == want,
            f"rank {dual_ranks[i]}, expected {want}",
        )
    sym = all(ranks[i] == ranks[d - i] for i in range(d + 1))
    rep.add("shape.symmetric", sym, str(ranks))
    uni = all(ranks[i - 1] <= ranks[i] for i in range(1, d // 2 + 1))
    rep.add("shape.unimodal", uni, str(ranks))
    return ShapeResult(ranks=ranks, dual_ranks=dual_ranks, report=rep)


# ---------------------------------------------------------------------------
# Corner triple products


def triple_product_check(real: ModuleRealization) -> VerificationReport:
    """e*_0 e_0 e*_0 and e*_0 e_d e*_0 act nonzero on phi; the d-corner value
    is zeta_d / (tau_d(th_d) * eta*_d(ths_0)).  The realization's y-values are
    read as the split sequence (zeta_0 = 1 implied)."""
    rep = real.report("triple-product")
    f = real.field
    d = real.d
    ctx = real.context
    phi = real.basis_vector(real.basis[0])
    es0 = real.estar[0]

    low = es0.apply(real.e[0].apply(es0.apply(phi)))
    ok = not vec_is_zero(f, low)
    rep.add("triple.e0.nonzero", ok, "" if ok else "e*_0 e_0 e*_0 phi = 0")

    high = es0.apply(real.e[d].apply(es0.apply(phi)))
    ok = not vec_is_zero(f, high)
    rep.add("triple.ed.nonzero", ok, "" if ok else "e*_0 e_d e*_0 phi = 0")

    zeta_d = f.one if d == 0 else ctx.y[d - 1]
    tau_at = f.one
    for j in range(d):
        tau_at = f.mul(tau_at, f.sub(ctx.theta[d], ctx.theta[j]))
    eta_star_at = f.one
    for j in range(1, d + 1):
        eta_star_at = f.mul(eta_star_at, f.sub(ctx.theta_star[0], ctx.theta_star[j]))
    coeff = f.div(f.div(zeta_d, tau_at), eta_star_at)
    ok = vec_eq(f, high, vec_scale(f, coeff, phi))
    rep.add(
        "triple.ed.value",
        ok,
        "" if ok else "e*_0 e_d e*_0 phi != zeta_d phi / (tau_d(th_d) eta*_d(ths_0))",
    )
    return rep
