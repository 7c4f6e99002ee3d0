"""Round-trip between parameter arrays and realized modules.

construct_from_params() realizes a module table with the weights y_i set
to the split entries zeta_i of a validated parameter array, and post-asserts
that the corner elements

    g_i = e*_0 tau_i(a) e*_0 - zeta_i e*_0 / prod_{j=1..i} (s_0 - s_j)

kill phi.  extract_td_system() then restricts the operator pair to W, the
closure of phi, checks the tridiagonal axioms on it (diagonalizability over
the supplied eigenvalue lists, interval supports, band conditions,
irreducibility), and reads back the shape and the split sequence.
roundtrip() compares the recovered data with the array.  Both directions
read the pair through realization's helpers: the idempotent families and
their rank factors come from idempotent_families (the supports are the
nonzero ranks, the shape is the dual ranks over the support), the band
conditions e_i X e_j = 0 are read as the blocks R_i X B_j of those factors
(RankFactors.zero_blocks; a restricted idempotent may have rank 0, and its
blocks are empty), and the split comes from split_sequence, the same reader
behind the g_i assertion, applied at phi.

Irreducibility: the reference criterion is that the words in the restricted
pair span the full matrix algebra (span dimension = (dim W)^2).  That span is
computed as a closure: the same fixpoint routine as the closure of phi
(submodule_closure), seeded with vec(I) and run under left multiplication by
a and a*, the (dim W)^2 x (dim W)^2 operators g (x) I.  Maintaining that span
echelon costs on the order of (dim W)^6 field operations, so for
dim W > 8 extraction uses an equivalent test available whenever the corner
eigenspace is one-dimensional (the shape is sharp) and spanned by phi (the
split read at phi starts with 1): phi generates W by construction, so W is
irreducible iff the corner eigenrow generates the dual module under the
transposed pair.  (A proper submodule U satisfies corner(U) = 0, since
corner(U) nonzero would put phi, hence all of W, inside U; so the corner row
annihilates U, and if that row generates the dual module then U = 0.
Conversely an irreducible module and its transpose are cyclic from any
nonzero vector.)  Both routes are exact; the reference criterion remains the
fallback otherwise.
Both routes stay: the word-span note is inside every pinned d <= 3 round-trip
report (tests/test_golden.py, perfbench/digests.json), and the roundtrip-qq
benchmark workload runs both (word-span at d = 3, corner-cyclic at d = 4, 5).

Over the rationals each of those spans (the closure of phi, the word span
and the dual closure of the corner row) is certified on one image mod
p = DEFAULT_PRIME first, inside submodule_closure (the modular rank method,
see von zur Gathen and Gerhard, Modern Computer Algebra).  The lemma: when no
denominator of the operators or of the seed is divisible by p, every vector
the span is built from is p-integral, and reduction mod p is a ring map on
p-integral rationals, so vectors independent mod p are independent over Q:
the dimension of a span mod p is at most its dimension over Q.  A
full-dimension image therefore proves a full span over Q, and only the
verdict "full" is taken from the image; every other case falls back to the
exact computation (see submodule_closure), so no verdict depends on p.

When the closure of phi is the whole module, its reduced echelon basis is
the identity, so the restriction is the pair itself: extraction reads
realize's operators as they are, and reuses its idempotent families and rank
factors instead of rebuilding them.  The reuse is guarded: the families must
have been built from the eigenvalue lists of real.context (realize records
them as real.spectra); a context replaced after realize rebuilds them.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fields import DEFAULT_PRIME, Field, PrimeField, field_echo
from .linalg import EchelonBasis, Matrix, restrict_operator
from .params import ParameterArray, derive_context, validate_parameter_array
from .realization import (
    ModuleRealization,
    RealizationError,
    corner_identities,
    idempotent_families,
    realize,
    split_sequence,
)
from .report import VerificationReport
from .tables import ModuleTable, TableError

SPAN_CRITERION_DIM_LIMIT = 8

_IMAGE_FIELD = PrimeField(DEFAULT_PRIME)


class InvalidParameterArrayError(ValueError):
    def __init__(self, failures):
        self.failures = failures
        ids = ", ".join(cid for cid, _ in failures)
        super().__init__(f"parameter array rejected: {ids}")


class ConstructionError(ValueError):
    pass


def construct_from_params(
    pa: ParameterArray, field: Field, table: ModuleTable
) -> ModuleRealization:
    """Realize the table at (theta, theta_star, y := zeta); assert g_i phi = 0."""
    result = validate_parameter_array(pa, field)
    if not result.passed:
        raise InvalidParameterArrayError(result.failures)
    ctx = derive_context(pa.theta, pa.theta_star, pa.zeta[1:], field)
    real = realize(table, ctx, field)
    # with y = zeta[1:], g_i phi = 0 is the corner identity at i
    bad = [i for i, ok in enumerate(corner_identities(real)) if i and not ok]
    if bad:
        raise ConstructionError("; ".join(f"g.{i}: g_{i} phi != 0" for i in bad))
    return real


def submodule_closure(a: Matrix, astar: Matrix, seed: Sequence) -> EchelonBasis:
    """Smallest subspace containing seed and invariant under both operators.

    Alternating image augmentation to a fixed point, stopping early once the
    span is the whole space; the result is a reduced row-echelon basis.  Over
    Q it first runs on the image mod p (module docstring), and a full image
    returns the whole space.  The exact loop decides over F_p, for a
    denominator divisible by p, a seed that vanishes mod p or a short image.
    """
    field = a.field
    if not any(seed):
        raise ValueError("seed vector must be nonzero")
    image = _image(a, astar, seed) if field.kind == "qq" else None
    if image and submodule_closure(*image).dim == a.ncols:
        return EchelonBasis.whole_space(field, a.ncols)
    basis = EchelonBasis(field, a.ncols)
    basis.add(list(seed))
    queue = [list(seed)]
    while queue:
        v = queue.pop()
        for op in (a, astar):
            w = op.apply(v)
            if basis.add(w):
                if basis.dim == basis.width:
                    return basis
                queue.append(w)
    return basis


def _image(a: Matrix, astar: Matrix, seed: Sequence) -> Optional[tuple]:
    """(a, astar, seed) mod DEFAULT_PRIME, the operators read from their
    cached integer form (Matrix.nonzeros); None when a denominator is
    divisible by p or the seed vanishes mod p."""
    p, n = _IMAGE_FIELD.p, a.ncols
    (v,), vden = a.field.to_ints([seed])
    out = []  # the seed is read as a one-row form
    for den, rows in (a.nonzeros(), astar.nonzeros(), (vden, [(range(n), v)])):
        if den % p == 0:
            return None
        inv, img = pow(den, -1, p), [[0] * n for _ in rows]
        for row, (cols, vals) in zip(img, rows):
            for j, x in zip(cols, vals):
                row[j] = x * inv % p
        out.append(img)
    (v,) = out.pop()
    return (*(Matrix(_IMAGE_FIELD, m) for m in out), v) if any(v) else None


def irreducibility_check(a: Matrix, astar: Matrix) -> bool:
    """Span of all words in the pair stabilizes at dimension (dim W)^2?  The
    span is the closure of vec(I) under left multiplication, on row-major
    vec(M) the Kronecker product g (x) I for g = a, a*."""
    field, n = a.field, a.nrows
    z = field.zero

    def left_mult(g: Matrix) -> Matrix:
        return Matrix(field, [[x if j == l else z for x in row for l in range(n)]
                              for row in g.rows for j in range(n)])

    ident = [field.one if i == j else z for i in range(n) for j in range(n)]
    return submodule_closure(left_mult(a), left_mult(astar), ident).dim == n * n


def _corner_cyclic_irreducible(a: Matrix, astar: Matrix, corner: Matrix) -> bool:
    """Exact irreducibility via a rank-one corner idempotent whose image is
    spanned by a vector that generates the module."""
    row = next(r for r in corner.rows if any(r))
    dual = submodule_closure(a.transpose(), astar.transpose(), row)
    return dual.dim == a.nrows


class TDSystemReport(NamedTuple):
    diameter: int
    eigenvalues: list
    dual_eigenvalues: list
    shape: List[int]
    split: list
    sharp: bool
    irreducible: Optional[bool]
    axiom_failures: List[Tuple[str, str]]
    degenerate: bool
    closure_dim: int
    notes: List[str]

    def to_dict(self, field: Field) -> dict:
        return {
            "diameter": self.diameter,
            "eigenvalues": [field.format(x) for x in self.eigenvalues],
            "dual_eigenvalues": [field.format(x) for x in self.dual_eigenvalues],
            "shape": self.shape,
            "split": [field.format(x) for x in self.split],
            "sharp": self.sharp,
            "irreducible": self.irreducible,
            "axiom_failures": [
                {"id": cid, "detail": det} for cid, det in self.axiom_failures
            ],
            "degenerate": self.degenerate,
            "closure_dim": self.closure_dim,
            "notes": self.notes,
        }


def extract_td_system(real: ModuleRealization) -> TDSystemReport:
    """Restrict the pair to the closure of phi and check the axioms."""
    field = real.field
    theta, theta_star = real.context.theta, real.context.theta_star
    d = len(theta) - 1
    failures: List[Tuple[str, str]] = []
    notes: List[str] = []
    phi = real.basis_vector(real.basis[0])
    closure = submodule_closure(real.a, real.astar, phi)
    dim_w = closure.dim

    if dim_w == real.dim:  # W is the module: the restriction is the pair itself
        a_sub, astar_sub, phi_w = real.a, real.astar, phi
    else:
        a_sub = restrict_operator(field, real.a, closure)
        astar_sub = restrict_operator(field, real.astar, closure)
        phi_w = closure.coordinates(phi)

    try:
        # on the whole module, realize's families are these unless the lists differ
        idems_star, factors, dual_factors = (
            (real.estar, real.factors, real.dual_factors)
            if dim_w == real.dim and real.spectra == (theta, theta_star)
            else idempotent_families(a_sub, astar_sub, theta, theta_star)[1:]
        )
    except RealizationError as err:
        return TDSystemReport(
            diameter=-1,
            eigenvalues=[],
            dual_eigenvalues=[],
            shape=[],
            split=[],
            sharp=False,
            irreducible=None,
            axiom_failures=[("tds." + cid, det) for cid, det in err.failures],
            degenerate=True,
            closure_dim=dim_w,
            notes=["extraction aborted: minimal polynomial failed"],
        )

    def support(rs: List[int], tag: str) -> List[int]:
        sup = [i for i, r in enumerate(rs) if r > 0]
        if sup and sup != list(range(sup[0], sup[-1] + 1)):
            failures.append((f"tds.support.{tag}", f"support {sup} is not an interval"))
        return sup

    ranks, dual_ranks = factors.ranks, dual_factors.ranks
    sup_a = support(ranks, "a")
    sup_astar = support(dual_ranks, "astar")
    t0 = sup_a[0] if sup_a else 0
    r0 = sup_astar[0] if sup_astar else 0
    delta_a = len(sup_a) - 1
    delta_astar = len(sup_astar) - 1
    if delta_a != delta_astar:
        failures.append(
            ("tds.diameter.match", f"supports have lengths {delta_a + 1} != {delta_astar + 1}")
        )
    delta = delta_astar

    # band conditions on the restriction, read as blocks R_i (op B_j)
    for tag, fam, op in (("es", dual_factors, a_sub), ("e", factors, astar_sub)):
        for j in range(d + 1):
            rows = [i for i in range(d + 1) if abs(i - j) > 1]
            if not rows:
                continue
            x = field.mat_mul(op.rows, fam.left[j])
            for i, ok in zip(rows, fam.zero_blocks(rows, x)):
                if not ok:
                    failures.append((f"tds.band.{tag}.{i}.{j}", "sandwich is nonzero"))

    shape = dual_ranks[r0 : r0 + delta + 1]
    shape_a = ranks[t0 : t0 + delta_a + 1]
    if delta_a == delta_astar and shape != shape_a:
        failures.append(
            ("tds.shape.match", f"eigenspace dimensions differ: {shape_a} vs {shape}")
        )
    if shape != shape[::-1]:
        failures.append(("tds.shape.symmetric", f"shape {shape} is not symmetric"))
    sharp = bool(shape) and shape[0] == 1

    # split sequence: the corner identity read at phi
    corner = idems_star[r0]
    split = split_sequence(a_sub, corner, theta[t0:], theta_star[r0 : r0 + delta + 1], phi_w)
    if None in split:
        i = split.index(None)
        failures.append(
            (f"tds.split.proportional.{i}", "corner image is not a multiple of the eigenvector")
        )
        split = split[:i]

    # irreducibility: span criterion when small, corner-cyclic route otherwise
    large = dim_w > SPAN_CRITERION_DIM_LIMIT
    if large and sharp and split[:1] == [field.one]:  # phi spans the rank-one corner
        irreducible = _corner_cyclic_irreducible(a_sub, astar_sub, corner)
        notes.append("irreducibility via corner-cyclic test")
    else:
        irreducible = irreducibility_check(a_sub, astar_sub)
        fallback = " (fallback)" if large else ""
        notes.append("irreducibility via full word-span dimension" + fallback)
    if irreducible is False:
        failures.append(("tds.irreducible", "a proper invariant subspace exists"))
    if field.kind == "qq":
        notes.append(
            "irreducibility verdict is over the rationals; it may differ over"
            " an algebraic closure"
        )

    degenerate = delta != d or dim_w != real.dim
    if degenerate:
        notes.append(
            f"degenerate parameter point: closure dim {dim_w}/{real.dim},"
            f" support length {delta + 1}/{d + 1}"
        )

    return TDSystemReport(
        diameter=delta,
        eigenvalues=theta[t0 : t0 + delta_a + 1],
        dual_eigenvalues=theta_star[r0 : r0 + delta + 1],
        shape=shape,
        split=split,
        sharp=sharp,
        irreducible=irreducible,
        axiom_failures=failures,
        degenerate=degenerate,
        closure_dim=dim_w,
        notes=notes,
    )


def roundtrip(pa: ParameterArray, field: Field, table: ModuleTable) -> VerificationReport:
    """construct -> closure(phi) -> extract -> compare against the array."""
    rep = VerificationReport(
        command="tds-roundtrip", field=field_echo(field), asset_version=table.version, trials=1
    )
    try:
        real = construct_from_params(pa, field, table)
    except InvalidParameterArrayError as err:
        rep.add("tds.valid", False, "; ".join(cid for cid, _ in err.failures))
        return rep
    except (RealizationError, TableError, ConstructionError) as err:
        rep.add("tds.valid", True, "")
        rep.add("tds.construct", False, str(err))
        return rep
    rep.add("tds.valid", True, "")
    rep.add("tds.construct", True, "")
    # construction asserted every g_i phi = 0
    for i in range(1, pa.d + 1):
        rep.add(f"tds.g.{i}", True, "")

    tds = extract_td_system(real)
    rep.add(
        "tds.closure",
        True,
        f"closure of phi has dimension {tds.closure_dim} of {real.dim}",
    )
    for cid, detail in tds.axiom_failures:
        rep.add(cid, False, detail)

    rep.add(
        "tds.diameter",
        tds.diameter == pa.d,
        f"diameter {tds.diameter}, expected {pa.d}",
    )
    rep.add(
        "tds.eigen",
        tds.eigenvalues == pa.theta,
        "recovered eigenvalue sequence differs" if tds.eigenvalues != pa.theta else "",
    )
    rep.add(
        "tds.eigen.dual",
        tds.dual_eigenvalues == pa.theta_star,
        "recovered dual eigenvalue sequence differs"
        if tds.dual_eigenvalues != pa.theta_star
        else "",
    )
    rep.add("tds.sharp", tds.sharp, f"shape {tds.shape}")
    if tds.irreducible is not False:  # a reducible restriction is an axiom failure above
        rep.add(
            "tds.irreducible",
            tds.irreducible is True,
            "" if tds.irreducible is True else "irreducibility undetermined",
        )
    ok = len(tds.split) == pa.d + 1 and all(
        tds.split[i] == pa.zeta[i] for i in range(pa.d + 1)
    )
    rep.add(
        "tds.split",
        ok,
        ""
        if ok
        else f"recovered split {[field.format(x) for x in tds.split]} != input zeta",
    )
    for note in tds.notes:
        rep.add(f"tds.note.{len(rep.checks)}", True, note)
    rep.add(
        "tds.extracted",
        True,
        json.dumps(tds.to_dict(field), sort_keys=True, separators=(",", ":")),
    )
    return rep
