"""Round-trip between parameter arrays and realized modules.

construct_from_params() realizes a module table with the weights y_i set
to the split entries zeta_i of a validated parameter array, and post-asserts
that the corner elements

    g_i = e*_0 tau_i(a) e*_0 - zeta_i e*_0 / prod_{j=1..i} (s_0 - s_j)

kill phi.  extract_td_system() takes an operator pair (a, a*), a vector
phi and two eigenvalue lists; it restricts the pair to W, the closure of
phi, checks the tridiagonal axioms on it (diagonalizability over the lists,
interval supports, band conditions, irreducibility), and reads back the
shape and the split sequence.  roundtrip() compares the recovered data with
the array.  Both directions read the pair through realization's helpers:
the families and their rank factors from idempotent_families (the supports
are the nonzero ranks, the shape the dual ranks over the support), the band
conditions e_i X e_j = 0 as the blocks R_i X B_j (level 1 of
RankFactors.blocks; a restricted idempotent may have rank 0, and its blocks
are empty), and the split from split_sequence at phi, the reader behind the
g_i assertion.

Irreducibility: the words in the restricted pair span the full matrix
algebra (dimension (dim W)^2).  Given a rank-one member v w^T of the pair's
algebra (a Lagrange idempotent of rank 1 on W is one), that holds exactly
when the closure of v is W and the dual closure of w (under the transposed
pair) is W*.  "If": M v w^T N = (M v)(w^T N) for words M and N, so the span
holds every product of a vector of W and a row of W*.  "Only if": the full
matrix algebra moves any nonzero vector (row) to any other.  This holds over
every field and assumes nothing about the pair; it is Norton's
irreducibility test with the null space of I - v w^T (Holt and Rees,
J. Austral. Math. Soc. A 57, 1994).  extract_td_system takes the member and
the route as follows:

  * phi spans the rank-one corner (the shape is sharp and the split read at
    phi starts with 1): the member is e*_{r0} = c phi w^T, and phi generates
    W, so only the dual closure of w is read: _corner_cyclic_irreducible
    ("irreducibility via corner-cyclic test") for dim W > 8, else
    irreducibility_check ("irreducibility via full word-span dimension").
  * otherwise the first of e*_{r0}, e*_{r0+delta}, e_{t0}, e_{t0+delta} with
    rank 1 on W, v its B column and w its R row, through
    irreducibility_check; the word-span note, with " (fallback)" for dim W > 8.
  * with none, the verdict is None ("irreducibility undetermined").  No
    table reaches it: on a graded table (tables.check_grading) e*_0 phi = phi
    and rank e*_0 = C(d, 0) = 1, so e*_0 has rank 1 on every closure of phi.

The notes only name the route.  Both stay: the word-span note is inside
every pinned d <= 3 round-trip report (tests/test_golden.py,
perfbench/digests.json), and the roundtrip-qq workload runs both.

Over the rationals each closure is certified on one image mod
p = DEFAULT_PRIME first, in submodule_closure (the modular rank method, see
von zur Gathen and Gerhard, Modern Computer Algebra).  The lemma: when no
denominator of the operators or of the seed is divisible by p, every vector
the span is built from is p-integral, and reduction mod p is a ring map on
p-integral rationals, so vectors independent mod p are independent over Q.
A full-dimension image therefore proves a full span over Q, and only the
verdict "full" is taken from the image; every other case falls back to the
exact computation, so no verdict depends on p.

An operator restricted to W is its rows at the pivots of W's reduced
echelon basis times that basis transposed (linalg.restrict), and phi's
coordinates are its entries at those pivots.  When the closure of phi is the
whole module, the restriction is the pair itself, and the caller may pass
the pair's two idempotent families at the same lists (roundtrip passes
realize's) instead of having them rebuilt; on a proper W they are always
rebuilt from the restriction.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fields import DEFAULT_PRIME, Field, PrimeField, field_echo
from .linalg import EchelonBasis, Matrix, restrict
from .params import ParameterArray, derive_context, validate_parameter_array
from .realization import (
    ModuleRealization,
    RankFactors,
    RealizationError,
    corner_identities,
    idempotent_families,
    realize,
    split_sequence,
)
from .report import VerificationReport
from .tables import FORMAT_VERSION, ModuleTable, TableError

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

    Over Q it first runs on the image mod p (module docstring), and a full
    image returns the whole space.  The exact loop decides over F_p, for a
    denominator divisible by p, a seed zero mod p or a short image: it is
    alternating image augmentation to a fixed point, stopping early once the
    span is the whole space, and the result is a reduced row-echelon basis.
    """
    if not any(seed):
        raise ValueError("seed vector must be nonzero")
    image = _image(a, astar, seed) if a.field.kind == "qq" else None
    if image and submodule_closure(*image).dim == a.ncols:
        return EchelonBasis.whole_space(a.field, a.ncols)
    basis = EchelonBasis(a.field, a.ncols)
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
    integer form; None when a denominator is divisible by p or the seed
    vanishes mod p."""
    p = _IMAGE_FIELD.p
    out = []  # the seed is read as a one-row form of its own
    for ints, den in (a.form, astar.form, a.field.to_ints([seed])):
        if den % p == 0:
            return None
        inv = pow(den, -1, p)
        out.append([[x * inv % p if x else 0 for x in row] for row in ints])
    (v,) = out.pop()
    return (*(Matrix.of_ints(_IMAGE_FIELD, m) for m in out), v) if any(v) else None


def irreducibility_check(a: Matrix, astar: Matrix, rank_one: Tuple[Optional[list], list]) -> bool:
    """Span of all words in the pair stabilizes at dimension (dim W)^2?

    rank_one = (v, w) is the column and row of a rank-one member v w^T of
    the pair's algebra, and two closures decide (module docstring): the
    closure of v must be W and the dual closure of w must be W*.  v is None
    when it is known to generate W (phi, whose closure W is)."""
    (v, w), n = rank_one, a.nrows
    if v is not None and submodule_closure(a, astar, v).dim < n:
        return False
    return submodule_closure(a.transpose(), astar.transpose(), w).dim == n


def _rank_one(fam: RankFactors, i: int) -> Optional[Tuple[list, list]]:
    """(v, w) with e_i a nonzero multiple of v w^T, v the one column of B_i
    and w the one row of R_i, when e_i has rank 1; else None.  Both are the
    integer rows the factors hold: a span reads only their lines."""
    if fam.ranks[i] != 1:
        return None
    return [row[0] for row in fam.left[i]], fam.right[i][0]


def _corner_cyclic_irreducible(a: Matrix, astar: Matrix, row: list) -> bool:
    """Irreducibility from a rank-one corner whose column generates the
    module: does the corner's row generate the dual module?"""
    return submodule_closure(a.transpose(), astar.transpose(), row).dim == a.nrows


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
        out = self._asdict()
        for key in ("eigenvalues", "dual_eigenvalues", "split"):
            out[key] = [field.format(x) for x in out[key]]
        out["axiom_failures"] = [{"id": cid, "detail": det} for cid, det in self.axiom_failures]
        return out


def extract_td_system(
    a: Matrix, astar: Matrix, phi: list, theta: list, theta_star: list,
    families: Optional[Tuple[RankFactors, RankFactors]],
) -> TDSystemReport:
    """Restrict the pair to the closure of phi and check the axioms against
    the eigenvalue lists.  families is the pair's (factors of e, factors of
    e*) at these lists, as idempotent_families returns them, or None to
    build them; it is read only when phi generates the module."""
    field, n = a.field, a.nrows
    d = len(theta) - 1
    failures: List[Tuple[str, str]] = []
    notes: List[str] = []
    closure = submodule_closure(a, astar, phi)
    dim_w = closure.dim

    if dim_w == n:  # W is the module: the restriction is the pair itself
        a_sub, astar_sub = a, astar
    else:
        a_sub, astar_sub = restrict(a, closure), restrict(astar, closure)
    phi_w = [phi[p] for p in closure.pivots]

    try:
        factors, dual_factors = (
            families if families is not None and dim_w == n
            else idempotent_families(a_sub, astar_sub, theta, theta_star)
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

    # band conditions on the restriction, e_i op e_j = 0 for |i - j| > 1: the
    # block walk's level 1 (its level 0, rel5's blocks, is not an axiom here)
    for tag, fam, op in (("es", dual_factors, a_sub), ("e", factors, astar_sub)):
        for level in fam.blocks(op, 2, 1):
            for (i, j), block in level.items():
                if any(map(any, block)):
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
    corner = dual_factors.idems[r0]
    split = split_sequence(a_sub, corner, theta[t0:], theta_star[r0 : r0 + delta + 1], phi_w)
    if None in split:
        i = split.index(None)
        failures.append(
            (f"tds.split.proportional.{i}", "corner image is not a multiple of the eigenvector")
        )
        split = split[:i]

    # irreducibility: span criterion when small, corner-cyclic route otherwise
    large = dim_w > SPAN_CRITERION_DIM_LIMIT
    cyclic = sharp and split[:1] == [field.one]  # phi spans the rank-one corner
    if cyclic:
        rank_one = (None, _rank_one(dual_factors, r0)[1])
    else:  # the first rank-one end idempotent, if any
        ends = ((dual_factors, r0), (dual_factors, r0 + delta), (factors, t0),
                (factors, t0 + delta_a))
        rank_one = next(filter(None, (_rank_one(*end) for end in ends)), None)
    if rank_one is None:
        irreducible = None
        notes.append("irreducibility undetermined: no end idempotent has rank 1")
    elif large and cyclic:
        irreducible = _corner_cyclic_irreducible(a_sub, astar_sub, rank_one[1])
        notes.append("irreducibility via corner-cyclic test")
    else:
        irreducible = irreducibility_check(a_sub, astar_sub, rank_one)
        fallback = " (fallback)" if large else ""
        notes.append("irreducibility via full word-span dimension" + fallback)
    if irreducible is False:
        failures.append(("tds.irreducible", "a proper invariant subspace exists"))
    if field.kind == "qq":
        notes.append("irreducibility verdict is over the rationals; it may differ over"
                     " an algebraic closure")

    degenerate = delta != d or dim_w != n
    if degenerate:
        notes.append(
            f"degenerate parameter point: closure dim {dim_w}/{n},"
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
        command="tds-roundtrip", field=field_echo(field), asset_version=FORMAT_VERSION, trials=1
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

    ctx = real.context
    tds = extract_td_system(real.a, real.astar, real.basis_vector(real.basis[0]), ctx.theta,
                            ctx.theta_star, (real.factors, real.dual_factors))
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
