"""Round-trip between parameter arrays and realized modules.

construct_from_params() realizes a module table with the weights y_i set
to the split entries zeta_i of a validated parameter array, and post-asserts
that the corner elements

    g_i = e*_0 tau_i(a) e*_0 - zeta_i e*_0 / prod_{j=1..i} (s_0 - s_j)

kill phi: the realization's split (OperatorPair.split, read at phi) must be zeta.
extract_td_system() takes a realization.OperatorPair: a pair (a, a*), two
eigenvalue lists and the blocks U_j of a split grading, phi = e_0 and
U_0 = [0].  It restricts the pair to W, the closure of phi, checks that the
pair it reads is graded (linalg.graded: a is theta_j on U_j plus a map into
U_{j+1}, a* is theta*_j on U_j plus a map into U_{j-1}; else it aborts,
tds.grading.*), checks the tridiagonal axioms on it (band conditions, a
symmetric shape, irreducibility), and reads back the shape and the split
sequence; roundtrip() passes it the realization and compares the recovered
data with the array.  Both directions read what the pair builds on first
read: its corner row of e*_0 and its split, the reader behind the g_i
assertion, which a round-trip trial reads once, in construction, from no
family; and, in extraction only, its families with their rank factors, for
the band conditions e_i X e_j = 0 as the blocks R_i X B_j (level 1 of
RankFactors.blocks, read only on the half the grading leaves open; a
restricted idempotent may have rank 0, and its blocks are empty).  On a
graded pair e_i and e*_i both have rank |U_i|, so one support, the nonempty
blocks, is both families', and the shape is the block sizes over it: one
diameter, and dim E_iW = dim E*_iW.

Irreducibility: the words in the restricted pair span the full matrix
algebra (dimension (dim W)^2).  Given a rank-one member v w^T of the pair's
algebra (a Lagrange idempotent of rank 1 on W is one), that holds exactly
when the closure of v is W and the dual closure of w (under the transposed
pair) is W*.  "If": M v w^T N = (M v)(w^T N) for words M and N, so the span
holds every product of a vector of W and a row of W*.  "Only if": the full
matrix algebra moves any nonzero vector (row) to any other.  This holds over
every field and assumes nothing about the pair; it is Norton's
irreducibility test with the null space of I - v w^T (Holt and Rees,
J. Austral. Math. Soc. A 57, 1994).  The member extraction takes is the
corner e*_0 = c phi w^T, w^T the pair's corner row (OperatorPair), and phi
generates W, so only D, the dual closure of w under the transposed pair,
is read: the pair is irreducible exactly when dim D = dim W.  The route
depends on dim W alone: _corner_cyclic_irreducible ("irreducibility via
corner-cyclic test") for dim W > 8, else irreducibility_check
("irreducibility via full word-span dimension").  Both read that one
closure, take the pair and return D, which extraction keeps; the notes only
name the route, and both stay: the word-span note is inside every pinned
d <= 3 round-trip report (tests/test_golden.py, perfbench/digests.json),
and the roundtrip-qq workload runs both.

Over the rationals each closure is certified on one image mod p =
DEFAULT_PRIME (linalg.image_mod_p) first, in submodule_closure (the modular
rank method, see von zur Gathen and Gerhard, Modern Computer Algebra).  The
lemma: when no denominator of the operators or of the seed is divisible by
p, every vector the span is built from is p-integral, and reduction mod p is
a ring map on p-integral rationals, so vectors independent mod p are
independent over Q.  A full-dimension image therefore proves a full span
over Q, and only the verdict "full" is taken from the image; every other
case falls back to the exact computation, so no verdict depends on p.

An operator restricted to W is its rows at the pivots of W's reduced
echelon basis times that basis transposed (linalg.restrict).  When the
closure of phi is the whole module the pair is read as it is (a
realization's families and split are not rebuilt); on a proper W the
restricted pair is a new OperatorPair whose block j is the pivots in U_j,
graded when each reduced row lies in its pivot's block, which the grading
check decides.  It keeps the contract: phi = e_0 has pivot 0, and a reduced
row is 0 at the other pivots, so phi's coordinates on W are e_0 and its
block 0 is [0].

The support is an interval [0, delta]: were block j of the graded pair read
empty, the coordinates of the blocks below j would span an invariant
subspace holding phi, which generates W, so every block from j on is empty.
The split is the pair's own, and its first delta + 1 entries are the
support's: entry i reads theta below i, theta_star up to i and e*_0, the
theta*_0 eigenprojection of a*, which entries past delta do not change.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fields import Field, field_echo
from .linalg import EchelonBasis, Matrix, graded, image_mod_p, restrict
from .params import ParameterArray, derive_context, validate_parameter_array
from .realization import ModuleRealization, OperatorPair, realize
from .report import VerificationReport
from .tables import FORMAT_VERSION, ModuleTable, TableError

SPAN_CRITERION_DIM_LIMIT = 8


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
    """Realize the table at (theta, theta_star, y := zeta); assert g_i phi = 0,
    that is, the realization's split is zeta, which builds no family."""
    result = validate_parameter_array(pa, field)
    if not result.passed:
        raise InvalidParameterArrayError(result.failures)
    ctx = derive_context(pa.theta, pa.theta_star, pa.zeta[1:], field)
    real = realize(table, ctx, field)
    bad = [i for i, (c, z) in enumerate(zip(real.split, pa.zeta)) if i and c != z]
    if bad:
        raise ConstructionError("; ".join(f"g.{i}: g_{i} phi != 0" for i in bad))
    return real


def submodule_closure(a: Matrix, astar: Matrix, seed: Sequence) -> EchelonBasis:
    """Smallest subspace containing seed and invariant under both operators.

    Over Q it first runs on the image mod p (module docstring), and a full
    image returns the whole space.  The exact loop decides over F_p, for a
    denominator divisible by p, a seed zero mod p or a short image: it is
    alternating image augmentation to a fixed point, stopping early once the
    span is the whole space, and the result is a row-echelon basis.
    """
    if not any(seed):
        raise ValueError("seed vector must be nonzero")
    image = image_mod_p(a, astar, seed) if a.field.kind == "qq" else None
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


def irreducibility_check(pair: OperatorPair) -> EchelonBasis:
    """D: the words in the pair span all (dim W)^2 dimensions iff D is W*."""
    return submodule_closure(*pair.transposed, pair.corner)


def _corner_cyclic_irreducible(pair: OperatorPair) -> EchelonBasis:
    """D, the dual closure of the row of a corner whose column generates W."""
    return submodule_closure(*pair.transposed, pair.corner)


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


def extract_td_system(pair: OperatorPair) -> TDSystemReport:
    """Restrict the pair to the closure of its phi, check that the pair read
    is graded, and check the axioms against its eigenvalue lists, reading the
    pair's own families and split when phi generates the module and the
    restricted pair's otherwise."""
    field, n, d = pair.field, pair.dim, pair.d
    theta, theta_star = pair.theta, pair.theta_star
    failures: List[Tuple[str, str]] = []
    notes: List[str] = []
    closure = submodule_closure(pair.a, pair.astar, pair.phi)
    dim_w = closure.dim
    if dim_w < n:  # block j of W: its pivots in block j, checked below
        blocks = [[k for k, p in enumerate(closure.pivots) if p in b] for b in pair.blocks]
        pair = OperatorPair(restrict(pair.a, closure), restrict(pair.astar, closure), theta,
                            theta_star, blocks)

    # the grading the families are read at (RankFactors.of): a raises, a* lowers
    grading = [(f"tds.grading.{tag}",
                f"{tag} is not its eigenvalue on block j plus a map to block j{step:+d}")
               for tag, op, values, step in (("a", pair.a, theta, 1),
                                             ("astar", pair.astar, theta_star, -1))
               if not graded(op, values, pair.blocks, step)]
    if grading:
        return TDSystemReport(
            diameter=-1, eigenvalues=[], dual_eigenvalues=[], shape=[], split=[], sharp=False,
            irreducible=None, axiom_failures=grading, degenerate=True, closure_dim=dim_w,
            notes=["extraction aborted: the pair is not graded"])

    # both families have rank |U_i| at i: one shape, on the support [0, delta]
    shape = [len(block) for block in pair.blocks if block]
    delta = len(shape) - 1

    # band conditions on the restriction, e_i op e_j = 0 for |i - j| > 1: the
    # block walk's level 1, whose other half the grading above proves zero
    # (its level 0, rel5's blocks, is not an axiom here)
    for tag, fam, op, step in (("es", pair.dual_factors, pair.a, 1),
                               ("e", pair.factors, pair.astar, -1)):
        for level in fam.blocks(op, step, 2, 1):
            for (i, j), block in level.items():
                if any(map(any, block)):
                    failures.append((f"tds.band.{tag}.{i}.{j}", "sandwich is nonzero"))

    if shape != shape[::-1]:
        failures.append(("tds.shape.symmetric", f"shape {shape} is not symmetric"))

    # irreducibility from the corner e*_0 = c phi w^T: D, the dual closure of
    # w, by the span criterion when small, the corner-cyclic route otherwise
    if dim_w > SPAN_CRITERION_DIM_LIMIT:
        dual = _corner_cyclic_irreducible(pair)
        notes.append("irreducibility via corner-cyclic test")
    else:
        dual = irreducibility_check(pair)
        notes.append("irreducibility via full word-span dimension")
    irreducible = dual.dim == dim_w
    if not irreducible:
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
        eigenvalues=theta[: delta + 1],
        dual_eigenvalues=theta_star[: delta + 1],
        shape=shape,
        split=pair.split[: delta + 1],
        sharp=shape[0] == 1,
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
    except (TableError, ConstructionError) as err:
        rep.add("tds.valid", True, "")
        rep.add("tds.construct", False, str(err))
        return rep
    rep.add("tds.valid", True, "")
    rep.add("tds.construct", True, "")
    # construction asserted every g_i phi = 0
    for i in range(1, pa.d + 1):
        rep.add(f"tds.g.{i}", True, "")

    tds = extract_td_system(real)
    rep.add("tds.closure", True, f"closure of phi has dimension {tds.closure_dim} of {real.dim}")
    for cid, detail in tds.axiom_failures:
        rep.add(cid, False, detail)

    rep.add("tds.diameter", tds.diameter == pa.d, f"diameter {tds.diameter}, expected {pa.d}")
    ok = tds.eigenvalues == pa.theta
    rep.add("tds.eigen", ok, "" if ok else "recovered eigenvalue sequence differs")
    ok = tds.dual_eigenvalues == pa.theta_star
    rep.add("tds.eigen.dual", ok, "" if ok else "recovered dual eigenvalue sequence differs")
    rep.add("tds.sharp", tds.sharp, f"shape {tds.shape}")
    if tds.irreducible:  # a reducible restriction is an axiom failure above
        rep.add("tds.irreducible", True, "")
    ok = tds.split == pa.zeta
    rep.add("tds.split", ok, "" if ok else
            f"recovered split {[field.format(x) for x in tds.split]} != input zeta")
    for note in tds.notes:
        rep.add(f"tds.note.{len(rep.checks)}", True, note)
    rep.add(
        "tds.extracted",
        True,
        json.dumps(tds.to_dict(field), sort_keys=True, separators=(",", ":")),
    )
    return rep
