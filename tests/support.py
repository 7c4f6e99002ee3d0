"""Helpers shared by several test files; not collected (no test_ prefix).

They are the test side of the program: code that only the tests run stays
here, not in src/tdcheck.
"""

from tdcheck import tdsystem
from tdcheck.fields import derive_seed
from tdcheck.linalg import Matrix, RankFactors, lincomb
from tdcheck.params import random_admissible_context
from tdcheck.poly import ladder, lagrange_idempotents
from tdcheck.realization import OperatorPair, realize, verify_relations
from tdcheck.report import failed
from tdcheck.tables import (
    ONE, PHI, Neg, TableError, bundled_table_text, check_grading, load_table, parse_label,
)


# ---------------------------------------------------------------------------
# Matrix sums and multiples, entry by entry


def zero_matrix(field, n: int, m: int = None) -> Matrix:
    return Matrix(field, [[field.zero] * (n if m is None else m) for _ in range(n)])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, [list(map(a.field.add, ra, rb)) for ra, rb in zip(elements(a), elements(b))])


def scaled(m: Matrix, c) -> Matrix:
    """c * m, entry by entry."""
    return Matrix(m.field, [[m.field.mul(c, x) for x in row] for row in elements(m)])


# ---------------------------------------------------------------------------
# Matrices and echelon bases read back as field elements, and the restriction
# computed from them as it was before it became one product (linalg.restrict)


def elements(m) -> list:
    """The entries of a Matrix, or the reduced rows of an EchelonBasis, as
    field elements read from its integer form."""
    return read_form(m.field, *m.form)


def read_form(field, ints, den) -> list:
    """An integer form (rows over one denominator) read back as field elements."""
    return [[field.from_ints(x, den) for x in row] for row in ints]


def coordinates(basis, vec):
    """vec's coordinates in an EchelonBasis by elimination against its
    reduced rows, or None if a residual is left: vec is outside the span."""
    f, v, coords = basis.field, list(vec), []
    for row, piv in zip(elements(basis), basis.pivots):
        c = v[piv]
        coords.append(c)
        if c:
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return None if any(v) else coords


def reference_restrict(op: Matrix, basis) -> Matrix:
    """Matrix of op on the span of basis: column j is the coordinates of op
    times basis row j.  ValueError if the span is not invariant."""
    cols = [coordinates(basis, op.apply(row)) for row in elements(basis)]
    if None in cols:
        raise ValueError("subspace is not invariant under the operator")
    return Matrix(op.field, zip(*cols))


# ---------------------------------------------------------------------------
# Idempotent families as n x n matrices: the full Lagrange family, which no
# code in src/tdcheck forms, the family rebuilt from its rank factors, and
# rank factors of hand-built families


def lagrange_family(op: Matrix, values) -> list:
    """E_0..E_d of op for the eigenvalue list, each the lincomb of the chain
    P_0..P_d at its Newton coefficients (lagrange_idempotents; 0 below P_i)."""
    chain, coeffs = lagrange_idempotents(op, values)
    return [lincomb(zip(cs, chain)) for cs in coeffs]


def pair_families(pair) -> tuple:
    """The full Lagrange families (e, e*) of an OperatorPair."""
    return lagrange_family(pair.a, pair.theta), lagrange_family(pair.astar, pair.theta_star)


def rebuilt(fam) -> list:
    """Each e_i = B_i R_i of a RankFactors, multiplied back from its blocks."""
    f = fam.field
    return [Matrix.of_ints(f, f.mat_mul(left, right) if right else [[0] * len(left) for _ in left],
                           den)
            for left, right, den in zip(fam.left, fam.right, fam.dens)]


def sliced_factors(idems, blocks) -> RankFactors:
    """Rank factors of a family of n x n matrices sliced at the blocks: R_i
    is e_i's rows at U_i and B_i its columns there, both over e_i's
    denominator (exact when e_i[U_i, U_i] = I and rank e_i = |U_i|)."""
    right, left, dens = [], [], []
    for m, cols in zip(idems, blocks):
        ints, den = m.form
        right.append([ints[p] for p in cols])
        left.append([[row[p] for p in cols] for row in ints])
        dens.append(den * den)
    return RankFactors(idems[0].field, right, left, dens)


def echelon_factors(idems) -> RankFactors:
    """Rank factors of any family, read from echelon forms: R_i is e_i's
    reduced echelon rows and B_i its columns at their pivots, so e_i = B_i R_i
    whether or not the family is idempotent (RankFactors.of reads a graded
    pair's idempotents at its blocks instead)."""
    right, left, dens = [], [], []
    for m in idems:
        ints, den = m.form
        basis = m.echelon()
        (rows, rden), cols = basis.form, basis.pivots
        right.append(rows)
        left.append([[row[p] for p in cols] for row in ints])
        dens.append(rden * den)
    return RankFactors(idems[0].field, right, left, dens)


# ---------------------------------------------------------------------------
# The split as it was read before OperatorPair.corner: e*_0 applied through
# the dual family's rank factors, each image's entry 0 times its prefix
# ladder value


def reference_split(pair) -> list:
    """c_i = (e*_0 tau_i(a) phi)_0 * prod_{j=1..i} (s_0 - s_j), s = theta_star,
    e*_0 applied as dual_factors.apply(0, .) and the products one ladder over
    s_1..s_d at s_0."""
    f, w, out = pair.field, pair.phi, []
    for i, den in enumerate(ladder(f, pair.theta_star[1:], pair.theta_star[0])):
        if i:
            t = pair.theta[i - 1]
            w = [f.sub(x, f.mul(t, y)) for x, y in zip(pair.a.apply(w), w)]
        out.append(f.mul(pair.dual_factors.apply(0, w)[0], den))
    return out


def assert_corner_reads_e0(pair):
    """pair.corner is eta*_d(s_0) times row 0 of the full Lagrange E*_0, so
    proportional to it with entry 0 eta*_d(s_0), and pair.split is the
    reference split."""
    f, s = pair.field, pair.theta_star
    eta = ladder(f, s[:0:-1], s[0])[-1]
    row = elements(lagrange_family(pair.astar, s)[0])[0]
    assert pair.corner[0] == eta
    assert pair.corner == [f.mul(eta, x) for x in row]
    assert pair.split == reference_split(pair)


# ---------------------------------------------------------------------------
# Irreducibility from any rank-one member v w^T of a pair's algebra: Norton's
# two closures (tdsystem's module docstring), of which extraction reads only
# the dual one, its corner e*_0 = c phi w^T having the generator phi as column.
# Both call tdsystem.submodule_closure through the module, so a test that
# records that function's calls sees these.


def dual_closure(a: Matrix, astar: Matrix, row):
    """The closure of any row under the transposed pair: for a pair's own
    corner row, the D that extraction's irreducibility routes return."""
    return tdsystem.submodule_closure(a.transpose(), astar.transpose(), row)


def two_closure_irreducible(a: Matrix, astar: Matrix, rank_one) -> bool:
    """Do the words in the pair span the full matrix algebra?  rank_one =
    (v, w) is the column and row of a rank-one member v w^T: the closure of
    v must be the whole space and the dual closure of w its dual."""
    (v, w), n = rank_one, a.nrows
    return (tdsystem.submodule_closure(a, astar, v).dim == n
            and dual_closure(a, astar, w).dim == n)


# ---------------------------------------------------------------------------
# TD pairs that no table builds, each an OperatorPair (phi = e_0, block 0 =
# [0], graded): a Leonard pair in split form and a Krawtchouk tensor pair


def leonard_pair(field, theta, theta_star, vphi1) -> OperatorPair:
    """The Leonard pair in split form (Terwilliger, Linear Algebra Appl. 330,
    2001, Theorem 1.9): a is lower bidiagonal, theta on the diagonal and 1
    below it; a* upper bidiagonal, theta_star on the diagonal and phi_1..phi_d
    above it, phi_i = vphi1 sum_{h<i} (th_h - th_{d-h}) / (th_0 - th_d) +
    (ths_i - ths_0)(th_{i-1} - th_d).  Block j is [j]."""
    f, d = field, len(theta) - 1
    ratio = f.div(f.one, f.sub(theta[0], theta[d]))
    phis, acc = [], f.zero
    for i in range(1, d + 1):
        acc = f.add(acc, f.mul(f.sub(theta[i - 1], theta[d - i + 1]), ratio))
        phis.append(f.add(f.mul(vphi1, acc), f.mul(f.sub(theta_star[i], theta_star[0]),
                                                    f.sub(theta[i - 1], theta[d]))))
    a = [[theta[i] if i == j else f.one if i == j + 1 else f.zero for j in range(d + 1)]
         for i in range(d + 1)]
    astar = [[theta_star[i] if i == j else phis[i] if j == i + 1 else f.zero
              for j in range(d + 1)] for i in range(d + 1)]
    return OperatorPair(Matrix(f, a), Matrix(f, astar), list(theta), list(theta_star),
                        [[j] for j in range(d + 1)])


def krawtchouk_pair(field, d, th0, h, ths0, hs, couplings) -> OperatorPair:
    """The tensor pair on (F^2)^(x)d (Ito and Terwilliger, Linear Algebra
    Appl. 427, 2007): A = th0 I + sum a_i and A* = ths0 I + sum a*_i, where
    a_i sends e_0 to e_1 and e_1 to h e_1 in factor i, and a*_i sends e_0 to
    0 and e_1 to hs e_1 + c_i e_0.  A basis vector is a bit mask, ordered by
    weight; block j is weight j, where A is th0 + j h and A* is ths0 + j hs."""
    f, n = field, 1 << d
    order = sorted(range(n), key=lambda x: (bin(x).count("1"), x))
    at = {x: k for k, x in enumerate(order)}
    a, astar = ([[f.zero] * n for _ in range(n)] for _ in range(2))
    for x in order:
        k, w = at[x], bin(x).count("1")
        a[k][k] = f.add(th0, f.mul(f.from_int(w), h))
        astar[k][k] = f.add(ths0, f.mul(f.from_int(w), hs))
        for i, c in enumerate(couplings):
            if x >> i & 1:
                astar[at[x ^ 1 << i]][k] = c
            else:
                a[at[x | 1 << i]][k] = f.one
    theta = [f.add(th0, f.mul(f.from_int(j), h)) for j in range(d + 1)]
    theta_star = [f.add(ths0, f.mul(f.from_int(j), hs)) for j in range(d + 1)]
    blocks = [[k for k, x in enumerate(order) if bin(x).count("1") == j] for j in range(d + 1)]
    return OperatorPair(Matrix(f, a), Matrix(f, astar), theta, theta_star, blocks)


# ---------------------------------------------------------------------------
# d2.txt with lr2 a common eigenvector of both operators and r2 fed from r in
# place of lr2: the closure of phi is phi, r and r2, a proper subspace, so
# extraction restricts the pair to it

PROPER_CLOSURE_D2 = (
    ("lr2 : th1*lr2 + (y1-eps0)*r2", "lr2 : th1*lr2"),
    ("lr2 : ths1*lr2 + y2*phi", "lr2 : ths1*lr2"),
    ("r2 : ths2*r2 + lr2", "r2 : ths2*r2 + y2*y1^-1*r"),
)


def proper_closure_d2_text() -> str:
    text = bundled_table_text(2)
    for old, new in PROPER_CLOSURE_D2:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


# ---------------------------------------------------------------------------
# d1.txt with a pole, and with a lowering term built past the parser


def pole_d1_text() -> str:
    """d1.txt with the a-entry of phi scaled by (th0-ths0)^-1: graded, so the
    parser accepts it, but it has a pole wherever th0 = ths0."""
    return bundled_table_text(1).replace("phi : th0*phi + r", "phi : th0*phi + (th0-ths0)^-1*r")


def lowered_d1_table():
    """d1.txt with r -> phi added to a, built past the parser: (a - th0)(a - th1)
    is no longer 0, so the family of a fails its minimal polynomial."""
    table = load_table(1)
    r = parse_label("r")
    return table._replace(a_action={**table.a_action, r: table.a_action[r] + [(ONE, PHI)]})


# ---------------------------------------------------------------------------
# Transcription mutations: one term's sign flipped, dropped or doubled.  A
# table built here bypasses parse_table, so it reaches realize only once
# tables.check_grading has passed it.


def coefficient_slots(table):
    """All (action, source, term index) coordinates of the table's terms."""
    return [
        (name, src, k)
        for name, action in (("a", table.a_action), ("astar", table.astar_action))
        for src in table.basis
        for k in range(len(action[src]))
    ]


def _with_edited_term(table, action: str, source, k: int, edit):
    """Copy of the table with the terms[k:k + 1] of one entry replaced by edit(terms[k])."""
    key = "a_action" if action == "a" else "astar_action"
    terms = getattr(table, key)[source]
    terms = terms[:k] + edit(terms[k]) + terms[k + 1:]
    return table._replace(**{key: {**getattr(table, key), source: terms}})


def _negated(term):
    c, label = term
    return [(c.child if isinstance(c, Neg) else Neg(c), label)]


def with_negated_coefficient(table, action: str, source, k: int):
    """Copy of the table with one coefficient's sign flipped."""
    return _with_edited_term(table, action, source, k, _negated)


def term_edits(table):
    """(kind, slot, edited table) for every sign flip, drop and doubling of one term."""
    for slot in coefficient_slots(table):
        for kind, edit in (("flip", _negated), ("drop", lambda t: []), ("double", lambda t: [t, t])):
            yield kind, slot, _with_edited_term(table, *slot, edit)


def is_graded(table) -> bool:
    try:
        check_grading(table)
    except TableError:
        return False
    return True


def mutation_detections(table, mutated, field, seed: int, trials: int) -> int:
    """How many of `trials` random contexts detect the mutated table.

    An ungraded mutation is rejected before any context is drawn, as the
    parser rejects its text, and counts as detected in every trial.  Else a
    detection is a failed relation check: on a graded table realize cannot
    fail (see realization.realize).
    """
    if not is_graded(mutated):
        return trials
    detected = 0
    for t in range(trials):
        ctx = random_admissible_context(table.d, field, derive_seed(seed, t))
        detected += bool(failed(verify_relations(realize(mutated, ctx, field))))
    return detected


# ---------------------------------------------------------------------------
# Feasible-word images, walked from phi right to left (the rank experiment
# reads each image from its parent's instead)


def word_image(real, word) -> list:
    """The vector (word).phi in a realized module, multiplying right to left
    by the full Lagrange idempotents."""
    e, estar = pair_families(real)
    vec = real.phi
    for starred, idx in reversed(word):
        vec = (estar if starred else e)[idx].apply(vec)
    return vec


# ---------------------------------------------------------------------------
# Parameter arrays


def failure_ids(result) -> list:
    """The condition ids of a ValidationResult's failures, in order."""
    return [cid for cid, _ in result.failures]


# ---------------------------------------------------------------------------
# The ladder expansion identity


def eta_expansion_check(thetas, field) -> bool:
    """Whether eta_d = sum_i eta_{d-i}(t_0) tau_i, compared at x = 0..d.

    Both sides have degree at most d, so agreement at d + 1 distinct points
    is the coefficientwise identity (the field needs d + 1 elements).
    """
    d = len(thetas) - 1
    weights = ladder(field, thetas[::-1], thetas[0])
    for n in range(d + 1):
        x = field.from_int(n)
        taus = ladder(field, thetas, x)
        rhs = field.zero
        for i in range(d + 1):
            rhs = field.add(rhs, field.mul(weights[d - i], taus[i]))
        if ladder(field, thetas[::-1], x)[d] != rhs:
            return False
    return True
