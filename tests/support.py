"""Helpers shared by several test files; not collected (no test_ prefix).

They are the test side of the program: code that only the tests run stays
here, not in src/tdcheck.
"""

from tdcheck.fields import derive_seed
from tdcheck.linalg import Matrix
from tdcheck.params import random_admissible_context
from tdcheck.poly import ladder
from tdcheck.realization import realize, verify_relations
from tdcheck.report import failed
from tdcheck.tables import Neg, TableError, bundled_table_text, check_grading


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
    """The vector (word).phi in a realized module, multiplying right to left."""
    vec = real.basis_vector(real.basis[0])
    for starred, idx in reversed(word):
        mat = real.estar[idx] if starred else real.e[idx]
        vec = mat.apply(vec)
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
