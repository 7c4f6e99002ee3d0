"""Helpers shared by several test files; not collected (no test_ prefix).

They are the test side of the program: code that only the tests run stays
here, not in src/tdcheck.
"""

from tdcheck.fields import derive_seed
from tdcheck.linalg import Matrix
from tdcheck.params import random_admissible_context
from tdcheck.poly import ladder
from tdcheck.realization import ModuleRealization, RealizationError, realize, verify_relations
from tdcheck.report import failed
from tdcheck.tables import Neg


# ---------------------------------------------------------------------------
# Matrix sums, entry by entry


def zero_matrix(field, n: int, m: int = None) -> Matrix:
    return Matrix(field, [[field.zero] * (n if m is None else m) for _ in range(n)])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, [list(map(a.field.add, ra, rb)) for ra, rb in zip(a.rows, b.rows)])


# ---------------------------------------------------------------------------
# Transcription mutations: one coefficient's sign flipped at a time


def coefficient_slots(table):
    """All (action, source, term index) coordinates of the table's terms."""
    return [
        (name, src, k)
        for name, action in (("a", table.a_action), ("astar", table.astar_action))
        for src in table.basis
        for k in range(len(action[src]))
    ]


def with_negated_coefficient(table, action: str, source, k: int):
    """Copy of the table with one coefficient's sign flipped."""
    key = "a_action" if action == "a" else "astar_action"
    terms = list(getattr(table, key)[source])
    c, label = terms[k]
    terms[k] = (c.child if isinstance(c, Neg) else Neg(c), label)
    return table._replace(**{key: {**getattr(table, key), source: terms}})


def rebuilt(real, **changes):
    """Copy of a ModuleRealization with the named attributes replaced."""
    return ModuleRealization(
        **{k: changes.get(k, getattr(real, k)) for k in ModuleRealization.__slots__}
    )


def mutation_detections(table, mutated, field, seed: int, trials: int) -> int:
    """How many of `trials` random contexts detect the mutated table.

    Detection = realization fails (minimal polynomial or rank invariant) or a
    relation check fails.
    """
    detected = 0
    for t in range(trials):
        ctx = random_admissible_context(table.d, field, derive_seed(seed, t))
        try:
            real = realize(mutated, ctx, field)
        except RealizationError:
            detected += 1
            continue
        detected += bool(failed(verify_relations(real)))
    return detected


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
