"""Parameter arrays, admissibility validation and the two samplers.

A parameter array is (d; t_0..t_d; s_0..s_d; z_0..z_d): candidate eigenvalue
sequence, dual eigenvalue sequence and split sequence.  The validator checks
the three admissibility conditions:

  (i)   both eigenvalue lists are pairwise distinct;
  (ii)  z_0 = 1, z_d != 0 and sum_i eta_{d-i}(t_0) eta*_{d-i}(s_0) z_i != 0;
  (iii) the ratio families (t_{i-2}-t_{i+1})/(t_{i-1}-t_i) and the dual one
        agree with each other and are constant over 2 <= i <= d-1
        (vacuously true for d <= 2).

A parameter array is also the point a module table is evaluated at, with
the table's weights y_i set to z_i (realization.context_env derives the
rest of what a table mentions).  random_valid_parameter_array draws an
array passing (i)-(iii); random_admissible_context draws the lists of (i)
and (iii), z_0 = 1 and free weights z_1..z_d, and leaves (ii) unchecked.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .fields import Field, Sampler, require_capacity
from .poly import ladder

# Stable condition identifiers used in validation failures.
COND_THETA_DISTINCT = "(i) theta distinct"
COND_THETA_STAR_DISTINCT = "(i) theta_star distinct"
COND_ZETA0 = "(ii) zeta_0=1"
COND_ZETAD = "(ii) zeta_d!=0"
COND_SUM = "(ii) sum!=0"
COND_BETA = "(iii) beta recurrence"

MAX_ATTEMPTS = 1000  # candidates each rejection sampler draws before giving up


class MalformedArrayError(ValueError):
    """Structurally broken input (bad JSON shape or lengths), distinct from
    'invalid'."""


class ContextError(ValueError):
    """A sampler found no admissible draw within MAX_ATTEMPTS candidates."""


class ParameterArray(NamedTuple):
    d: int
    theta: list
    theta_star: list
    zeta: list

    def check_shape(self):
        n = self.d + 1
        if self.d < 0:
            raise MalformedArrayError("d must be nonnegative")
        for name, xs in (
            ("theta", self.theta),
            ("theta_star", self.theta_star),
            ("zeta", self.zeta),
        ):
            if len(xs) != n:
                raise MalformedArrayError(
                    f"{name} has {len(xs)} entries, expected {n}"
                )

    @classmethod
    def from_json(cls, text: str, field: Field) -> "ParameterArray":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise MalformedArrayError("JSON nests too deeply") from None
        if not isinstance(obj, dict):
            raise MalformedArrayError("expected a JSON object")

        def scalars(key: str) -> list:
            xs = obj[key]
            if not isinstance(xs, list) or not all(isinstance(x, str) for x in xs):
                raise MalformedArrayError(f"{key} must be a list of scalar strings")
            try:
                return [field.parse(x) for x in xs]
            except ZeroDivisionError:
                raise MalformedArrayError(f"{key} has a zero denominator") from None

        try:
            pa = cls(
                d=obj["d"],
                theta=scalars("theta"),
                theta_star=scalars("theta_star"),
                zeta=scalars("zeta"),
            )
        except KeyError as e:
            raise MalformedArrayError(f"missing key {e.args[0]!r}") from None
        if type(pa.d) is not int:
            raise MalformedArrayError("d must be a JSON integer")
        pa.check_shape()
        return pa


class ValidationResult(NamedTuple):
    passed: bool
    failures: List[Tuple[str, str]]
    vacuous: List[str]


def _all_distinct(xs: Sequence) -> bool:
    return len(set(xs)) == len(xs)  # elements are canonical and hashable


def _ratio_family(field: Field, xs: Sequence) -> list:
    """[(x_{i-2}-x_{i+1})/(x_{i-1}-x_i) for 2 <= i <= d-1]; needs distinctness."""
    d = len(xs) - 1
    out = []
    for i in range(2, d):
        num = field.sub(xs[i - 2], xs[i + 1])
        den = field.sub(xs[i - 1], xs[i])
        out.append(field.div(num, den))
    return out


def admissibility_sum(field: Field, pa: ParameterArray):
    """sum_i eta_{d-i}(t_0) eta*_{d-i}(s_0) z_i — condition (ii) obstruction."""
    d = pa.d
    eta = ladder(field, pa.theta[::-1], pa.theta[0])
    eta_star = ladder(field, pa.theta_star[::-1], pa.theta_star[0])
    total = field.zero
    for i, z in enumerate(pa.zeta):
        total = field.add(total, field.mul(field.mul(eta[d - i], eta_star[d - i]), z))
    return total


def validate_parameter_array(pa: ParameterArray, field: Field) -> ValidationResult:
    """Check admissibility conditions (i)-(iii); never raises for invalid data."""
    pa.check_shape()
    failures: List[Tuple[str, str]] = []
    vacuous: List[str] = []
    d = pa.d

    theta_ok = _all_distinct(pa.theta)
    theta_star_ok = _all_distinct(pa.theta_star)
    if not theta_ok:
        failures.append((COND_THETA_DISTINCT, "theta values are not pairwise distinct"))
    if not theta_star_ok:
        failures.append(
            (COND_THETA_STAR_DISTINCT, "theta_star values are not pairwise distinct")
        )

    if pa.zeta[0] != field.one:
        failures.append((COND_ZETA0, f"zeta_0 = {field.format(pa.zeta[0])}, expected 1"))
    if not pa.zeta[d]:
        failures.append((COND_ZETAD, "zeta_d = 0"))
    if theta_ok and theta_star_ok:
        s = admissibility_sum(field, pa)
        if not s:
            failures.append((COND_SUM, "weighted zeta sum vanishes"))

    if d <= 2:
        vacuous.append(COND_BETA)
    elif theta_ok and theta_star_ok:
        ratios = _ratio_family(field, pa.theta) + _ratio_family(field, pa.theta_star)
        if any(r != ratios[0] for r in ratios[1:]):
            failures.append(
                (COND_BETA, "ratio families are not constant and equal")
            )

    return ValidationResult(passed=not failures, failures=failures, vacuous=vacuous)


def _violated_beta_guard(field: Field, d: int, beta) -> bool:
    """Whether beta zeroes beta+1, beta (d >= 4) or beta^2+beta-1 (d = 5).

    Such a beta repeats an eigenvalue: under the beta recurrence these
    factors divide x_3 - x_0, x_4 - x_0 and x_5 - x_0 respectively.  Testing
    it first makes a bad draw cost one scalar instead of two lists.
    """
    return (
        not field.add(beta, field.one)
        or (d >= 4 and not beta)
        or (d == 5 and not field.sub(field.add(field.mul(beta, beta), beta), field.one))
    )


def _eigenvalue_lists(sampler: Sampler, d: int, beta) -> Optional[Tuple[list, list]]:
    """theta and theta_star: min(3, d + 1) distinct draws each, for d >= 3
    extended by x_{i+1} = x_{i-2} + (beta+1)(x_i - x_{i-1}); None if an
    extension repeats a value.  Extending draws nothing, so both starts may
    be drawn first."""
    field = sampler.field
    lists = (sampler.distinct(min(3, d + 1)), sampler.distinct(min(3, d + 1)))
    if d >= 3:
        bp1 = field.add(beta, field.one)
        for xs in lists:
            while len(xs) < d + 1:
                nxt = field.add(xs[-3], field.mul(bp1, field.sub(xs[-1], xs[-2])))
                if nxt in xs:
                    return None
                xs.append(nxt)
    return lists


def random_admissible_context(d: int, field: Field, seed: int) -> ParameterArray:
    """Rejection-sample an evaluation point, (theta, theta_star, [1, y_1..y_d]),
    whose lists pass every guard; deterministic per seed.

    For d >= 3 a guarded beta is drawn first and both eigenvalue lists are
    extended by the three-term recurrence it induces.  A field with fewer
    than d + 1 elements raises FieldTooSmallError before any draw.
    """
    require_capacity(field, d + 1)
    sampler = Sampler(field, seed)
    for _ in range(MAX_ATTEMPTS):
        beta = None
        if d >= 3:
            beta = sampler.scalar()
            if _violated_beta_guard(field, d, beta):
                continue
        lists = _eigenvalue_lists(sampler, d, beta)
        if lists is None:
            continue
        return ParameterArray(d, *lists, [field.one] + [sampler.scalar() for _ in range(d)])
    raise ContextError(
        f"no admissible context found after {MAX_ATTEMPTS} attempts"
    )


def random_valid_parameter_array(d: int, field: Field, seed: int) -> ParameterArray:
    """Rejection-sample a parameter array passing the full validator; a field
    with fewer than d + 1 elements raises FieldTooSmallError before any draw,
    and so does one with fewer than 3 at d = 1: condition (ii) needs
    zeta_1 not in {0, -(theta_0 - theta_1)(theta*_0 - theta*_1)}."""
    require_capacity(field, 3 if d == 1 else d + 1)
    sampler = Sampler(field, seed)
    for _ in range(MAX_ATTEMPTS):
        beta = sampler.scalar() if d >= 3 else None
        lists = _eigenvalue_lists(sampler, d, beta)
        if lists is None:
            continue
        zeta = [field.one] + [sampler.scalar() for _ in range(d)]
        pa = ParameterArray(d, *lists, zeta)
        if validate_parameter_array(pa, field).passed:
            return pa
    raise ContextError(
        f"no valid parameter array found after {MAX_ATTEMPTS} attempts"
    )
