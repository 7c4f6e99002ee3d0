"""Exact coefficient fields and reproducible random sampling.

Two fields are supported behind one small protocol: arbitrary-precision
rationals (elements are `fractions.Fraction`, always normalized) and prime
fields F_p (elements are ints in [0, p)).  Everything downstream is written
against this protocol so every check can run either bit-exactly over the
rationals or fast over a large prime field.

Randomness comes from splitmix64, chosen because it is tiny, well known and
trivially reproducible across platforms; the algorithm identifier is recorded
in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Union

Scalar = Union[Fraction, int]

_U64 = (1 << 64) - 1

# Largest prime below 2**62 (= 2**62 - 57).  Products of two residues stay
# within 128 bits, which Python big ints handle without strain.
DEFAULT_PRIME = 4611686018427387847

RNG_ALGORITHM = "splitmix64"

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # witnesses above are exact below this


class FieldError(ValueError):
    """Bad field construction or a disallowed field operation."""


class FieldTooSmallError(FieldError):
    """The field cannot supply the requested number of distinct values."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below ~3.3e24."""
    if n >= _MR_LIMIT:
        raise FieldError(f"primality check only supports n < {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SplitMix64:
    """Seeded 64-bit PRNG (splitmix64).  One instance per task, never shared."""

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int):
        self.seed = seed & _U64
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return (z ^ (z >> 31)) & _U64

    def randrange(self, n: int) -> int:
        """Uniform-enough draw in [0, n): next_u64() mod n (n << 2**64)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: one splitmix64 output of master xor (index+1)."""
    return SplitMix64((master ^ (index + 1)) & _U64).next_u64()


class Rationals:
    """The field of rationals.  Elements are normalized `Fraction`s.

    `sample_bound` limits random draws to integers in [-bound, bound]; small
    values keep exact arithmetic in deep products manageable.
    """

    kind = "qq"

    def __init__(self, sample_bound: int = 1000):
        if sample_bound < 1:
            raise FieldError("sample_bound must be >= 1")
        self.sample_bound = sample_bound
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("qq")

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a / b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return 1 / a

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng: SplitMix64) -> Fraction:
        b = self.sample_bound
        return Fraction(rng.randrange(2 * b + 1) - b)

    def capacity(self) -> Optional[int]:
        """Number of values random() can produce (sampling universe size)."""
        return 2 * self.sample_bound + 1

    def format(self, a: Fraction) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text: str) -> Fraction:
        return Fraction(text.strip())

    # Matrix kernel: clear denominators once per operand, multiply integer
    # matrices, re-normalize per entry.  Much faster than Fraction dot sums.
    def mat_mul(self, rows_a, rows_b):
        na, nb = _to_int_rows(rows_a), _to_int_rows(rows_b)
        ia, da = na
        ib, db = nb
        cols_b = list(zip(*ib))
        den = da * db
        return [
            [Fraction(s, den) for s in (sum(map(_mul, row, col)) for col in cols_b)]
            for row in ia
        ]

    def dot(self, xs, ys) -> Fraction:
        return sum(map(_mul, xs, ys), self.zero)


def _mul(x, y):
    return x * y


def _to_int_rows(rows):
    """Common-denominator form of a Fraction matrix: (int rows, denominator)."""
    den = lcm(*(x.denominator for row in rows for x in row))
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class PrimeField:
    """The field F_p.  Elements are ints in [0, p); p must be prime."""

    kind = "fp"

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("fp", self.p))

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def random(self, rng: SplitMix64) -> int:
        return rng.randrange(self.p)

    def capacity(self) -> Optional[int]:
        return self.p

    def format(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, text: str) -> int:
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def mat_mul(self, rows_a, rows_b):
        p = self.p
        cols_b = list(zip(*rows_b))
        return [
            [sum(map(_mul, row, col)) % p for col in cols_b] for row in rows_a
        ]

    def dot(self, xs, ys) -> int:
        return sum(map(_mul, xs, ys)) % self.p


Field = Union[Rationals, PrimeField]


@dataclass(frozen=True)
class FieldSpec:
    """A reproducible field choice: kind ('qq' or 'fp'), prime, 64-bit seed."""

    kind: str
    prime: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("qq", "fp"):
            raise FieldError(f"unknown field kind {self.kind!r}")
        if self.kind == "fp":
            p = self.prime if self.prime is not None else DEFAULT_PRIME
            if not is_prime(p):
                raise FieldError(f"{p} is not prime")
            object.__setattr__(self, "prime", p)
        elif self.prime is not None:
            raise FieldError("prime is only meaningful for kind 'fp'")

    def build_field(self) -> Field:
        if self.kind == "qq":
            return Rationals()
        return PrimeField(self.prime)

    def rng(self) -> SplitMix64:
        return SplitMix64(self.seed)

    def with_seed(self, seed: int) -> "FieldSpec":
        return FieldSpec(self.kind, self.prime, seed)


class Sampler:
    """Stateful scalar sampler bound to one field and one PRNG stream.

    Single-owner: use one sampler per task.  The same FieldSpec and the same
    sequence of requests always reproduce the same scalars.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.field = spec.build_field()
        self.rng = spec.rng()

    def scalar(self) -> Scalar:
        return self.field.random(self.rng)

    def distinct(self, n: int, forbidden: Iterable[Scalar] = ()) -> list:
        """n pairwise-distinct scalars avoiding `forbidden`."""
        if n < 1:
            raise ValueError("need n >= 1")
        f = self.field
        banned = set(forbidden)
        cap = f.capacity()
        if cap is not None and cap - len(banned) < n:
            raise FieldTooSmallError(
                f"field too small: need {n} distinct values, "
                f"{cap - len(banned)} available"
            )
        out: list = []
        seen = set(banned)
        while len(out) < n:
            x = self.scalar()
            if x in seen:
                continue
            seen.add(x)
            out.append(x)
        return out


def field_echo(field: Field) -> dict:
    """Provenance record for reports: field kind, prime and rng algorithm."""
    d = {"kind": field.kind, "rng": RNG_ALGORITHM}
    if field.kind == "fp":
        d["prime"] = field.p
    return d
