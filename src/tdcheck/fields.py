"""Exact coefficient fields and reproducible random sampling.

Two fields are supported behind one small protocol: arbitrary-precision
rationals (elements are `fractions.Fraction`, always normalized) and prime
fields F_p (elements are ints in [0, p)).  Everything downstream is written
against this protocol so every check can run either bit-exactly over the
rationals or fast over a large prime field.

Elements are canonical: what a field method, `Matrix.apply` or the image
mod p returns is a normalized Fraction or an int in [0, p), so `==` is
equality and truthiness is the zero test.

Matrices are held in the field's integer form (see `linalg.Matrix`): integer
rows over one positive denominator.  Over Q the form is in lowest terms (the
gcd of the denominator and every entry is 1); over F_p the rows are the
residues and the denominator is 1.  `mat_mul` multiplies integer rows through
one sparse kernel for both fields; `to_ints` clears the denominators of rows
assembled from scalars (integer rows it takes as they are), and the
remaining hooks (`ratio`, `from_ints`, `shrink`, `primitive`) serve
linalg's integer kernels, the scaled rank factors among them.

Randomness comes from splitmix64, chosen because it is tiny, well known and
trivially reproducible across platforms; the algorithm identifier is recorded
in reports.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Union

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

    def __init__(self, seed: int):
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


DIGIT_LIMIT = 4300  # int()'s default digit limit; longer rational scalars are refused
_TOO_LONG = 10**DIGIT_LIMIT

# Random rationals are integers in [-QQ_SAMPLE_BOUND, QQ_SAMPLE_BOUND]; small
# values keep exact arithmetic in deep products manageable.
QQ_SAMPLE_BOUND = 1000


class Rationals:
    """The field of rationals.  Elements are normalized `Fraction`s."""

    kind = "qq"

    def __init__(self):
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

    def random(self, rng: SplitMix64) -> Fraction:
        b = QQ_SAMPLE_BOUND
        return Fraction(rng.randrange(2 * b + 1) - b)

    def capacity(self) -> int:
        """Number of values random() can produce (sampling universe size)."""
        return 2 * QQ_SAMPLE_BOUND + 1

    def format(self, a: Fraction) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text: str) -> Fraction:
        # refused unread if longer than DIGIT_LIMIT or with a five-digit
        # exponent (zero's too), so Fraction never builds 10 ** exponent
        text = text.strip()
        exp = text.lower().partition("e")[2].lstrip("+-0_")
        x = Fraction(text) if len(text) <= DIGIT_LIMIT and len(exp) < 5 else None
        if x is None or max(abs(x.numerator), x.denominator) >= _TOO_LONG:
            raise FieldError(f"scalar {text[:24]!r} has more than {DIGIT_LIMIT} digits")
        return x

    # Integer form.  mat_mul multiplies the integer rows of two forms: the
    # product's denominator is the product of theirs, and Matrix.of_ints
    # reduces the pair to lowest terms.  to_ints clears the denominators of
    # rows assembled from scalars, from_ints reads an integer over a
    # denominator back as an element, ratio splits a scalar into
    # numerator and denominator, inv_ratio does that for den / num (num not
    # 0), shrink canonicalizes an echelon step's multiplier, a complete
    # echelon residual or a rank-factor row (nothing to do over the
    # rationals), and primitive scales a vector to the canonical integer
    # representative of its line: content 1 and positive at piv.
    def mat_mul(self, rows_a, rows_b):
        return _int_mat_mul(rows_a, rows_b)

    def to_ints(self, rows):
        return _to_int_rows(rows)

    def from_ints(self, n: int, den: int) -> Fraction:
        return Fraction(n, den)

    def ratio(self, a: Fraction):
        return a.numerator, a.denominator

    def inv_ratio(self, num: int, den: int):
        return (den, num) if num > 0 else (-den, -num)

    def shrink(self, v):
        return v

    def primitive(self, v, piv: int):
        g = gcd(*v)
        if v[piv] < 0:
            g = -g
        return v if g == 1 else [x // g for x in v]


def _to_int_rows(rows):
    """Integer form of a Fraction matrix: (int rows, lcm of the denominators),
    in lowest terms."""
    den = lcm(*(x.denominator for row in rows for x in row))
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _int_mat_mul(rows_a, rows_b):
    """Product of two integer matrices, one accumulator row per left row.

    Each nonzero x at column k of a left row adds x times each nonzero
    (j, y) of right row k into the accumulator, so the work is the number of
    nonzero products, not the shapes' n*k*m: the operators and idempotents
    of the band checks are mostly zeros.  Both fields multiply through here.
    """
    width = len(rows_b[0]) if rows_b else 0
    cols, inner = range(width), range(len(rows_b))
    nonzeros = [list(zip(compress(cols, r), filter(None, r))) for r in rows_b]
    out = []
    for row in rows_a:
        acc = [0] * width
        for k in compress(inner, row):
            x = row[k]
            for j, y in nonzeros[k]:
                acc[j] += x * y
        out.append(acc)
    return out


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

    def random(self, rng: SplitMix64) -> int:
        return rng.randrange(self.p)

    def capacity(self) -> int:
        return self.p

    def format(self, a: int) -> str:
        return str(a % self.p)

    def parse(self, text: str) -> int:
        # refused unread if longer than DIGIT_LIMIT, as over the rationals
        text = text.strip()
        if len(text) > DIGIT_LIMIT:
            raise FieldError(f"scalar {text[:24]!r} has more than {DIGIT_LIMIT} digits")
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    # Integer form (see Rationals): the residues over 1.  mat_mul reduces
    # each sum mod p, so products stay residues; nothing is cleared, and the
    # rows of a form are its elements.  The echelon's steps leave entries
    # unreduced; shrink reduces each step's multiplier and then the residual
    # (or a rank-factor row) mod p once, and primitive (the canonical
    # representative of a line has 1 at piv) scales and reduces a new row or
    # a back-substituted one.
    def mat_mul(self, rows_a, rows_b):
        p = self.p
        return [[s % p for s in acc] for acc in _int_mat_mul(rows_a, rows_b)]

    def to_ints(self, rows):
        return rows, 1

    def from_ints(self, n: int, den: int) -> int:
        return n % self.p

    def ratio(self, a: int):
        return a, 1

    def inv_ratio(self, num: int, den: int):
        return den * self.inv(num) % self.p, 1

    def shrink(self, v):
        p = self.p
        return [x % p for x in v]

    def primitive(self, v, piv: int):
        p = self.p
        inv = pow(v[piv], -1, p)
        return [x * inv % p for x in v]


Field = Union[Rationals, PrimeField]


def require_capacity(field: Field, n: int) -> None:
    """Raise FieldTooSmallError unless random() can draw n distinct values."""
    cap = field.capacity()
    if cap < n:
        raise FieldTooSmallError(f"field too small: need {n} distinct values, {cap} available")


class Sampler:
    """Stateful scalar sampler bound to one field and one PRNG stream.

    Single-owner: use one sampler per task.  The same field, the same seed
    and the same sequence of requests always reproduce the same scalars.
    """

    def __init__(self, field: Field, seed: int):
        self.field = field
        self.rng = SplitMix64(seed)

    def scalar(self) -> Scalar:
        return self.field.random(self.rng)

    def distinct(self, n: int) -> list:
        """n pairwise-distinct scalars."""
        if n < 1:
            raise ValueError("need n >= 1")
        require_capacity(self.field, n)
        out: dict = {}  # insertion-ordered; a repeated draw changes nothing
        while len(out) < n:
            out[self.scalar()] = None
        return list(out)


def field_echo(field: Field) -> dict:
    """Provenance record for reports: field kind, prime and rng algorithm."""
    d = {"kind": field.kind, "rng": RNG_ALGORITHM}
    if field.kind == "fp":
        d["prime"] = field.p
    return d
