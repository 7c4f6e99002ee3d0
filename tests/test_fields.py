from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcheck.fields import (
    DEFAULT_PRIME,
    FieldTooSmallError,
    PrimeField,
    Rationals,
    Sampler,
    SplitMix64,
    derive_seed,
    field_echo,
    is_prime,
)
from tdcheck.linalg import EchelonBasis, Matrix, restrict

from support import elements

QQ = Rationals()
F101 = PrimeField(101)


def test_splitmix64_reference_values():
    # published test vectors for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_default_prime_is_prime_below_2_62():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME < 2**62
    # nothing prime strictly between it and 2**62
    assert all(not is_prime(n) for n in range(DEFAULT_PRIME + 1, 2**62))


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 101}
    for n in range(2, 120):
        assert is_prime(n) == (n in primes or all(n % p for p in range(2, n)))
    assert not is_prime(1)
    assert not is_prime(0)


def test_sample_distinct_deterministic():
    fp = PrimeField()
    a = Sampler(fp, 99).distinct(5)
    b = Sampler(fp, 99).distinct(5)
    assert a == b
    assert len(set(a)) == 5


def test_sample_distinct_field_too_small():
    with pytest.raises(FieldTooSmallError):
        Sampler(PrimeField(5), 0).distinct(6)


def test_sample_distinct_needs_positive_n():
    with pytest.raises(ValueError):
        Sampler(QQ, 0).distinct(0)


def test_field_ops_examples():
    assert QQ.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert F101.mul(50, 50) == 76  # 2500 mod 101
    for x in (Fraction(7, 3), Fraction(-2)):
        assert QQ.div(x, x) == 1
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        F101.div(3, 0)


@pytest.mark.parametrize("f", [QQ, PrimeField()], ids=["qq", "fp"])
def test_field_axioms_on_random_triples(f):
    s = Sampler(f, 2024)
    for _ in range(1000):
        a, b, c = s.scalar(), s.scalar(), s.scalar()
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
        if a:
            assert f.mul(a, f.inv(a)) == f.one


def test_rational_normalization_idempotent():
    s = Sampler(QQ, 5)
    for _ in range(200):
        num, den = s.scalar(), s.scalar()
        if den == 0:
            continue
        x = Fraction(num, den)
        again = Fraction(x.numerator, x.denominator)
        assert (again.numerator, again.denominator) == (x.numerator, x.denominator)
        assert x.denominator > 0


def test_prime_field_agrees_with_rationals_mod_p():
    p = 101
    fp = PrimeField(p)
    s = Sampler(QQ, 31)

    def reduce(x: Fraction) -> int:
        return x.numerator * pow(x.denominator, -1, p) % p

    for _ in range(300):
        a, b = s.scalar(), s.scalar()
        ops = ["add", "sub", "mul"] + (["div"] if b.numerator % p != 0 else [])
        for op in ops:
            want = getattr(fp, op)(reduce(a), reduce(b))
            assert reduce(getattr(QQ, op)(a, b)) == want


def test_prime_field_element_range():
    s = Sampler(F101, 8)
    for _ in range(500):
        assert 0 <= s.scalar() < 101


def is_canonical(f, x) -> bool:
    """The element contract of tdcheck.fields: a Fraction over Q (normalized
    by construction), an int in [0, p) over F_p."""
    if f.kind == "qq":
        return type(x) is Fraction
    return type(x) is int and 0 <= x < f.p


@pytest.mark.parametrize("f", [QQ, PrimeField(7), PrimeField()], ids=["qq", "f7", "fp"])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 5),
    ints=st.tuples(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)),
)
def test_every_result_is_canonical(f, seed, n, ints):
    # == and truthiness decide equality and zero everywhere, so every value
    # the fields and linalg hand back must be the canonical representative
    s = Sampler(f, seed)
    den = 1 + abs(ints[1]) % 6  # a unit in every field tested

    def entry():
        # about a third zeros; over Q the divisions give proper fractions
        if not s.rng.randrange(3):
            return f.zero
        return f.div(s.scalar(), f.from_int(1 + s.rng.randrange(6)))

    a, b = s.scalar(), s.scalar()
    out = [a, b, f.from_int(ints[0]), f.from_int(ints[1]), f.parse(str(ints[0])),
           f.parse(f"{ints[0]}/{den}"), f.parse(f.format(entry()))]
    out += [f.add(a, b), f.sub(a, b), f.mul(a, b), f.neg(a), f.neg(f.zero)]
    out += [f.div(a, b), f.inv(b)] if b else []
    m = Matrix(f, [[entry() for _ in range(n)] for _ in range(n)])
    m2 = Matrix(f, [[entry() for _ in range(n)] for _ in range(n)])
    vec = [entry() for _ in range(n)]
    krylov, v = EchelonBasis(f, n), vec  # span of vec, m vec, ...: invariant
    while krylov.add(v):
        v = m.apply(v)
    echelon = m.echelon()
    derived = [m * m2, m.shift(a), m.transpose(), Matrix.identity(f, n),
               restrict(m, krylov)]
    for ints, den in [mat.form for mat in derived + [m]] + [echelon.form, krylov.form]:
        # integer forms in lowest terms; over F_p, residues over 1
        assert den > 0 and gcd(den, *(x for row in ints for x in row)) == 1
        assert f.kind == "qq" or (den == 1 and all(0 <= x < f.p for row in ints for x in row))
    matrices = [elements(x) for x in derived + [echelon, krylov]]
    last = elements(m)[-1]  # in the row space: its coordinates are its entries at the pivots
    out += m.apply(vec) + [last[p] for p in echelon.pivots]
    out += [x for rows in matrices for row in rows for x in row]
    assert all(is_canonical(f, x) for x in out)


def test_field_echo_records_rng():
    assert field_echo(PrimeField()) == {
        "kind": "fp",
        "prime": DEFAULT_PRIME,
        "rng": "splitmix64",
    }
    assert field_echo(QQ) == {"kind": "qq", "rng": "splitmix64"}


def test_derive_seed_is_stable_and_spread():
    seeds = [derive_seed(7, i) for i in range(50)]
    assert seeds == [derive_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50


def test_format_parse_roundtrip():
    for x in (Fraction(3, 7), Fraction(-5), Fraction(0), Fraction(22, 4)):
        assert QQ.parse(QQ.format(x)) == x
    assert QQ.format(Fraction(3, 7)) == "3/7"
    assert QQ.format(Fraction(-5)) == "-5"
    assert F101.parse("205") == 3
    assert F101.format(F101.parse("1/2")) == str(pow(2, -1, 101))
