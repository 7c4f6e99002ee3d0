import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcheck.fields import FieldSpec, Rationals
from tdcheck.params import derive_context, random_admissible_context
from tdcheck.realization import realize
from tdcheck.report import failed
from tdcheck import zigzag
from tdcheck.cli import main
from tdcheck.tables import load_table
from tdcheck.zigzag import (
    EnumerationBudgetError,
    WordError,
    enumerate_convex_spanning,
    enumerate_feasible,
    enumerate_zz,
    feasible_rank_test,
    is_alternating,
    is_between,
    is_zz,
    word_image,
    word_text,
)

QQ = Rationals()


# ---------------------------------------------------------------------------
# independent reference implementations (kept deliberately naive)


def letter_key(letter):
    return (letter[1], letter[0])  # ascending index, nonstarred first


def word_key(word):
    return (len(word), tuple(letter_key(u) for u in word))  # shortlex


def ref_between(r, i, j):
    return (i >= r and r > j) or (i <= r and r < j)


def ref_is_zz(word):
    n = len(word)
    for i in range(2, n):  # u_i vs (u_{i-1}, u_{i+1}), 1-based i in 2..n-1
        u, v, w = word[i - 1], word[i - 2], word[i]
        if ref_between(u[1], v[1], w[1]):
            return False
    for i in range(3, n):
        outer_l, outer_r = word[i - 3], word[i]
        first = ref_between(word[i - 2][1], outer_l[1], outer_r[1])
        second = ref_between(word[i - 1][1], outer_l[1], outer_r[1])
        if first and second:
            return False
    return True


def ref_feasible(d):
    found = []
    indices = list(range(1, d + 1))
    for extra in range(d + 1):
        for perm in itertools.permutations(indices, extra):
            word = [(True, 0)]  # builds right to left from the final e*0
            for idx in reversed(perm):
                word.insert(0, (not word[0][0], idx))
            if ref_is_zz(tuple(word)):
                found.append(tuple(word))
    return sorted(found, key=word_key)


# ---------------------------------------------------------------------------
# betweenness and the zigzag predicate


def test_between_examples():
    assert not is_between(1, 2, 3)
    assert is_between(2, 3, 0)
    assert is_between(1, 1, 3)  # r = i with j > i
    assert not is_between(3, 1, 3)


@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
)
@settings(deadline=None)
def test_between_matches_reference(r, i, j):
    assert is_between(r, i, j) == ref_between(r, i, j)


def test_is_zz_examples():
    assert is_zz(((True, 0),))  # e*0
    assert is_zz(((False, 2), (True, 1), (False, 3), (True, 0)))  # e2 e*1 e3 e*0
    assert not is_zz(((False, 1), (True, 2), (False, 1), (True, 0)))  # e1 e*2 e1 e*0


def test_is_zz_rejects_non_alternating():
    with pytest.raises(WordError):
        is_zz(((False, 1), (False, 2)))


@st.composite
def alternating_words(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    start = draw(st.booleans())
    return tuple(
        ((start if k % 2 == 0 else not start), draw(st.integers(0, 5)))
        for k in range(n)
    )


@given(alternating_words())
@settings(max_examples=500, deadline=None)
def test_is_zz_matches_reference(word):
    assert is_zz(word) == ref_is_zz(word)


def test_word_text_examples():
    assert word_text(()) == "1"
    assert word_text(((True, 0),)) == "e*0"
    assert word_text(((False, 2), (True, 1), (False, 3), (True, 0))) == "e2 e*1 e3 e*0"


# ---------------------------------------------------------------------------
# feasible enumeration


FEASIBLE_GOLDEN = {
    0: ["e*0"],
    1: ["e*0", "e1 e*0"],
    2: ["e*0", "e1 e*0", "e2 e*0", "e*1 e2 e*0"],
    3: [
        "e*0",
        "e1 e*0",
        "e2 e*0",
        "e3 e*0",
        "e*1 e2 e*0",
        "e*1 e3 e*0",
        "e*2 e3 e*0",
        "e2 e*1 e3 e*0",
    ],
    4: [
        "e*0",
        "e1 e*0",
        "e2 e*0",
        "e3 e*0",
        "e4 e*0",
        "e*1 e2 e*0",
        "e*1 e3 e*0",
        "e*1 e4 e*0",
        "e*2 e3 e*0",
        "e*2 e4 e*0",
        "e*3 e4 e*0",
        "e2 e*1 e3 e*0",
        "e2 e*1 e4 e*0",
        "e3 e*1 e4 e*0",
        "e3 e*2 e4 e*0",
        "e*2 e3 e*1 e4 e*0",
    ],
}


@pytest.mark.parametrize("d", sorted(FEASIBLE_GOLDEN))
def test_feasible_words_match_published_table(d):
    assert [word_text(w) for w in enumerate_feasible(d)] == FEASIBLE_GOLDEN[d]


@pytest.mark.parametrize("d", range(6))
def test_feasible_counts_are_powers_of_two(d):
    assert len(enumerate_feasible(d)) == 2**d


@pytest.mark.parametrize("d", range(7))
def test_feasible_matches_bruteforce(d):
    assert enumerate_feasible(d) == ref_feasible(d)


def test_feasible_words_satisfy_their_defining_predicates():
    for d in range(6):
        for w in enumerate_feasible(d):
            assert w, "feasible words are nontrivial"
            assert is_alternating(w)
            assert is_zz(w)
            assert w[-1] == (True, 0)
            idxs = [u[1] for u in w]
            assert len(set(idxs)) == len(idxs)


# ---------------------------------------------------------------------------
# general zigzag enumeration


def test_enumerate_zz_d0():
    words = enumerate_zz(0, exclude_r=0, exclude_s=0)
    assert words == [()]  # only the trivial word survives


def test_enumerate_zz_d1_small_alphabet():
    # excluding e0 and e*1 leaves the alternating words over {e1, e*0};
    # shortlex with letters ordered by (index, starred) puts e*0 before e1
    words = enumerate_zz(1, exclude_r=0, exclude_s=1, max_len=3)
    texts = [word_text(w) for w in words]
    assert texts == [
        "1",
        "e*0",
        "e1",
        "e*0 e1",
        "e1 e*0",
        "e*0 e1 e*0",
        "e1 e*0 e1",
    ]


@st.composite
def zz_cases(draw):
    d = draw(st.integers(0, 3))
    r, s = draw(st.integers(0, d)), draw(st.integers(0, d))
    return d, r, s, draw(st.integers(-2, 5))


@given(zz_cases())
@example((1, 0, 1, -1))  # max_len below 0 still yields the trivial word
@example((2, 0, 2, 4))
@settings(max_examples=80, deadline=None)
def test_enumerate_zz_matches_bruteforce_filter(case):
    d, r, s, cap = case
    letters = [(False, i) for i in range(d + 1) if i != r] + [
        (True, i) for i in range(d + 1) if i != s
    ]
    expected = [()]
    for n in range(1, cap + 1):
        for combo in itertools.product(letters, repeat=n):
            if is_alternating(combo) and ref_is_zz(combo):
                expected.append(combo)
    expected.sort(key=word_key)
    assert enumerate_zz(d, r, s, max_len=cap) == expected


def test_enumerate_zz_deterministic():
    a = enumerate_zz(3, 0, 3)
    b = enumerate_zz(3, 0, 3)
    assert a == b


def test_enumerate_zz_budget(monkeypatch):
    monkeypatch.setattr(zigzag, "MAX_ZZ_WORDS", 1000)
    with pytest.raises(EnumerationBudgetError):
        enumerate_zz(5, 0, 5, max_len=12)


@pytest.mark.parametrize("case", [(3, 0, 3, None), (2, 1, 0, 7), (4, 2, 2, 5)])
def test_enumerate_zz_budget_is_exact(case, monkeypatch):
    words = enumerate_zz(*case)
    for budget, total in (("MAX_ZZ_WORDS", len(words)), ("MAX_ZZ_LETTERS", sum(map(len, words)))):
        monkeypatch.setattr(zigzag, budget, total)
        assert enumerate_zz(*case) == words
        monkeypatch.setattr(zigzag, budget, total - 1)
        with pytest.raises(EnumerationBudgetError, match=budget.split("_")[-1].lower()):
            enumerate_zz(*case)
        monkeypatch.undo()


def ref_zz_level_counts(d, r, s, max_len):
    """Yield (length, words, letters) totals of the zigzag words, counted by
    their last three letters (all a new letter's conditions read)."""
    alphabet = [(False, i) for i in range(d + 1) if i != r] + [
        (True, i) for i in range(d + 1) if i != s
    ]

    @functools.lru_cache(maxsize=None)
    def step(t):
        vs = (t + (u,) for u in alphabet)
        return [v[-3:] for v in vs if is_alternating(v) and ref_is_zz(v)]

    tails, words, letters = {(): 1}, 1, 0
    for k in range(1, max_len + 1):
        grown = {}
        for t, n in tails.items():
            for v in step(t):
                grown[v] = grown.get(v, 0) + n
        if not grown:
            return
        words += sum(grown.values())
        letters += k * sum(grown.values())
        yield k, words, letters
        tails = grown


def test_letter_budget_admits_every_run_within_the_word_budget():
    # every run whose words stay under 1,000 letters and number at most
    # MAX_ZZ_WORDS fits the letter budget; the largest is d = 2, max_len 499
    largest = (0, None)
    for d in range(zigzag.MAX_ZZ_D + 1):
        for r, s in itertools.product(range(d + 1), repeat=2):
            for k, words, letters in ref_zz_level_counts(d, r, s, 999):
                if words > zigzag.MAX_ZZ_WORDS:
                    break
                largest = max(largest, (letters, (d, k)))
    assert largest == (166_167_000, (2, 499))
    assert largest[0] <= zigzag.MAX_ZZ_LETTERS


def test_enumerate_zz_ten_million_letters():
    # 80,401 words of up to 200 letters: over MAX_ZZ_WORDS * (2 * MAX_ZZ_D + 2)
    words = enumerate_zz(2, 2, 2, max_len=200)
    assert (len(words), sum(map(len, words))) == (80_401, 10_746_800)
    assert words[:3] == [(), ((False, 0),), ((True, 0),)]


def test_enumerate_zz_long_words_give_a_report(capsys):
    # deeper than the default recursion limit: a report, never a traceback
    code = main(["zz", "enumerate", "--d", "1", "--max-len", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["checks"][0]["detail"].startswith("2001 words;")


def test_enumerate_zz_letter_budget_is_a_usage_error(capsys):
    # 2 words per length at d = 1: the letter budget fires near length 13,000,
    # long before the word budget, from counts taken before any word is built
    code = main(["zz", "enumerate", "--d", "1", "--max-len", "1000000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (
        f"tdcheck: more than {zigzag.MAX_ZZ_LETTERS} letters in the words of "
        "length <= 1000000\n"
    )


def test_enumeration_diameter_caps():
    with pytest.raises(EnumerationBudgetError):
        enumerate_feasible(13)
    with pytest.raises(EnumerationBudgetError):
        enumerate_zz(7, 0, 0)


def test_enumerate_zz_validates_excludes():
    with pytest.raises(WordError):
        enumerate_zz(2, 3, 0)


# ---------------------------------------------------------------------------
# convexity


def is_convex(seq):
    """Differences never increase: k_{i-1} - k_i >= k_i - k_{i+1} inside."""
    return all(seq[i - 1] - seq[i] >= seq[i] - seq[i + 1] for i in range(1, len(seq) - 1))


def test_is_convex_examples():
    assert is_convex([3, 1, 0])  # gaps 2, 1
    assert not is_convex([3, 2, 0])  # gaps 1, 2
    assert is_convex([3, 2, 1, 0])
    assert is_convex([5, 0])  # no interior point


@pytest.mark.parametrize(
    "r,expected",
    [
        (1, [()]),
        (2, [(), (1,)]),
        (3, [(), (1,), (2, 1)]),
    ],
)
def test_convex_spanning_goldens(r, expected):
    assert enumerate_convex_spanning(r) == expected


def test_convex_spanning_matches_filter():
    for r in range(1, 9):
        expected = []
        for m in range(r):
            for combo in itertools.combinations(range(1, r), m):
                seq = tuple(sorted(combo, reverse=True))
                if is_convex((r,) + seq + (0,)):
                    expected.append(seq)
        expected.sort(key=lambda s: (len(s), s))
        assert enumerate_convex_spanning(r) == expected


def test_convex_spanning_counts_partitions():
    # one sequence per partition of r into its (nonincreasing) gaps
    assert len(enumerate_convex_spanning(16)) == 231
    assert len(enumerate_convex_spanning(30)) == 5604


def test_convex_spanning_budget(monkeypatch):
    monkeypatch.setattr(zigzag, "MAX_CONVEX_SEQUENCES", 41)
    assert len(enumerate_convex_spanning(9)) == 30
    with pytest.raises(EnumerationBudgetError):
        enumerate_convex_spanning(10)  # p(10) = 42
    with pytest.raises(EnumerationBudgetError):
        enumerate_convex_spanning(10**9)  # refused from p(r), before any walk


# ---------------------------------------------------------------------------
# rank experiment


def test_word_image_d1_hand_value():
    theta, theta_star = [Fraction(0), Fraction(1)], [Fraction(5), Fraction(2)]
    ctx = derive_context(theta, theta_star, [Fraction(7)], QQ)
    real = realize(load_table(1), ctx, QQ)
    img = word_image(real, ((False, 1), (True, 0)))  # e1 e*0
    # e1 phi = r/(th1 - th0) = r
    assert img == [Fraction(0), Fraction(1)]
    assert not failed(feasible_rank_test(real))


@pytest.mark.parametrize("d", range(6))
def test_feasible_rank_full_on_random_context(d):
    spec = FieldSpec("fp", seed=7000 + d)
    ctx = random_admissible_context(d, spec)
    real = realize(load_table(d), ctx, spec.build_field())
    bad = failed(feasible_rank_test(real))
    assert not bad, [c.detail for c in bad]


def test_feasible_rank_is_stable_over_rationals():
    # generic-rank stability: repeated admissible rational contexts keep rank 2^d
    d = 2
    for seed in range(20):
        spec = FieldSpec("qq", seed=seed)
        ctx = random_admissible_context(d, spec)
        real = realize(load_table(d), ctx, QQ)
        assert not failed(feasible_rank_test(real))
