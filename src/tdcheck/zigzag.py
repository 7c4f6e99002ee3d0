"""Alternating words in the standard generators and zigzag combinatorics.

A letter is a starred or nonstarred generator with an index in 0..d, written
"e2" or "e*1"; words alternate starred/nonstarred letters.  An index r is
*between* the ordered pair (i, j) when i >= r > j or i <= r < j.  A word
u_1 ... u_n is zigzag when

  (i)  u_i is not between (u_{i-1}, u_{i+1}) for 2 <= i <= n-1, and
  (ii) at least one of u_{i-1}, u_i is not between (u_{i-2}, u_{i+1})
       for 3 <= i <= n-1,

both vacuous for short words.  The feasible words are the nontrivial zigzag
words ending in e*0 whose indices are pairwise distinct; there are 2^d of
them for d <= 5, and their images of phi in a realized module are expected
to be linearly independent.

Canonical word order is shortlex with letters compared by (index, starred):
nonstarred before starred at equal index, ascending index.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from .linalg import EchelonBasis
from .report import VerificationReport

Letter = Tuple[bool, int]  # (starred, index)
Word = Tuple[Letter, ...]

TRIVIAL: Word = ()


class WordError(ValueError):
    pass


class EnumerationBudgetError(WordError):
    """The requested enumeration exceeded its node budget."""


def letter_text(letter: Letter) -> str:
    starred, idx = letter
    return f"e*{idx}" if starred else f"e{idx}"


def word_text(word: Word) -> str:
    return " ".join(letter_text(u) for u in word) if word else "1"


_LETTER_RE = re.compile(r"^e(\*?)([0-9]+)$")


def word_from_text(text: str) -> Word:
    text = text.strip()
    if text in ("", "1"):
        return TRIVIAL
    letters = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise WordError(f"bad letter {tok!r}")
        letters.append((m.group(1) == "*", int(m.group(2))))
    return tuple(letters)


def is_alternating(word: Word) -> bool:
    return all(word[i - 1][0] != word[i][0] for i in range(1, len(word)))


def is_between(r: int, i: int, j: int) -> bool:
    """Whether r is between the ordered pair (i, j)."""
    return (i >= r > j) or (i <= r < j)


def _letter_between(u: Letter, v: Letter, w: Letter) -> bool:
    return is_between(u[1], v[1], w[1])


def _conditions_hold_at(word: Sequence[Letter], i: int) -> bool:
    """The zigzag conditions whose last letter is word[i] (0-based): (i) at
    the middle letter word[i-1] and (ii) at the pair word[i-2], word[i-1]."""
    if i >= 2 and _letter_between(word[i - 1], word[i - 2], word[i]):
        return False
    return i < 3 or not (
        _letter_between(word[i - 2], word[i - 3], word[i])
        and _letter_between(word[i - 1], word[i - 3], word[i])
    )


def is_zz(word: Word) -> bool:
    """Both zigzag conditions; raises WordError on non-alternating input."""
    if not is_alternating(word):
        raise WordError(f"word {word_text(word)!r} is not alternating")
    return all(_conditions_hold_at(word, i) for i in range(len(word)))


def letter_key(letter: Letter) -> Tuple[int, bool]:
    return (letter[1], letter[0])


def word_key(word: Word):
    return (len(word), tuple(letter_key(u) for u in word))


MAX_FEASIBLE_D = 12
MAX_ZZ_D = 6
MAX_CONVEX_SEQUENCES = 500_000


def enumerate_feasible(d: int) -> List[Word]:
    """All feasible words for diameter d, in canonical shortlex order.

    Generated by extending index-distinct zigzag suffixes leftward from the
    final e*0 (length is at most d+1); every node of that search tree is
    itself feasible, so the work is proportional to the output.
    """
    if d < 0:
        raise WordError("d must be nonnegative")
    if d > MAX_FEASIBLE_D:
        raise EnumerationBudgetError(
            f"feasible enumeration is capped at d = {MAX_FEASIBLE_D}"
        )
    out: List[Word] = []
    last: Letter = (True, 0)

    def extend(word: List[Letter], used: set):
        # word grows to the left; word[0] is the current first letter
        out.append(tuple(word))
        next_starred = not word[0][0]
        for idx in range(1, d + 1):
            if idx in used:
                continue
            candidate = [(next_starred, idx)] + word
            if is_zz(tuple(candidate)):
                used.add(idx)
                extend(candidate, used)
                used.discard(idx)

    extend([last], {0})
    out.sort(key=word_key)
    return out


def enumerate_zz(
    d: int,
    exclude_r: int,
    exclude_s: int,
    max_len: Optional[int] = None,
    include_trivial: bool = True,
    budget: int = 500_000,
) -> List[Word]:
    """Zigzag words of length <= max_len avoiding e_{exclude_r} and e*_{exclude_s}.

    max_len defaults to 2d+2 (a documented truncation: zigzag words are
    unbounded in general).  Raises EnumerationBudgetError when more than
    `budget` words would be produced.
    """
    if d > MAX_ZZ_D:
        raise EnumerationBudgetError(f"zigzag enumeration is capped at d = {MAX_ZZ_D}")
    if not 0 <= exclude_r <= d or not 0 <= exclude_s <= d:
        raise WordError("excluded indices must lie in 0..d")
    cap = 2 * d + 2 if max_len is None else max_len
    nonstar = [(False, i) for i in range(d + 1) if i != exclude_r]
    star = [(True, i) for i in range(d + 1) if i != exclude_s]
    out: List[Word] = []
    if include_trivial:
        out.append(TRIVIAL)

    count = len(out)

    def extend(word: List[Letter]):
        nonlocal count
        count += 1
        if count > budget:
            raise EnumerationBudgetError(
                f"more than {budget} words of length <= {cap}"
            )
        out.append(tuple(word))
        if len(word) >= cap:
            return
        for letter in star if not word[-1][0] else nonstar:
            word.append(letter)
            if _conditions_hold_at(word, len(word) - 1):
                extend(word)
            word.pop()

    starts = sorted(nonstar + star, key=letter_key)
    for letter in starts:
        if cap >= 1:
            extend([letter])
    out.sort(key=word_key)
    return out


def zz_counts_by_length(words: Sequence[Word]) -> dict:
    counts: dict = {}
    for w in words:
        counts[len(w)] = counts.get(len(w), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Convex spanning sequences


def is_convex(seq: Sequence[int]) -> bool:
    """Differences never increase: k_{i-1} - k_i >= k_i - k_{i+1} inside."""
    return all(
        seq[i - 1] - seq[i] >= seq[i] - seq[i + 1] for i in range(1, len(seq) - 1)
    )


def enumerate_convex_spanning(r: int) -> List[Tuple[int, ...]]:
    """All (k_1..k_m), m >= 0, with r > k_1 > ... > k_m > 0 and
    (r, k_1, ..., k_m, 0) convex; sorted by length then lexicographically.

    Only convex prefixes are extended (each gap at most the one before), so
    the work is proportional to the output: one sequence per partition of r
    into its gaps.  Raises EnumerationBudgetError above MAX_CONVEX_SEQUENCES.
    """
    if r < 1:
        raise WordError("r must be at least 1")
    out: List[Tuple[int, ...]] = []

    def extend(seq: List[int], low: int, gap: int):
        # low is the last entry and gap the last difference (r for the bare r)
        if low <= gap:  # the closing gap low - 0 keeps the sequence convex
            if len(out) == MAX_CONVEX_SEQUENCES:
                raise EnumerationBudgetError(
                    f"more than {MAX_CONVEX_SEQUENCES} convex sequences for r = {r}"
                )
            out.append(tuple(seq))
        # largest gaps first: the search reaches the budget before it gets deep
        for nxt in range(max(low - gap, 1), low):
            seq.append(nxt)
            extend(seq, nxt, low - nxt)
            seq.pop()

    extend([], r, r)
    out.sort(key=lambda s: (len(s), s))
    return out


# ---------------------------------------------------------------------------
# Rank experiment


def word_image(real, word: Word) -> list:
    """The vector (word).phi in a realized module, multiplying right to left."""
    vec = real.basis_vector(real.basis[0])
    for starred, idx in reversed(word):
        mat = real.estar[idx] if starred else real.e[idx]
        vec = mat.apply(vec)
    return vec


def feasible_rank_test(real) -> VerificationReport:
    """Exact rank of the feasible-word images of phi; expected 2^d of rank 2^d."""
    rep = real.report("zz-rank")
    d = real.d
    words = enumerate_feasible(d)
    expected = 2**d
    rep.add(
        "zzrank.count",
        len(words) == expected,
        f"{len(words)} feasible words, expected {expected}",
    )
    basis = EchelonBasis(real.field, real.dim)
    for w in words:
        basis.add(word_image(real, w))
    rep.add(
        "zzrank.rank",
        basis.dim == expected,
        f"rank {basis.dim} of {len(words)} images, expected {expected}",
    )
    return rep
