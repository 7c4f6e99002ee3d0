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
nonstarred before starred at equal index, ascending index.  Both enumerators
produce it directly, one word length at a time, so nothing is sorted and
nothing recurses.
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


MAX_FEASIBLE_D = 12
MAX_ZZ_D = 6
MAX_ZZ_WORDS = 500_000
# fits every run within MAX_ZZ_WORDS of words under 1,000 letters (166,167,000 at most)
MAX_ZZ_LETTERS = 170_000_000
MAX_CONVEX_SEQUENCES = 500_000


def enumerate_feasible(d: int) -> List[Word]:
    """All feasible words for diameter d, in canonical shortlex order.

    Grown leftward from the final e*0, one length at a time: (u,) + w for each
    new first letter u in letter order, then each shorter w in order, kept when
    it alternates, u's index is new, and the zigzag conditions u enters (those
    of the first four letters) hold.  Every kept word is feasible.
    """
    if d < 0:
        raise WordError("d must be nonnegative")
    if d > MAX_FEASIBLE_D:
        raise EnumerationBudgetError(
            f"feasible enumeration is capped at d = {MAX_FEASIBLE_D}"
        )
    firsts = [(starred, idx) for idx in range(1, d + 1) for starred in (False, True)]
    level: List[Word] = [((True, 0),)]
    out: List[Word] = []
    while level:
        out.extend(level)
        level = [
            (u,) + w
            for u in firsts
            for w in level
            if u[0] != w[0][0] and all(x[1] != u[1] for x in w) and is_zz((u,) + w[:3])
        ]
    return out


def enumerate_zz(
    d: int,
    exclude_r: int,
    exclude_s: int,
    max_len: Optional[int] = None,
) -> List[Word]:
    """Zigzag words of length <= max_len avoiding e_{exclude_r} and e*_{exclude_s},
    the trivial word included, in canonical shortlex order.

    max_len defaults to 2d+2 (a documented truncation: zigzag words are
    unbounded in general).  Grown one length at a time: w + (u,) for each
    shorter w in order, then each letter u of the other kind in letter order,
    kept when the zigzag conditions ending at u hold.  EnumerationBudgetError
    (more than MAX_ZZ_WORDS words, or MAX_ZZ_LETTERS letters in all) is raised
    from counts taken first, before any word is built.
    """
    if d > MAX_ZZ_D:
        raise EnumerationBudgetError(f"zigzag enumeration is capped at d = {MAX_ZZ_D}")
    if not 0 <= exclude_r <= d or not 0 <= exclude_s <= d:
        raise WordError("excluded indices must lie in 0..d")
    cap = 2 * d + 2 if max_len is None else max_len
    nonstar = [(False, i) for i in range(d + 1) if i != exclude_r]
    star = [(True, i) for i in range(d + 1) if i != exclude_s]
    alphabet = [u for i in range(d + 1) for u in ((False, i), (True, i))
                if u in nonstar or u in star]

    def grow(w: Word) -> List[Word]:  # the new conditions read w's last three letters
        us = (nonstar if w[-1][0] else star) if w else alphabet
        return [v for u in us if _conditions_hold_at(v := w + (u,), len(w))]

    # count the words of each length by their last three letters
    words, letters, length, tails = 1, 0, 0, {TRIVIAL: 1}
    while tails and length < cap:
        length += 1
        grown: dict = {}
        for t, n in tails.items():
            for v in grow(t):
                grown[v[-3:]] = grown.get(v[-3:], 0) + n
        words += sum(grown.values())
        letters += length * sum(grown.values())
        if words > MAX_ZZ_WORDS:
            raise EnumerationBudgetError(f"more than {MAX_ZZ_WORDS} words of length <= {cap}")
        if letters > MAX_ZZ_LETTERS:
            raise EnumerationBudgetError(
                f"more than {MAX_ZZ_LETTERS} letters in the words of length <= {cap}"
            )
        tails = grown
    out, level = [TRIVIAL], [TRIVIAL]
    for _ in range(length):
        level = [v for w in level for v in grow(w)]
        out.extend(level)
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


def _partitions_exceed(r: int, cap: int) -> bool:
    """Whether p(r), the number of partitions of r, exceeds cap.

    p(0..r) by Euler's pentagonal number recurrence, stopping at the first
    p(n) > cap (p is nondecreasing), so any r is answered in a few steps.
    """
    p = [1]
    for n in range(1, r + 1):
        total = 0
        for k in range(1, n + 1):
            g = k * (3 * k - 1) // 2  # generalized pentagonal numbers g, g + k
            if g > n:
                break
            total += (1 if k % 2 else -1) * (p[n - g] + (p[n - g - k] if g + k <= n else 0))
        if total > cap:
            return True
        p.append(total)
    return False


def enumerate_convex_spanning(r: int) -> List[Tuple[int, ...]]:
    """All (k_1..k_m), m >= 0, with r > k_1 > ... > k_m > 0 and
    (r, k_1, ..., k_m, 0) convex; sorted by length then lexicographically.

    Only convex prefixes are extended (each gap at most the one before), so
    the work is proportional to the output: one sequence per partition of r
    into its gaps.  Raises EnumerationBudgetError, before the walk, when there
    are more than MAX_CONVEX_SEQUENCES of them.
    """
    if r < 1:
        raise WordError("r must be at least 1")
    if _partitions_exceed(r, MAX_CONVEX_SEQUENCES):
        raise EnumerationBudgetError(
            f"more than {MAX_CONVEX_SEQUENCES} convex sequences for r = {r}"
        )
    out: List[Tuple[int, ...]] = []

    def extend(seq: List[int], low: int, gap: int):
        # low is the last entry and gap the last difference (r for the bare r)
        if low <= gap:  # the closing gap low - 0 keeps the sequence convex
            out.append(tuple(seq))
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
