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
nothing recurses.  The feasible words come as letter tuples, whose images the
rank experiment reads each from its parent's; the zigzag words as texts, each
built from its parent's text and handed out a slice of one length at a time,
so a caller can write them out without holding them all.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from .linalg import EchelonBasis
from .report import Check

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
ZZ_SLICE = 1 << 12  # zigzag words in a list handed out; of the longest, their parents


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
) -> Tuple[dict, Iterator[List[str]]]:
    """The zigzag words of length <= max_len avoiding e_{exclude_r} and
    e*_{exclude_s}: their counts by length, {length: count} in length order,
    and a generator of lists of word texts that, read in turn, give the
    words in canonical shortlex order ("1" for the trivial word first), each
    list a slice of one length.

    max_len defaults to 2d+2 (a documented truncation: zigzag words are
    unbounded in general).  The letters that may follow a word depend only on
    its last three letters, its tail, so one table moves[tail] = [(letter
    text, next tail)] drives a walk in two passes.  The first, run here,
    counts the words of each length by their tails, filling the table as
    tails are reached, and raises EnumerationBudgetError (more than
    MAX_ZZ_WORDS words, or MAX_ZZ_LETTERS letters in all) before any word is
    built.  The second is the generator: it builds each length as it is
    read, every word as its parent's text plus one letter, the parents in
    order and each one's letters in letter order, so it holds at most the
    parent length and the one it builds (of the last length, one slice); a
    caller that writes each list out as it comes holds no more.
    """
    if d < 0:
        raise WordError("d must be nonnegative")
    if d > MAX_ZZ_D:
        raise EnumerationBudgetError(f"zigzag enumeration is capped at d = {MAX_ZZ_D}")
    if not 0 <= exclude_r <= d or not 0 <= exclude_s <= d:
        raise WordError("excluded indices must lie in 0..d")
    cap = 2 * d + 2 if max_len is None else max_len
    alphabet = [u for i in range(d + 1) for u in ((False, i), (True, i))
                if u not in ((False, exclude_r), (True, exclude_s))]
    moves: dict = {}
    counts, words, letters, tails = {0: 1}, 1, 0, {TRIVIAL: 1}
    while len(counts) <= cap:
        grown: dict = {}
        for t, n in tails.items():
            if t not in moves:  # alternate, then the conditions ending at the new letter
                moves[t] = [(letter_text(u), v[-3:]) for u in alphabet
                            if not t or u[0] != t[-1][0]
                            if _conditions_hold_at(v := t + (u,), len(t))]
            for _, nxt in moves[t]:
                grown[nxt] = grown.get(nxt, 0) + n
        if not grown:
            break
        length = len(counts)
        counts[length] = sum(grown.values())
        words += counts[length]
        letters += length * counts[length]
        if words > MAX_ZZ_WORDS:
            raise EnumerationBudgetError(f"more than {MAX_ZZ_WORDS} words of length <= {cap}")
        if letters > MAX_ZZ_LETTERS:
            raise EnumerationBudgetError(
                f"more than {MAX_ZZ_LETTERS} letters in the words of length <= {cap}"
            )
        tails = grown
    return counts, _zz_lengths(moves, len(counts) - 1)


def _zz_lengths(moves: dict, top: int) -> Iterator[List[str]]:
    """The word texts of lengths 0..top in order, as lists: a length below
    top in slices of at most ZZ_SLICE words, built from its parents' texts
    and tails, two parallel lists.  Length top, which no longer word
    extends, is built one slice of at most ZZ_SLICE parents at a time and
    never held whole."""

    def grown(texts: List[str], tails: List[Word], sep: str) -> List[str]:
        return [text + sep + u for text, t in zip(texts, tails) for u, _ in moves[t]]

    yield ["1"]
    if not top:
        return
    texts, tails, sep = [""], [TRIVIAL], ""
    for _ in range(top - 1):
        texts, tails = grown(texts, tails, sep), [nxt for t in tails for _, nxt in moves[t]]
        sep = " "
        for at in range(0, len(texts), ZZ_SLICE):
            yield texts[at:at + ZZ_SLICE]
    for at in range(0, len(texts), ZZ_SLICE):
        words = grown(texts[at:at + ZZ_SLICE], tails[at:at + ZZ_SLICE], sep)
        if words:
            yield words


# ---------------------------------------------------------------------------
# Convex spanning sequences


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


@lru_cache(maxsize=None)
def _feasible_words(d: int) -> Tuple[Word, ...]:
    """enumerate_feasible(d), enumerated once per d for every rank trial."""
    return tuple(enumerate_feasible(d))


def feasible_rank_test(real) -> List[Check]:
    """Exact rank of the feasible-word images of phi; expected 2^d of rank 2^d.
    The image of (u,) + w, listed after w, is E_u = B_u R_u times w's image."""
    words = _feasible_words(real.d)
    expected = 2**real.d
    basis = EchelonBasis(real.field, real.dim)
    images = {TRIVIAL: real.phi}
    for w in words:
        (starred, idx), rest = w[0], w[1:]
        images[w] = (real.dual_factors if starred else real.factors).apply(idx, images[rest])
        basis.add(images[w])
    return [
        Check(
            "zzrank.count",
            len(words) == expected,
            f"{len(words)} feasible words, expected {expected}",
        ),
        Check(
            "zzrank.rank",
            basis.dim == expected,
            f"rank {basis.dim} of {len(words)} images, expected {expected}",
        ),
    ]
