"""Exact matrices over a coefficient field, plus echelon utilities.

A Matrix is held in its field's integer form (see `fields`): integer rows
over one positive denominator, in lowest terms, so over Q the gcd of the
denominator and every entry is 1 and over F_p the rows are the residues over
1.  No module but this one and `fields` reads or builds a form.  A matrix
assembled from scalars (`Matrix(field, rows)`) clears them when it is built;
a product, a shifted or transposed matrix, the identity and a linear
combination are built from integer rows (`Matrix.of_ints`).  Dimensions are
tiny (at most 32) and the hot spots walk only nonzeros:

  * a product is the field's `mat_mul` on the two integer forms, one sparse
    integer kernel for both fields (`fields._int_mat_mul`), over the product
    of the denominators, reduced by one gcd (`_lowest`);
  * `apply`, of the matrix or of it less t I, clears the vector once and
    reads one field element per output entry from integer dot products over
    the nonzeros of each row;
  * EchelonBasis eliminates fraction-free on integer rows, forward only
    (walking nonzeros; over F_p one reduction per step and per residual),
    and `form` back-substitutes on each read; `Matrix.echelon`, behind
    `rank`, inserts the nonzero rows of the integer form like any vector:
    over Q each is a multiple of its row, which spans the same line;
  * `lincomb` adds multiples of matrices over the flat nonzeros of their
    integer forms, which each Matrix lists once, over one denominator (a
    rank factor);
  * `restrict` reads an operator on an invariant subspace as the rows at
    the basis's pivots of one product, the operator times the basis's form
    transposed, and `graded` reads a pair's split grading off the form;
  * `RankFactors` reads a family's rank factors e_i = B_i R_i from its Newton
    form at a graded pair's blocks, each member as one lincomb (R_i stacked
    on B_i transposed), applies e_i as B_i (R_i v) and walks the blocks
    R_i op^k B_j on the half the grading leaves open; `image_mod_p` reads a
    pair and a vector mod p.

Equal matrices have equal integer forms, so `==` compares those.  Every
element handed back is canonical (see `fields`), so vectors compare with
`==` and a zero test is `not any(...)`.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress
from math import gcd, lcm
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence

from .fields import DEFAULT_PRIME, Field, PrimeField


class Matrix:
    """A matrix over `field`, held as its integer form."""

    __slots__ = ("field", "nrows", "ncols", "form", "_sparse")

    def __init__(self, field, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise ValueError("ragged rows")
        self.form = field.to_ints(rows)  # (integer rows, denominator) in lowest terms
        self._sparse = None

    @classmethod
    def of_ints(cls, field, ints: List[list], den: int = 1, ncols: int = 0) -> "Matrix":
        """The matrix ints / den, reduced to lowest terms.  Over F_p, ints are
        residues and den is 1.  The width is read from the first row; a form
        with no rows takes ncols."""
        m = cls.__new__(cls)
        m.field = field
        m.form = _lowest(ints, den)
        m._sparse = None
        m.nrows = len(ints)
        m.ncols = len(ints[0]) if ints else ncols
        return m

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        return cls.of_ints(field, [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.form == other.form
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in product")
        (a, da), (b, db) = self.form, other.form
        # an inner dimension of 0 gives the zero matrix: b has no row to read the width from
        prod = self.field.mat_mul(a, b) if b else [[0] * other.ncols for _ in a]
        return Matrix.of_ints(self.field, prod, da * db, other.ncols)

    def shift(self, c) -> "Matrix":
        """self - c * I (square only).  It works on the integer form, where
        the field's sub is integer arithmetic over Q and residue arithmetic
        over F_p."""
        f = self.field
        num, cden = f.ratio(c)
        ints, den = self.form
        rows = [[x * cden for x in r] for r in ints] if cden != 1 else [r[:] for r in ints]
        num *= den
        for i, r in enumerate(rows):
            r[i] = f.sub(r[i], num)
        return Matrix.of_ints(f, rows, den * cden)

    def apply(self, vec: Sequence, t=None) -> list:
        """Matrix times column vector, or self - t I times it: the vector's
        denominators are cleared once, each output entry is an integer dot
        product over the row's nonzeros (for t = num / q, q times it less num
        times the entry, over q) read back as one field element.  The nonzeros
        of each row are listed on the first call and kept: a closure applies
        one operator many times."""
        f, mden = self.field, self.form[1]
        if self._sparse is None:
            cols = range(self.ncols)
            self._sparse = [(list(compress(cols, r)), list(filter(None, r))) for r in self.form[0]]
        (v,), vden = f.to_ints([vec])
        back, den, at = f.from_ints, mden * vden, v.__getitem__
        if t is None:
            return [back(sum(map(mul, vals, map(at, cols))), den) for cols, vals in self._sparse]
        num, q = f.ratio(t)
        num *= mden
        return [back(q * sum(map(mul, vals, map(at, cols))) - num * x, q * den)
                for (cols, vals), x in zip(self._sparse, v)]

    def transpose(self) -> "Matrix":
        ints, den = self.form
        cols = [list(col) for col in zip(*ints)] if ints else [[] for _ in range(self.ncols)]
        return Matrix.of_ints(self.field, cols, den, self.nrows)

    def is_zero(self) -> bool:
        return not any(map(any, self.form[0]))

    def echelon(self) -> "EchelonBasis":
        """Row-echelon basis of the row space (reduced rows through `form`);
        zero rows add nothing and are skipped."""
        basis = EchelonBasis(self.field, self.ncols)
        for row in filter(any, self.form[0]):
            basis.add(row)
        return basis

    def rank(self) -> int:
        return self.echelon().dim

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def _lowest(ints: List[list], den: int):
    """(ints, den) divided by the gcd of den and every entry.  Over F_p, and
    for any integer matrix, den is 1 and nothing is read."""
    g = den
    for row in ints:
        if g == 1:
            break
        g = gcd(g, *row)
    if g == 1:
        return ints, den
    return [[x // g for x in r] for r in ints], den // g


def lincomb(terms) -> Matrix:
    """The sum of c * M over terms (c, M), field scalars c and matrices M of
    one shape, added over the flat nonzeros of the integer forms over the
    lcm of the denominators."""
    terms = [(m.field.ratio(c), m) for c, m in terms]
    f, nrows, ncols = terms[0][1].field, terms[0][1].nrows, terms[0][1].ncols
    total = lcm(*(q * m.form[1] for (_, q), m in terms))
    acc = [0] * (nrows * ncols)
    for (num, q), m in terms:
        c = num * (total // (q * m.form[1]))
        for at, x in enumerate(chain.from_iterable(m.form[0])):  # row-major index
            if x:
                acc[at] += c * x
    acc = f.shrink(acc)
    return Matrix.of_ints(f, [acc[r * ncols : (r + 1) * ncols] for r in range(nrows)],
                          total, ncols)


class EchelonBasis:
    """Incrementally maintained row-echelon basis of a subspace.

    add() eliminates a vector against the rows in pivot order and inserts the
    residual if it is independent; older rows are left as they are.  Used for
    submodule closures, rank computation and span dimensions, which read
    `dim` and `pivots`; `restrict` reads the reduced rows, `form`.

    Rows are kept fraction-free as integer vectors: each is the field's
    canonical representative of its line (`primitive`: content 1 and a
    positive pivot over the rationals, pivot 1 over F_p), zero before its
    pivot and at the pivots of the rows older than it.  One elimination step
    is v <- r*v - c*row, with r and c the entries of row and v at the row's
    pivot, divided by gcd(r, c) (in the style of Bareiss: no division by a
    pivot), walking row's nonzeros.  Over F_p, r is 1 and c is first reduced
    (`shrink`), so entries stay below p + width*p^2 in absolute value, and
    `shrink` reduces the complete residual once.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.pivots: List[int] = []
        self._ints: List[list] = []

    @classmethod
    def whole_space(cls, field, width: int) -> "EchelonBasis":
        """The basis of the whole space: the identity rows, without elimination."""
        basis = cls(field, width)
        basis.pivots = list(range(width))
        basis._ints = [[int(i == j) for j in range(width)] for i in range(width)]
        return basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def form(self):
        """The reduced rows in integer form: (integer rows, den), den the lcm
        of the pivot entries; lowest terms, as each row has content 1.  Each
        read back-substitutes once, from the last row up, against the rows
        already reduced below; the reduced echelon form is unique, so these
        are the rows of a per-entry elimination in the field."""
        f, rows = self.field, []  # reduced, the last row first
        for row, piv in zip(self._ints[::-1], self.pivots[::-1]):
            v = list(row)
            for done, at in zip(rows, self.pivots[::-1]):
                if v[at]:
                    v = _eliminate(v, done, at, v[at])
            rows.append(f.primitive(v, piv))
        rows.reverse()
        den = lcm(*(row[piv] for row, piv in zip(rows, self.pivots)))
        if den == 1:
            return rows, 1
        return [[x * (den // row[piv]) for x in row] for row, piv in zip(rows, self.pivots)], den

    def add(self, vec: Sequence) -> bool:
        """Insert vec's residual; True if the dimension grew."""
        f = self.field
        (v,), _ = f.to_ints([vec])
        v = list(v)  # eliminated in place
        for row, piv in zip(self._ints, self.pivots):
            if v[piv]:
                (c,) = f.shrink([v[piv]])  # over F_p, v[piv] may be unreduced
                v = _eliminate(v, row, piv, c)
        v = f.shrink(v)
        piv = next(compress(range(self.width), v), None)
        if piv is None:
            return False
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self._ints.insert(at, f.primitive(v, piv))
        self.pivots.insert(at, piv)
        return True


def _eliminate(v: list, row: list, piv: int, c: int) -> list:
    """r*v - c*row with r = row[piv] over gcd(r, c), c = v[piv] (over F_p up
    to a multiple of p): zero at piv, over F_p once reduced.  Walks only
    row's nonzeros, in place unless r does not divide c."""
    r = row[piv]
    if r != 1:
        g = gcd(r, c)
        if g != r:
            v = [x * (r // g) for x in v]
        c //= g
    for j in compress(range(len(row)), row):
        v[j] -= c * row[j]
    return v


def restrict(op: Matrix, basis: EchelonBasis) -> Matrix:
    """Matrix of `op` on the span of `basis`, which must be invariant: column
    j holds the coordinates of op times basis row j.  Each reduced row is 1
    at its pivot and 0 at the others, so inside the span the coordinates are
    the entries at the pivots: the rows there of op times the rows transposed."""
    f, (ints, den) = op.field, basis.form
    cols = Matrix.of_ints(f, [[row[j] for row in ints] for j in range(basis.width)], den)
    img = op * cols
    m = Matrix.of_ints(f, [img.form[0][p] for p in basis.pivots], img.form[1])
    if img != cols * m:  # some image is not what its coordinates rebuild
        raise ValueError("subspace is not invariant under the operator")
    return m


def graded(op: Matrix, values: Sequence, blocks: Sequence[Sequence[int]], step: int) -> bool:
    """Does op send each block U_j into U_j + U_{j+step}, as values[j] * I on
    U_j?  False unless the blocks partition the coordinates, one per value.
    An entry x / den equals num / q, the value's ratio, when x * q == num * den."""
    n, f, (ints, den) = op.nrows, op.field, op.form
    if len(values) != len(blocks) or sorted(chain(*blocks)) != list(range(n)):
        return False
    at = {k: j for j, block in enumerate(blocks) for k in block}
    for r, row in enumerate(ints):
        num, q = f.ratio(values[at[r]])
        if row[r] * q != num * den or any(at[r] - at[c] != step
                                          for c in compress(range(n), row) if c != r):
            return False
    return True


_IMAGE_FIELD = PrimeField(DEFAULT_PRIME)


def image_mod_p(a: Matrix, astar: Matrix, seed: Sequence) -> Optional[tuple]:
    """(a, astar, seed) mod DEFAULT_PRIME, the operators read from their
    integer form; None when a denominator is divisible by p or the seed
    vanishes mod p."""
    p = _IMAGE_FIELD.p
    out = []  # the seed is read as a one-row form of its own
    for ints, den in (a.form, astar.form, a.field.to_ints([seed])):
        if den % p == 0:
            return None
        inv = pow(den, -1, p)
        out.append([[x * inv % p if x else 0 for x in row] for row in ints])
    (v,) = out.pop()
    return (*(Matrix.of_ints(_IMAGE_FIELD, m) for m in out), v) if any(v) else None


class RankFactors(NamedTuple):
    """A family e_0..e_d held as its rank factorizations e_i = B_i R_i alone.

    B_i is the columns of e_i at r_i = rank e_i indices U_i and R_i its rows
    there, I at U_i (`of`, from the Newton form e_i = sum_k c_ik P_k at a
    graded pair's blocks).  B_i has full column
    rank and R_i full row rank, so for any X, e_i X e_j = 0 iff
    R_i X B_j = 0, and e_i e_j = c e_i iff R_i B_j = c I (i = j) or 0
    (i != j), orthogonal idempotents or not.  Blocks are integer rows of the
    integer forms: R_i is right[i] / r_i and B_i is left[i] / b_i with
    dens[i] = r_i * b_i, so a zero test of any block product needs no
    denominator, and rank 0 (R_i 0 x n, B_i n x 0) needs no special case.
    No e_i is formed: `apply` reads e_i v as B_i (R_i v), `blocks` R_i op^k B_j.
    """

    field: Field
    right: List[List[list]]  # R_i: r_i rows of length n
    left: List[List[list]]  # B_i: n rows of length r_i
    dens: List[int]

    @classmethod
    def of(cls, chain: List[Matrix], coeffs: List[list], blocks) -> "RankFactors":
        """Each e_i's factors at U_i = blocks[i], where e_i[U_i, U_i] = I and rank
        e_i = |U_i| (realization.OperatorPair): one lincomb of the chain's
        rows at U_i stacked on its columns there (R_i on B_i transposed), over
        c_ik / den for P_k = ints / den; dens[i] is its denominator squared."""
        f, n, right, left, dens = chain[0].field, chain[0].nrows, [], [], []
        for cs, at in zip(coeffs, blocks):
            terms = [(f.mul(c, f.from_ints(1, m.form[1])), m.form[0])
                     for c, m in zip(cs, chain) if c]
            ints, den = lincomb((c, Matrix.of_ints(f, [rows[p] for p in at]
                                                   + [[row[p] for row in rows] for p in at]))
                                for c, rows in terms).form
            right.append(ints[: len(at)])
            left.append([list(col) for col in zip(*ints[len(at):])] or [[] for _ in range(n)])
            dens.append(den * den)
        return cls(f, right, left, dens)

    def apply(self, i: int, vec: Sequence) -> list:
        """e_i vec, as B_i (R_i vec) on vec's integer form."""
        f = self.field
        (v,), den = f.to_ints([vec])
        w = f.shrink([sum(map(mul, row, v)) for row in self.right[i]])
        return [f.from_ints(sum(map(mul, row, w)), self.dens[i] * den) for row in self.left[i]]

    @property
    def ranks(self) -> List[int]:
        return [len(r) for r in self.right]

    def is_unit(self, i: int, block: List[list]) -> bool:
        """Is block, R_i B_i from `blocks`, I?  As integers it is dens[i] * I."""
        r, unit = self.ranks[i], self.dens[i]
        return block == [[unit if k == l else 0 for l in range(r)] for k in range(r)]

    def blocks(self, op: Matrix, step: int, top: int, start: int = 0) -> Iterator[dict]:
        """The integer blocks R_i op^k B_j, one level k at a time for
        start <= k < top: {(i, j): block} over every (i, j) at k = 0 and over
        the (i, j) with k < |i - j| above, in the order j, then i.  Above
        level 0 only the open half, step * (j - i) > k, is read; the other
        half is zero on a graded pair whose op moves block j to j + step
        (linalg.graded), and its blocks are yielded empty.  Level 0 is one
        product of the stacked R_i with V = [B_0 | ... | B_d].  Each later
        level sets V <- op V over only the B_j that still have a block to
        read, and one product of the stacked R_i that read one there cuts out
        all of its blocks; a level below start forms no such product.  The
        walk ends at the last level below top with a block to read: op^k B_j
        is formed no further."""
        f, d, ranks = op.field, len(self.right) - 1, self.ranks

        def spans(keys) -> dict:  # where each R_i (rows) or B_j (columns) sits in a stack
            starts = accumulate((ranks[x] for x in keys), initial=0)
            return {x: slice(at, at + ranks[x]) for x, at in zip(keys, starts)}

        cols, v = range(d + 1), [sum(rows, []) for rows in zip(*self.left)]
        for k in range(top):
            pairs = [(i, j) for j in range(d + 1) for i in range(d + 1) if not k or k < abs(i - j)]
            if not pairs:
                return
            read = [(i, j) for i, j in pairs if not k or step * (j - i) > k]
            if k:  # op V over the B_j still read
                at, cols = spans(cols), sorted({j for _, j in read})
                v = f.mat_mul(op.form[0], [[x for j in cols for x in row[at[j]]] for row in v])
            if k < start:
                continue
            rows = sorted({i for i, _ in read})
            prod = f.mat_mul([r for i in rows for r in self.right[i]], v)
            up, at = spans(rows), spans(cols)
            blocks = dict.fromkeys(pairs, [])
            blocks.update(((i, j), [row[at[j]] for row in prod[up[i]]]) for i, j in read)
            yield blocks
