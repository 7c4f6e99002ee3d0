"""Exact matrices over a coefficient field, plus echelon utilities.

A Matrix is held in its field's integer form (see `fields`): integer rows
over one positive denominator, in lowest terms, so over Q the gcd of the
denominator and every entry is 1 and over F_p the rows are the residues over
1.  A matrix assembled from scalars (`Matrix(field, rows)`) clears them when
it is built; a product, a shifted or transposed matrix, the identity and a
Lagrange idempotent are built from integer rows (`Matrix.of_ints`).  The
form is all a Matrix holds.  Dimensions are tiny (at most 32) and the hot
spots walk only nonzeros:

  * a product is the field's `mat_mul` on the two integer forms, one sparse
    integer kernel for both fields (`fields._int_mat_mul`), over the product
    of the denominators, reduced by one gcd (`_lowest`);
  * `apply` clears the vector once and reads one field element per output
    entry from integer dot products over the nonzeros of each row;
  * EchelonBasis eliminates fraction-free on integer rows (walking nonzeros;
    over F_p one reduction per residual), and `Matrix.echelon` inserts the
    nonzero rows of the integer form as they are: over Q each is a multiple
    of its row, which spans the same line;
  * `combination` adds multiples of matrices over the nonzeros of their
    integer forms, over one denominator (a Lagrange idempotent, the sums
    of the relation suite's rel6/rel7);
  * `restrict` reads an operator on an invariant subspace as the rows at
    the basis's pivots of one product, the operator times the basis's form
    transposed.

Equal matrices have equal integer forms, so `==` compares those.  Every
element handed back is canonical (see `fields`), so vectors compare with
`==` and a zero test is `not any(...)`.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, lcm
from operator import mul
from typing import List, Sequence


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
        return cls.of_ints(field, [[int(i == j) for j in range(n)] for i in range(n)])

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

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector: the vector's denominators are cleared
        once, each output entry is an integer dot product over the row's
        nonzeros read back as one field element.  The nonzeros of each row
        of the form (columns, values) are listed on the first call and kept:
        a closure applies one operator many times."""
        if self._sparse is None:
            ints, _ = self.form
            cols = range(self.ncols)
            self._sparse = [(list(compress(cols, r)), list(filter(None, r))) for r in ints]
        (v,), vden = self.field.to_ints([vec])
        back, den, at = self.field.from_ints, self.form[1] * vden, v.__getitem__
        return [back(sum(map(mul, vals, map(at, cols))), den) for cols, vals in self._sparse]

    def transpose(self) -> "Matrix":
        ints, den = self.form
        cols = [list(col) for col in zip(*ints)] if ints else [[] for _ in range(self.ncols)]
        return Matrix.of_ints(self.field, cols, den, self.nrows)

    def is_zero(self) -> bool:
        return not any(map(any, self.form[0]))

    def echelon(self) -> "EchelonBasis":
        """Reduced row-echelon basis of the row space; zero rows add nothing
        and are skipped."""
        basis = EchelonBasis(self.field, self.ncols)
        for row in filter(any, self.form[0]):
            basis.add(row, True)  # cleared
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


def flat_nonzeros(m: Matrix) -> list:
    """The nonzeros of m's integer form as (row-major index, integer)."""
    return [(at, x) for at, x in enumerate(chain.from_iterable(m.form[0])) if x]


def combination(field, n: int, terms) -> Matrix:
    """The n x n sum of num / den times M over terms (num, den, flat_nonzeros
    of M's integer form), added over the nonzeros over one denominator."""
    total = lcm(*(den for _, den, _ in terms))
    acc = [0] * (n * n)
    for num, den, nonzeros in terms:
        c = num * (total // den)
        for at, x in nonzeros:
            acc[at] += c * x
    acc = field.shrink(acc)
    return Matrix.of_ints(field, [acc[r : r + n] for r in range(0, n * n, n)], total)


class EchelonBasis:
    """Incrementally maintained reduced row-echelon basis of a subspace.

    add() eliminates a vector against the current basis and inserts the
    residual (back-eliminating the older rows) if it is independent.  Used for
    submodule closures, rank computation and span dimensions.

    Rows are kept fraction-free as integer vectors: each is the field's
    canonical representative of its line (`primitive`: content 1 and a
    positive pivot over the rationals, pivot 1 over F_p) and is zero at every
    other row's pivot.  One elimination step is v <- r*v - c*row, with r and c
    the entries of row and v at the row's pivot, divided by gcd(r, c) (in the
    style of Bareiss: no division by a pivot), walking row's nonzeros.  Over
    F_p, r is 1 and nothing is reduced: no step changes v at another pivot,
    so each c is an input residue, entries stay below p + width*p^2 in
    absolute value, and `shrink` reduces the complete residual once.  A
    back-eliminated row over F_p keeps pivot 1 and changes only at the new
    row's nonzeros, so only those entries are reduced (`primitive` with
    `changed`); over Q it is made primitive again.  The reduced rows callers
    read, `form`, are row / pivot entry over one denominator, built on each
    read.  The reduced echelon form is unique, so they equal the rows of a
    per-entry elimination in the field.
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
        of the pivot entries; lowest terms, as each row has content 1.  The
        rows are the basis's own and change when it grows."""
        den = lcm(*(row[piv] for row, piv in zip(self._ints, self.pivots)))
        if den == 1:
            return self._ints, 1
        return [[x * (den // row[piv]) for x in row]
                for row, piv in zip(self._ints, self.pivots)], den

    def add(self, vec: Sequence, cleared: bool = False) -> bool:
        """Insert vec's residual; True if the dimension grew.  With cleared,
        vec is a row of integers of the field's integer form (over Q any
        multiple of the vector: it spans the same line), read as it is."""
        f = self.field
        if cleared:
            v = list(vec)  # eliminated in place
        else:
            (v,), _ = f.to_ints([vec])
            v = list(v)
        for row, piv in zip(self._ints, self.pivots):
            if v[piv]:
                v = _eliminate(v, row, piv)
        v = f.shrink(v)
        cols = list(compress(range(self.width), v))
        if not cols:
            return False
        piv = cols[0]
        v = f.primitive(v, piv)
        rows = self._ints
        for i, row in enumerate(rows):
            if row[piv]:
                # over F_p only the entries at v's nonzeros change
                rows[i] = f.primitive(_eliminate(row, v, piv, cols), self.pivots[i], cols)
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True


def _eliminate(v: list, row: list, piv: int, cols=None) -> list:
    """r*v - c*row with r = row[piv], c = v[piv] over their gcd: zero at piv.
    Walks only row's nonzeros (cols, when the caller has them), in place
    unless r does not divide c."""
    r, c = row[piv], v[piv]
    if r != 1:
        g = gcd(r, c)
        if g != r:
            v = [x * (r // g) for x in v]
        c //= g
    for j in compress(range(len(row)), row) if cols is None else cols:
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
