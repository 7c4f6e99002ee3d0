"""Exact matrices over a coefficient field, plus echelon utilities.

Matrices are lists of rows of field elements.  Dimensions here are tiny
(at most 32, or 64 for the word-span echelon), so the arithmetic of Matrix is
written for clarity; the hot spots run on integers and walk only nonzeros.
Matrix multiplication is the field's `mat_mul`, one sparse integer kernel
for both fields (`fields._int_mat_mul`); `apply` reads a prepared form of
the matrix that holds only the nonzero entries of each row, cleared to
integers over one denominator; and EchelonBasis eliminates fraction-free on
integer rows (walking nonzeros; over F_p one reduction per residual).  The
last two reach the field through its integer-row hooks (`to_ints`,
`from_ints`, `shrink`, `primitive`), so one code path serves the rationals
and F_p.  Every entry they hand back is canonical (see `fields`), so
matrices and vectors compare with `==` and a zero test is `not any(...)`.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import mul
from typing import List, Sequence


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols", "_nonzeros")

    def __init__(self, field, rows: Sequence[Sequence]):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
        self._nonzeros = None

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, [list(row) for row in zip(*cols)])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in product")
        return Matrix(self.field, self.field.mat_mul(self.rows, other.rows))

    def scale(self, c) -> "Matrix":
        """c * self; zero entries are kept as they are, not multiplied."""
        mul = self.field.mul
        rows = [[mul(c, x) if x else x for x in r] for r in self.rows]
        return Matrix(self.field, rows)

    def shift(self, c) -> "Matrix":
        """self - c * I (square only)."""
        out = self.copy()
        sub = self.field.sub
        for i in range(self.nrows):
            out.rows[i][i] = sub(out.rows[i][i], c)
        return out

    def nonzeros(self):
        """(den, [(cols, vals) per row]): each row's nonzero columns and their
        values as integers over one common denominator.  Built on the first
        call and kept, so the rows must not change after that."""
        if self._nonzeros is None:
            ints, den = self.field.to_ints(self.rows)
            cols = range(self.ncols)
            self._nonzeros = den, [
                (list(compress(cols, r)), list(filter(None, r))) for r in ints
            ]
        return self._nonzeros

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector, read from `nonzeros`: each call clears
        the vector's denominators once and reads back one field element per
        output entry."""
        den, rows = self.nonzeros()
        (v,), vden = self.field.to_ints([vec])
        den *= vden
        back, at = self.field.from_ints, v.__getitem__
        return [back(sum(map(mul, vals, map(at, cols))), den) for cols, vals in rows]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)])

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def echelon(self) -> "EchelonBasis":
        """Reduced row-echelon basis of the row space."""
        basis = EchelonBasis(self.field, self.ncols)
        for row in self.rows:
            basis.add(row)
        return basis

    def rank(self) -> int:
        return self.echelon().dim

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def vec_sub(field, a: Sequence, b: Sequence) -> list:
    return list(map(field.sub, a, b))


def vec_scale(field, c, v: Sequence) -> list:
    mul = field.mul
    return [mul(c, x) for x in v]


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
    absolute value, and `shrink` reduces the complete residual once.  The
    reduced rows callers read, `rows`, are row / pivot entry; they are built
    on first read and kept until the basis grows.  The reduced echelon form
    is unique, so they equal the rows of a per-entry elimination in the field.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.pivots: List[int] = []
        self._ints: List[list] = []
        self._rows: List[list] = []

    @classmethod
    def whole_space(cls, field, width: int) -> "EchelonBasis":
        """The basis of the whole space: the identity rows, without elimination."""
        basis = cls(field, width)
        basis.pivots = list(range(width))
        basis._ints = [[int(i == j) for j in range(width)] for i in range(width)]
        basis._rows = None  # read back from _ints on first use
        return basis

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> List[list]:
        if self._rows is None:
            back = self.field.from_ints
            self._rows = [
                [back(x, row[piv]) for x in row]
                for row, piv in zip(self._ints, self.pivots)
            ]
        return self._rows

    def _residual(self, vec: Sequence) -> list:
        """vec as an integer vector, eliminated against every row, then shrunk."""
        f = self.field
        (v,), _ = f.to_ints([vec])
        v = list(v)  # eliminated in place
        for row, piv in zip(self._ints, self.pivots):
            if v[piv]:
                v = _eliminate(v, row, piv)
        return f.shrink(v)

    def add(self, vec: Sequence) -> bool:
        """Insert vec's residual; True if the dimension grew."""
        f = self.field
        v = self._residual(vec)
        piv = next(compress(range(self.width), v), None)
        if piv is None:
            return False
        v = f.primitive(v, piv)
        rows = self._ints
        for i, row in enumerate(rows):
            if row[piv]:
                rows[i] = f.primitive(_eliminate(row, v, piv), self.pivots[i])
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        rows.insert(at, v)
        self.pivots.insert(at, piv)
        self._rows = None
        return True

    def contains(self, vec: Sequence) -> bool:
        return not any(self._residual(vec))

    def coordinates(self, vec: Sequence):
        """Coordinates of vec in this basis, or None if outside the span.

        Each reduced row is 1 at its pivot and 0 at the others, so inside the
        span the coordinates are vec's entries at the pivots."""
        if not self.contains(vec):
            return None
        return [vec[piv] for piv in self.pivots]


def _eliminate(v: list, row: list, piv: int) -> list:
    """r*v - c*row with r = row[piv], c = v[piv] over their gcd: zero at piv.
    Walks only row's nonzeros, in place unless r does not divide c."""
    r, c = row[piv], v[piv]
    if r != 1:
        g = gcd(r, c)
        if g != r:
            v = [x * (r // g) for x in v]
        c //= g
    for j in compress(range(len(row)), row):
        v[j] -= c * row[j]
    return v


def restrict_operator(field, op: Matrix, basis: EchelonBasis) -> Matrix:
    """Matrix of `op` on the subspace spanned by `basis` (must be invariant).

    Column j holds the basis coordinates of op(basis vector j).
    """
    cols = []
    for bvec in basis.rows:
        img = op.apply(bvec)
        coords = basis.coordinates(img)
        if coords is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return Matrix.from_columns(field, cols) if cols else Matrix(field, [])
