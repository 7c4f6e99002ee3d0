"""Dense exact matrices over a coefficient field, plus echelon utilities.

Matrices are lists of rows of field elements.  Dimensions here are tiny
(at most 32), so everything is dense and written for clarity; the one hot
spot, matrix multiplication, is delegated to a per-field kernel.
"""

from __future__ import annotations

from typing import List, Sequence


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows: Sequence[Sequence]):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, n: int, m: int = None) -> "Matrix":
        m = n if m is None else m
        z = field.zero
        return cls(field, [[z] * m for _ in range(n)])

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

    def __add__(self, other: "Matrix") -> "Matrix":
        add = self.field.add
        return Matrix(
            self.field,
            [list(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        sub = self.field.sub
        return Matrix(
            self.field,
            [list(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, [[neg(x) for x in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, x) for x in r] for r in self.rows])

    def shift(self, c) -> "Matrix":
        """self - c * I (square only)."""
        out = self.copy()
        sub = self.field.sub
        for i in range(self.nrows):
            out.rows[i][i] = sub(out.rows[i][i], c)
        return out

    def apply(self, vec: Sequence) -> list:
        """Matrix times column vector."""
        dot = self.field.dot
        return [dot(row, vec) for row in self.rows]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)])

    def column(self, j: int) -> list:
        return [row[j] for row in self.rows]

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(x) for row in self.rows for x in row)

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


def vec_is_zero(field, v: Sequence) -> bool:
    z = field.is_zero
    return all(z(x) for x in v)


def vec_sub(field, a: Sequence, b: Sequence) -> list:
    return list(map(field.sub, a, b))


def vec_scale(field, c, v: Sequence) -> list:
    mul = field.mul
    return [mul(c, x) for x in v]


def vec_eq(field, a: Sequence, b: Sequence) -> bool:
    return vec_is_zero(field, vec_sub(field, a, b))


class EchelonBasis:
    """Incrementally maintained reduced row-echelon basis of a subspace.

    add() reduces a vector against the current basis and inserts the residual
    (normalized, with back-elimination) if independent.  Used for submodule
    closures, rank computation and span dimensions.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: List[list] = []
        self.pivots: List[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list:
        f = self.field
        sub, mul, is_zero = f.sub, f.mul, f.is_zero
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not is_zero(c):
                v = [sub(x, mul(c, y)) for x, y in zip(v, row)]
        return v

    def add(self, vec: Sequence) -> bool:
        """Insert vec's residual; True if the dimension grew."""
        f = self.field
        v = self.reduce(vec)
        piv = next((j for j, x in enumerate(v) if not f.is_zero(x)), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        # back-eliminate the new pivot from existing rows
        for i, row in enumerate(self.rows):
            c = row[piv]
            if not f.is_zero(c):
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > piv), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def contains(self, vec: Sequence) -> bool:
        return vec_is_zero(self.field, self.reduce(vec))

    def coordinates(self, vec: Sequence):
        """Coordinates of vec in this basis, or None if outside the span."""
        f = self.field
        v = list(vec)
        coords = []
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            coords.append(c)
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        if not vec_is_zero(f, v):
            return None
        return coords


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
