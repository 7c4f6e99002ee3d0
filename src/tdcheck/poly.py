"""Univariate polynomials over an exact field and primitive idempotents.

The ladder polynomials built here are the monic products

    tau_i  = (x - t_0)(x - t_1)...(x - t_{i-1})
    eta_i  = (x - t_d)(x - t_{d-1})...(x - t_{d-i+1})

over a supplied list t_0..t_d (the starred variants are the same shapes
applied to the dual list).  Primitive idempotents of an operator with
eigenvalue list t are computed by the explicit Lagrange product

    E_i = prod_{j != i} (A - t_j I) / (t_i - t_j)

after first checking the full product prod_j (A - t_j I) = 0; that check
doubles as a transcription-error detector for the bundled module tables.
"""

from __future__ import annotations

from typing import List, Sequence

from .linalg import Matrix

POLY_KINDS = ("tau", "eta", "tau_star", "eta_star")


class PolyError(ValueError):
    pass


class MinimalPolynomialError(PolyError):
    """prod (A - t_i I) != 0 for the supplied eigenvalue list."""

    def __init__(self, rank: int):
        self.rank = rank
        super().__init__(
            f"minimal polynomial check failed: product has rank {rank}, expected 0"
        )


class Poly:
    """Dense univariate polynomial; coeffs[k] multiplies x**k."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Sequence):
        self.field = field
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.coeffs = cs

    @classmethod
    def one(cls, field) -> "Poly":
        return cls(field, [field.one])

    @classmethod
    def from_roots(cls, field, roots: Sequence) -> "Poly":
        out = cls.one(field)
        for r in roots:
            out = out.mul_linear(r)
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [f.zero] * (n - len(self.coeffs))
        b = other.coeffs + [f.zero] * (n - len(other.coeffs))
        return Poly(f, [f.add(x, y) for x, y in zip(a, b)])

    def scale(self, c) -> "Poly":
        f = self.field
        return Poly(f, [f.mul(c, x) for x in self.coeffs])

    def mul_linear(self, root) -> "Poly":
        """Multiply by (x - root)."""
        f = self.field
        out = [f.zero] * (len(self.coeffs) + 1)
        for k, c in enumerate(self.coeffs):
            out[k + 1] = f.add(out[k + 1], c)
            out[k] = f.sub(out[k], f.mul(root, c))
        return Poly(f, out)

    def __call__(self, x):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


def build_poly(kind: str, i: int, thetas: Sequence, field) -> Poly:
    """Monic ladder polynomial of degree exactly i for the given list.

    tau/tau_star walk the list from the front, eta/eta_star from the back;
    the star kinds simply expect the dual list to be passed in.
    """
    if kind not in POLY_KINDS:
        raise PolyError(f"unknown polynomial kind {kind!r}")
    d = len(thetas) - 1
    if not 0 <= i <= d:
        raise PolyError(f"index {i} out of range for list of length {d + 1}")
    if kind in ("tau", "tau_star"):
        roots = thetas[:i]
    else:
        roots = [thetas[d - j] for j in range(i)]
    return Poly.from_roots(field, roots)


def shifted_products(a: Matrix, thetas: Sequence) -> List[Matrix]:
    """Prefix products P_i = (A - t_0 I)...(A - t_{i-1} I), i = 0..d+1."""
    out = [Matrix.identity(a.field, a.nrows)]
    for t in thetas:
        out.append(a.shift(t) if len(out) == 1 else out[-1] * a.shift(t))
    return out


def lagrange_idempotents(a: Matrix, thetas: Sequence) -> List[Matrix]:
    """Primitive idempotents of `a` for the eigenvalue list `thetas`.

    Requires the list entries pairwise distinct and prod (A - t_i I) = 0.
    Uses prefix/suffix products so each E_i costs one extra multiplication;
    a product by the identity (I.X = X exactly) is never formed.
    """
    f = a.field
    d = len(thetas) - 1
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if thetas[i] == thetas[j]:
                raise PolyError(f"repeated eigenvalue at positions {i}, {j}")
    prefix = shifted_products(a, thetas)
    full = prefix[-1]
    if not full.is_zero():
        raise MinimalPolynomialError(full.rank())
    suffix = [prefix[0]]
    for t in reversed(thetas):
        suffix.append(a.shift(t) if len(suffix) == 1 else a.shift(t) * suffix[-1])
    suffix.reverse()  # suffix[i] = (A - t_i I)...(A - t_d I)
    out = []
    for i in range(d + 1):
        if i == 0:  # prefix[0] = I
            numer = suffix[1]
        elif i == d:  # suffix[d + 1] = I
            numer = prefix[d]
        else:
            numer = prefix[i] * suffix[i + 1]
        den = f.one
        for j in range(d + 1):
            if j != i:
                den = f.mul(den, f.sub(thetas[i], thetas[j]))
        out.append(numer.scale(f.inv(den)))
    return out


def eta_expansion_check(thetas: Sequence, field) -> bool:
    """Whether eta_d equals sum_i eta_{d-i}(t_0) * tau_i, coefficientwise."""
    d = len(thetas) - 1
    lhs = build_poly("eta", d, thetas, field)
    rhs = Poly(field, [])
    t0 = thetas[0]
    for i in range(d + 1):
        w = build_poly("eta", d - i, thetas, field)(t0)
        rhs = rhs + build_poly("tau", i, thetas, field).scale(w)
    return lhs == rhs
