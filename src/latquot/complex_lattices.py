"""Lattices in C^n through the identification with R^{2n}.

Complex coordinates are interleaved as (re_1, im_1, re_2, im_2, ...), so
multiplication by i realifies to a block-diagonal matrix and each complex
entry a + bi becomes the 2x2 block [[a, -b], [b, a]].  Complex scalars stay
exact as (re, im) pairs of rationals; no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch
from .exactnum import MatQ, MatZ
from .lattice_core import Lattice, standard
from .quotient_torus import InducedMap

# exact complex-rational scalar: a (re, im) pair of Fractions
CxRational = tuple[Fraction, Fraction]


def _cx(z) -> CxRational:
    if isinstance(z, tuple):
        re, im = z
        return (Fraction(re), Fraction(im))
    return (Fraction(z), Fraction(0))


def _cadd(a: CxRational, b: CxRational) -> CxRational:
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a: CxRational, b: CxRational) -> CxRational:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class ComplexMatrix:
    """Immutable n-by-n matrix over the complex rationals."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(tuple(_cx(z) for z in row) for row in entries)
        n = len(data)
        if n < 1 or any(len(row) != n for row in data):
            raise ValueError("matrix must be square with n >= 1")
        self.n = n
        self.entries = data

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls([[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, n: int, z) -> "ComplexMatrix":
        """Multiplication by the complex number z on C^n."""
        w = _cx(z)
        return cls([[w if i == j else (0, 0) for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, ComplexMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"ComplexMatrix({[[(str(a), str(b)) for a, b in row] for row in self.entries]})"

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check(other)
        return ComplexMatrix(
            [[_cadd(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = (Fraction(0), Fraction(0))
                for k in range(n):
                    acc = _cadd(acc, _cmul(self.entries[i][k], other.entries[k][j]))
                row.append(acc)
            out.append(row)
        return ComplexMatrix(out)

    def _check(self, other: "ComplexMatrix") -> None:
        if not isinstance(other, ComplexMatrix):
            raise TypeError(f"expected ComplexMatrix, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")

    def det_c(self) -> CxRational:
        """Exact complex determinant p(i), p(t) = det(Re + t * Im) of degree <= n: Newton
        interpolation through the n + 1 rational determinants p(0), ..., p(n)."""
        n = self.n
        c = [MatQ([[a + t * b for a, b in row] for row in self.entries]).det() for t in range(n + 1)]
        for k in range(1, n + 1):
            for t in range(n, k - 1, -1):
                c[t] = (c[t] - c[t - 1]) / k
        value = (c[n], Fraction(0))
        for t in range(n - 1, -1, -1):
            value = _cadd(_cmul(value, (Fraction(-t), Fraction(1))), (c[t], Fraction(0)))
        return value


def realify(m: ComplexMatrix) -> MatQ:
    """The 2n-by-2n real matrix of m acting on interleaved (re, im) coordinates."""
    n = m.n
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a, b = m.entries[i][j]
            out[2 * i][2 * j] = a
            out[2 * i][2 * j + 1] = -b
            out[2 * i + 1][2 * j] = b
            out[2 * i + 1][2 * j + 1] = a
    return MatQ(out)


class ComplexStructure:
    """Multiplication by i on R^{2n}: block-diagonal [[0, -1], [1, 0]] blocks."""

    __slots__ = ("n", "j")

    def __init__(self, n: int, j: MatZ):
        if j.n != 2 * n:
            raise DimensionMismatch(f"complex structure on C^{n} must act on R^{2 * n}")
        minus_identity = MatZ([[-1 if a == b else 0 for b in range(j.n)] for a in range(j.n)])
        if j @ j != minus_identity:
            raise ValueError("complex structure must square to minus the identity")
        self.n = n
        self.j = j

    @classmethod
    def standard(cls, n: int) -> "ComplexStructure":
        return cls(n, realify(ComplexMatrix.scalar(n, (0, 1))).to_matz())

    def __repr__(self) -> str:
        return f"ComplexStructure(n={self.n})"


def standard_complex_structure(n: int) -> ComplexStructure:
    return ComplexStructure.standard(n)


def is_complex_linear(t: MatQ, n: int) -> bool:
    """True iff t commutes with multiplication by i, i.e. comes from a C-linear map."""
    if t.n != 2 * n:
        raise DimensionMismatch(f"matrix must be {2 * n}x{2 * n} for complex dimension {n}")
    j = ComplexStructure.standard(n).j.to_matq()
    return t @ j == j @ t


def gaussian_lattice(n: int) -> Lattice:
    """(Z[i])^n, the standard integer lattice of C^n, realified: Z^{2n}."""
    if n < 1:
        raise ValueError("complex dimension must be >= 1")
    return standard(2 * n)


def is_unitary(t: MatQ, n: int) -> bool:
    """Complex-linear and orthogonal, the two halves of unitarity over R^{2n}."""
    from .flat_geometry import is_orthogonal

    return is_complex_linear(t, n) and is_orthogonal(t)


def complex_map_check(a: ComplexMatrix, source: Lattice, target: Lattice) -> InducedMap:
    """Validate that the realified matrix takes one lattice onto the other.

    The returned induced map automatically preserves the complex structure of
    the quotients because its ambient matrix is a realification.
    """
    return InducedMap(realify(a), source, target)
