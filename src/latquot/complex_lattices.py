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
from .exactnum import MatQ, MatZ, _frac
from .lattice_core import Lattice, standard
from .quotient_torus import InducedMap

# exact complex-rational scalar: a (re, im) pair of Fractions
CxRational = tuple[Fraction, Fraction]


def _cx(z) -> CxRational:
    """z as an exact (re, im) pair; each part converts as a ``MatQ`` entry does, so floats raise."""
    re, im = z if isinstance(z, tuple) else (z, 0)
    return (_frac(re), _frac(im))


class ComplexMatrix:
    """Immutable n-by-n matrix over the complex rationals.

    Its one body is its realification, the 2n-by-2n ``MatQ`` of 2x2 blocks
    [[a, -b], [b, a]]: ``+``, ``@`` and ``==`` are ``MatQ``'s, ``realify``
    returns the body, and ``entries`` reads the (a, b) pairs back off it.
    """

    __slots__ = ("n", "_real")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[_cx(z) for z in row] for row in entries]
        n = len(rows)
        if n < 1 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square with n >= 1")
        real = []
        for row in rows:
            real.append([x for a, b in row for x in (a, -b)])
            real.append([x for a, b in row for x in (b, a)])
        self.n = n
        self._real = MatQ(real)

    @classmethod
    def _of(cls, real: MatQ) -> "ComplexMatrix":
        """The complex matrix whose realification is ``real``."""
        m = object.__new__(cls)
        m.n = real.n // 2
        m._real = real
        return m

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls.scalar(n, 1)

    @classmethod
    def scalar(cls, n: int, z) -> "ComplexMatrix":
        """Multiplication by the complex number z on C^n."""
        w = _cx(z)
        return cls([[w if i == j else (0, 0) for j in range(n)] for i in range(n)])

    @property
    def entries(self) -> tuple[tuple[CxRational, ...], ...]:
        """The (re, im) entries: the first column of each 2x2 block of the body."""
        r = self._real.rows
        return tuple(tuple(zip(top[::2], bottom[::2])) for top, bottom in zip(r[::2], r[1::2]))

    def __eq__(self, other) -> bool:
        return isinstance(other, ComplexMatrix) and self._real == other._real

    def __repr__(self) -> str:
        return f"ComplexMatrix({[[(str(a), str(b)) for a, b in row] for row in self.entries]})"

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check(other)
        return ComplexMatrix._of(self._real + other._real)

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._check(other)
        return ComplexMatrix._of(self._real @ other._real)

    def _check(self, other: "ComplexMatrix") -> None:
        if not isinstance(other, ComplexMatrix):
            raise TypeError(f"expected ComplexMatrix, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")

    def det_c(self) -> CxRational:
        """Exact complex determinant p(i), p(t) = det(Re + t * Im) of degree <= n: Newton
        interpolation through the n + 1 rational determinants p(0), ..., p(n)."""
        n = self.n
        entries = self.entries
        c = [MatQ([[a + t * b for a, b in row] for row in entries]).det() for t in range(n + 1)]
        for k in range(1, n + 1):
            for t in range(n, k - 1, -1):
                c[t] = (c[t] - c[t - 1]) / k
        re, im = c[n], Fraction(0)
        for t in range(n - 1, -1, -1):
            re, im = c[t] - t * re - im, re - t * im  # (re + i im)(i - t) + c[t]
        return re, im


def realify(m: ComplexMatrix) -> MatQ:
    """The 2n-by-2n real matrix of m acting on interleaved (re, im) coordinates: m's body."""
    return m._real


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
    """True iff t commutes with multiplication by i, i.e. comes from a C-linear map.

    That is, every 2x2 block [[p, q], [r, s]] of t is [[a, -b], [b, a]]: s = p
    and r = -q, read off t's integer rows, with no product.
    """
    if t.n != 2 * n:
        raise DimensionMismatch(f"matrix must be {2 * n}x{2 * n} for complex dimension {n}")
    r = t.ints
    return all(r[i + 1][j + 1] == r[i][j] and r[i + 1][j] == -r[i][j + 1]
               for i in range(0, 2 * n, 2) for j in range(0, 2 * n, 2))


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
