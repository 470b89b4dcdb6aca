"""Full-rank lattices in R^n presented by invertible rational bases.

A lattice is the set of integer combinations of the columns of its basis
matrix.  The basis is kept exactly as supplied; equality and canonical
comparisons go through exact unimodular change-of-basis tests rather than
normalizing the user's presentation away.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NotASublattice,
    NotEqualLattices,
    SingularBasis,
    ZeroScale,
)
from .exactnum import MatQ, MatZ, hnf, ldl, lll_gram


def _vector(x: Sequence, n: int) -> tuple[Fraction, ...]:
    if len(x) != n:
        raise DimensionMismatch(f"vector length {len(x)} does not match dimension {n}")
    return tuple(Fraction(c) for c in x)


class Lattice:
    """Lattice basis(Z^n); the columns of ``basis`` are the generators."""

    __slots__ = ("n", "basis", "_canonical", "_gram", "_reduced")

    def __init__(self, basis: MatQ):
        if basis.det() == 0:
            raise SingularBasis("basis columns are linearly dependent")
        self.n = basis.n
        self.basis = basis
        self._canonical: MatQ | None = None
        self._gram: MatQ | None = None
        self._reduced: tuple | None = None

    def canonical_basis(self) -> MatQ:
        """Presentation-independent basis: the scaled column Hermite form.

        Clearing denominators, taking the Hermite normal form and scaling
        back yields the same lower-triangular matrix for every basis of the
        same lattice, so this is usable for hashing and deterministic output.
        """
        if self._canonical is None:
            d = math.lcm(*[x.denominator for row in self.basis.rows for x in row])
            lift = MatZ([[int(x * d) for x in row] for row in self.basis.rows])
            self._canonical = Fraction(1, d) * hnf(lift).to_matq()
        return self._canonical

    def gram_matrix(self) -> MatQ:
        if self._gram is None:
            self._gram = self.basis.transpose() @ self.basis
        return self._gram

    def reduced_gram(self) -> tuple[MatQ, MatZ, tuple[MatQ, tuple[Fraction, ...]]]:
        """(G', V, ldl(G')): the LLL-reduced Gram form G' = V^T G V, its
        unimodular transform V and the LDL^T factorization of G'.

        Computed on first use and kept; the lattice is immutable, so the
        cache never goes stale.
        """
        if self._reduced is None:
            reduced, v = lll_gram(self.gram_matrix())
            self._reduced = (reduced, v, ldl(reduced))
        return self._reduced

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.n == other.n and equals(self, other)

    def __hash__(self) -> int:
        return hash((self.n, self.canonical_basis()))

    def __repr__(self) -> str:
        return f"Lattice({self.basis!r})"


def from_basis(basis: MatQ) -> Lattice:
    """Lattice generated by the columns of ``basis``."""
    return Lattice(basis)


def standard(n: int) -> Lattice:
    """The standard integer lattice Z^n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return Lattice(MatQ.identity(n))


def scale(lattice: Lattice, c) -> Lattice:
    """The lattice c*L for a nonzero rational scalar c."""
    c = Fraction(c)
    if c == 0:
        raise ZeroScale("scaling a lattice by 0 is not allowed")
    return Lattice(c * lattice.basis)


def contains(lattice: Lattice, x: Sequence) -> bool:
    """Exact membership: x is in L iff basis^-1 x is an integer vector."""
    v = _vector(x, lattice.n)
    coords = lattice.basis.inverse().mul_vec(v)
    return all(c.denominator == 1 for c in coords)


def equals(l1: Lattice, l2: Lattice) -> bool:
    """True iff the two lattices are the same subgroup of R^n.

    Equivalent to the change of basis basis1^-1 * basis2 being an integer
    matrix of determinant +-1.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    u = l1.basis.inverse() @ l2.basis
    return u.is_integral() and abs(u.det()) == 1

def sublattice_index(sub: Lattice, lattice: Lattice) -> int:
    """The index [L : Lsub], i.e. the number of cosets of Lsub in L.

    Defined whenever every generator of ``sub`` lies in ``lattice``; equals
    the covolume ratio |det(basis^-1 * basis_sub)|.
    """
    if sub.n != lattice.n:
        raise DimensionMismatch(f"lattice dimensions differ: {sub.n} vs {lattice.n}")
    u = lattice.basis.inverse() @ sub.basis
    if not u.is_integral():
        raise NotASublattice("first lattice is not contained in the second")
    return abs(u.det().numerator)


def covolume(lattice: Lattice) -> Fraction:
    """|det basis|, the volume of the quotient torus R^n / L."""
    return abs(lattice.basis.det())


def change_of_basis_witness(l1: Lattice, l2: Lattice) -> MatZ:
    """The unimodular integer U with basis1 * U = basis2, for equal lattices."""
    if not equals(l1, l2):
        raise NotEqualLattices("lattices are not equal; no unimodular change of basis exists")
    return (l1.basis.inverse() @ l2.basis).to_matz()
