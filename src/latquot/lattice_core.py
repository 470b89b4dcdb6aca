"""Full-rank lattices in R^n presented by invertible rational bases.

A lattice is the set of integer combinations of the columns of its basis
matrix.  The basis is kept exactly as supplied; equality and canonical
comparisons go through exact unimodular change-of-basis tests rather than
normalizing the user's presentation away: every coordinate, membership and
basis-change question is one exact solve of basis * X = Y (``MatQ.solve``),
a substitution through the LU the basis keeps from the determinant taken at
construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NotASublattice,
    NotEqualLattices,
    SingularBasis,
    ZeroScale,
)
from .exactnum import MatQ, MatZ, _frac, _lll, hnf


class Lattice:
    """Lattice basis(Z^n); the columns of ``basis`` are the generators."""

    __slots__ = ("n", "basis", "basis_det", "_canonical", "_reduced", "_walks")

    def __init__(self, basis: MatQ):
        det = basis.det()
        if det == 0:
            raise SingularBasis("basis columns are linearly dependent")
        self.n = basis.n
        self.basis = basis
        # signed: its absolute value is the covolume, its sign the orientation
        self.basis_det = det
        self._canonical: MatQ | None = None
        self._reduced: tuple | None = None
        # flat_geometry's: what the lattice's short-vector walks found (``flat_geometry._walks``)
        self._walks = None

    def canonical_basis(self) -> MatQ:
        """Presentation-independent basis: the scaled column Hermite form.

        The Hermite normal form of the basis's integer rows, over the basis's
        denominator, is the same lower-triangular matrix for every basis of the
        same lattice, so this is usable for hashing and deterministic output.
        """
        if self._canonical is None:
            self._canonical = MatQ._of(hnf(MatZ._of(self.basis.ints)).ints, self.basis.den)
        return self._canonical

    def gram_matrix(self) -> MatQ:
        """The Gram form basis^T * basis, one integer product of the basis's body, on each
        call and not kept: its body is the integral Gram matrix b over scale that
        ``reduced_gram`` forms the same way."""
        return self.basis.transpose() @ self.basis

    def reduced_gram(self) -> tuple[MatZ, MatZ, tuple]:
        """(V, V^-1, gs): the unimodular transform V of the LLL reduction, its
        inverse, and the integer Gram-Schmidt data gs = (b, scale, d, lam) it
        ends with: the reduced Gram form V^T G V as the integers
        b = scale * G', the Gram determinants d and the scaled multipliers lam
        (``exactnum._lll``).

        Computed on first use by one LLL run on the body of the Gram form
        basis^T * basis, an integer product, and kept as that run returns it;
        the lattice is immutable, so the cache never goes stale.
        """
        if self._reduced is None:
            g = self.basis.transpose() @ self.basis
            self._reduced = _lll(g.ints, g.den)
        return self._reduced

    def coordinates(self, x: MatQ | Sequence) -> MatQ | tuple[Fraction, ...]:
        """The X with basis * X = x: the coordinates of the vector x, or of each column of x."""
        return self.basis.solve(x)

    def unimodular_change(self, m: MatQ) -> MatZ | None:
        """The U in GL_n(Z) with basis * U = m, or None if the columns of m (of any size)
        are not a basis: the integer change from coordinates over m to coordinates over basis,
        found by one solve through the basis's kept LU, also for m the basis itself."""
        if m.n != self.n or abs(m.det()) != abs(self.basis_det):
            return None  # |det U| = |det m| / |det basis| is not 1
        u = self.coordinates(m)
        return u.to_matz() if u.is_integral() else None  # |det U| = 1: unimodular iff integral

    def _carry(self, other: Lattice, x: Sequence) -> Sequence | None:
        """x, coordinates over ``other``'s basis, as coordinates over this lattice's basis:
        x itself when both lattices hold one basis object, else one integer product by
        ``unimodular_change``; None when ``other`` is a different lattice."""
        if other.basis is self.basis:
            return x
        u = self.unimodular_change(other.basis)
        return None if u is None else u.mul_vec(x)

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
    c = _frac(c)
    if c == 0:
        raise ZeroScale("scaling a lattice by 0 is not allowed")
    return Lattice(c * lattice.basis)


def contains(lattice: Lattice, x: Sequence) -> bool:
    """Exact membership: x is in L iff basis^-1 x is an integer vector."""
    return all(c.denominator == 1 for c in lattice.coordinates(x))


def equals(l1: Lattice, l2: Lattice) -> bool:
    """True iff the two lattices are the same subgroup of R^n.

    The one equality test (``==`` and ``!=`` on lattices use it): a U in
    GL_n(Z) with basis1 * U = basis2 exists (``Lattice.unimodular_change``).
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    return l1.unimodular_change(l2.basis) is not None


def sublattice_index(sub: Lattice, lattice: Lattice) -> int:
    """The index [L : Lsub], i.e. the number of cosets of Lsub in L.

    Defined whenever every generator of ``sub`` lies in ``lattice``; equals
    the covolume ratio |det(basis^-1 * basis_sub)|.
    """
    if sub.n != lattice.n:
        raise DimensionMismatch(f"lattice dimensions differ: {sub.n} vs {lattice.n}")
    if not lattice.coordinates(sub.basis).is_integral():
        raise NotASublattice("first lattice is not contained in the second")
    return abs(sub.basis_det / lattice.basis_det).numerator


def covolume(lattice: Lattice) -> Fraction:
    """|det basis|, the volume of the quotient torus R^n / L."""
    return abs(lattice.basis_det)


def change_of_basis_witness(l1: Lattice, l2: Lattice) -> MatZ:
    """The unimodular integer U with basis1 * U = basis2, for equal lattices."""
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    u = l1.unimodular_change(l2.basis)
    if u is None:
        raise NotEqualLattices("lattices are not equal; no unimodular change of basis exists")
    return u
