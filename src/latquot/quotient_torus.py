"""The quotient torus R^n / L and the maps between such quotients.

Points are stored by exact fractional coordinates in the lattice basis, so
two points are equal iff their representatives differ by a lattice vector,
with no tolerance anywhere.  Presentations of L and induced maps act on these
coordinates by integer matrices, never through R^n.  The one carry between
presentations is ``Lattice._carry``: the coordinates themselves when both
lattices hold one basis object, else one ``MatZ.mul_vec`` by
``Lattice.unimodular_change``, an integer product with the coordinates lifted
over their common denominator; an induced map's witness acts the same way.
Only the sums and ``% 1`` after it are Fraction arithmetic.  An induced map
is decided on kept determinants: |det A| off A's kept LU against the
covolume ratio, before A * basis1 is formed and solved for the witness.  The
only floating-point operations here are the angle-style circle
parametrization and irrational volume scalings, both documented as such.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateParallelepiped,
    DimensionMismatch,
    LatticeMismatch,
    NonFiniteInput,
    NotLatticePreserving,
    SingularMatrix,
    ZeroScale,
)
from .exactnum import MatQ, MatZ, _frac, to_float
from .lattice_core import Lattice, covolume, equals


class TorusPoint:
    """A point of R^n / L: fractional coordinates in [0, 1)^n over the basis."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice: Lattice, coords: Sequence):
        cs = tuple(map(_frac, coords))
        if len(cs) != lattice.n:
            raise DimensionMismatch(
                f"coordinate length {len(cs)} does not match dimension {lattice.n}"
            )
        if any(c < 0 or c >= 1 for c in cs):
            raise ValueError("torus coordinates must lie in [0, 1)")
        self.lattice = lattice
        self.coords = cs

    def ambient(self) -> tuple[Fraction, ...]:
        """The canonical representative basis * coords in R^n."""
        return self.lattice.basis.mul_vec(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        x = self.lattice._carry(other.lattice, other.coords)
        return x is not None and tuple(c % 1 for c in x) == self.coords

    def __hash__(self) -> int:
        # the point's coordinates over the lattice's canonical basis, which
        # every presentation of the lattice shares
        coords = self.lattice.canonical_basis().solve(self.ambient())
        return hash((self.lattice, tuple(c % 1 for c in coords)))

    def __repr__(self) -> str:
        return f"TorusPoint({self.lattice!r}, {[str(c) for c in self.coords]})"


def reduce(lattice: Lattice, x: Sequence) -> TorusPoint:
    """Canonical quotient map: send x in R^n to its class modulo the lattice."""
    coords = lattice.coordinates(x)
    return TorusPoint(lattice, tuple(c % 1 for c in coords))


def torus_add(p: TorusPoint, q: TorusPoint) -> TorusPoint:
    """Group addition on the quotient torus."""
    x = p.lattice._carry(q.lattice, q.coords)
    if x is None:
        raise LatticeMismatch("points live on quotients by different lattices")
    return TorusPoint(p.lattice, tuple((a + b) % 1 for a, b in zip(p.coords, x)))


class InducedMap:
    """The map R^n/L1 -> R^n/L2 induced by an ambient A with A(L1) = L2.

    Decided in this order, with no elimination of the product A * basis1:
    SingularMatrix when det A, read off A's kept LU, is 0;
    NotLatticePreserving when |det A| is not covolume(L2) / covolume(L1);
    otherwise W = basis2^-1 A basis1, solved through the target basis's kept
    LU, which is unimodular iff it is integral (NotLatticePreserving if not).
    """

    __slots__ = ("matrix", "source", "target", "witness")

    def __init__(self, matrix: MatQ, source: Lattice, target: Lattice):
        if matrix.n != source.n or source.n != target.n:
            raise DimensionMismatch("matrix and lattice dimensions must all agree")
        d = matrix.det()  # off A's kept LU
        if d == 0:
            raise SingularMatrix("ambient matrix has determinant 0")
        # |det W| = |det A| * covolume(L1) / covolume(L2): W is unimodular iff that is 1 and W is integral
        w = target.coordinates(matrix @ source.basis) if abs(d) == covolume(target) / covolume(source) else None
        if w is None or not w.is_integral():
            raise NotLatticePreserving("ambient matrix does not take the source lattice onto the target")
        self.matrix = matrix
        self.source = source
        self.target = target
        # the unimodular W with A * basis1 = basis2 * W: the map on coordinates
        self.witness: MatZ = w.to_matz()

    def __repr__(self) -> str:
        return f"InducedMap({self.matrix!r}, {self.source!r}, {self.target!r})"


def make_induced_map(matrix: MatQ, source: Lattice, target: Lattice) -> InducedMap:
    """Validate A(L1) = L2 and build the induced quotient map."""
    return InducedMap(matrix, source, target)


def apply_induced(f: InducedMap, p: TorusPoint) -> TorusPoint:
    """Image of a torus point: witness * coords mod 1, once ``Lattice._carry`` has
    carried the coordinates to the source basis (no elimination on the source itself,
    and no product at all for a point over the source's own basis object)."""
    x = f.source._carry(p.lattice, p.coords)
    if x is None:
        raise LatticeMismatch("point does not live on the map's source torus")
    return TorusPoint(f.target, tuple(c % 1 for c in f.witness.mul_vec(x)))


def compose(f: InducedMap, g: InducedMap) -> InducedMap:
    """The induced map of the composition: first g, then f."""
    if not equals(g.target, f.source):
        raise LatticeMismatch("maps are not composable: target of g differs from source of f")
    return InducedMap(f.matrix @ g.matrix, g.source, f.target)


def circle_map(t) -> tuple[float, float]:
    """The unit-circle parametrization t -> (cos t, sin t).

    This is the explicit n = 1 identification of R / (2*pi)Z with the unit
    circle; it is the one place angles enter in floating point.  A parameter
    beyond the float range raises FloatRangeError.
    """
    if isinstance(t, float) and not math.isfinite(t):
        raise NonFiniteInput("circle parameter must be finite")
    # below 1 in size float() cannot overflow, and an underflow to 0.0 is far
    # inside the 1e-12 accuracy of the result; above it, to_float refuses overflow
    t = float(t) if abs(t) < 1 else to_float(t)
    return (math.cos(t), math.sin(t))


def volume_scale(f: InducedMap) -> Fraction:
    """|det A| = covolume(L2) / covolume(L1): the exact factor by which the induced map scales volumes."""
    return covolume(f.target) / covolume(f.source)


def volume_of_scaled(lattice: Lattice, c) -> float:
    """Volume of the quotient by c*L for a real (possibly irrational) c.

    The only sanctioned irrational-scaling path; everything rational stays in
    the exact layer via ``lattice_core.scale``.  |c|^n * covolume is formed
    exactly, from c itself when it is an int or a Fraction and from the exact
    value of its float otherwise, and rounded once, so FloatRangeError refuses
    only a volume outside the normal floats, never an intermediate power or a
    finite scale.  A NaN or infinite scale raises NonFiniteInput.
    """
    if c == 0:
        raise ZeroScale("scaling a lattice by 0 is not allowed")
    if not isinstance(c, (int, Fraction)) and not math.isfinite(c := float(c)):
        raise NonFiniteInput("scale must be finite")
    return to_float(abs(Fraction(c)) ** lattice.n * covolume(lattice))


def parallelepiped_image_volume(f: InducedMap, edge_coords: MatQ) -> Fraction:
    """Exact volume of the image of a small parallelepiped under the map.

    The columns of ``edge_coords`` are edge vectors in fractional coordinates
    of the source lattice, so the parallelepiped has volume
    |det(basis1 * edge_coords)| upstairs; the image has |det A| times it, which
    is covolume(L2) * |det edge_coords| because A(L1) = L2.
    """
    if edge_coords.n != f.source.n:
        raise DimensionMismatch("edge matrix size does not match the source dimension")
    if any(x < 0 or x >= 1 for row in edge_coords.rows for x in row):
        raise ValueError("edge coordinates must lie in [0, 1)")
    d = edge_coords.det()
    if d == 0:
        raise DegenerateParallelepiped("edge vectors are linearly dependent")
    return covolume(f.target) * abs(d)
