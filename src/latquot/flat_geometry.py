"""Flat metric structure of lattice quotients.

Everything metric about R^n / L is encoded by the Gram form of the basis:
squared lengths of closed geodesics (one homotopy class per lattice vector),
the angles at which they meet, the injectivity radius of the quotient map,
and isometry of two quotients by an ambient rotation.  Minimality claims are
exact: the enumeration runs in integers over the Gram-Schmidt data (Gram
determinants and scaled multipliers) that the integral LLL leaves for the
reduced Gram form, never over floating-point approximations.  Each lattice
runs the LLL once and keeps what it returns, the triple (V, V^-1, gs) of
transform, inverse transform and that data (``Lattice.reduced_gram``);
enumeration and the isometry search work in reduced coordinates and map
their answers back through V and V^-1, so results never depend on the
presentation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    LatticeMismatch,
    NonPositiveBound,
    ZeroVector,
)
from .exactnum import MatQ, MatZ, PosDefForm, _int_entries, float_sqrt
from .lattice_core import Lattice

_ISOMETRY_MAX_DIM = 4


# the Gram form basis^T * basis of a lattice; all of its metric data
GramForm = PosDefForm


class LatticeVector:
    """An integer combination of the basis: the homotopy class of a closed geodesic."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: Lattice, coeffs: Sequence[int]):
        cs = _int_entries(coeffs, "lattice vector coefficients must be integers")
        if len(cs) != lattice.n:
            raise DimensionMismatch(
                f"coefficient length {len(cs)} does not match dimension {lattice.n}"
            )
        self.lattice = lattice
        self.coeffs = cs

    def ambient(self) -> tuple[Fraction, ...]:
        return self.lattice.basis.mul_vec(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        u = self.lattice.unimodular_change(other.lattice.basis)
        return u is not None and u.mul_vec(other.coeffs) == self.coeffs

    def __hash__(self) -> int:
        # equal vectors lie in equal lattices and have the same ambient point
        return hash((self.lattice, self.ambient()))

    def __repr__(self) -> str:
        return f"LatticeVector({self.lattice!r}, {list(self.coeffs)})"


def gram(lattice: Lattice) -> GramForm:
    """The Gram form basis^T * basis of the lattice basis."""
    return GramForm(lattice.gram_matrix())


def squared_length(v: LatticeVector) -> Fraction:
    """Exact squared length of the geodesic class: coeffs^T G coeffs."""
    return _form_value(v.lattice.gram_matrix(), v.coeffs, v.coeffs)


def _form_value(g: MatQ, a: Sequence, b: Sequence) -> Fraction:
    gb = g.mul_vec(b)
    return sum((x * y for x, y in zip(a, gb)), Fraction(0))


def _enumerate_bounded(gs: tuple, bound: Fraction) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All nonzero integer vectors x with x^T G' x <= bound, one per +- pair.

    ``gs`` is the integer Gram-Schmidt data (b, scale, d, lam) of the form
    G' = b / scale (``Lattice.reduced_gram``).  With
    y_k = d[k+1] x_k + sum_{j>k} lam[j][k] x_j the form splits as
    x^T b x = sum_k y_k^2 / (d[k] d[k+1]); times m = lcm_k d[k] d[k+1] this
    is sum_k c_k y_k^2 with integers c_k = m / (d[k] d[k+1]).  Choosing
    x_{n-1} first and descending, each level's budget r bounds |y_k| by
    isqrt(r // c_k), an exact integer interval for x_k.  The budget starts at
    floor(bound * scale * m), exact because the sum is an integer.  The
    representative of each +-c pair is the one whose highest-index nonzero
    coordinate is positive, obtained for free by restricting the first
    not-yet-nonzero coordinate to be >= 0.
    """
    if bound < 0:
        return
    _, scale, d, lam = gs
    n = len(d) - 1
    dd = [d[k] * d[k + 1] for k in range(n)]
    m = math.lcm(*dd)
    c = [m // x for x in dd]
    top = bound.numerator * scale * m // bound.denominator
    den = m * scale
    coeff = [0] * n

    def descend(k: int, r: int, zeros_above: bool):
        t = 0
        for j in range(k + 1, n):
            t += lam[j][k] * coeff[j]
        dk, ck = d[k + 1], c[k]
        s = math.isqrt(r // ck)
        lo = -((s + t) // dk)
        if zeros_above and lo < 0:
            lo = 0
        for x in range(lo, (s - t) // dk + 1):
            y = dk * x + t
            coeff[k] = x
            rest = r - ck * y * y
            if k:
                yield from descend(k - 1, rest, zeros_above and x == 0)
            elif x or not zeros_above:
                yield tuple(coeff), Fraction(top - rest, den)
        coeff[k] = 0

    yield from descend(n - 1, top, True)


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in reversed(coeffs):
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-x for x in coeffs)
    return coeffs


def _minimum(gs: tuple) -> tuple[Fraction, list[tuple[int, ...]]]:
    """The minimum of the form and its vectors, one per +- pair, in reduced coordinates.

    Exact: the initial bound is the smallest diagonal entry of the reduced
    form (always attained) and the enumeration below it is complete.
    """
    b, scale = gs[0], gs[1]
    start = Fraction(min(b[i][i] for i in range(len(b))), scale)
    best: Fraction | None = None
    found: list[tuple[int, ...]] = []
    for coeffs, value in _enumerate_bounded(gs, start):
        if best is None or value < best:
            best = value
            found = [coeffs]
        elif value == best:
            found.append(coeffs)
    return best, found


def shortest_vectors(lattice: Lattice) -> list[LatticeVector]:
    """All shortest nonzero vector classes, one per +- pair, in coefficient order."""
    v, _, gs = lattice.reduced_gram()
    out = sorted(_canonical_sign(v.mul_vec(c)) for c in _minimum(gs)[1])
    return [LatticeVector(lattice, c) for c in out]


def geodesic_spectrum(lattice: Lattice, bound) -> list[tuple[Fraction, int]]:
    """Squared lengths <= bound with multiplicities (each +- pair counted once)."""
    bound = Fraction(bound)
    if bound <= 0:
        raise NonPositiveBound("spectrum bound must be positive")
    tally: dict[Fraction, int] = {}
    for _, value in _enumerate_bounded(lattice.reduced_gram()[2], bound):
        tally[value] = tally.get(value, 0) + 1
    return sorted(tally.items())


def angle(v: LatticeVector, w: LatticeVector) -> float:
    """Angle between two geodesic direction vectors, in radians.

    Closed flat geodesics have constant direction, so the angle between two
    homotopy classes is well defined; this is the floating rendering of the
    exact value exposed by ``signed_cos_squared``: atan2 of the roots of the exact
    sin^2 and cos^2, both in [0, 1], so nothing overflows and small angles stay accurate.
    """
    cos_sq = signed_cos_squared(v, w)
    return math.atan2(float_sqrt(1 - abs(cos_sq)), math.copysign(math.sqrt(abs(cos_sq)), cos_sq))


def signed_cos_squared(v: LatticeVector, w: LatticeVector) -> Fraction:
    """Exact sign(cos) * cos^2 of the angle between two geodesic classes."""
    u = v.lattice.unimodular_change(w.lattice.basis)
    if u is None:
        raise LatticeMismatch("vectors belong to different lattices")
    if not any(v.coeffs) or not any(w.coeffs):
        raise ZeroVector("angle is undefined for the zero vector")
    g = v.lattice.gram_matrix()
    wc = u.mul_vec(w.coeffs)  # w's coefficients over v's basis
    num = _form_value(g, v.coeffs, wc)
    value = num * num / (_form_value(g, v.coeffs, v.coeffs) * _form_value(g, wc, wc))
    return value if num >= 0 else -value


def injectivity_radius(lattice: Lattice) -> tuple[Fraction, float]:
    """(r^2 exact, r float) for the largest r with the quotient map injective on r-balls.

    r is half the minimal geodesic length.
    """
    r_sq = _minimum(lattice.reduced_gram()[2])[0] / 4
    return r_sq, float_sqrt(r_sq)


def is_orthogonal(t: MatQ) -> bool:
    """True iff t^T t is exactly the identity."""
    return t.transpose() @ t == MatQ.identity(t.n)


def _vectors_with_norm(gs: tuple, value: Fraction) -> list[tuple[int, ...]]:
    """Both signs of every integer vector with exact form value ``value``."""
    if value <= 0:
        return []
    reps = [c for c, q in _enumerate_bounded(gs, value) if q == value]
    return sorted(reps + [tuple(-x for x in c) for c in reps])


def isometric_mod_rotation(l1: Lattice, l2: Lattice, oriented: bool = False) -> MatZ | None:
    """Search for a unimodular U with U^T G1 U = G2, exactly.

    Such a U certifies an ambient orthogonal map taking the first lattice
    onto the second, i.e. that the two quotient tori are isometric by a
    rotation.  The search runs on the LLL-reduced forms G1' = V1^T G1 V1 and
    G2' = V2^T G2 V2: it matches G2' column by column against enumerated
    vectors of G1', and a witness U' with U'^T G1' U' = G2' maps back to
    U = V1 U' V2^-1, V2^-1 the one ``reduced_gram`` keeps beside V2.

    With ``oriented`` the witness must additionally have determinant +1 and
    the implied ambient map must preserve orientation.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    if l1.n > _ISOMETRY_MAX_DIM:
        raise DimensionTooLarge(f"isometry search is limited to dimension {_ISOMETRY_MAX_DIM}")
    # det G = det(basis)^2
    if abs(l1.basis_det) != abs(l2.basis_det):
        return None
    if oriented and (l1.basis_det > 0) != (l2.basis_det > 0):
        return None
    v1, _, gs1 = l1.reduced_gram()
    v2, v2_inv, gs2 = l2.reduced_gram()
    n = l1.n
    # det U' = +-1 follows from det G1' = det G2'; det U = det U' * det V1 * det V2
    sign = v1.det() * v2.det() if oriented else 1
    b1, scale1 = gs1[0], gs1[1]
    b2, scale2 = gs2[0], gs2[1]
    # c_i^T G1' c_j = G2'_ij  <=>  (scale2 * b1 c_i) . c_j = scale1 * b2_ij, in integers
    targets = [[scale1 * x for x in row] for row in b2]

    # each candidate column c of U' carries scale2 * b1 c, for the checks against later columns
    candidates: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for j in range(n):
        norm = b2[j][j]
        if norm not in candidates:
            candidates[norm] = [
                (c, [scale2 * sum(x * y for x, y in zip(row, c)) for row in b1])
                for c in _vectors_with_norm(gs1, Fraction(norm, scale2))
            ]
        if not candidates[norm]:
            return None

    cols: list[tuple[tuple[int, ...], list[int]]] = []

    def backtrack(j: int) -> MatZ | None:
        if j == n:
            u = MatZ([[cols[c][0][r] for c in range(n)] for r in range(n)])
            return None if oriented and u.det() * sign != 1 else u
        target_row = targets[j]
        for cand in candidates[b2[j][j]]:
            c = cand[0]
            if all(sum(x * y for x, y in zip(cols[i][1], c)) == target_row[i] for i in range(j)):
                cols.append(cand)
                result = backtrack(j + 1)
                cols.pop()
                if result is not None:
                    return result
        return None

    u = backtrack(0)
    if u is None:
        return None
    return v1 @ u @ v2_inv
