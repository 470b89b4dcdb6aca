"""Flat metric structure of lattice quotients.

Everything metric about R^n / L is encoded by the Gram form of the basis:
squared lengths of closed geodesics (one homotopy class per lattice vector),
the angles at which they meet, the injectivity radius of the quotient map,
and isometry of two quotients by an ambient rotation.  Every one of them is
read off integers: squared lengths and angles off the integer body
b / scale of the Gram form basis^T * basis (``Lattice.gram_matrix``), the
rest off the reduced form below; no Fraction arithmetic forms either.  Minimality claims are
exact: the enumeration runs in integers over the Gram-Schmidt data (Gram
determinants and scaled multipliers) that the integral LLL leaves for the
reduced Gram form, never over floating-point approximations.  Each lattice
runs the LLL once and keeps what it returns, the triple (V, V^-1, gs) of
transform, inverse transform and that data (``Lattice.reduced_gram``);
enumeration and the isometry search work in reduced coordinates and map
their answers back through V and V^-1, so results never depend on the
presentation.

Each lattice also keeps what its short-vector walks found (``_Walks``, in
the lattice's one slot for it): the norm data every walk shares; its short
vectors, every vector of the reduced form up to the largest norm asked so
far, grouped by norm, from one walk; and its geodesic spectrum up to the
largest bound asked so far, which answers every smaller bound.  The least
norm of the short vectors is the minimum, the squared length of the
shortest closed geodesics, and its vectors are the minimal ones: they answer
``shortest_vectors`` and ``injectivity_radius`` (half the minimal length,
the largest radius on which R^n -> R^n / L is injective).  Every isometry
search from the lattice reads its candidates off the same vectors.  A first
call still walks once; the gain is on repeated calls on one lattice object.
What is kept is bounded by what was asked: one (length, count) pair per
length a spectrum returned, and every vector up to the largest norm that a
search or the minimum needed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    LatticeMismatch,
    NonPositiveBound,
    ZeroVector,
)
from .exactnum import MatQ, MatZ, PosDefForm, _frac, _int_entries, float_sqrt
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

    @classmethod
    def _of(cls, lattice: Lattice, coeffs: tuple[int, ...]) -> LatticeVector:
        """The vector on ``coeffs``, a tuple of n ints that the library built: no
        conversion or check (as ``MatQ._of``)."""
        v = object.__new__(cls)
        v.lattice = lattice
        v.coeffs = coeffs
        return v

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
    """The Gram form basis^T * basis of the lattice basis (``Lattice.gram_matrix``)."""
    return GramForm(lattice.gram_matrix())


def squared_length(v: LatticeVector) -> Fraction:
    """Exact squared length of the geodesic class: x^T G x for its coefficients x, as
    x^T b x / scale on the body b / scale of the Gram form (``Lattice.gram_matrix``)."""
    g = v.lattice.gram_matrix()
    return Fraction(_form_value(g.ints, v.coeffs, v.coeffs), g.den)


def _form_value(b: Sequence[Sequence[int]], x: Sequence[int], y: Sequence[int]) -> int:
    """x^T b y, for integer vectors x, y and an integer matrix b."""
    return sum(map(mul, x, [sum(map(mul, row, y)) for row in b]))


def _norm_denominator(gs: tuple) -> tuple[int, list[int]]:
    """(den, c) for the Gram-Schmidt data gs = (b, scale, d, lam) of G' = b / scale.

    With y_k = d[k+1] x_k + sum_{j>k} lam[j][k] x_j the form splits as
    x^T b x = sum_k y_k^2 / (d[k] d[k+1]).  With m = lcm_k d[k] d[k+1] and the
    integers c_k = m / (d[k] d[k+1]), den = m * scale gives
    den * x^T G' x = sum_k c_k y_k^2, an integer for every integer x.
    """
    _, scale, d, _ = gs
    dd = [d[k] * d[k + 1] for k in range(len(d) - 1)]
    m = math.lcm(*dd)
    return m * scale, [m // x for x in dd]


def _enumerate_bounded(gs: tuple, c: list[int], top: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(x, v) for all nonzero integer vectors x with v = den * x^T G' x <= top, one per +- pair.

    ``gs`` is the integer Gram-Schmidt data (b, scale, d, lam) of the form
    G' = b / scale (``Lattice.reduced_gram``) and den, c_k come from
    ``_norm_denominator`` (a lattice keeps them, ``_Walks``), so
    v = sum_k c_k y_k^2 is an integer and a bound on x^T G' x is the integer
    top = floor(bound * den).  The walk is Fincke & Pohst's (Math. Comp. 44,
    1985) as one loop, not a recursion (as in Agrell, Eriksson, Vardy &
    Zeger, IEEE Trans. IT 48, 2002): x_{n-1} is chosen first and the levels
    descend, each holding its coordinate x_k, the end of its interval, its
    centre t_k = sum_{j>k} lam[j][k] x_j (so y_k = d[k+1] x_k + t_k) and the
    budget left for it and the levels below.  A budget r bounds |y_k| by
    isqrt(r // c_k), an exact integer interval for x_k; the first budget is
    top.  The representative of each +-x pair is the one whose highest-index
    nonzero coordinate is positive, obtained for free by restricting the
    first not-yet-nonzero coordinate to be >= 0.  The vectors stream out one
    at a time.  Every caller passes a nonnegative top.
    """
    d, lam = gs[2], gs[3]
    n = len(d) - 1
    below = [[lam[j][k] for j in range(k + 1, n)] for k in range(n)]  # column k of lam under the diagonal
    x = [0] * n
    end = [0] * n
    centre = [0] * n
    budget = [0] * n + [top]  # budget[k + 1]: what levels k, ..., 0 may still spend
    k = n - 1
    while True:
        # enter level k: the interval [lo, hi] of x_k; while every x_j, j > k, is 0, x_k >= 0
        above = x[k + 1:]
        t = sum(map(mul, below[k], above))
        dk, r = d[k + 1], budget[k + 1]
        s = math.isqrt(r // c[k])
        lo = -((s + t) // dk)
        hi = (s - t) // dk
        if k:
            if lo < 0 and not any(above):
                lo = 0
            if lo <= hi:
                x[k], end[k], centre[k] = lo, hi, t
                y = dk * lo + t
                budget[k] = r - c[k] * y * y
                k -= 1
                continue
        else:
            if lo < 1 and not any(above):
                lo = 1  # and x != 0
            spent, c0 = top - r, c[0]
            for x0 in range(lo, hi + 1):
                x[0] = x0
                y = dk * x0 + t
                yield tuple(x), spent + c0 * y * y
            x[0] = 0
        # climb to the nearest level whose interval has room, and step it
        while True:
            k += 1
            if k == n:
                return
            xk = x[k] + 1
            if xk <= end[k]:
                x[k] = xk
                y = d[k + 1] * xk + centre[k]
                budget[k] = budget[k + 1] - c[k] * y * y
                k -= 1
                break
            x[k] = 0


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """coeffs or -coeffs, whichever has its last nonzero entry positive; coeffs is never zero."""
    for c in reversed(coeffs):
        if c > 0:
            return coeffs
        if c < 0:
            return tuple(-x for x in coeffs)


class _Spectrum(NamedTuple):
    """A kept spectrum: top = floor(bound * den) for the largest bound asked so far;
    norms, the integers v = den * length of the lengths attained up to it, sorted;
    and tally, the answer's (length, count) pairs in the same order."""

    top: int
    norms: list[int]
    tally: list[tuple[Fraction, int]]


class _Walks:
    """What a lattice keeps of its short-vector walks, in its slot ``Lattice._walks``.

    ``den`` and ``c`` are the norm data of every walk of its reduced form
    (``_norm_denominator``).  ``short`` is (top, shells): shells maps every
    integer v = den * x^T G' x <= top that the reduced form attains, in
    rising order, to both signs of its vectors x, sorted, each with the
    integers b x (b = scale * G').  One walk to top builds it, so its first
    key is den times the minimum, and a v <= top that is no key has no
    vector; it starts as (0, {}).  ``minimal`` is ``shortest_vectors``'
    answer over the lattice's basis and ``spectrum`` a ``_Spectrum``, each
    None until first asked.  The lattice is immutable, so nothing goes
    stale.  An entry is built whole and then stored, never changed after: a
    larger top replaces ``short`` whole, a walk that stops half way keeps
    nothing, and concurrent callers read either the old entry or the new.
    No lock is taken: two callers that store at once can lose one of their
    entries, which costs a later walk, never a wrong answer.
    """

    __slots__ = ("den", "c", "short", "minimal", "radius", "spectrum")

    def __init__(self, gs: tuple):
        self.den, self.c = _norm_denominator(gs)
        self.short: tuple[int, dict[int, tuple]] = (0, {})
        self.minimal: tuple[tuple[int, ...], ...] | None = None
        self.radius: tuple[Fraction, float] | None = None
        self.spectrum: _Spectrum | None = None


def _walks(lattice: Lattice) -> _Walks:
    """The lattice's kept walks; an empty store is made on first use, never at construction."""
    kept = lattice._walks
    if kept is None:
        kept = lattice._walks = _Walks(lattice.reduced_gram()[2])
    return kept


def _short(lattice: Lattice, top: int) -> dict[int, tuple]:
    """The shells the lattice keeps (``_Walks.short``), first walked to ``top`` if its kept top is below."""
    kept = _walks(lattice)
    short = kept.short
    if short[0] < top:
        gs = lattice.reduced_gram()[2]
        found: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
        for x, v in _enumerate_bounded(gs, kept.c, top):
            bx = tuple([sum(map(mul, row, x)) for row in gs[0]])
            found.setdefault(v, []).extend(((x, bx), (tuple([-t for t in x]), tuple([-t for t in bx]))))
        short = kept.short = (top, {v: tuple(sorted(found[v])) for v in sorted(found)})
    return short[1]


def _least(lattice: Lattice) -> tuple[int, tuple]:
    """(v, shell) of the lattice's minimum: the first key of its kept shells and what it maps to.

    With no vector kept, one walk to the least diagonal entry of the reduced
    form, which is attained, finds the minimum.
    """
    kept = _walks(lattice)
    shells = kept.short[1]
    if not shells:
        b, scale = lattice.reduced_gram()[2][:2]
        shells = _short(lattice, min(b[i][i] for i in range(len(b))) * kept.den // scale)
    return next(iter(shells.items()))


def shortest_vectors(lattice: Lattice) -> list[LatticeVector]:
    """All shortest nonzero vector classes, one per +- pair, in coefficient order."""
    kept = _walks(lattice)
    if kept.minimal is None:
        v = lattice.reduced_gram()[0]
        shell = _least(lattice)[1]
        # sorted, x comes after -x exactly when its first nonzero entry is positive: the upper half is one per +- pair
        kept.minimal = tuple(sorted(_canonical_sign(v.mul_vec(x)) for x, _ in shell[len(shell) // 2:]))
    return [LatticeVector._of(lattice, c) for c in kept.minimal]


def geodesic_spectrum(lattice: Lattice, bound) -> list[tuple[Fraction, int]]:
    """Squared lengths <= bound with multiplicities (each +- pair counted once).

    The lattice keeps the spectrum to the largest bound asked so far
    (``_Walks``): a bound at or below it is answered from the kept list, a
    larger one walks once and replaces it.
    """
    bound = _frac(bound)
    if bound <= 0:
        raise NonPositiveBound("spectrum bound must be positive")
    kept = _walks(lattice)
    top = bound.numerator * kept.den // bound.denominator
    spectrum = kept.spectrum
    if spectrum is None or spectrum.top < top:
        tally: dict[int, int] = {}
        for _, value in _enumerate_bounded(lattice.reduced_gram()[2], kept.c, top):
            tally[value] = tally.get(value, 0) + 1
        norms = sorted(tally)
        spectrum = kept.spectrum = _Spectrum(top, norms, [(Fraction(v, kept.den), tally[v]) for v in norms])
    return spectrum.tally[:bisect_right(spectrum.norms, top)]


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
    # on the body b = scale * G alone: the scale cancels from (x^T G y)^2 / (x^T G x * y^T G y)
    b = v.lattice.gram_matrix().ints
    wc = u.mul_vec(w.coeffs)  # w's coefficients over v's basis
    num = _form_value(b, v.coeffs, wc)
    value = Fraction(num * num, _form_value(b, v.coeffs, v.coeffs) * _form_value(b, wc, wc))
    return value if num >= 0 else -value


def injectivity_radius(lattice: Lattice) -> tuple[Fraction, float]:
    """(r^2 exact, r float) for the largest r with the quotient map injective on r-balls.

    r is half the minimal geodesic length.  The lattice keeps the pair
    (``_Walks``); a root that no normal float represents raises
    FloatRangeError and keeps nothing.
    """
    kept = _walks(lattice)
    if kept.radius is None:
        r_sq = Fraction(_least(lattice)[0], 4 * kept.den)
        kept.radius = (r_sq, float_sqrt(r_sq))
    return kept.radius


def is_orthogonal(t: MatQ) -> bool:
    """True iff t^T t is exactly the identity: its body is I over 1."""
    return t.transpose() @ t == type(t).identity(t.n)


def isometric_mod_rotation(l1: Lattice, l2: Lattice, oriented: bool = False) -> MatZ | None:
    """Search for a unimodular U with U^T G1 U = G2, exactly.

    Such a U certifies an ambient orthogonal map taking the first lattice
    onto the second, i.e. that the two quotient tori are isometric by a
    rotation.  The search runs on the LLL-reduced forms G1' = V1^T G1 V1 and
    G2' = V2^T G2 V2: it matches G2' column by column against vectors of G1'
    of the column's norm, and a witness U' with U'^T G1' U' = G2' maps back
    to U = V1 U' V2^-1, V2^-1 the one ``reduced_gram`` keeps beside V2.

    What the first lattice keeps of its walks (``_Walks``) serves the search,
    as Plesken & Souvignier (JSC 24, 1997) compute the short vectors once for
    every column: the search walks G1' once, to the largest column norm, and
    each column's candidates are the kept vectors of its norm.  They hold no
    data of the partner, so every later search from the first lattice walks
    only past the largest norm asked so far.  Every column of G2' is a
    nonzero vector of L2, so no column of an isometric pair is shorter than
    the first minimum.  When the first lattice keeps any vector, its minimum
    is known: a shorter column rejects the pair before any walk, and so do
    minima or numbers of minimal vectors that differ from those the second
    lattice keeps; the search never walks the second lattice for that check,
    which would cost every isometric pair one more walk.

    Both forms are integers, b1 = scale1 * G1' and b2 = scale2 * G2', and
    the search matches against one lower-triangular integer matrix t,
    t_ij = scale1 * b2_ij / scale2 for i <= j: a candidate column c_j needs
    (b1 c_i) . c_j = t_ij, so an entry that is no integer rejects the pair
    before any walk, and column j's candidates are the kept shell of
    den1 * G2'_jj = (den1 / scale1) * t_jj.  The backtrack checks t_ij for
    i < j.  Each complete candidate is checked where it is formed: every
    column against its norm t_jj, so a kept vector under the wrong norm
    raises ``RuntimeError``, never a wrong answer; then the witness
    W = V1 U' V2^-1 is composed and returned.

    With ``oriented`` the witness must additionally have determinant +1 and
    the implied ambient map must preserve orientation: the signed covolumes
    must be equal, and a candidate whose W has determinant -1 is passed
    over for the next.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    if l1.n > _ISOMETRY_MAX_DIM:
        raise DimensionTooLarge(f"isometry search is limited to dimension {_ISOMETRY_MAX_DIM}")
    # det G = det(basis)^2; a rotation with a witness of det +1 keeps det(basis) itself
    if l1.basis_det != l2.basis_det and (oriented or l1.basis_det != -l2.basis_det):
        return None
    v1, _, gs1 = l1.reduced_gram()
    v2, v2_inv, gs2 = l2.reduced_gram()
    n = l1.n
    scale1, (b2, scale2) = gs1[1], gs2[:2]
    kept1 = _walks(l1)
    # c_i^T G1' c_j = G2'_ij  <=>  (b1 c_i) . c_j = t_ij = scale1 * b2_ij / scale2, in integers:
    # a pair with some t_ij no integer has no witness
    t = []
    for j in range(n):
        row = []
        for i in range(j + 1):
            x, rem = divmod(scale1 * b2[j][i], scale2)
            if rem:
                return None
            row.append(x)
        t.append(row)
    # column j's shell key den1 * G2'_jj; den1 = m * scale1 (``_norm_denominator``)
    keys = [kept1.den // scale1 * row[j] for j, row in enumerate(t)]
    shells = kept1.short[1]
    if shells:
        least = next(iter(shells))
        if min(keys) < least:
            return None
        kept2 = l2._walks
        shells2 = kept2.short[1] if kept2 is not None else None
        if shells2:
            least2 = next(iter(shells2))
            if least * kept2.den != least2 * kept1.den or len(shells[least]) != len(shells2[least2]):
                return None
    shells = _short(l1, max(keys))
    columns = [shells.get(key) for key in keys]
    if None in columns:
        return None
    cols: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def backtrack(j: int) -> MatZ | None:
        if j == n:
            if any(sum(map(mul, b1c, c)) != row[-1] for (c, b1c), row in zip(cols, t)):
                raise RuntimeError("isometry witness check failed: a kept candidate does not have its column's norm")
            w = v1 @ MatZ._of(tuple(zip(*(col[0] for col in cols)))) @ v2_inv
            return None if oriented and w.det() != 1 else w
        row = t[j]
        for c, b1c in columns[j]:
            if all(sum(map(mul, cols[i][1], c)) == row[i] for i in range(j)):
                cols.append((c, b1c))
                result = backtrack(j + 1)
                cols.pop()
                if result is not None:
                    return result
        return None

    return backtrack(0)
