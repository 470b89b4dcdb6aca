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
enumeration and the isometry search work in reduced coordinates, so
results never depend on the presentation.  Each vector a walk keeps is
mapped back through V as it is stored: the minimal vectors and every
searched shell are kept over the lattice's own basis, so a witness needs
only V^-1 of the second lattice.

Each lattice also keeps what its short-vector walks found (``_Walks``, in
the lattice's one slot for it): the norm data every walk shares; its
minimum, the squared length of the shortest closed geodesics, with the
minimal vectors, which answer ``shortest_vectors`` and
``injectivity_radius`` (half the minimal length, the largest radius on which
R^n -> R^n / L is injective); the shells that isometry searches from the
lattice asked for, each the vectors p of one norm over the basis, with
their images G p under the integral Gram body G of the basis; and its
geodesic spectrum up to the largest bound asked so far, which answers every
smaller bound.  A walk for a search also finds the minimum on its way, once
its top reaches it.  A first call still walks (a first search at most
twice, to its least column norm and then to its largest); the gain is on
repeated calls on one lattice object.  What is kept is bounded by what was
asked: one (length, count) pair per length a spectrum returned, the minimal
vectors, and the vectors of each norm that a search asked for.
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
        # None, for a vector of another lattice, equals no tuple
        return self.lattice._carry(other.lattice, other.coeffs) == self.coeffs

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
    (``_norm_denominator``).  ``least`` is the integer den * minimum and
    ``minimal`` is ``shortest_vectors``' answer over the lattice's basis,
    both stored by the first walk that finds a vector.  ``shells``, all
    that an isometry search reads, holds only the norms that searches from
    the lattice asked for: it maps each such integer
    v = den * x^T G' x to the pairs (p, h) of both signs of the vectors x of
    that norm, sorted by x, where p = V x is the vector over the lattice's
    basis and h = G p its image under the basis's integral Gram body G
    (b = scale * G' = V^T G V, so h . p' = (b x) . x'), and to () when
    there is none.  ``radius`` is ``injectivity_radius``' pair and
    ``spectrum`` a ``_Spectrum``; every entry but den and c is None
    (``shells`` empty) until first asked.  The lattice is immutable, so
    nothing goes stale.  An entry is built whole and then stored, never
    changed after: a walk stores its shells as a new dict that adds them to
    the kept ones, a walk that stops half way keeps nothing, and concurrent
    callers read either the old entry or the new.  No lock is taken: two callers that store at once can
    lose one of their entries, which costs a later walk, never a wrong answer.
    """

    __slots__ = ("den", "c", "least", "minimal", "shells", "radius", "spectrum")

    def __init__(self, gs: tuple):
        self.den, self.c = _norm_denominator(gs)
        self.least: int | None = None
        self.minimal: tuple[tuple[int, ...], ...] | None = None
        self.shells: dict[int, tuple] = {}
        self.radius: tuple[Fraction, float] | None = None
        self.spectrum: _Spectrum | None = None


def _walks(lattice: Lattice) -> _Walks:
    """The lattice's kept walks; an empty store is made on first use, never at construction."""
    kept = lattice._walks
    if kept is None:
        kept = lattice._walks = _Walks(lattice.reduced_gram()[2])
    return kept


def _walk(lattice: Lattice, top: int, keys: Sequence[int] = ()) -> dict[int, tuple]:
    """One walk of the reduced form to ``top``: the lattice's kept shells, with ``keys`` (each <= top) added.

    A walk to any top at or above the minimum sees every minimal vector, so
    the walk tracks the least norm as it goes and, if none is kept, stores
    it with ``minimal``.  Only for the vectors x of the norms in ``keys``
    does it form the pair (p, h) that a shell keeps: p = V x, the vector
    over the lattice's basis, and h = V^-T (b x) = G p, G the integral Gram
    body of the basis that the LLL ran on (b = V^T G V).  Everything is
    stored after the walk, so a walk that stops half way keeps nothing.
    """
    kept = _walks(lattice)
    v, v_inv, gs = lattice.reduced_gram()
    b, inv_cols = gs[0], tuple(zip(*v_inv.ints))
    found: dict[int, list[tuple[tuple[int, ...], ...]]] = {key: [] for key in keys}
    least, minimal = top + 1, []
    for x, norm in _enumerate_bounded(gs, kept.c, top):
        if norm <= least:
            if norm < least:
                least, minimal = norm, []
            minimal.append(x)
        shell = found.get(norm)
        if shell is not None:
            bx = [sum(map(mul, row, x)) for row in b]
            p, h = v.mul_vec(x), tuple([sum(map(mul, col, bx)) for col in inv_cols])
            shell.extend(((x, p, h), tuple(tuple([-t for t in y]) for y in (x, p, h))))
    if minimal and kept.least is None:
        # minimal first: a reader that finds ``least`` finds ``minimal`` too
        kept.minimal = tuple(sorted(_canonical_sign(v.mul_vec(x)) for x in minimal))
        kept.least = least
    # sorted by the reduced coordinates x: the order in which a search tries its candidates
    shells = kept.shells = {**kept.shells, **{key: tuple([(p, h) for _, p, h in sorted(shell)])
                                              for key, shell in found.items()}}
    return shells


def _least(lattice: Lattice) -> _Walks:
    """The lattice's kept walks with its minimum known (``least`` and ``minimal``).

    With none kept, one walk to the least diagonal entry of the reduced
    form, which is attained, finds the minimum.
    """
    kept = _walks(lattice)
    if kept.least is None:
        b, scale = lattice.reduced_gram()[2][:2]
        _walk(lattice, min(b[i][i] for i in range(len(b))) * kept.den // scale)
    return kept


def shortest_vectors(lattice: Lattice) -> list[LatticeVector]:
    """All shortest nonzero vector classes, one per +- pair, in coefficient order."""
    return [LatticeVector._of(lattice, c) for c in _least(lattice).minimal]


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
    wc = v.lattice._carry(w.lattice, w.coeffs)  # w's coefficients over v's basis
    if wc is None:
        raise LatticeMismatch("vectors belong to different lattices")
    if not any(v.coeffs) or not any(w.coeffs):
        raise ZeroVector("angle is undefined for the zero vector")
    # on the body b = scale * G alone: the scale cancels from (x^T G y)^2 / (x^T G x * y^T G y)
    b = v.lattice.gram_matrix().ints
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
        r_sq = Fraction(_least(lattice).least, 4 * kept.den)
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
    to U = V1 U' V2^-1, V2^-1 the one ``reduced_gram`` keeps beside V2.  The
    first lattice keeps its candidates already mapped through V1, as the
    columns p = V1 c of V1 U' (``_Walks``), so the map-back is the one
    integer product P V2^-1 of the chosen columns P.

    The shells the first lattice keeps (``_Walks``) serve the search, as
    Plesken & Souvignier (JSC 24, 1997) compute the short vectors once for
    every column: each column's candidates are the vectors of G1' of its
    norm.  For the column norms not kept yet the search walks G1' at most
    twice, keeping the vectors of those norms and no others: to the least
    column norm, then to the largest.  A column norm with no vector rejects
    the pair, so a short column that G1' does not attain costs one walk to
    its own norm, however long the other columns are.  The shells hold no
    data of the partner, so every later search from the first lattice walks
    only for the norms it lacks.  The search reads nothing else that is
    kept, neither the first lattice's minimum nor any store of the second
    lattice, so its answer never depends on what was asked before.

    Both forms are integers, b1 = scale1 * G1' and b2 = scale2 * G2', and
    the search matches against one symmetric integer matrix t,
    t = (scale1 / scale2) * b2: a candidate column c_j needs
    (b1 c_i) . c_j = t_ij.  ``reduced_gram`` keeps (b2, scale2) in lowest
    terms, gcd(scale2, every b2_ij) = 1, so every t_ij is an integer exactly
    when scale2 divides scale1: one divisibility test rejects the other
    pairs before any walk, and t is b2 times the quotient, b2 itself when
    it is 1.  Column j's candidates are the kept shell of
    den1 * G2'_jj = (den1 / scale1) * t_jj.  A kept pair (p, h) has
    h_i . p_j = (b1 c_i) . c_j, so the backtrack checks row j of t against
    the columns chosen before it on the kept pairs.  Each complete
    candidate is checked where it is formed: every column's h . p against
    its norm t_jj, so a kept vector under the wrong norm, or a p that is
    not the vector its h was formed from, raises ``RuntimeError``, never a
    wrong answer; then the witness W = P V2^-1 is formed from those same p
    and returned.

    With ``oriented`` the witness must additionally have determinant +1 and
    the implied ambient map must preserve orientation: the signed covolumes
    must be equal, and a candidate whose W has determinant -1 is passed
    over for the next.  The covolumes are compared as the integers of the
    determinants (``Lattice.basis_det``), numerator and denominator, with
    no ``Fraction`` arithmetic.
    """
    if l1.n != l2.n:
        raise DimensionMismatch(f"lattice dimensions differ: {l1.n} vs {l2.n}")
    if l1.n > _ISOMETRY_MAX_DIM:
        raise DimensionTooLarge(f"isometry search is limited to dimension {_ISOMETRY_MAX_DIM}")
    # det G = det(basis)^2; a rotation with a witness of det +1 keeps det(basis) itself.  Both
    # determinants are in lowest terms over a positive denominator, so their integers decide
    p1, p2 = l1.basis_det.numerator, l2.basis_det.numerator
    if l1.basis_det.denominator != l2.basis_det.denominator or p1 != p2 and (oriented or p1 != -p2):
        return None
    gs1, (_, v2_inv, gs2) = l1.reduced_gram()[2], l2.reduced_gram()
    n = l1.n
    scale1, (b2, scale2) = gs1[1], gs2[:2]
    kept1 = _walks(l1)
    # c_i^T G1' c_j = G2'_ij  <=>  (b1 c_i) . c_j = t_ij = scale1 * b2_ij / scale2, in integers;
    # gcd(scale2, every b2_ij) = 1, so every t_ij is an integer exactly when scale2 divides scale1
    q, r = divmod(scale1, scale2)
    if r:
        return None
    t = b2 if q == 1 else [[q * x for x in row] for row in b2]
    norms = [row[j] for j, row in enumerate(t)]
    # column j's shell key den1 * G2'_jj; den1 = m * scale1 (``_norm_denominator``)
    keys = [kept1.den // scale1 * norm for norm in norms]
    shells = kept1.shells
    columns = [shells.get(key) for key in keys]
    # lacking norms are walked least first: a norm with no vector rejects before the walk to the largest
    for top in (min(keys), max(keys)) if None in columns else ():
        lacking = [key for key in keys if key <= top and key not in shells]
        if lacking and () not in columns:
            shells = _walk(l1, top, lacking)
            columns = [shells.get(key) for key in keys]
    if () in columns:
        return None
    cols: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def backtrack(j: int) -> MatZ | None:
        if j == n:
            if any(sum(map(mul, h, p)) != norm for (p, h), norm in zip(cols, norms)):
                raise RuntimeError("isometry witness check failed: a kept candidate does not have its column's norm")
            # W = P V2^-1 in integers, P the matrix of the columns p
            p_rows, inv_cols = zip(*(p for p, _ in cols)), tuple(zip(*v2_inv.ints))
            w = MatZ._of(tuple([tuple([sum(map(mul, r, c)) for c in inv_cols]) for r in p_rows]))
            return None if oriented and w.det() != 1 else w
        row = t[j]
        for p, h in columns[j]:
            if all(sum(map(mul, hi, p)) == ti for (_, hi), ti in zip(cols, row)):
                cols.append((p, h))
                result = backtrack(j + 1)
                cols.pop()
                if result is not None:
                    return result
        return None

    return backtrack(0)
