"""Seeded input generators whose answers are known by construction.

Everything here is plain Python over ``fractions.Fraction``: a matrix is a
tuple of row tuples.  The benchmark's answer checks use these helpers and
never latquot, so a check does not share the code path it measures.

Lattice families (nice bases, columns generate):

* ``Z^n``: minimum norm 1, n shortest +- pairs, covolume 1;
* ``D^n`` = {x in Z^n : sum x even}: minimum 2, n(n-1) pairs, covolume 2;
* rational diagonals diag(d): minimum min d_i^2, pairs = #{i : d_i = min d}.

A family member may be scaled by a rational c (norms scale by c^2) and
rotated by an exact rational orthogonal matrix (norms unchanged).  A
*presentation* of a lattice is its nice basis times a unimodular U built
from elementary integer shears; the shear depth is what makes a
presentation hard for reduction and enumeration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

Mat = tuple  # tuple of row tuples of Fraction or int; products are Fraction

PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
DIAGONAL_ENTRIES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3), Fraction(5, 2), Fraction(3))
SCALES = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(2, 3))


# --- plain exact matrix helpers (the checks' own arithmetic) ---------------

def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def matvec(a: Mat, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def scaled(c: Fraction, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


def det(a: Mat) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction (checks only)."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return out


# --- unimodular shears -----------------------------------------------------

def shears(rng: random.Random, n: int, ops: int, kmax: int, nonzero: bool = False) -> tuple[Mat, Mat]:
    """(U, U^-1) for a product of ``ops`` elementary column shears c_i += k c_j.

    With ``nonzero`` every k is drawn from +-1..kmax, so every draw carries
    exactly ``ops`` shears.  Otherwise k is drawn from -kmax..kmax and the
    draws match ``rand_unimodular`` in the test suite, so a (seed, n, ops,
    kmax) quadruple names the same matrix in both places.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        k = rng.choice((-1, 1)) * rng.randint(1, kmax) if nonzero else rng.randint(-kmax, kmax)
        for r in range(n):
            u[r][i] += k * u[r][j]
        # U E = U + k U e_j e_i^T, so (U E)^-1 = E^-1 U^-1: row j -= k row i
        uinv[j] = [a - k * b for a, b in zip(uinv[j], uinv[i])]
    return tuple(map(tuple, u)), tuple(map(tuple, uinv))


def rotation(rng: random.Random, n: int, blocks: int) -> Mat:
    """An exact rational orthogonal matrix: Pythagorean plane rotations and a
    signed permutation."""
    r = [list(row) for row in identity(n)]
    if n < 2:
        return scaled(Fraction(rng.choice((1, -1))), identity(n))
    for _ in range(blocks):
        a, b, c = rng.choice(PYTHAGOREAN_TRIPLES)
        if rng.random() < 0.5:
            b = -b
        i, j = rng.sample(range(n), 2)
        cos, sin = Fraction(a, c), Fraction(b, c)
        # left-multiply by the rotation in the (i, j) plane
        ri, rj = r[i], r[j]
        r[i] = [cos * x - sin * y for x, y in zip(ri, rj)]
        r[j] = [sin * x + cos * y for x, y in zip(ri, rj)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(tuple(signs[i] * x for x in r[perm[i]]) for i in range(n))


# --- lattice families ------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """A lattice with its invariants known by construction.

    ``basis`` is the nice basis (after scale and rotation); ``kind`` and
    ``diag`` and ``scale`` describe the underlying family member so the
    checks can brute-force its norms without latquot.
    """

    kind: str  # "Z", "D" or "diag"
    n: int
    scale: Fraction
    diag: tuple  # diagonal entries for kind "diag", else ()
    basis: Mat
    min_norm: Fraction
    min_pairs: int
    covolume: Fraction


def family_basis(kind: str, n: int, diag: tuple = ()) -> Mat:
    if kind == "Z":
        return identity(n)
    if kind == "D":
        # columns e1 + e2 and e_{i+1} - e_i generate {x : sum x even}
        rows = [[Fraction(0)] * n for _ in range(n)]
        rows[0][0] = rows[1][0] = Fraction(1)
        for c in range(1, n):
            rows[c][c] = Fraction(1)
            rows[c - 1][c] = Fraction(-1)
        return tuple(map(tuple, rows))
    if kind == "diag":
        return tuple(tuple(diag[i] if i == j else Fraction(0) for j in range(n)) for i in range(n))
    raise ValueError(f"unknown family {kind!r}")


def make_spec(kind: str, n: int, scale: Fraction, rot: Mat, diag: tuple = ()) -> LatticeSpec:
    base = family_basis(kind, n, diag)
    if kind == "Z":
        m, pairs, vol = Fraction(1), n, Fraction(1)
    elif kind == "D":
        m, pairs, vol = Fraction(2), n * (n - 1), Fraction(2)
    else:
        low = min(diag)
        m, pairs, vol = low * low, sum(1 for d in diag if d == low), math.prod(diag)
    return LatticeSpec(
        kind=kind,
        n=n,
        scale=scale,
        diag=diag,
        basis=scaled(scale, matmul(rot, base)),
        min_norm=scale * scale * m,
        min_pairs=pairs,
        covolume=abs(scale) ** n * vol,
    )


FAMILIES = ("Z", "D", "diag")


def random_spec(rng: random.Random, n: int, kind: str) -> LatticeSpec:
    """A member of family ``kind`` with a random scale, rotation and (for
    "diag") diagonal."""
    diag = tuple(rng.choice(DIAGONAL_ENTRIES) for _ in range(n)) if kind == "diag" else ()
    return make_spec(kind, n, rng.choice(SCALES), rotation(rng, n, blocks=1), diag)


def strata(index: int, sizes: tuple) -> tuple:
    """The (n, family) cell of draw ``index``: draws cycle through every size,
    then every family, so each cell gets the same share whatever the seed."""
    return sizes[index % len(sizes)], FAMILIES[(index // len(sizes)) % len(FAMILIES)]


def spectrum(spec: LatticeSpec, bound: Fraction) -> list[tuple[Fraction, int]]:
    """Squared lengths <= bound with multiplicity (one per +- pair), by brute force
    over the family's own coordinates."""
    c2 = spec.scale * spec.scale
    if spec.kind == "diag":
        weights = [c2 * d * d for d in spec.diag]
    else:
        weights = [c2] * spec.n
    tally: dict[Fraction, int] = {}

    def walk(i: int, acc: Fraction, parity: int, nonzero: bool):
        if i == spec.n:
            if nonzero and acc <= bound and (spec.kind != "D" or parity == 0):
                tally[acc] = tally.get(acc, 0) + 1
            return
        w = weights[i]
        top = math.isqrt(math.floor((bound - acc) / w))
        for x in range(-top, top + 1):
            walk(i + 1, acc + w * x * x, (parity + x) % 2, nonzero or x != 0)

    walk(0, Fraction(0), 0, False)
    # every nonzero vector was counted with its negative
    return sorted((q, k // 2) for q, k in tally.items())


def present(spec: LatticeSpec, u: Mat) -> Mat:
    """Another basis of the same lattice: nice basis times unimodular u."""
    return matmul(spec.basis, u)


# --- random rational matrices with known structure -------------------------

def small_rational(rng: random.Random, num: int = 5, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


# Pivots of the random Hermite forms: a fixed multiset, shuffled per draw,
# so every draw of a size has the same determinant and about the same entry
# sizes; the cost of exact elimination then varies little between seeds.
PIVOTS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3),
          Fraction(3), Fraction(5, 2), Fraction(2, 3), Fraction(4))


def pivots(rng: random.Random, n: int) -> list:
    out = [PIVOTS[i % len(PIVOTS)] for i in range(n)]
    rng.shuffle(out)
    return out


def hermite_lower(rng: random.Random, n: int) -> Mat:
    """A rational lower-triangular matrix already in scaled column Hermite form:
    positive diagonal and every entry left of a pivot in [0, pivot).  Entries
    are multiples of 1/6, which every pivot's denominator divides."""
    rows = []
    for i, d in enumerate(pivots(rng, n)):
        rows.append(tuple(
            Fraction(rng.randrange(int(d * 6)), 6) if j < i else (d if j == i else Fraction(0))
            for j in range(n)
        ))
    return tuple(rows)
