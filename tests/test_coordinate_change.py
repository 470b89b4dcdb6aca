"""Torus points, lattice vectors and induced maps across presentations.

Every operation acts on fractional coordinates through the integer change of
basis between two presentations of a lattice, or through an induced map's
witness.  The oracle here is the ambient formula each one replaced: reduce
the ambient sum, reduce A times the ambient representative, compare ambient
points, and take inner products in R^n.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latquot.errors import LatticeMismatch
from latquot.flat_geometry import LatticeVector, signed_cos_squared
from latquot.lattice_core import from_basis, standard
from latquot.quotient_torus import TorusPoint, apply_induced, make_induced_map, reduce, torus_add

from conftest import rand_invertible, rand_lattice, rand_unimodular_pm


def _point(rng, lattice):
    return TorusPoint(lattice, [Fraction(rng.randrange(12), 12) for _ in range(lattice.n)])


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def _ambient_signed_cos_squared(x, y):
    num = _dot(x, y)
    value = num * num / (_dot(x, x) * _dot(y, y))
    return value if num >= 0 else -value


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_operations_across_presentations_match_the_ambient_formulas(n, seed):
    rng = random.Random(seed)
    lat = rand_lattice(rng, n, height=3)
    alt = from_basis(lat.basis @ rand_unimodular_pm(rng, n).to_matq())
    p, q = _point(rng, lat), _point(rng, alt)

    total = torus_add(p, q)
    assert total.lattice is lat
    assert total.coords == reduce(lat, [a + b for a, b in zip(p.ambient(), q.ambient())]).coords

    # the same class presented on alt, shifted by a lattice vector
    shift = lat.basis.mul_vec([rng.randint(-3, 3) for _ in range(n)])
    same = reduce(alt, [a + b for a, b in zip(p.ambient(), shift)])
    assert same == p and p == same and hash(same) == hash(p)
    assert (p == q) == (reduce(lat, q.ambient()).coords == p.coords)

    a = rand_invertible(rng, n, height=3)
    target = from_basis(a @ lat.basis @ rand_unimodular_pm(rng, n).to_matq())
    f = make_induced_map(a, lat, target)
    for point in (p, q):
        image = apply_induced(f, point)
        assert image.lattice is target
        assert image.coords == reduce(target, a.mul_vec(point.ambient())).coords

    v = LatticeVector(lat, [rng.randint(-3, 3) for _ in range(n)])
    w = LatticeVector(alt, [rng.randint(-3, 3) for _ in range(n)])
    w_on_lat = LatticeVector(lat, [c.numerator for c in lat.coordinates(w.ambient())])
    assert w_on_lat == w and w == w_on_lat and hash(w_on_lat) == hash(w)
    assert (v == w) == (v.ambient() == w.ambient())
    if any(v.coeffs) and any(w.coeffs):
        assert signed_cos_squared(v, w) == _ambient_signed_cos_squared(v.ambient(), w.ambient())

    # the same-basis path: lat itself, and a second Lattice on lat's own MatQ
    for twin in (lat, from_basis(lat.basis)):
        r = _point(rng, twin)
        assert torus_add(p, r).coords == reduce(lat, [s + t for s, t in zip(p.ambient(), r.ambient())]).coords
        assert TorusPoint(twin, p.coords) == p and (r == p) == (r.coords == p.coords)
        assert apply_induced(f, r).coords == reduce(target, a.mul_vec(r.ambient())).coords
        x = LatticeVector(twin, [rng.randint(-3, 3) for _ in range(n)])
        assert LatticeVector(twin, v.coeffs) == v and (x == v) == (x.coeffs == v.coeffs)
        if any(v.coeffs) and any(x.coeffs):
            assert signed_cos_squared(v, x) == _ambient_signed_cos_squared(v.ambient(), x.ambient())


def test_other_lattices_and_sizes_stay_apart():
    z2, z3 = standard(2), standard(3)
    half = from_basis(2 * z2.basis)
    p = TorusPoint(z2, [Fraction(1, 2), 0])
    assert p != TorusPoint(half, [Fraction(1, 4), 0])  # same ambient point, other lattice
    assert p != TorusPoint(z3, [Fraction(1, 2), 0, 0])
    assert LatticeVector(z2, [1, 0]) != LatticeVector(z3, [1, 0, 0])
    assert LatticeVector(half, [1, 0]) != LatticeVector(z2, [2, 0])
    with pytest.raises(LatticeMismatch):
        torus_add(p, TorusPoint(z3, [0, 0, 0]))
    with pytest.raises(LatticeMismatch):
        signed_cos_squared(LatticeVector(z2, [1, 0]), LatticeVector(z3, [1, 0, 0]))
    f = make_induced_map(2 * z2.basis, z2, half)
    with pytest.raises(LatticeMismatch):
        apply_induced(f, TorusPoint(half, [Fraction(1, 4), 0]))
    with pytest.raises(LatticeMismatch):
        apply_induced(f, TorusPoint(z3, [0, 0, 0]))
    for x in (z2, p, LatticeVector(z2, [1, 0])):
        assert x.__eq__("Z^2") is NotImplemented and x != "Z^2"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coordinate_carries_form_no_fraction_product(monkeypatch, n):
    """``torus_add``, ``==`` and ``apply_induced`` carry coordinates between two presentations
    of one lattice by one integer product each: no Fraction is multiplied (the coordinates'
    sums and ``% 1`` are not counted)."""
    rng = random.Random(n)
    lat = rand_lattice(rng, n, height=3)
    alt = from_basis(lat.basis @ rand_unimodular_pm(rng, n).to_matq())
    p, q = _point(rng, lat), _point(rng, alt)
    same = reduce(alt, p.ambient())
    a = rand_invertible(rng, n, height=3)
    target = from_basis(a @ lat.basis @ rand_unimodular_pm(rng, n).to_matq())
    f = make_induced_map(a, lat, target)
    want = (reduce(lat, [x + y for x, y in zip(p.ambient(), q.ambient())]).coords,
            reduce(target, a.mul_vec(q.ambient())).coords)
    products = []
    for name in ("__mul__", "__rmul__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda x, y, op=op, name=name: products.append(name) or op(x, y))
    total, equal, image = torus_add(p, q), same == p, apply_induced(f, q)
    assert products == []
    assert equal and (total.coords, image.coords) == want
