import contextlib
import inspect
import itertools
import json
import math
import operator
import random
import signal
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from latquot import cli, flat_geometry
from latquot.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    FloatRangeError,
    LatticeMismatch,
    NonPositiveBound,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroVector,
)
from latquot.exactnum import MatQ, MatZ, PosDefForm, _lll
from latquot.flat_geometry import (
    GramForm,
    LatticeVector,
    _canonical_sign,
    _enumerate_bounded,
    _norm_denominator,
    _short,
    _walks,
    angle,
    geodesic_spectrum,
    gram,
    injectivity_radius,
    is_orthogonal,
    isometric_mod_rotation,
    shortest_vectors,
    signed_cos_squared,
    squared_length,
)
from latquot.lattice_core import Lattice, covolume, equals, from_basis, scale, standard
from latquot.moduli_spaces import double_coset_equivalent, gram_map

from conftest import rand_invertible, rand_lattice, rand_orthogonal, rand_unimodular, rand_unimodular_pm


def brute_force_classes(lattice, box):
    """Oracle: squared lengths for every nonzero coefficient vector in the box,
    computed with plain ambient dot products, one representative per +- pair
    (highest-index nonzero coefficient positive)."""
    out = {}
    for coeffs in itertools.product(range(-box, box + 1), repeat=lattice.n):
        if not any(coeffs):
            continue
        last_nonzero = next(c for c in reversed(coeffs) if c)
        if last_nonzero < 0:
            continue
        v = lattice.basis.mul_vec(coeffs)
        out[coeffs] = sum((x * x for x in v), Fraction(0))
    return out


def walk(gs, bound):
    """``_enumerate_bounded`` to a rational bound on x^T G' x, with the norm data computed afresh."""
    den, c = _norm_denominator(gs)
    return _enumerate_bounded(gs, c, math.floor(bound * den))


def brute_force_minimum(lattice, box=5):
    classes = brute_force_classes(lattice, box)
    best = min(classes.values())
    return best, sorted(c for c, q in classes.items() if q == best)


def brute_force_spectrum(lattice, bound, box=6):
    classes = brute_force_classes(lattice, box)
    tally = {}
    for q in classes.values():
        if q <= bound:
            tally[q] = tally.get(q, 0) + 1
    return sorted(tally.items())


class TestGram:
    def test_standard(self):
        assert gram(standard(2)).matrix == MatQ.identity(2)

    def test_shear(self):
        assert gram(from_basis(MatQ([[1, 1], [0, 1]]))).matrix == MatQ([[1, 1], [1, 2]])

    def test_diagonal_squares(self):
        assert gram(from_basis(MatQ([[2, 0], [0, 3]]))).matrix == MatQ([[4, 0], [0, 9]])

    def test_rotation_invariance(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(2, 4)
            lat = rand_lattice(rng, n)
            q = rand_orthogonal(rng, n)
            assert gram(from_basis(q @ lat.basis)).matrix == gram(lat).matrix

    def test_one_form_type(self):
        assert GramForm is PosDefForm
        assert gram(standard(2)) == gram_map(MatQ.identity(2))

    def test_validation(self):
        with pytest.raises(NotSymmetric):
            GramForm(MatQ([[1, 1], [0, 1]]))
        with pytest.raises(NotPositiveDefinite):
            GramForm(MatQ([[1, 2], [2, 1]]))


class TestLatticeVector:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
    def test_hash_agrees_with_equality_across_presentations(self, n, seed):
        rng = random.Random(seed)
        l1 = rand_lattice(rng, n)
        u = rand_unimodular(rng, n).to_matq()
        l2 = from_basis(l1.basis @ u)
        coeffs = [rng.randint(-5, 5) for _ in range(n)]
        v = LatticeVector(l1, coeffs)
        w = LatticeVector(l2, u.inverse().mul_vec(coeffs))
        assert v == w and hash(v) == hash(w)
        other = LatticeVector(l2, [c + 1 for c in w.coeffs])
        assert len({v, w, other}) == 2

    def test_length_must_match_the_dimension(self):
        with pytest.raises(DimensionMismatch, match="^coefficient length 1 does not match dimension 2$"):
            LatticeVector(standard(2), [1])


class TestSquaredLength:
    def test_unit(self):
        assert squared_length(LatticeVector(standard(2), [1, 0])) == 1

    def test_diagonal_vector(self):
        assert squared_length(LatticeVector(standard(2), [1, 1])) == 2

    def test_shear_basis(self):
        # coefficients (-1, 1) give the ambient vector (0, 1)
        v = LatticeVector(from_basis(MatQ([[1, 1], [0, 1]])), [-1, 1])
        assert squared_length(v) == 1

    def test_matches_ambient_dot_product(self):
        rng = random.Random(72)
        for _ in range(30):
            lat = rand_lattice(rng, rng.randint(1, 3))
            coeffs = [rng.randint(-5, 5) for _ in range(lat.n)]
            v = LatticeVector(lat, coeffs)
            amb = v.ambient()
            assert squared_length(v) == sum(x * x for x in amb)


class TestShortestVectors:
    def test_standard(self):
        vs = shortest_vectors(standard(2))
        assert [v.coeffs for v in vs] == [(0, 1), (1, 0)]
        assert squared_length(vs[0]) == 1

    def test_skew_basis(self):
        # oracle (box 5): minimum 2 attained by the classes (-1,1) and (0,1)
        lat = from_basis(MatQ([[2, 1], [0, 1]]))
        best, classes = brute_force_minimum(lat)
        assert best == 2 and classes == [(-1, 1), (0, 1)]
        vs = shortest_vectors(lat)
        assert [v.coeffs for v in vs] == classes
        assert (-1, 1) in classes  # ambient (-1, 1)

    def test_rectangular(self):
        lat = from_basis(MatQ([[2, 0], [0, 3]]))
        best, classes = brute_force_minimum(lat)
        assert best == 4 and classes == [(1, 0)]
        assert [v.coeffs for v in shortest_vectors(lat)] == classes

    def test_one_dimensional_negative_basis(self):
        vs = shortest_vectors(from_basis(MatQ([[-3]])))
        assert [v.coeffs for v in vs] == [(1,)]
        assert squared_length(vs[0]) == 9

    def test_matches_brute_force(self):
        rng = random.Random(73)
        for _ in range(60):
            lat = rand_lattice(rng, rng.randint(1, 3))
            best, classes = brute_force_minimum(lat, box=6)
            vs = shortest_vectors(lat)
            assert squared_length(vs[0]) == best
            assert [v.coeffs for v in vs] == classes


class TestSpectrum:
    def test_standard_up_to_two(self):
        # oracle: (1,0),(0,1) at 1 and (1,1),(1,-1) at 2
        assert geodesic_spectrum(standard(2), 2) == [(1, 2), (2, 2)]

    def test_one_dimensional(self):
        assert geodesic_spectrum(standard(1), 9) == [(1, 1), (4, 1), (9, 1)]

    def test_empty_below_shortest(self):
        assert geodesic_spectrum(standard(2), Fraction(1, 2)) == []

    def test_non_positive_bound(self):
        with pytest.raises(NonPositiveBound):
            geodesic_spectrum(standard(2), 0)

    def test_matches_brute_force(self):
        rng = random.Random(74)
        for _ in range(40):
            lat = rand_lattice(rng, rng.randint(1, 3))
            lam, _ = brute_force_minimum(lat, box=6)
            bound = lam * 2
            assert geodesic_spectrum(lat, bound) == brute_force_spectrum(lat, bound)

    def test_invariance_under_presentation_and_rotation(self):
        rng = random.Random(75)
        for _ in range(15):
            n = rng.randint(2, 3)
            lat = rand_lattice(rng, n, height=3)
            u = rand_unimodular_pm(rng, n)
            q = rand_orthogonal(rng, n)
            bound = squared_length(shortest_vectors(lat)[0]) * 2
            spectrum = geodesic_spectrum(lat, bound)
            assert geodesic_spectrum(from_basis(lat.basis @ u.to_matq()), bound) == spectrum
            assert geodesic_spectrum(from_basis(q @ lat.basis), bound) == spectrum


class TestAngle:
    def test_orthonormal(self):
        v = LatticeVector(standard(2), [1, 0])
        w = LatticeVector(standard(2), [0, 1])
        assert abs(angle(v, w) - math.pi / 2) < 1e-12
        assert signed_cos_squared(v, w) == 0

    def test_forty_five_degrees(self):
        v = LatticeVector(standard(2), [1, 0])
        w = LatticeVector(standard(2), [1, 1])
        assert abs(angle(v, w) - math.pi / 4) < 1e-12
        assert signed_cos_squared(v, w) == Fraction(1, 2)

    def test_antipodal(self):
        v = LatticeVector(standard(2), [1, 0])
        w = LatticeVector(standard(2), [-1, 0])
        assert abs(angle(v, w) - math.pi) < 1e-12
        assert signed_cos_squared(v, w) == -1

    def test_symmetry(self):
        rng = random.Random(76)
        for _ in range(30):
            lat = rand_lattice(rng, rng.randint(2, 3))
            v = LatticeVector(lat, [rng.randint(-3, 3) for _ in range(lat.n)])
            w = LatticeVector(lat, [rng.randint(-3, 3) for _ in range(lat.n)])
            if not any(v.coeffs) or not any(w.coeffs):
                continue
            assert abs(angle(v, w) - angle(w, v)) < 1e-12

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            angle(LatticeVector(standard(2), [0, 0]), LatticeVector(standard(2), [1, 0]))

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            angle(LatticeVector(standard(2), [1, 0]), LatticeVector(scale(standard(2), 2), [1, 0]))


class TestInjectivityRadius:
    def test_standard(self):
        assert injectivity_radius(standard(2)) == (Fraction(1, 4), 0.5)

    def test_doubled(self):
        assert injectivity_radius(scale(standard(2), 2)) == (1, 1.0)

    def test_skew(self):
        r_sq, r = injectivity_radius(from_basis(MatQ([[2, 1], [0, 1]])))
        assert r_sq == Fraction(1, 2)
        assert abs(r - 0.7071067811865476) < 1e-12

    def test_ties_to_spectrum(self):
        rng = random.Random(77)
        for _ in range(15):
            lat = rand_lattice(rng, rng.randint(1, 3))
            r_sq, _ = injectivity_radius(lat)
            spectrum = geodesic_spectrum(lat, r_sq * 4)
            assert spectrum[0][0] == r_sq * 4


class TestIsOrthogonal:
    def test_identity(self):
        assert is_orthogonal(MatQ.identity(3))

    def test_pythagorean_rotation(self):
        assert is_orthogonal(MatQ([["3/5", "-4/5"], ["4/5", "3/5"]]))

    def test_shear_is_not(self):
        assert not is_orthogonal(MatQ([[1, 1], [0, 1]]))

    def test_random_generated(self):
        rng = random.Random(78)
        for _ in range(20):
            assert is_orthogonal(rand_orthogonal(rng, rng.randint(2, 4)))


class TestIsometry:
    def test_equal_lattices(self):
        u = isometric_mod_rotation(standard(2), from_basis(MatQ([[1, 1], [0, 1]])))
        assert u is not None

    def test_distinct_spectra(self):
        # covolume 4 on both sides, minimal squared lengths 1 vs 4
        l1 = from_basis(MatQ([[1, 0], [0, 4]]))
        l2 = from_basis(MatQ([[2, 0], [0, 2]]))
        assert isometric_mod_rotation(l1, l2) is None

    def test_different_covolumes(self):
        assert isometric_mod_rotation(standard(2), scale(standard(2), 2)) is None

    def test_a_norm_without_candidates(self):
        # covolume 1 on both sides; the Gram form of the second is diag(1/2, 2).
        # Z^2 has no vector of norm 1/2, not even a form value with its
        # denominator (the remainder branch), and the second lattice has no
        # vector of norm 1 (x^2/2 + 2y^2 = 1 has no integer solution)
        other = from_basis(MatQ([["1/2", 1], ["1/2", -1]]))
        assert other.gram_matrix() == MatQ([["1/2", 0], [0, 2]])
        assert isometric_mod_rotation(standard(2), other) is None
        assert isometric_mod_rotation(other, standard(2)) is None

    def test_rotated_standard(self):
        q = MatQ([["3/5", "-4/5"], ["4/5", "3/5"]])
        u = isometric_mod_rotation(standard(2), from_basis(q))
        assert u is not None

    def test_witness_gram_identity(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(1, 3)
            l1 = rand_lattice(rng, n, height=3)
            q = rand_orthogonal(rng, n)
            u = rand_unimodular_pm(rng, n, ops=5, kmax=2)
            l2 = from_basis(q @ l1.basis @ u.to_matq())
            w = isometric_mod_rotation(l1, l2)
            assert w is not None
            g1 = l1.gram_matrix()
            g2 = l2.gram_matrix()
            assert w.to_matq().transpose() @ g1 @ w.to_matq() == g2
            assert abs(w.det()) == 1

    def test_oriented_witness(self):
        rng = random.Random(80)
        for _ in range(15):
            n = rng.randint(2, 3)
            basis = rand_lattice(rng, n, height=3).basis
            if basis.det() < 0:
                basis = MatQ([[-x for x in row] for row in basis.rows]) if n % 2 else basis @ MatQ(
                    [[-1 if i == j == 0 else (1 if i == j else 0) for j in range(n)] for i in range(n)]
                )
            l1 = from_basis(basis)
            q = rand_orthogonal(rng, n, special=True)
            u = rand_unimodular_pm(rng, n, ops=5, kmax=2)
            if u.det() < 0:
                rows = [list(r) for r in u.rows]
                rows[0] = [-x for x in rows[0]]
                u = MatZ(rows)
            l2 = from_basis(q @ l1.basis @ u.to_matq())
            w = isometric_mod_rotation(l1, l2, oriented=True)
            assert w is not None
            assert w.det() == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            isometric_mod_rotation(standard(2), standard(3))

    def test_dimension_too_large(self):
        with pytest.raises(DimensionTooLarge):
            isometric_mod_rotation(standard(5), standard(5))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test with TimeoutError instead of hanging past ``seconds``."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestShearedPresentations:
    """Heavily sheared bases of Z^n, which a pairwise size reduction cannot untangle."""

    def test_shortest_on_sheared_z6(self):
        lat = from_basis(rand_unimodular(random.Random(19), 6, 40, 5).to_matq())
        with time_limit(5):
            vs = shortest_vectors(lat)
        # one class per coordinate axis: the ambient vectors are +-e_i
        assert sorted(tuple(abs(x) for x in v.ambient()) for v in vs) == sorted(MatQ.identity(6).rows)

    def test_isometry_to_sheared_z3(self):
        l2 = from_basis(rand_unimodular(random.Random(7), 3, 16, 3).to_matq())
        with time_limit(5):
            u = isometric_mod_rotation(standard(3), l2)
        assert u is not None
        assert u.to_matq().transpose() @ u.to_matq() == l2.gram_matrix()
        assert abs(u.det()) == 1

    def test_oriented_witness_through_both_transforms(self):
        rng = random.Random(81)
        for _ in range(10):
            n = rng.randint(2, 4)
            l1 = from_basis(rand_unimodular_pm(rng, n, ops=20, kmax=4).to_matq())
            l2 = from_basis(rand_orthogonal(rng, n) @ rand_unimodular_pm(rng, n, ops=20, kmax=4).to_matq())
            with time_limit(5):
                w = isometric_mod_rotation(l1, l2)
                ow = isometric_mod_rotation(l1, l2, oriented=True)
            assert w is not None
            assert w.to_matq().transpose() @ l1.gram_matrix() @ w.to_matq() == l2.gram_matrix()
            if (l1.basis.det() > 0) == (l2.basis.det() > 0):
                assert ow is not None and ow.det() == 1
            else:
                assert ow is None

    def test_reduced_gram_is_cached(self):
        lat = from_basis(rand_unimodular(random.Random(3), 4, 20, 4).to_matq())
        assert lat.reduced_gram() is lat.reduced_gram()

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
    def test_reduced_gram_is_the_run_on_the_rational_gram(self, n, seed):
        rng = random.Random(seed)
        basis = rand_invertible(rng, n) @ rand_unimodular(rng, n, 20, 4).to_matq()
        lat = from_basis(basis)
        cols = basis.transpose().rows
        # the oracle: the LLL on the body of basis^T basis, its entries summed as Fractions
        product = MatQ([[sum(map(operator.mul, ci, cj)) for cj in cols] for ci in cols])
        assert lat.reduced_gram() == _lll(product.ints, product.den)
        assert lat.gram_matrix() == product

    @pytest.mark.parametrize("question", [
        lambda l1, l2: shortest_vectors(l1),
        lambda l1, l2: geodesic_spectrum(l1, 3),
        lambda l1, l2: isometric_mod_rotation(l1, l2),
    ], ids=["shortest", "spectrum", "isometric"])
    def test_first_question_forms_no_rational_gram(self, monkeypatch, question):
        rng = random.Random(17)
        b = rand_invertible(rng, 3)
        l1 = from_basis(b @ rand_unimodular(rng, 3, 20, 4).to_matq())
        l2 = from_basis(rand_orthogonal(rng, 3) @ b)
        products = []
        real = MatQ.__matmul__
        monkeypatch.setattr(MatQ, "__matmul__", lambda x, y: products.append((x, y)) or real(x, y))
        built = []  # every Gram matrix or form built for output
        for owner, name in ((Lattice, "gram_matrix"), (PosDefForm, "__init__")):
            method = getattr(owner, name)
            counted = lambda *args, method=method, name=name: built.append(name) or method(*args)  # noqa: E731
            monkeypatch.setattr(owner, name, counted)
        fraction_ops = []  # every Fraction product or sum
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda x, y, op=op, name=name: fraction_ops.append(name) or op(x, y))
        assert question(l1, l2)
        # the only products are the integer Gram forms basis^T basis of the lattices that ran their LLL
        reduced = [lat for lat in (l1, l2) if lat._reduced is not None]
        assert reduced and products == [(lat.basis.transpose(), lat.basis) for lat in reduced]
        assert built == []
        assert fraction_ops == []


def count_calls(monkeypatch, name):
    """Wrap flat_geometry's ``name`` so that each call is recorded; returns the list of their arguments."""
    calls = []
    inner = getattr(flat_geometry, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(flat_geometry, name, counted)
    return calls


class TestKeptMinimum:
    """One walk per lattice serves shortest vectors, the radius and the isometry search."""

    def test_radius_is_kept(self, monkeypatch):
        roots = count_calls(monkeypatch, "float_sqrt")
        lat = from_basis(rand_unimodular(random.Random(5), 3, 12, 3).to_matq())
        first = injectivity_radius(lat)
        assert first == (Fraction(1, 4), 0.5) and injectivity_radius(lat) is first
        assert len(roots) == 1

    def test_radius_out_of_range_keeps_nothing(self):
        lat = from_basis(MatQ([[10**400]]))  # r = 10^400 / 2 has no float
        with pytest.raises(FloatRangeError):
            injectivity_radius(lat)
        assert lat._walks.radius is None
        assert shortest_vectors(lat)[0].coeffs == (1,)

    def test_one_walk_for_repeated_calls(self, monkeypatch):
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        lat = from_basis(rand_unimodular(random.Random(5), 3, 12, 3).to_matq())
        first = shortest_vectors(lat)
        assert len(walks) == 1
        assert injectivity_radius(lat) == (Fraction(1, 4), 0.5)
        again = shortest_vectors(lat)
        assert len(walks) == 1
        assert [v.coeffs for v in again] == [v.coeffs for v in first]
        assert sorted(tuple(abs(x) for x in v.ambient()) for v in first) == sorted(MatQ.identity(3).rows)

    def test_construction_never_walks(self, monkeypatch):
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        lattices = [
            from_basis(rand_unimodular(random.Random(6), 4, 20, 3).to_matq()),
            Lattice(MatQ([[1, 2], [3, 4]])),
            standard(3),
            scale(standard(2), Fraction(1, 3)),
        ]
        assert walks == [] and all(lat._walks is None for lat in lattices)

    @pytest.mark.parametrize("l1, l2", [
        # covolume 2: minimum 1 against minimum 2; Z^2 has no vector of
        # norm 2 * 1 either way round, which the walk used to find out
        (from_basis(MatQ([[1, 0], [0, 2]])), from_basis(MatQ([[1, 1], [1, -1]]))),
        (from_basis(MatQ([[1, 1], [1, -1]])), from_basis(MatQ([[1, 0], [0, 2]]))),
        # covolume 1, minimum 1 on both sides: one minimal pair against Z^2's two,
        # which the backtrack used to try
        (from_basis(MatQ([[1, "1/2"], [0, 1]])), standard(2)),
        (standard(2), from_basis(MatQ([[1, "1/2"], [0, 1]]))),
    ], ids=["min-1-vs-2", "min-2-vs-1", "one-pair-vs-two", "two-pairs-vs-one"])
    def test_differing_minima_reject_without_a_search(self, monkeypatch, l1, l2):
        for lat in (l1, l2):
            shortest_vectors(lat)  # the two walks, before the counting starts; the search never walks l2
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        products = count_calls(monkeypatch, "mul")  # every candidate and backtrack check multiplies
        for oriented in (False, True):
            assert isometric_mod_rotation(l1, l2, oriented=oriented) is None
        assert double_coset_equivalent(l1, l2) is None
        assert walks == [] and products == []

    def test_a_gram_entry_off_the_integer_form_rejects_without_a_walk(self, monkeypatch):
        # covolume 3 with the same sign on both sides; G1' = [[2, 1], [1, 5]] (scale1 = 1) and
        # G2' = diag(1/2, 18): the target t_00 = scale1 * b2_00 / scale2 = 1/2 is no integer, so no
        # vector of the first lattice has norm 1/2, and the search answers before any walk
        l1 = from_basis(MatQ([[1, 2], [1, -1]]))
        l2 = from_basis(MatQ([["1/2", 3], ["1/2", -3]]))
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        for oriented in (False, True):
            assert isometric_mod_rotation(l1, l2, oriented=oriented) is None
        assert walks == [] and l1._walks.short == (0, {})

    def test_minimal_norm_candidates_are_the_walks(self):
        # the kept reduced vectors of the least norm are exactly what a walk to the minimum
        # finds, both signs, so the search's candidate lists, and with them its witnesses, are unchanged
        rng = random.Random(92)
        for _ in range(60):
            n = rng.randint(1, 4)
            lat = from_basis(rand_lattice(rng, n, height=3).basis @ rand_unimodular(rng, n, 12, 3).to_matq())
            gs = lat.reduced_gram()[2]
            value = 4 * injectivity_radius(lat)[0]
            least, shell = next(iter(lat._walks.short[1].items()))
            reduced = [c for c, _ in shell]
            den = _norm_denominator(gs)[0]
            walked = [c for c, v in walk(gs, value) if Fraction(v, den) == value]
            assert Fraction(least, den) == value
            assert reduced == sorted(walked + [tuple(-x for x in c) for c in walked])
            assert len(set(reduced)) == len(reduced)

    def test_a_first_search_walks_exactly_once(self, monkeypatch):
        # with nothing kept, the search walks once, to the largest column norm of G2',
        # and l1's minimum and minimal vectors are then read off that walk, with no other
        rng = random.Random(93)
        for _ in range(40):
            n = rng.randint(2, 4)
            nice = rand_lattice(rng, n, height=3)
            l1 = from_basis(nice.basis @ rand_unimodular(rng, n, 12, 3).to_matq())
            l2 = from_basis(rand_orthogonal(rng, n) @ nice.basis @ rand_unimodular(rng, n, 12, 3).to_matq())
            b2, scale2 = l2.reduced_gram()[2][:2]
            walks = count_calls(monkeypatch, "_enumerate_bounded")
            assert isometric_mod_rotation(l1, l2) is not None
            den1 = l1._walks.den
            assert [top for _, _, top in walks] == [max(den1 * b2[j][j] // scale2 for j in range(n))]
            assert l2._walks is None
            got = [v.coeffs for v in shortest_vectors(l1)], injectivity_radius(l1)
            assert len(walks) == 1
            monkeypatch.undo()
            own = Lattice(l1.basis)
            assert got == ([v.coeffs for v in shortest_vectors(own)], injectivity_radius(own))

    def test_first_search_reuses_its_walk(self, monkeypatch):
        # Z x 2Z has minimum 1, below both columns of the second basis (norm 2): the one
        # walk, to 2, gives the minimum and the norm-2 candidates (none) at once
        l1 = from_basis(MatQ([[1, 0], [0, 2]]))
        l2 = from_basis(MatQ([[1, 1], [1, -1]]))
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        assert isometric_mod_rotation(l1, l2) is None
        den = l1._walks.den
        assert len(walks) == 1 and l2._walks is None
        assert l1._walks.short[0] == 2 * den and list(l1._walks.short[1]) == [den]
        assert injectivity_radius(l1) == (Fraction(1, 4), 0.5) and len(walks) == 1

    def test_short_columns_reject(self, monkeypatch):
        # every vector of 2 Z^2 has norm >= 4 and the second basis has columns of norm 2 and 8:
        # on first use the one walk, to 8, finds no vector of norm 2; once only the minimum
        # of 2 Z^2 is kept, below the column of norm 8, the short column rejects with no walk
        l1 = from_basis(MatQ([[2, 0], [0, 2]]))
        l2 = from_basis(MatQ([[1, 2], [-1, 2]]))
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        assert isometric_mod_rotation(l1, l2) is None
        den = l1._walks.den
        assert [top for _, _, top in walks] == [8 * den] and list(l1._walks.short[1]) == [4 * den, 8 * den]
        fresh = Lattice(l1.basis)
        shortest_vectors(fresh)
        assert fresh._walks.short[0] == 4 * den
        walks.clear()
        assert isometric_mod_rotation(fresh, l2) is None and walks == []


def walk_search(l1, l2, oriented):
    """Reference isometry search with every column's candidates walked, none kept:
    the first tuple, in the order of itertools.product over each column's sorted
    candidates (both signs), with c_i^T G1' c_j = G2'_ij for all i, j (and det +1
    with ``oriented``), mapped back through V1 and V2^-1."""
    if abs(l1.basis_det) != abs(l2.basis_det) or oriented and (l1.basis_det > 0) != (l2.basis_det > 0):
        return None
    v1, _, gs1 = l1.reduced_gram()
    v2, v2_inv, gs2 = l2.reduced_gram()
    (b1, scale1), (b2, scale2) = gs1[:2], gs2[:2]
    n, den1 = l1.n, _norm_denominator(gs1)[0]
    columns = []
    for j in range(n):
        target, rem = divmod(b2[j][j] * den1, scale2)
        reps = [] if rem else [c for c, v in walk(gs1, Fraction(b2[j][j], scale2)) if v == target]
        columns.append(sorted(reps + [tuple(-x for x in c) for c in reps]))
    for cols in itertools.product(*columns):
        images = [[scale2 * sum(map(operator.mul, row, c)) for row in b1] for c in cols]
        if all(sum(map(operator.mul, images[i], cols[j])) == scale1 * b2[i][j] for i in range(n) for j in range(n)):
            w = v1 @ MatZ([list(row) for row in zip(*cols)]) @ v2_inv
            if not oriented or w.det() == 1:
                return w
    return None


class TestKeptMinimumAgainstOracles:
    """400 random pairs, n <= 4: shortest vectors and radii against brute force,
    and isometry witnesses equal to the all-walk reference search, in both
    orders, oriented or not, and through ``double_coset_equivalent``, with
    both minima kept and, on fresh copies, with none."""

    def test_random_pairs(self):
        rng = random.Random(1414)
        pairs = isometric = 0
        while pairs < 400:
            n = rng.randint(1, 4)
            nice = standard(n) if rng.random() < 0.25 else rand_lattice(rng, n, height=3)
            if rng.random() < 0.5:
                partner = from_basis(rand_orthogonal(rng, n) @ nice.basis)
            else:
                d = [Fraction(2), Fraction(1, 2)] + [Fraction(1)] * (n - 2) if n > 1 else [Fraction(-1)]
                partner = from_basis(nice.basis @ MatQ([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
            oracles = []
            for base in (nice, partner):
                ceiling = min(base.gram_matrix().rows[i][i] for i in range(n))
                box = cauchy_schwarz_box(base, ceiling)
                if math.prod(2 * r + 1 for r in box) > 3000:
                    break  # run time only: redraw
                oracles.append(classes_within(base, ceiling, box))
            else:
                pairs += 1
                lattices = [from_basis(base.basis @ rand_unimodular_pm(rng, n, 10, 2).to_matq())
                            for base in (nice, partner)]
                for lat, base, classes in zip(lattices, (nice, partner), oracles):
                    lam = min(classes.values())
                    want = sorted(_canonical_sign(tuple(int(x) for x in lat.coordinates(base.basis.mul_vec(c))))
                                  for c, q in classes.items() if q == lam)
                    assert [v.coeffs for v in shortest_vectors(lat)] == want
                    r_sq, r = injectivity_radius(lat)
                    assert r_sq == lam / 4 and abs(r * r - lam / 4) <= 1e-15 * (lam / 4)
                for l1, l2 in (lattices, lattices[::-1]):
                    for oriented in (False, True):
                        got = isometric_mod_rotation(l1, l2, oriented=oriented)
                        want = walk_search(l1, l2, oriented)
                        assert (got is None) == (want is None) and (got is None or got.rows == want.rows)
                        isometric += got is not None
                    got = double_coset_equivalent(l1, l2)
                    assert (got is None) == (walk_search(l1, l2, False) is None)
                    # on fresh copies, with no minimum kept, the first search reads it off its walk
                    got = isometric_mod_rotation(Lattice(l1.basis), Lattice(l2.basis))
                    want = walk_search(l1, l2, False)
                    assert (got is None) == (want is None) and (got is None or got.rows == want.rows)
        # both answers occur often
        assert 400 < isometric < 1200, isometric


def represented(rng, lattice):
    """The lattice on a randomly re-presented basis, a new object with nothing kept."""
    return from_basis(lattice.basis @ rand_unimodular_pm(rng, lattice.n, 10, 2).to_matq())


def rescaled_partner(lattice):
    """A lattice of the same covolume whose Gram form has other denominators, in general not isometric."""
    n = lattice.n
    d = [Fraction(2), Fraction(1, 2)] + [Fraction(1)] * (n - 2) if n > 1 else [Fraction(-1)]
    return from_basis(lattice.basis @ MatQ([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))


def same_search(got, want):
    return (got is None) == (want is None) and (got is None or got.rows == want.rows)


CALL_KINDS = ("spectrum", "shortest", "radius", "search", "oriented", "coset")


def check_calls(pool, calls):
    """Run ``calls`` on the lattices of ``pool`` in the order given, each answer
    against a fresh lattice that keeps nothing (the isometry search against
    ``walk_search``); returns the pairs (i, j) of distinct lattices searched."""
    unit = min(pool[0].gram_matrix().rows[i][i] for i in range(pool[0].n)) / 20
    searched = set()
    for kind, i, j, k in calls:
        a, b = pool[i], pool[j]
        if kind == "spectrum":
            bound = k * unit  # a multiple of 1/den or not, rising, falling and repeated as drawn
            assert geodesic_spectrum(a, bound) == geodesic_spectrum(Lattice(a.basis), bound)
        elif kind == "shortest":
            assert [v.coeffs for v in shortest_vectors(a)] == [v.coeffs for v in shortest_vectors(Lattice(a.basis))]
        elif kind == "radius":
            assert injectivity_radius(a) == injectivity_radius(Lattice(a.basis))
        elif kind == "coset":
            if covolume(a) == covolume(b):
                assert same_search(double_coset_equivalent(a, b), walk_search(a, b, False))
                searched.add((i, j))
        else:
            oriented = kind == "oriented"
            assert same_search(isometric_mod_rotation(a, b, oriented=oriented), walk_search(a, b, oriented))
            searched.add((i, j))
    for lat in pool:
        top, shells = _walks(lat).short
        assert list(shells.items()) == list(walked_shells(Lattice(lat.basis), top).items())
    return {(i, j) for i, j in searched if i != j}


def walked_shells(lattice, top):
    """Oracle for ``_Walks.short``: every norm v <= top attained in one walk of the
    reduced form, rising, to both signs of its vectors x, sorted, each with b x."""
    gs = lattice.reduced_gram()[2]
    found = {}
    for x, v in _enumerate_bounded(gs, _norm_denominator(gs)[1], top):
        found.setdefault(v, []).extend([x, tuple(-t for t in x)])
    return {v: tuple((x, tuple(sum(map(operator.mul, row, x)) for row in gs[0])) for x in sorted(found[v]))
            for v in sorted(found)}


def random_pool(rng, n):
    """Three lattices: a re-presented random lattice, a rotated re-presentation of
    it, and a re-presented partner of the same covolume and other Gram denominators."""
    nice = rand_lattice(rng, n, height=3)
    return [
        represented(rng, nice),
        from_basis(rand_orthogonal(rng, n) @ represented(rng, nice).basis) if n > 1 else represented(rng, nice),
        represented(rng, rescaled_partner(nice)),
    ]


class TestKeptWalksAgainstOracles:
    """Kept minima, spectra and shells answer as fresh lattices do, in any call order:
    spectrum bounds that rise, fall, repeat or are not multiples of 1/den, one
    lattice searched against partners with other Gram denominators (another
    scale2), oriented or not and through ``double_coset_equivalent``, witnesses
    equal to ``walk_search``'s row for row."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(
            st.tuples(
                st.sampled_from(CALL_KINDS),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_any_call_order(self, seed, calls):
        rng = random.Random(seed)
        check_calls(random_pool(rng, rng.randint(1, 4)), calls)

    def test_random_pairs(self):
        # every ordered pair of each pool, with spectra, minima and searches between
        rng = random.Random(1515)
        pairs = other_scale = 0
        while pairs < 400:
            n = rng.randint(1, 4)
            pool = random_pool(rng, n)
            calls = [(kind, i, j, rng.randint(1, 40)) for i in range(3) for j in range(3) for kind in CALL_KINDS]
            rng.shuffle(calls)
            pairs += len(check_calls(pool, calls))
            other_scale += pool[0].reduced_gram()[2][1] != pool[2].reduced_gram()[2][1]
        assert other_scale > 20, other_scale


class TestKeptWalks:
    """Which calls walk once a lattice keeps its walks, and what a walk cut short keeps."""

    def test_spectrum_walks_only_past_the_kept_top(self, monkeypatch):
        # lengths of (1/3) Z^3 are multiples of 1/9; 1/7 and 5/18 are not
        lat = from_basis(Fraction(1, 3) * rand_unimodular(random.Random(8), 3, 12, 3).to_matq())
        bounds = [Fraction(2, 9), Fraction(1, 9), Fraction(2, 9), Fraction(1, 7), Fraction(1, 100),
                  Fraction(3, 9), Fraction(5, 18), Fraction(3, 9), Fraction(1)]
        want = [geodesic_spectrum(Lattice(lat.basis), b) for b in bounds]
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        got, walked = [], []
        for b in bounds:
            got.append(geodesic_spectrum(lat, b))
            walked.append(len(walks))
        assert walked == [1, 1, 1, 1, 1, 2, 2, 2, 3]
        assert got == want and want[4] == [] and want[1] == [(Fraction(1, 9), 3)]
        assert _walks(lat).spectrum.top == 1 * _walks(lat).den

    def test_a_larger_bound_replaces_the_kept_spectrum_whole(self):
        lat = from_basis(rand_unimodular(random.Random(9), 3, 12, 3).to_matq())
        small = geodesic_spectrum(lat, 2)
        kept = _walks(lat).spectrum
        before = (kept.top, list(kept.norms), list(kept.tally))
        small.append("the caller's own list")
        assert geodesic_spectrum(lat, 3) == [(1, 3), (2, 6), (3, 4)]
        assert _walks(lat).spectrum is not kept and (kept.top, kept.norms, kept.tally) == before
        assert geodesic_spectrum(lat, 2) == [(1, 3), (2, 6)]

    def test_repeat_searches_walk_nothing(self, monkeypatch):
        rng = random.Random(95)
        for _ in range(40):
            pool = random_pool(rng, rng.randint(2, 4))
            l1 = pool[0]
            calls = [(p, oriented) for p in pool[1:] for oriented in (False, True)]
            first = [isometric_mod_rotation(l1, p, oriented=oriented) for p, oriented in calls]
            walks = count_calls(monkeypatch, "_enumerate_bounded")
            again = [isometric_mod_rotation(l1, p, oriented=oriented) for p, oriented in calls]
            cosets = [double_coset_equivalent(l1, p) for p in pool[1:]]
            assert walks == []
            assert all(same_search(g, w) for g, w in zip(again, first))
            assert all(same_search(g, w) for g, w in zip(cosets, first[::2]))
            monkeypatch.undo()

    def test_first_search_walks_each_norm_at_most_once(self, monkeypatch):
        # isometric and not, on lattices that keep nothing: every walk goes to a
        # distinct column norm of G2' (its top, den1 * b2_jj / scale2)
        rng = random.Random(96)
        for _ in range(60):
            l1, iso, other = random_pool(rng, rng.randint(2, 4))
            for l2 in (iso, other):
                fresh = Lattice(l1.basis)
                b2, scale2 = l2.reduced_gram()[2][:2]
                den1 = _norm_denominator(fresh.reduced_gram()[2])[0]
                tops = {Fraction(den1 * b2[j][j], scale2) for j in range(l1.n)}
                walks = count_calls(monkeypatch, "_enumerate_bounded")
                isometric_mod_rotation(fresh, l2)
                assert len({top for _, _, top in walks}) == len(walks) and {top for _, _, top in walks} <= tops
                monkeypatch.undo()

    def test_a_search_that_found_no_short_vector_keeps_that(self, monkeypatch):
        # 2 Z^2 has no vector of norm 2, the smallest column of the second basis
        l1 = from_basis(MatQ([[2, 0], [0, 2]]))
        l2 = from_basis(MatQ([[1, 2], [-1, 2]]))
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        assert isometric_mod_rotation(l1, l2) is None and len(walks) == 1
        assert isometric_mod_rotation(l1, l2, oriented=True) is None and len(walks) == 1

    def test_inner_products_off_the_first_lattice_reject_without_a_walk(self, monkeypatch):
        # every inner product of the integral lattice l1 is an integer; the reduced Gram
        # form of l2 (same covolume, norms that l1 may have) has one that is not
        l1 = from_basis(MatQ([[2, 0], [2, 2]]))
        l2 = from_basis(l1.basis @ MatQ([["3/4", -1], [1, 0]]))
        gs1, (b2, scale2) = l1.reduced_gram()[2], l2.reduced_gram()[2][:2]
        assert gs1[1] == 1 and all(_norm_denominator(gs1)[0] * b2[j][j] % scale2 == 0 for j in range(2))
        assert b2[1][0] % scale2 != 0
        walks = count_calls(monkeypatch, "_enumerate_bounded")
        assert isometric_mod_rotation(l1, l2) is None and walks == []
        assert walk_search(l1, l2, False) is None

    def test_a_walk_cut_short_keeps_nothing(self, monkeypatch):
        class Cut(Exception):
            pass

        inner = flat_geometry._enumerate_bounded

        def cut_short(gs, c, top):
            for k, item in enumerate(inner(gs, c, top)):
                if k == 1:
                    raise Cut
                yield item

        # Z^2 + 2Z on sheared bases: 2 minimal pairs, and columns of norm 1 and 4
        base = from_basis(MatQ([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
        rng = random.Random(97)
        lat = represented(rng, base)
        partner = from_basis(rand_orthogonal(rng, 3) @ represented(rng, base).basis)
        monkeypatch.setattr(flat_geometry, "_enumerate_bounded", cut_short)
        for call in (lambda: geodesic_spectrum(lat, 4), lambda: shortest_vectors(lat),
                     lambda: isometric_mod_rotation(lat, partner)):
            with pytest.raises(Cut):
                call()
        kept = lat._walks
        assert kept.spectrum is None and kept.minimal is None and kept.short == (0, {})
        # with the minimum kept, the cut falls on the walk to the norm-4 column
        monkeypatch.undo()
        shortest_vectors(lat)
        before = kept.short
        copy = (before[0], dict(before[1]))
        assert list(copy[1]) == [kept.den]
        monkeypatch.setattr(flat_geometry, "_enumerate_bounded", cut_short)
        with pytest.raises(Cut):
            isometric_mod_rotation(lat, partner)
        assert kept.short is before and before == copy
        monkeypatch.undo()
        assert geodesic_spectrum(lat, 4) == geodesic_spectrum(Lattice(lat.basis), 4)
        assert [v.coeffs for v in shortest_vectors(lat)] == [v.coeffs for v in shortest_vectors(Lattice(lat.basis))]
        assert same_search(isometric_mod_rotation(lat, partner), walk_search(lat, partner, False))
        assert isometric_mod_rotation(lat, partner) is not None

    def test_a_shell_under_the_wrong_norm_raises(self, monkeypatch, tmp_path, capsys):
        # Z^2 keeps 4 vectors of norm 1 and 4 of norm 2; swapped, the columns of norm 1 get the
        # vectors of norm 2, which pass every inner-product check of the backtrack: the witness
        # check, not the backtrack, must refuse them
        lat = standard(2)
        den = _walks(lat).den
        shells = _short(lat, 2 * den)
        assert list(shells) == [den, 2 * den] and len(shells[den]) == len(shells[2 * den]) == 4
        swapped = {den: shells[2 * den], 2 * den: shells[den]}
        _walks(lat).short = (2 * den, swapped)
        for oriented in (False, True):
            with pytest.raises(RuntimeError, match="isometry witness check failed"):
                isometric_mod_rotation(lat, standard(2), oriented=oriented)
        # through the CLI, the same corruption of a fresh lattice's store is an InternalError, exit 1
        monkeypatch.setattr(flat_geometry, "_short", lambda lattice, top: swapped)
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({"n": 2, "basis": [["1", "0"], ["0", "1"]]}))
        code = cli.run(["isometric", "--lattice", str(path), "--lattice", str(path)])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error["kind"] == "InternalError" and "isometry witness check failed" in error["message"]
        monkeypatch.undo()
        assert isometric_mod_rotation(standard(2), standard(2)) is not None

    def test_threads_read_whole_entries(self):
        # four threads ask one lattice for spectra in mixed order while the kept
        # spectrum is replaced under them; every answer is the fresh one
        basis = from_basis(Fraction(1, 2) * rand_unimodular(random.Random(10), 3, 12, 3).to_matq()).basis
        bounds = [Fraction(k, 8) for k in range(1, 25)]
        want = {b: geodesic_spectrum(Lattice(basis), b) for b in bounds}
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(8):
                lat = Lattice(basis)
                start = threading.Barrier(4)

                def ask(seed, lat=lat, start=start):
                    order = bounds[:]
                    random.Random(seed).shuffle(order)
                    start.wait(timeout=30)
                    for b in order:
                        got = geodesic_spectrum(lat, b)
                        if got != want[b]:
                            wrong.append((b, got))

                threads = [threading.Thread(target=ask, args=(4 * round_ + t,)) for t in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


def cauchy_schwarz_box(lattice, bound):
    """Radii r_i with |x_i| <= r_i for every x with x^T G x <= bound: x_i^2 <= bound * (G^-1)_ii."""
    ginv = lattice.gram_matrix().inverse()
    return [math.isqrt(math.floor(bound * ginv.rows[i][i])) for i in range(lattice.n)]


def classes_within(lattice, bound, box):
    """Oracle: squared length of every nonzero class with squared length <= bound,
    one per +- pair (highest-index nonzero coefficient positive), by ambient dot
    products over ``cauchy_schwarz_box``, in integers on the basis times the
    common denominator d of its entries."""
    d = math.lcm(*(x.denominator for row in lattice.basis.rows for x in row))
    lift = [[int(x * d) for x in row] for row in lattice.basis.rows]
    out = {}
    for coeffs in itertools.product(*[range(-r, r + 1) for r in box]):
        if not any(coeffs) or next(c for c in reversed(coeffs) if c) < 0:
            continue
        v = [sum(map(operator.mul, row, coeffs)) for row in lift]
        q = Fraction(sum(x * x for x in v), d * d)
        if q <= bound:
            out[coeffs] = q
    return out


def tally(classes, bound):
    counts = {}
    for q in classes.values():
        if q <= bound:
            counts[q] = counts.get(q, 0) + 1
    return sorted(counts.items())


def up_to_sign(vectors):
    return sorted(min(tuple(v), tuple(-x for x in v)) for v in vectors)


class TestIntegerEnumeration:
    """The integer Fincke-Pohst enumeration against a complete brute-force oracle,
    on sheared presentations of rational, non-integral bases."""

    def test_bound_at_and_just_below_an_attained_norm(self):
        lat = from_basis(Fraction(1, 3) * MatQ([[1, 2], [0, 1]]))
        assert geodesic_spectrum(lat, Fraction(2, 9)) == [(Fraction(1, 9), 2), (Fraction(2, 9), 2)]
        assert geodesic_spectrum(lat, Fraction(2, 9) - Fraction(1, 10**9)) == [(Fraction(1, 9), 2)]
        assert geodesic_spectrum(lat, Fraction(1, 9) - Fraction(1, 10**9)) == []

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=10**12),
    )
    def test_spectrum_and_shortest_match_oracle(self, n, seed, numer):
        rng = random.Random(seed)
        base = rand_lattice(rng, n)
        assume(not base.basis.is_integral())
        g = base.gram_matrix()
        ceiling = 2 * min(g.rows[i][i] for i in range(n))
        box = cauchy_schwarz_box(base, ceiling)
        assume(math.prod(2 * r + 1 for r in box) <= 20000)  # run time only
        classes = classes_within(base, ceiling, box)
        lat = from_basis(base.basis @ rand_unimodular(rng, n, 30, 4).to_matq())

        norms = sorted(set(classes.values()))
        attained = norms[rng.randrange(len(norms))]
        for bound in (attained, attained - Fraction(1, 10**9), Fraction(numer + 1, 10**12 + 39) * ceiling):
            assert geodesic_spectrum(lat, bound) == tally(classes, bound)

        lam = norms[0]
        shortest = shortest_vectors(lat)
        assert up_to_sign(v.ambient() for v in shortest) == up_to_sign(
            base.basis.mul_vec(c) for c, q in classes.items() if q == lam
        )
        assert {squared_length(v) for v in shortest} == {lam}
        assert injectivity_radius(lat)[0] == lam / 4


class TestFlatWalk:
    """``_enumerate_bounded`` streams (x, v) with integer v = den * x^T G' x."""

    def test_values_over_the_shared_denominator(self):
        rng = random.Random(91)
        for _ in range(20):
            n = rng.randint(1, 4)
            lat = from_basis(rand_lattice(rng, n).basis @ rand_unimodular(rng, n, 20, 3).to_matq())
            v, _, gs = lat.reduced_gram()
            den = _norm_denominator(gs)[0]
            g = lat.gram_matrix()
            bound = 2 * squared_length(shortest_vectors(lat)[0])
            seen = 0
            for coeffs, value in walk(gs, bound):
                assert type(value) is int and 0 < value <= bound * den
                c = v.mul_vec(coeffs)
                # the oracle: c^T G c in Fractions, on the rational Gram matrix
                assert Fraction(value, den) == sum((x * y for x, y in zip(c, g.mul_vec(c))), Fraction(0))
                seen += 1
            assert seen >= 1

    def test_streams_past_a_huge_bound(self):
        with time_limit(1):
            walked = walk(standard(4).reduced_gram()[2], Fraction(10**6))
            first = list(itertools.islice(walked, 1000))
        assert inspect.isgenerator(walked)
        assert len(first) == 1000 and all(0 < v <= 10**6 for _, v in first)
        walked.close()


def divisor_sum(k, power=1, keep=lambda d: True):
    return sum(d**power for d in range(1, k + 1) if k % d == 0 and keep(d))


# E8 (covolume 1, even) from the columns 2e1, e2 - e1, ..., e7 - e6 and (1/2, ..., 1/2)
E8_COLUMNS = (
    [[2] + [0] * 7]
    + [[0] * (i - 1) + [-1, 1] + [0] * (7 - i) for i in range(1, 7)]
    + [[Fraction(1, 2)] * 8]
)


class TestThetaSeries:
    """Theta-series oracles for the enumeration, on the lattice and on a re-presentation.

    ``geodesic_spectrum`` counts each +- pair once, so every count is half
    the coefficient of the theta series.
    """

    @pytest.mark.parametrize("sheared", [False, True], ids=["nice", "sheared"])
    def test_e8(self, sheared):
        lat = from_basis(MatQ.from_columns(E8_COLUMNS))
        assert lat.basis.det() == 1
        if sheared:
            lat = from_basis(lat.basis @ rand_unimodular(random.Random(8), 8, 30, 3).to_matq())
        with time_limit(5):
            spectrum = geodesic_spectrum(lat, 6)
            shortest = shortest_vectors(lat)
            r_sq, _ = injectivity_radius(lat)
        # 240 sigma_3(k) vectors of norm 2k
        assert spectrum == [(2 * k, 120 * divisor_sum(k, 3)) for k in (1, 2, 3)]
        assert spectrum == [(2, 120), (4, 1080), (6, 3360)]
        assert len(shortest) == 120 and {squared_length(v) for v in shortest} == {2}
        assert r_sq == Fraction(1, 2)

    @pytest.mark.parametrize("sheared", [False, True], ids=["nice", "sheared"])
    def test_z4(self, sheared):
        lat = standard(4)
        if sheared:
            lat = from_basis(rand_unimodular(random.Random(4), 4, 30, 4).to_matq())
        with time_limit(5):
            spectrum = geodesic_spectrum(lat, 12)
        # Jacobi: r_4(k) = 8 sum_{d | k, 4 does not divide d} d
        assert spectrum == [(k, 4 * divisor_sum(k, keep=lambda d: d % 4)) for k in range(1, 13)]


class TestSympyLllOracle:
    """sympy's LLL (test-only) must present the same lattice with the same minimum."""

    def test_integer_bases(self):
        dm = pytest.importorskip("sympy.polys.matrices")
        zz = pytest.importorskip("sympy").ZZ
        rng = random.Random(82)
        for _ in range(20):
            n = rng.randint(2, 5)
            b = MatQ([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if b.det() == 0:
                continue
            b = b @ rand_unimodular(rng, n, ops=20, kmax=4).to_matq()
            lat = from_basis(b)
            v, _, _ = lat.reduced_gram()
            # sympy reduces row bases; the rows of b^T are our generators
            rows = dm.DomainMatrix([[zz(int(x)) for x in col] for col in zip(*b.rows)], (n, n), zz)
            theirs = from_basis(MatQ(rows.lll().to_Matrix().tolist()).transpose())
            ours = from_basis(b @ v.to_matq())
            assert equals(ours, theirs) and equals(ours, lat)
            assert squared_length(shortest_vectors(theirs)[0]) == squared_length(shortest_vectors(lat)[0])


class TestAngleRange:
    @pytest.mark.parametrize("c", [Fraction(10**200), Fraction(1, 10**200)], ids=["1e200", "1e-200"])
    def test_scaled_lattices(self, c):
        lat = scale(standard(2), c)
        assert abs(angle(LatticeVector(lat, [1, 0]), LatticeVector(lat, [1, 1])) - math.pi / 4) < 1e-12

    @pytest.mark.parametrize("k", range(16))
    def test_small_angles_keep_relative_accuracy(self, k):
        # cos is 1 - 1e-2k/2 here, so acos of a float cosine read 0 from k = 8 on
        got = angle(LatticeVector(standard(2), [10**k, 1]), LatticeVector(standard(2), [10**k, 0]))
        want = math.atan(10.0**-k)
        assert abs(got - want) <= 1e-15 * want

    def test_obtuse_and_right(self):
        lat = from_basis(MatQ([[2, 1], [0, 1]]))
        for v, w in (([1, 0], [-1, 1]), ([1, 0], [-1, 2]), ([0, 1], [-2, 1])):
            x, y = lat.basis.mul_vec(v), lat.basis.mul_vec(w)
            dot = sum(a * b for a, b in zip(x, y))
            want = math.acos(float(dot) / math.sqrt(float(sum(a * a for a in x) * sum(b * b for b in y))))
            assert abs(angle(LatticeVector(lat, v), LatticeVector(lat, w)) - want) < 1e-12


class TestInjectivityRadiusRange:
    @pytest.mark.parametrize("entry, radius", [(Fraction(1, 10**160), 5e-161), (Fraction(10**200), 5e199)])
    def test_radius_in_range_of_an_unrepresentable_square(self, entry, radius):
        r_sq, r = injectivity_radius(from_basis(MatQ([[entry]])))
        assert r_sq == entry * entry / 4
        assert abs(r - radius) <= 1e-15 * radius
