import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from latquot.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    LatticeMismatch,
    NonPositiveBound,
    NotPositiveDefinite,
    NotSymmetric,
    ZeroVector,
)
from latquot.exactnum import MatQ, MatZ, PosDefForm
from latquot.flat_geometry import (
    GramForm,
    LatticeVector,
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
from latquot.lattice_core import Lattice, equals, from_basis, scale, standard
from latquot.moduli_spaces import gram_map

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


def cauchy_schwarz_box(lattice, bound):
    """Radii r_i with |x_i| <= r_i for every x with x^T G x <= bound: x_i^2 <= bound * (G^-1)_ii."""
    ginv = lattice.gram_matrix().inverse()
    return [math.isqrt(math.floor(bound * ginv.rows[i][i])) for i in range(lattice.n)]


def classes_within(lattice, bound, box):
    """Oracle: squared length of every nonzero class with squared length <= bound,
    one per +- pair (highest-index nonzero coefficient positive), by ambient dot
    products over ``cauchy_schwarz_box``."""
    out = {}
    for coeffs in itertools.product(*[range(-r, r + 1) for r in box]):
        if not any(coeffs) or next(c for c in reversed(coeffs) if c) < 0:
            continue
        v = lattice.basis.mul_vec(coeffs)
        q = sum((x * x for x in v), Fraction(0))
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
