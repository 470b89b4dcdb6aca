import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latquot.errors import CovolumeMismatch, DimensionMismatch, FloatRangeError, NotPositiveDefinite, SingularMatrix
from latquot.exactnum import MatQ, is_positive_definite
from latquot.flat_geometry import is_orthogonal, isometric_mod_rotation
from latquot.lattice_core import from_basis, scale, standard
from latquot.moduli_spaces import (
    PosDefForm,
    UnitCovolumeForm,
    double_coset_equivalent,
    gram_map,
    in_M,
    in_Sigma,
    orientation,
    posdef_witness,
    same_left_coset,
    unit_covolume_form,
)

from conftest import rand_fraction, rand_invertible, rand_matq, rand_orthogonal, rand_unimodular, rand_unimodular_pm


def rand_posdef(rng, n, height=4):
    """Random positive-definite symmetric matrix by rejection."""
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.randint(1, height), rng.randint(1, height))
            for j in range(i):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-height, height), rng.randint(1, height))
        m = MatQ(rows)
        if is_positive_definite(m):
            return m


def max_residual(t_rows, s: MatQ) -> float:
    n = s.n
    worst = 0.0
    for i in range(n):
        for j in range(n):
            value = sum(t_rows[k][i] * t_rows[k][j] for k in range(n))
            worst = max(worst, abs(value - float(s.rows[i][j])))
    return worst


class TestGramMap:
    def test_identity(self):
        assert gram_map(MatQ.identity(2)).matrix == MatQ.identity(2)

    def test_shear(self):
        assert gram_map(MatQ([[1, 1], [0, 1]])).matrix == MatQ([[1, 1], [1, 2]])

    def test_rotation_maps_to_identity(self):
        assert gram_map(MatQ([["3/5", "-4/5"], ["4/5", "3/5"]])).matrix == MatQ.identity(2)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            gram_map(MatQ([[1, 1], [1, 1]]))

    def test_left_orthogonal_invariance(self):
        rng = random.Random(101)
        for _ in range(30):
            n = rng.randint(2, 4)
            t = rand_invertible(rng, n)
            r = rand_orthogonal(rng, n)
            assert gram_map(r @ t) == gram_map(t)


def cayley(rng, n):
    """(I - A)(I + A)^-1 for a random rational skew-symmetric A: a rational orthogonal matrix."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rand_fraction(rng)
            rows[j][i] = -rows[i][j]
    a, one = MatQ(rows), MatQ.identity(n)
    return (one - a) @ (one + a).inverse()


class TestSameLeftCoset:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32),
        st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(lambda c: c not in (0, 1, -1)),
    )
    def test_cayley_rotations_keep_it_and_scalings_break_it(self, n, seed, c):
        rng = random.Random(seed)
        t1 = rand_invertible(rng, n)
        r = cayley(rng, n)
        assert r.transpose() @ r == MatQ.identity(n) and is_orthogonal(r)
        assert same_left_coset(t1, r @ t1) and same_left_coset(r @ t1, t1)
        assert not same_left_coset(t1, c * t1)
        assert not same_left_coset(t1, c * (r @ t1))

    def test_reflexive(self):
        rng = random.Random(102)
        t = rand_invertible(rng, 3)
        assert same_left_coset(t, t)

    def test_orthogonal_factor(self):
        assert same_left_coset(MatQ.identity(2), MatQ([["3/5", "-4/5"], ["4/5", "3/5"]]))

    def test_scaling_breaks_it(self):
        assert not same_left_coset(MatQ.identity(2), 2 * MatQ.identity(2))

    def test_singular(self):
        for pair in ((MatQ([[1, 0], [0, 0]]), MatQ.identity(2)), (MatQ.identity(2), MatQ([[1, 1], [1, 1]]))):
            with pytest.raises(SingularMatrix, match="^matrices must be invertible$"):
                same_left_coset(*pair)

    def test_sizes_differ(self):
        # the sizes are checked first, before either matrix's determinant
        for t1, t2 in ((MatQ.identity(2), MatQ.identity(3)), (MatQ([[1, 0], [0, 0]]), MatQ.identity(3))):
            with pytest.raises(DimensionMismatch, match=f"^matrix sizes differ: {t1.n} vs {t2.n}$"):
                same_left_coset(t1, t2)
            with pytest.raises(DimensionMismatch, match=f"^matrix sizes differ: {t2.n} vs {t1.n}$"):
                same_left_coset(t2, t1)

    def test_characterizations_agree(self):
        # oracle: t2 = R t1 with R orthogonal iff t2 * t1^-1 is orthogonal
        rng = random.Random(103)
        for i in range(60):
            n = rng.randint(2, 3)
            t1 = rand_invertible(rng, n)
            if i % 2 == 0:
                t2 = rand_orthogonal(rng, n) @ t1
                assert same_left_coset(t1, t2)
            else:
                t2 = rand_invertible(rng, n)
            assert same_left_coset(t1, t2) == is_orthogonal(t2 @ t1.inverse())


class TestPosdefWitness:
    def test_identity(self):
        assert posdef_witness(PosDefForm(MatQ.identity(2))) == [[1.0, 0.0], [0.0, 1.0]]

    def test_diagonal_roots(self):
        assert posdef_witness(MatQ([[4, 0], [0, 9]])) == [[2.0, 0.0], [0.0, 3.0]]

    def test_hand_ldl(self):
        t = posdef_witness(MatQ([[1, 1], [1, 2]]))
        expected = [[1.0, 1.0], [0.0, 1.0]]
        assert all(abs(t[i][j] - expected[i][j]) <= 1e-10 for i in range(2) for j in range(2))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            posdef_witness(MatQ([[0, 1], [1, 0]]))
        with pytest.raises(NotPositiveDefinite):
            posdef_witness(MatQ([[-1, 0], [0, 1]]))

    def test_round_trip_residual(self):
        rng = random.Random(104)
        for _ in range(40):
            s = rand_posdef(rng, rng.randint(1, 3), height=10)
            assert max_residual(posdef_witness(s), s) <= 1e-10

    def test_upper_triangular(self):
        rng = random.Random(105)
        s = rand_posdef(rng, 3)
        t = posdef_witness(s)
        assert t[1][0] == 0.0 and t[2][0] == 0.0 and t[2][1] == 0.0

    def test_pivot_below_float_range_raises(self):
        # the root 10^-400 of the pivot 10^-800 has no normal float
        with pytest.raises(FloatRangeError):
            posdef_witness(MatQ([[Fraction(1, 10**800), 0], [0, 1]]))

    def test_pivot_below_float_range_with_root_in_range(self):
        # the pivot 10^-400 has no float, but its root 10^-200 does
        assert posdef_witness(MatQ([[Fraction(1, 10**400), 0], [0, 1]])) == [[1e-200, 0.0], [0.0, 1.0]]

    def test_off_diagonal_entry_below_float_range_raises(self):
        # T_01 = 10^-200 * (10^-600 / 10^-400) = 10^-400 must not read as a silent 0.0
        with pytest.raises(FloatRangeError):
            posdef_witness(MatQ([[Fraction(1, 10**400), Fraction(1, 10**600)], [Fraction(1, 10**600), 1]]))

    def test_not_positive_definite_form_message(self):
        with pytest.raises(NotPositiveDefinite, match="form must be positive definite"):
            posdef_witness(MatQ([[1, 2], [2, 1]]))


def _det_one_gram(rng, n):
    """T^T T for a rational T of determinant +-1: a unimodular U times diag(c, 1/c, 1, ...)."""
    t = rand_unimodular_pm(rng, n).to_matq()
    if n > 1:
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        t = t @ MatQ([[c if i == j == 0 else 1 / c if i == j == 1 else int(i == j) for j in range(n)]
                      for i in range(n)])
    return t.transpose() @ t


class TestMembership:
    def test_in_m(self):
        assert in_M(MatQ.identity(2))
        assert in_M(MatQ([[2, 0], [0, "1/2"]]))
        assert not in_M(MatQ([[2, 0], [0, 2]]))
        assert not in_M(MatQ([[1, 1], [0, 1]]))  # not symmetric
        assert not in_M(MatQ([[-1, 0], [0, -1]]))  # det 1 but negative definite

    def test_in_sigma(self):
        assert in_Sigma(MatQ.identity(2))
        assert in_Sigma(MatQ([[1, 1], [0, 1]]))
        assert not in_Sigma(MatQ([[1, 0], [0, -1]]))
        assert not in_Sigma(MatQ([["1/2", 0], [0, 2]]))

    def test_sigma_closed_under_inverse(self):
        rng = random.Random(106)
        for _ in range(40):
            u = rand_unimodular(rng, rng.randint(2, 4)).to_matq()
            assert in_Sigma(u)
            assert in_Sigma(u.inverse())

    def test_gram_map_of_unimodular_lands_in_m(self):
        rng = random.Random(107)
        for _ in range(30):
            u = rand_unimodular(rng, rng.randint(2, 4)).to_matq()
            assert in_M(gram_map(u).matrix)

    def test_gram_map_of_rational_det_one_lands_in_m(self):
        # rational matrices of determinant +-1: orthogonal times unimodular
        rng = random.Random(110)
        for _ in range(30):
            n = rng.randint(2, 4)
            t = rand_orthogonal(rng, n) @ rand_unimodular(rng, n).to_matq()
            assert abs(t.det()) == 1
            assert in_M(gram_map(t).matrix)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=2**32))
    def test_in_m_matches_its_definition(self, n, kind, seed):
        rng = random.Random(seed)
        m = rand_matq(rng, n, height=3)
        s = {
            0: lambda: _det_one_gram(rng, n),
            1: lambda: m.transpose() @ m,  # positive semidefinite, any determinant
            2: lambda: m + m.transpose(),  # symmetric, often indefinite or singular
            3: lambda: -1 * _det_one_gram(rng, n),  # determinant (-1)^n, never positive definite
            4: lambda: m,  # rarely symmetric
        }[kind]()
        assert in_M(s) == (s == s.transpose() and is_positive_definite(s) and s.det() == 1)

    def test_orientation(self):
        assert orientation(MatQ.identity(2)) == 1
        assert orientation(MatQ([[1, 0], [0, -1]])) == -1
        assert orientation(MatQ([[0, 1], [1, 0]])) == -1
        with pytest.raises(SingularMatrix):
            orientation(MatQ([[0, 0], [0, 0]]))


class TestUnitCovolumeForm:
    def test_standard(self):
        u = unit_covolume_form(standard(2))
        assert u.gram == MatQ.identity(2)
        assert u.scale == 1.0
        assert u.scale_exact == 1

    def test_doubled(self):
        u = unit_covolume_form(scale(standard(2), 2))
        assert u.gram == 4 * MatQ.identity(2)
        assert u.scale_exact == Fraction(1, 4)
        assert u.normalized_exact() == MatQ.identity(2)

    def test_shear_already_unit(self):
        u = unit_covolume_form(from_basis(MatQ([[1, 1], [0, 1]])))
        assert u.gram == MatQ([[1, 1], [1, 2]])
        assert u.scale_exact == 1

    def test_irrational_scale(self):
        # covolume 2 in dimension 2 is not a rational square
        u = unit_covolume_form(from_basis(MatQ([[2, 0], [0, 1]])))
        assert u.scale_exact is None
        assert u.normalized_exact() is None
        assert abs(u.scale - 0.5) < 1e-12
        norm = u.normalized_float()
        assert abs(norm[0][0] * norm[1][1] - 1.0) < 1e-9

    def test_value_semantics(self):
        u = unit_covolume_form(scale(standard(2), 2))
        same = UnitCovolumeForm(gram=4 * MatQ.identity(2), scale=0.25, scale_exact=Fraction(1, 4))
        assert u == same and hash(u) == hash(same)
        assert u != UnitCovolumeForm(u.gram, u.scale, None)
        assert repr(u) == (
            "UnitCovolumeForm(gram=MatQ([[4, 0], [0, 4]]), scale=0.25, scale_exact=Fraction(1, 4))"
        )
        with pytest.raises(AttributeError):
            u.scale = 1.0
        with pytest.raises(AttributeError):
            del u.gram

    @pytest.mark.parametrize(
        "vol", [10**400, 2 * 10**400, Fraction(1, 3 * 10**400)], ids=["1e400", "2e400", "1/3e400"]
    )
    def test_covolume_outside_float_range_raises(self, vol):
        # 10^400 is a square (the exact scale path), 2 * 10^400 is not (the float path)
        with pytest.raises(FloatRangeError):
            unit_covolume_form(from_basis(MatQ([[vol, 0], [0, 1]])))

    @pytest.mark.parametrize("n, vol", [(4, 2 * 10**400), (6, 3 * 10**500)], ids=["n4", "n6"])
    def test_covolume_outside_float_range_with_scale_in_range(self, n, vol):
        # vol has no float, but vol^(-2/n) does
        mpmath = pytest.importorskip("mpmath")
        rows = [[vol if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
        u = unit_covolume_form(from_basis(MatQ(rows)))
        assert u.scale_exact is None
        with mpmath.workdps(60):
            expected = mpmath.mpf(vol) ** (mpmath.mpf(-2) / n)
            assert abs(u.scale - expected) <= 4e-16 * expected

    @pytest.mark.parametrize("top", [10**200, 2 * 10**200], ids=["exact", "float"])
    def test_normalized_float_outside_float_range_raises(self, top):
        # covolume 1 has the exact scale 1, covolume 2 only the float scale 1/2;
        # either way the normalized entry 10^400 has no float
        u = unit_covolume_form(from_basis(MatQ([[top, 0], [0, Fraction(1, 10**200)]])))
        assert (u.scale_exact is None) == (top != 10**200)
        with pytest.raises(FloatRangeError):
            u.normalized_float()

    def test_normalized_has_unit_determinant(self):
        rng = random.Random(108)
        for _ in range(10):
            n = rng.randint(1, 3)
            lat = from_basis(rand_invertible(rng, n, height=3))
            u = unit_covolume_form(lat)
            if u.scale_exact is not None:
                assert u.normalized_exact().det() == 1


class TestDoubleCoset:
    def test_identity(self):
        w = double_coset_equivalent(standard(2), standard(2), oriented=True)
        assert w is not None and w.det() == 1

    def test_rotated(self):
        rot = MatQ([["3/5", "-4/5"], ["4/5", "3/5"]])
        w = double_coset_equivalent(standard(2), from_basis(rot), oriented=True)
        assert w is not None

    def test_distinct_spectra(self):
        l1 = from_basis(MatQ([[1, 0], [0, 4]]))
        l2 = from_basis(MatQ([[2, 0], [0, 2]]))
        assert double_coset_equivalent(l1, l2) is None

    def test_covolume_mismatch(self):
        with pytest.raises(CovolumeMismatch):
            double_coset_equivalent(standard(2), scale(standard(2), 2))

    @pytest.mark.parametrize("c1, c2", [("1/2", "1/3"), ("1/3", "2/3"), ("-1/2", "1/3")])
    def test_covolumes_that_share_a_numerator_or_denominator(self, c1, c2):
        # equal numerators or equal denominators: each covolume pair still differs
        l1, l2 = from_basis(MatQ([[c1]])), from_basis(MatQ([[c2]]))
        with pytest.raises(CovolumeMismatch):
            double_coset_equivalent(l1, l2)
        assert double_coset_equivalent(l1, from_basis(MatQ([[-Fraction(c1)]]))) is not None

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32), st.booleans())
    def test_agrees_with_the_search(self, n, seed, oriented):
        # a rotated re-presentation, a reflection, a rescaled copy (of either sign), a copy with one
        # basis vector doubled and another halved (same covolume, in general not isometric) or
        # another lattice
        rng = random.Random(seed)
        l1 = from_basis(rand_invertible(rng, n, height=3))
        kind = rng.randrange(5)
        if kind == 0:
            l2 = from_basis(rand_orthogonal(rng, n) @ l1.basis @ rand_unimodular_pm(rng, n, ops=5, kmax=2).to_matq())
        elif kind == 1:
            l2 = from_basis(MatQ([[-x for x in row] if i == 0 else row for i, row in enumerate(l1.basis.rows)]))
        elif kind == 2:
            l2 = scale(l1, rng.choice([-1, 1]) * Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        elif kind == 3 and n > 1:
            d = [2, Fraction(1, 2)] + [1] * (n - 2)
            l2 = from_basis(l1.basis @ MatQ([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]))
        else:
            l2 = from_basis(rand_invertible(rng, n, height=3))
        if abs(l1.basis_det) != abs(l2.basis_det):
            with pytest.raises(CovolumeMismatch):
                double_coset_equivalent(l1, l2, oriented=oriented)
        else:
            got = double_coset_equivalent(l1, l2, oriented=oriented)
            want = isometric_mod_rotation(from_basis(l1.basis), from_basis(l2.basis), oriented=oriented)
            assert (got is None) == (want is None) and (got is None or got.rows == want.rows)

    @pytest.mark.parametrize("other", [standard(3), scale(standard(3), 2)], ids=["same-covolume", "other-covolume"])
    def test_dimension_mismatch_comes_first(self, other):
        # the dimensions are compared before the covolumes, as in every two-lattice function
        with pytest.raises(DimensionMismatch, match="^lattice dimensions differ: 2 vs 3$"):
            double_coset_equivalent(standard(2), other)

    def test_reflexive_and_symmetric(self):
        rng = random.Random(109)
        for _ in range(10):
            n = rng.randint(1, 3)
            l1 = from_basis(rand_invertible(rng, n, height=3))
            assert double_coset_equivalent(l1, l1) is not None
            q = rand_orthogonal(rng, n)
            u = rand_unimodular(rng, n, ops=5, kmax=2)
            l2 = from_basis(q @ l1.basis @ u.to_matq())
            forward = double_coset_equivalent(l1, l2)
            backward = double_coset_equivalent(l2, l1)
            assert forward is not None and backward is not None
            assert abs(forward.det()) == 1 and abs(backward.det()) == 1
