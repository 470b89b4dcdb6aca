import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from latquot.errors import (
    DegenerateParallelepiped,
    DimensionMismatch,
    FloatRangeError,
    LatquotError,
    LatticeMismatch,
    NonFiniteInput,
    NotLatticePreserving,
    SingularMatrix,
    ZeroScale,
)
from latquot.exactnum import MatQ, MatZ
from latquot.lattice_core import covolume, from_basis, scale, standard
from latquot.quotient_torus import (
    InducedMap,
    TorusPoint,
    apply_induced,
    circle_map,
    compose,
    make_induced_map,
    parallelepiped_image_volume,
    reduce,
    torus_add,
    volume_of_scaled,
    volume_scale,
)

from conftest import rand_fraction, rand_invertible, rand_lattice, rand_unimodular, rand_unimodular_pm


def half(*cs):
    return [Fraction(c, 2) for c in cs]


def make_valid_map(rng, n, height=5):
    """A random valid induced map: L2 = A(L1) by construction."""
    source = rand_lattice(rng, n, height)
    while True:
        a = MatQ([[Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(n)] for _ in range(n)])
        if a.det() != 0:
            break
    u = rand_unimodular_pm(rng, n)
    target = from_basis(a @ source.basis @ u.to_matq())
    return make_induced_map(a, source, target)


class TestReduce:
    def test_fractional_part(self):
        p = reduce(standard(2), [Fraction(3, 2), Fraction(-1, 4)])
        assert p.coords == (Fraction(1, 2), Fraction(3, 4))

    def test_lattice_point_is_identity(self):
        assert reduce(standard(2), [2, 5]).coords == (0, 0)

    def test_scaled_basis(self):
        # basis^-1 (3,1) = (3/2, 1/2)
        p = reduce(from_basis(MatQ([[2, 0], [0, 2]])), [3, 1])
        assert p.coords == (Fraction(1, 2), Fraction(1, 2))

    def test_well_defined(self):
        rng = random.Random(61)
        for _ in range(50):
            lat = rand_lattice(rng, rng.randint(1, 3))
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(lat.n)]
            lam = lat.basis.mul_vec([rng.randint(-4, 4) for _ in range(lat.n)])
            shifted = [a + b for a, b in zip(x, lam)]
            assert reduce(lat, x) == reduce(lat, shifted)

    def test_separates_non_equivalent(self):
        assert reduce(standard(1), [Fraction(1, 2)]) != reduce(standard(1), [Fraction(1, 3)])

    def test_homomorphism(self):
        rng = random.Random(62)
        for _ in range(50):
            lat = rand_lattice(rng, rng.randint(1, 3))
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(lat.n)]
            y = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(lat.n)]
            both = reduce(lat, [a + b for a, b in zip(x, y)])
            assert both == torus_add(reduce(lat, x), reduce(lat, y))


class TestTorusPoint:
    def test_coords_validated(self):
        with pytest.raises(ValueError):
            TorusPoint(standard(2), [Fraction(3, 2), 0])
        with pytest.raises(DimensionMismatch, match="^coordinate length 1 does not match dimension 2$"):
            TorusPoint(standard(2), [0])

    def test_equality_across_presentations(self):
        l1 = standard(2)
        l2 = from_basis(MatQ([[1, 1], [0, 1]]))
        x = [Fraction(1, 2), Fraction(1, 3)]
        assert reduce(l1, x) == reduce(l2, x)

    def test_ambient_representative(self):
        p = TorusPoint(from_basis(MatQ([[2, 0], [0, 2]])), half(1, 1))
        assert p.ambient() == (1, 1)

    def test_repr(self):
        p = TorusPoint(from_basis(MatQ([[2, 0], [0, 2]])), [Fraction(1, 3), 0])
        assert repr(p) == "TorusPoint(Lattice(MatQ([[2, 0], [0, 2]])), ['1/3', '0'])"

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
    def test_hash_agrees_with_equality_across_presentations(self, n, seed):
        rng = random.Random(seed)
        l1 = rand_lattice(rng, n)
        l2 = from_basis(l1.basis @ rand_unimodular(rng, n).to_matq())
        x = [rand_fraction(rng) for _ in range(n)]
        shift = l1.basis.mul_vec([rng.randint(-3, 3) for _ in range(n)])
        p = reduce(l1, x)
        q = reduce(l2, [a + b for a, b in zip(x, shift)])
        assert p == q and hash(p) == hash(q)
        other = reduce(l1, [a + b / 2 for a, b in zip(x, l1.basis.mul_vec([1] * n))])
        assert len({p, q, other}) == 2


class TestTorusAdd:
    def test_identity_element(self):
        zero = TorusPoint(standard(2), [0, 0])
        p = TorusPoint(standard(2), half(1, 1))
        assert torus_add(zero, p) == p

    def test_two_torsion(self):
        p = TorusPoint(standard(2), [Fraction(1, 2), 0])
        assert torus_add(p, p).coords == (0, 0)

    def test_componentwise_mod_one(self):
        p = TorusPoint(standard(2), [Fraction(3, 4), Fraction(1, 4)])
        q = TorusPoint(standard(2), half(1, 1))
        assert torus_add(p, q).coords == (Fraction(1, 4), Fraction(3, 4))

    def test_mismatched_lattices(self):
        with pytest.raises(LatticeMismatch):
            torus_add(TorusPoint(standard(2), [0, 0]), TorusPoint(scale(standard(2), 2), [0, 0]))


class TestInducedMap:
    def test_doubling_map(self):
        f = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        assert volume_scale(f) == 4

    def test_identity_map(self):
        f = make_induced_map(MatQ.identity(2), standard(2), standard(2))
        assert volume_scale(f) == 1

    def test_repr(self):
        f = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        assert repr(f) == (
            "InducedMap(MatQ([[2, 0], [0, 2]]), Lattice(MatQ([[1, 0], [0, 1]])), Lattice(MatQ([[2, 0], [0, 2]])))"
        )

    NOT_PRESERVING = "^ambient matrix does not take the source lattice onto the target$"

    def test_not_preserving(self, monkeypatch):
        a = 2 * MatQ.identity(2)
        assert standard(2).coordinates(a @ standard(2).basis).is_integral()  # W = 2I: only |det A| = 4 tells
        products = []
        real = MatQ.__matmul__
        monkeypatch.setattr(MatQ, "__matmul__", lambda x, y: products.append(1) or real(x, y))
        with pytest.raises(NotLatticePreserving, match=self.NOT_PRESERVING):
            make_induced_map(a, standard(2), standard(2))
        assert products == []  # decided on the determinants, before A * basis1 is formed

    def test_the_right_determinant_with_a_witness_that_is_not_integral(self):
        a = MatQ([[2, 0], [0, Fraction(1, 2)]])
        lat = from_basis(MatQ([[1, 1], [0, 1]]))
        assert a.det() == covolume(lat) / covolume(lat)
        with pytest.raises(NotLatticePreserving, match=self.NOT_PRESERVING):
            make_induced_map(a, lat, lat)

    def test_singular(self):
        with pytest.raises(SingularMatrix, match="^ambient matrix has determinant 0$"):
            make_induced_map(MatQ([[1, 0], [0, 0]]), standard(2), standard(2))

    @pytest.mark.parametrize("sizes", [(3, 2, 2), (2, 2, 3), (3, 3, 2)])
    def test_sizes_must_agree(self, sizes):
        a, source, target = sizes
        zero = MatQ([[0] * a] * a)  # singular too: the sizes are checked first
        with pytest.raises(DimensionMismatch, match="^matrix and lattice dimensions must all agree$"):
            InducedMap(zero, standard(source), standard(target))

    def test_compose_needs_matching_lattices(self):
        g = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        with pytest.raises(LatticeMismatch, match="^maps are not composable: target of g differs from source of f$"):
            compose(g, g)

    def test_apply_doubling(self):
        f = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        p = TorusPoint(standard(2), half(1, 1))
        image = apply_induced(f, p)
        assert image.coords == (Fraction(1, 2), Fraction(1, 2))
        assert image.ambient() == (1, 1)

    def test_apply_identity(self):
        f = make_induced_map(MatQ.identity(2), standard(2), standard(2))
        p = TorusPoint(standard(2), [Fraction(1, 3), Fraction(2, 3)])
        assert apply_induced(f, p) == p

    def test_apply_shear(self):
        f = make_induced_map(MatQ([[1, 1], [0, 1]]), standard(2), standard(2))
        p = TorusPoint(standard(2), half(1, 1))
        # ambient image (1, 1/2) reduces to coords (0, 1/2)
        assert apply_induced(f, p).coords == (0, Fraction(1, 2))

    def test_representative_independence(self):
        rng = random.Random(63)
        f = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        p = TorusPoint(standard(2), half(1, 1))
        expected = apply_induced(f, p)
        for _ in range(10):
            shift = [rng.randint(-5, 5) for _ in range(2)]
            rep = [c + s for c, s in zip(p.ambient(), shift)]
            assert reduce(f.target, f.matrix.mul_vec(rep)) == expected

    def test_compatibility_square(self):
        rng = random.Random(64)
        for _ in range(40):
            f = make_valid_map(rng, rng.randint(1, 3), height=3)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(f.source.n)]
            assert apply_induced(f, reduce(f.source, x)) == reduce(f.target, f.matrix.mul_vec(x))

    def test_group_isomorphism(self):
        rng = random.Random(65)
        for _ in range(20):
            f = make_valid_map(rng, rng.randint(1, 3), height=3)
            n = f.source.n
            p = reduce(f.source, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            q = reduce(f.source, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            assert apply_induced(f, torus_add(p, q)) == torus_add(apply_induced(f, p), apply_induced(f, q))

    def test_functoriality(self):
        rng = random.Random(66)
        for _ in range(10):
            n = rng.randint(1, 3)
            g = make_valid_map(rng, n, height=3)
            while True:
                a = MatQ([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                if a.det() != 0:
                    break
            f = make_induced_map(a, g.target, from_basis(a @ g.target.basis))
            fg = compose(f, g)
            assert fg.matrix == f.matrix @ g.matrix
            for _ in range(10):
                x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                p = reduce(g.source, x)
                assert apply_induced(fg, p) == apply_induced(f, apply_induced(g, p))

    def test_volume_scale_multiplicative(self):
        rng = random.Random(67)
        for _ in range(10):
            n = rng.randint(1, 3)
            g = make_valid_map(rng, n, height=3)
            while True:
                a = MatQ([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
                if a.det() != 0:
                    break
            f = make_induced_map(a, g.target, from_basis(a @ g.target.basis))
            assert volume_scale(compose(f, g)) == volume_scale(f) * volume_scale(g)

    def test_volume_scaling_law(self):
        rng = random.Random(68)
        for _ in range(30):
            f = make_valid_map(rng, rng.randint(1, 4))
            assert covolume(f.target) == volume_scale(f) * covolume(f.source)


def eliminated_product_rule(a, source, target):
    """The witness of A(L1) = L2 as it was once decided: a unimodular change from basis2 to
    the product A * basis1, that product's determinant telling a singular A apart."""
    if a.n != source.n or source.n != target.n:
        raise DimensionMismatch("matrix and lattice dimensions must all agree")
    product = a @ source.basis
    u = target.unimodular_change(product)
    if u is None:
        if product.det() == 0:
            raise SingularMatrix("ambient matrix has determinant 0")
        raise NotLatticePreserving("ambient matrix does not take the source lattice onto the target")
    return u


def _outcome(rule, *args):
    """The witness a rule returns, or the type and text of the error it raises."""
    try:
        return rule(*args)
    except LatquotError as e:
        return type(e), str(e)


class TestInducedMapRule:
    """A(L1) = L2 is decided in order: the sizes; det A, read off A's kept LU (SingularMatrix);
    |det A| against covolume(L2) / covolume(L1), before A * basis1 is formed; and last an
    integral witness W = basis2^-1 A basis1 (NotLatticePreserving for either).  Checked
    against the rule on the eliminated product A * basis1."""

    KINDS = {
        "re-presentation": MatZ,
        "sublattice": NotLatticePreserving,
        "superlattice": NotLatticePreserving,
        "equal covolume": NotLatticePreserving,
        "singular": SingularMatrix,
    }

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32),
           st.sampled_from(list(KINDS)))
    def test_matches_the_eliminated_product_rule(self, n, seed, kind):
        rng = random.Random(seed)
        source = rand_lattice(rng, n, height=3)
        a = rand_invertible(rng, n, height=3)
        # the target basis A basis1 U D U', for unimodular U, U' and a diagonal D of |det D| = 1, 2 or 1/2
        d = [Fraction(1)] * n
        if kind == "sublattice":
            d[0] = Fraction(2)
        elif kind == "superlattice":
            d[0] = Fraction(1, 2)
        elif kind == "equal covolume":
            assume(n > 1)  # at n = 1 every lattice of one covolume is the same
            d[0], d[1] = Fraction(2), Fraction(1, 2)
        diagonal = MatQ([[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
        u, u2 = (rand_unimodular_pm(rng, n).to_matq() for _ in range(2))
        target = from_basis(a @ source.basis @ u @ diagonal @ u2)
        if kind == "singular":
            # the last row a multiple of the first, or 0
            rows = [list(row) for row in a.rows]
            k = rng.randint(-2, 2)
            rows[-1] = [k * x for x in rows[0]] if n > 1 else [0]
            a = MatQ(rows)
        want = _outcome(eliminated_product_rule, a, source, target)
        got = _outcome(lambda *args: make_induced_map(*args).witness, a, source, target)
        assert got == want
        assert (type(got) if kind == "re-presentation" else got[0]) is self.KINDS[kind]


class TestCircleMap:
    def test_zero(self):
        assert circle_map(0) == (1.0, 0.0)

    def test_pi(self):
        c, s = circle_map(math.pi)
        assert abs(c + 1) < 1e-12 and abs(s) < 1e-12

    def test_homomorphism(self):
        rng = random.Random(69)
        for _ in range(200):
            s = rng.uniform(-8, 8)
            t = rng.uniform(-8, 8)
            lhs = complex(*circle_map(s + t))
            rhs = complex(*circle_map(s)) * complex(*circle_map(t))
            assert abs(lhs - rhs) < 1e-12

    def test_periodicity(self):
        rng = random.Random(70)
        for _ in range(100):
            t = rng.uniform(-8, 8)
            a = complex(*circle_map(t))
            b = complex(*circle_map(t + 2 * math.pi))
            assert abs(a - b) < 1e-12

    def test_non_finite(self):
        with pytest.raises(NonFiniteInput):
            circle_map(math.inf)
        with pytest.raises(NonFiniteInput):
            circle_map(math.nan)

    @pytest.mark.parametrize(
        "t", [Fraction(10**400), -(10**400), Fraction(-(10**400), 3)], ids=["1e400", "-1e400_int", "-1e400/3"]
    )
    def test_parameter_beyond_float_range_raises(self, t):
        with pytest.raises(FloatRangeError):
            circle_map(t)

    @pytest.mark.parametrize(
        "t", [Fraction(1, 10**400), 1e-300, 5e-324, -Fraction(1, 10**400)], ids=["1e-400", "1e-300", "5e-324", "-1e-400"]
    )
    def test_tiny_parameter_is_within_accuracy(self, t):
        c, s = circle_map(t)
        assert abs(c - 1) < 1e-12 and abs(s) < 1e-12


class TestVolumes:
    def test_two_pi_squared(self):
        value = volume_of_scaled(standard(2), 2 * math.pi)
        assert math.isclose(value, (2 * math.pi) ** 2, rel_tol=1e-9)

    def test_two_pi_cubed(self):
        value = volume_of_scaled(standard(3), 2 * math.pi)
        assert math.isclose(value, (2 * math.pi) ** 3, rel_tol=1e-9)

    def test_unit_scale(self):
        assert volume_of_scaled(standard(2), 1) == 1.0

    def test_zero_scale(self):
        with pytest.raises(ZeroScale):
            volume_of_scaled(standard(2), 0)

    def test_power_beyond_float_range_raises(self):
        # 10^200 fits a float, its square does not
        with pytest.raises(FloatRangeError, match="^value is outside the range of normal floats$"):
            volume_of_scaled(standard(2), 10**200)

    def test_only_the_result_must_fit_a_float(self):
        # |c|^n = 2^1200 and the covolume 2^-1200 are each outside the float
        # range; their product is 1, and only the product is rounded
        assert volume_of_scaled(scale(standard(2), Fraction(1, 2**600)), 2**600) == 1.0

    @pytest.mark.parametrize("lattice_scale, c", [
        (10**400, Fraction(1, 10**400)),
        (Fraction(1, 10**400), 10**400),
    ], ids=["fraction-scale", "int-scale"])
    def test_exact_scale_outside_the_float_range(self, lattice_scale, c):
        # neither c nor the covolume 10^(+-800) has a float; an int or Fraction
        # scale enters the exact product as it is, and the volume is exactly 1
        assert volume_of_scaled(scale(standard(2), lattice_scale), c) == 1.0

    def test_subnormal_float_scale_is_taken_exactly(self):
        # 1e-310 is a subnormal float: its exact value enters the product, and the
        # volume 10^320 * 1e-310, about 1e10, is a normal float
        value = volume_of_scaled(scale(standard(1), 10**320), 1e-310)
        assert value == float(10**320 * Fraction(1e-310))
        assert math.isclose(value, 1e10, rel_tol=1e-9)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_scale(self, c):
        with pytest.raises(NonFiniteInput, match="^scale must be finite$"):
            volume_of_scaled(standard(2), c)

    def test_exact_scale_rounds_once(self):
        # (1/5)^2 = 1/25 rounded once; through the float of 1/5 it read 0.04000000000000001
        assert volume_of_scaled(standard(2), Fraction(1, 5)) == 0.04 == float(Fraction(1, 25))
        assert volume_of_scaled(standard(2), 0.2) == float(Fraction(0.2) ** 2) != 0.04

    def test_parallelepiped_identity_map(self):
        f = make_induced_map(MatQ.identity(2), standard(2), standard(2))
        edges = Fraction(1, 2) * MatQ.identity(2)
        assert parallelepiped_image_volume(f, edges) == Fraction(1, 4)

    def test_parallelepiped_doubling_map(self):
        f = make_induced_map(2 * MatQ.identity(2), standard(2), scale(standard(2), 2))
        edges = Fraction(1, 2) * MatQ.identity(2)
        # 4 * 1/4, matching volume_scale
        assert parallelepiped_image_volume(f, edges) == 1

    def test_degenerate_edges(self):
        f = make_induced_map(MatQ.identity(2), standard(2), standard(2))
        with pytest.raises(DegenerateParallelepiped):
            parallelepiped_image_volume(f, MatQ([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]))

    def test_edge_range_validated(self):
        f = make_induced_map(MatQ.identity(2), standard(2), standard(2))
        with pytest.raises(ValueError):
            parallelepiped_image_volume(f, MatQ([[2, 0], [0, 1]]))
        with pytest.raises(DimensionMismatch, match="^edge matrix size does not match the source dimension$"):
            parallelepiped_image_volume(f, Fraction(1, 2) * MatQ.identity(3))
