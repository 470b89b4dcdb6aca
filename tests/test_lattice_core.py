import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latquot.errors import (
    DimensionMismatch,
    NotASublattice,
    NotEqualLattices,
    SingularBasis,
    ZeroScale,
)
from latquot.exactnum import MatQ, MatZ
from latquot.lattice_core import (
    Lattice,
    change_of_basis_witness,
    contains,
    covolume,
    equals,
    from_basis,
    scale,
    standard,
    sublattice_index,
)

from latquot.quotient_torus import make_induced_map, reduce

from conftest import rand_invertible, rand_lattice, rand_unimodular, rand_unimodular_pm


class TestConstruction:
    def test_standard(self):
        for n in (1, 2, 4):
            assert standard(n).basis == MatQ.identity(n)
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            standard(0)

    def test_from_basis(self):
        lat = from_basis(MatQ([[2, 0], [0, 3]]))
        assert lat.n == 2

    def test_singular_basis(self):
        with pytest.raises(SingularBasis):
            from_basis(MatQ([[1, 0], [0, 0]]))

    def test_scale(self):
        assert equals(scale(standard(2), 2), from_basis(MatQ([[2, 0], [0, 2]])))
        assert equals(scale(standard(2), 1), standard(2))
        half = scale(from_basis(MatQ([[2, 0], [0, 3]])), Fraction(1, 2))
        assert equals(half, from_basis(MatQ([[1, 0], [0, Fraction(3, 2)]])))

    def test_scale_zero(self):
        with pytest.raises(ZeroScale):
            scale(standard(2), 0)

    def test_repr(self):
        assert repr(from_basis(MatQ([[1, Fraction(1, 2)], [0, 2]]))) == "Lattice(MatQ([[1, 1/2], [0, 2]]))"


class TestContains:
    def test_integer_point(self):
        assert contains(standard(2), [3, 5])

    def test_non_integer_point(self):
        assert not contains(standard(2), [Fraction(1, 2), 0])

    def test_shear_basis(self):
        # (2,1) = 1*(1,0) + 1*(1,1)
        lat = from_basis(MatQ([[1, 1], [0, 1]]))
        assert contains(lat, [2, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(standard(2), [1, 2, 3])

    def test_subgroup_property(self):
        rng = random.Random(51)
        for _ in range(30):
            lat = rand_lattice(rng, rng.randint(1, 3))
            a = lat.basis.mul_vec([rng.randint(-4, 4) for _ in range(lat.n)])
            b = lat.basis.mul_vec([rng.randint(-4, 4) for _ in range(lat.n)])
            assert contains(lat, a) and contains(lat, b)
            assert contains(lat, [x + y for x, y in zip(a, b)])
            assert contains(lat, [-x for x in a])


class TestEquals:
    def test_shear_presentation(self):
        assert equals(standard(2), from_basis(MatQ([[1, 1], [0, 1]])))

    def test_scaled_not_equal(self):
        assert not equals(standard(2), scale(standard(2), 2))

    def test_column_shear_of_rectangular(self):
        # change of basis [[1,1],[0,1]] is unimodular
        l1 = from_basis(MatQ([[2, 0], [0, 3]]))
        l2 = from_basis(MatQ([[2, 2], [0, 3]]))
        assert equals(l1, l2)

    def test_unimodular_invariance(self):
        rng = random.Random(52)
        for _ in range(30):
            lat = rand_lattice(rng, rng.randint(1, 4))
            u = rand_unimodular_pm(rng, lat.n)
            assert equals(lat, from_basis(lat.basis @ u.to_matq()))

    def test_dimension_mismatch(self):
        for compare in (equals, sublattice_index, change_of_basis_witness):
            with pytest.raises(DimensionMismatch, match="^lattice dimensions differ: 2 vs 3$"):
                compare(standard(2), standard(3))

    def test_one_body_is_equal_with_no_solve(self, monkeypatch):
        rows = [[2, 1, 0], [0, 3, 1], [1, 0, 1]]
        lat, z, q = from_basis(MatQ(rows)), from_basis(MatZ(rows)), from_basis(MatQ(rows))
        other = from_basis(MatQ([[2, 3, 0], [0, 3, 1], [1, 1, 1]]))  # rows @ a column shear

        def no_solve(self, rhs):
            raise AssertionError("solve ran")

        monkeypatch.setattr(MatQ, "solve", no_solve)
        for l1, l2 in [(lat, lat), (lat, z), (z, lat), (z, z), (lat, q)]:
            assert equals(l1, l2) and l1 == l2 and not l1 != l2
        with pytest.raises(AssertionError, match="^solve ran$"):
            equals(lat, other)  # a second body still takes the solve

    def test_dunder_eq_and_hash_use_canonical_form(self):
        l1 = standard(2)
        l2 = from_basis(MatQ([[1, 1], [0, 1]]))
        assert l1 == l2
        assert hash(l1) == hash(l2)
        assert l1 != scale(l1, 2)


class TestIndexAndCovolume:
    def test_index_of_doubled(self):
        # the 4 cosets of 2Z^2 in Z^2 are represented by {0,1}^2
        assert sublattice_index(scale(standard(2), 2), standard(2)) == 4

    def test_index_identity(self):
        assert sublattice_index(standard(2), standard(2)) == 1

    def test_reversed_containment(self):
        with pytest.raises(NotASublattice):
            sublattice_index(standard(2), scale(standard(2), 2))

    def test_index_power_law(self):
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                assert sublattice_index(scale(standard(n), k), standard(n)) == k**n

    def test_covolume_standard(self):
        for n in range(1, 6):
            assert covolume(standard(n)) == 1

    def test_covolume_examples(self):
        assert covolume(from_basis(MatQ([[2, 0], [0, 3]]))) == 6
        assert covolume(from_basis(MatQ([[1, 1], [0, 1]]))) == 1

    def test_covolume_unimodular_invariance(self):
        rng = random.Random(53)
        for _ in range(20):
            lat = rand_lattice(rng, rng.randint(1, 4))
            u = rand_unimodular_pm(rng, lat.n)
            assert covolume(from_basis(lat.basis @ u.to_matq())) == covolume(lat)

    def test_covolume_scaling_law(self):
        rng = random.Random(54)
        for _ in range(20):
            lat = rand_lattice(rng, rng.randint(1, 4))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([1, -1])
            assert covolume(scale(lat, c)) == abs(c) ** lat.n * covolume(lat)

    def test_index_equals_covolume_ratio(self):
        rng = random.Random(55)
        for _ in range(20):
            lat = rand_lattice(rng, rng.randint(1, 3))
            k = rng.randint(1, 3)
            sub = scale(lat, k)
            assert sublattice_index(sub, lat) == covolume(sub) / covolume(lat)


class TestWitness:
    def test_shear_witness(self):
        u = change_of_basis_witness(standard(2), from_basis(MatQ([[1, 1], [0, 1]])))
        assert u.to_matq() == MatQ([[1, 1], [0, 1]])

    def test_identity_witness(self):
        u = change_of_basis_witness(standard(2), standard(2))
        assert u.to_matq() == MatQ.identity(2)

    def test_not_equal(self):
        with pytest.raises(NotEqualLattices):
            change_of_basis_witness(standard(2), scale(standard(2), 2))

    def test_witness_transforms_basis(self):
        rng = random.Random(56)
        for _ in range(20):
            l1 = rand_lattice(rng, rng.randint(1, 4))
            u = rand_unimodular_pm(rng, l1.n)
            l2 = from_basis(l1.basis @ u.to_matq())
            w = change_of_basis_witness(l1, l2)
            assert l1.basis @ w.to_matq() == l2.basis
            assert abs(w.det()) == 1


class TestCoordinateMap:
    def test_vector_and_matrix_coordinates(self):
        lat = from_basis(MatQ([[2, 1], [0, Fraction(1, 3)]]))
        assert lat.coordinates([5, 1]) == (1, 3)
        assert lat.coordinates(lat.basis) == MatQ.identity(2)

    def test_unimodular_change_rejects_non_bases(self):
        lat = standard(2)
        assert lat.unimodular_change(MatQ([[2, 0], [0, 1]])) is None  # index 2
        assert lat.unimodular_change(MatQ([[Fraction(1, 2), 0], [0, 2]])) is None  # not in L
        assert lat.unimodular_change(MatQ([[0, 1], [1, 0]])) == MatZ([[0, 1], [1, 0]])

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
    def test_witnesses_over_unimodular_presentations(self, n, seed):
        rng = random.Random(seed)
        l1 = rand_lattice(rng, n, height=3)
        u = rand_unimodular(rng, n, ops=2 * n)
        l2 = from_basis(l1.basis @ u.to_matq())
        w = change_of_basis_witness(l1, l2)
        assert l1.basis @ w.to_matq() == l2.basis
        # A(L1) = L2 for the target basis A * B1 * U, presented by another U'
        a = rand_invertible(rng, n, height=3)
        target = from_basis(a @ l1.basis @ rand_unimodular(rng, n, ops=2 * n).to_matq())
        f = make_induced_map(a, l1, target)
        assert a @ l1.basis == target.basis @ f.witness.to_matq()
        assert abs(f.witness.det()) == 1


class TestExactSolveSizes:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_wrong_length_vector(self, k):
        lat = from_basis(MatQ([[2, 1, 0], [0, Fraction(1, 3), 1], [1, 0, 5]]))
        x = [Fraction(1, 2)] * k
        message = f"^vector length {k} does not match dimension 3$"
        for call in (lat.coordinates, lambda v: contains(lat, v), lambda v: reduce(lat, v)):
            with pytest.raises(DimensionMismatch, match=message):
                call(x)

    @pytest.mark.parametrize("k", [2, 4])
    def test_wrong_size_matrix(self, k):
        with pytest.raises(DimensionMismatch):
            standard(3).coordinates(MatQ.identity(k))


def _sympy_change(sympy, basis: MatQ, m: MatQ):
    """The oracle's basis^-1 * m as a MatZ if it is unimodular, else None."""
    def sym(a):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a.rows])

    u = sym(basis).inv() * sym(m)
    if all(x.is_integer for x in u) and abs(u.det()) == 1:
        return MatZ([[int(x) for x in u.row(i)] for i in range(u.rows)])
    return None


class TestBasisChangeOracle:
    """equals, unimodular_change and change_of_basis_witness against sympy's Matrix.inv."""

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2**32))
    def test_against_sympy_inverse(self, n, kind, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        l1 = rand_lattice(rng, n, height=4)
        u = rand_unimodular_pm(rng, n, ops=2 * n).to_matq()
        if kind == 1:  # an index-2 sublattice: one generator doubled
            k = rng.randrange(n)
            u = u @ MatQ([[2 if i == j == k else int(i == j) for j in range(n)] for i in range(n)])
        elif kind == 2:  # singular: one column repeated, or zero when n = 1
            cols = [list(c) for c in zip(*u.rows)]
            cols[-1] = cols[0] if n > 1 else [0]
            u = MatQ.from_columns(cols)
        m = l1.basis @ u
        expected = _sympy_change(sympy, l1.basis, m)
        assert (expected is not None) == (kind == 0)
        assert l1.unimodular_change(m) == expected
        if kind == 2:
            return
        l2 = from_basis(m)
        assert equals(l1, l2) == equals(l2, l1) == (expected is not None)
        if expected is None:
            with pytest.raises(NotEqualLattices):
                change_of_basis_witness(l1, l2)
        else:
            assert change_of_basis_witness(l1, l2) == expected

    def test_same_object_is_equal(self):
        lat = from_basis(MatQ([[2, 1], [0, Fraction(1, 3)]]))
        assert equals(lat, lat) and lat == lat and not lat != lat
        with pytest.raises(DimensionMismatch):
            equals(lat, standard(3))


def test_no_assert_in_the_library():
    """Self-checks must raise, not assert: ``python -O`` strips assert."""
    src = Path(__file__).resolve().parent.parent / "src" / "latquot"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


class TestCanonicalBasis:
    def test_presentation_independent(self):
        rng = random.Random(57)
        for _ in range(20):
            lat = rand_lattice(rng, rng.randint(1, 3))
            u = rand_unimodular_pm(rng, lat.n)
            other = from_basis(lat.basis @ u.to_matq())
            assert lat.canonical_basis() == other.canonical_basis()

    def test_canonical_generates_same_lattice(self):
        rng = random.Random(58)
        for _ in range(10):
            lat = rand_lattice(rng, rng.randint(1, 3))
            assert equals(lat, Lattice(lat.canonical_basis()))


class TestUnimodularChangeEdges:
    def test_own_basis_is_the_identity(self):
        lat = from_basis(MatQ([[2, 1, 0], [0, Fraction(1, 3), 1], [1, 0, 5]]))
        assert lat.unimodular_change(lat.basis) == MatZ.identity(3)
        assert lat.unimodular_change(MatQ(lat.basis.rows)) == MatZ.identity(3)  # an equal copy

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_wrong_size_is_none(self, k):
        assert standard(3).unimodular_change(MatQ.identity(k)) is None
