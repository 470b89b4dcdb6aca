import random
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from latquot.complex_lattices import (
    ComplexMatrix,
    ComplexStructure,
    complex_map_check,
    gaussian_lattice,
    is_complex_linear,
    is_unitary,
    realify,
    standard_complex_structure,
)
from latquot.errors import DimensionMismatch, NotLatticePreserving
from latquot.exactnum import MatQ, MatZ
from latquot.flat_geometry import gram
from latquot.lattice_core import covolume, from_basis, sublattice_index
from latquot.quotient_torus import volume_scale


def rand_entries(rng, n, height=4):
    return tuple(
        tuple(
            (Fraction(rng.randint(-height, height), rng.randint(1, height)),
             Fraction(rng.randint(-height, height), rng.randint(1, height)))
            for _ in range(n)
        )
        for _ in range(n)
    )


def rand_complex_matrix(rng, n, height=4):
    return ComplexMatrix(rand_entries(rng, n, height))


def cx_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def cx_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


class TestPairArithmetic:
    """The (re, im) pair arithmetic, entry by entry, as the reference for the
    operations ComplexMatrix takes from its realified body."""

    def test_entries_read_back(self):
        rng = random.Random(98)
        for _ in range(40):
            rows = rand_entries(rng, rng.randint(1, 3))
            assert ComplexMatrix(rows).entries == rows

    def test_sum_and_product(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 3)
            x, y = rand_entries(rng, n), rand_entries(rng, n)
            m1, m2 = ComplexMatrix(x), ComplexMatrix(y)
            total = tuple(tuple(cx_add(a, b) for a, b in zip(rx, ry)) for rx, ry in zip(x, y))
            product = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = (Fraction(0), Fraction(0))
                    for k in range(n):
                        acc = cx_add(acc, cx_mul(x[i][k], y[k][j]))
                    row.append(acc)
                product.append(tuple(row))
            assert (m1 + m2).entries == total
            assert (m1 @ m2).entries == tuple(product)
            assert m1 @ m2 == ComplexMatrix(product) and (m1 @ m2).n == n

    def test_errors_name_complex_dimensions(self):
        m2, m3 = ComplexMatrix.identity(2), ComplexMatrix.identity(3)
        for op in (lambda: m2 @ m3, lambda: m2 + m3):
            with pytest.raises(DimensionMismatch, match=r"^matrix sizes differ: 2 vs 3$"):
                op()
        with pytest.raises(TypeError, match=r"^expected ComplexMatrix, got MatQ$"):
            m2 @ realify(m2)

    @pytest.mark.parametrize("entries", [[], [[1, 2]], [[1, 0], [0]]], ids=["empty", "wide", "ragged"])
    def test_must_be_square(self, entries):
        with pytest.raises(ValueError, match="^matrix must be square with n >= 1$"):
            ComplexMatrix(entries)


    @pytest.mark.parametrize(
        "make",
        [lambda: ComplexMatrix([[0.1]]), lambda: ComplexMatrix([[(1, 0.5)]]), lambda: ComplexMatrix.scalar(1, 0.25)],
        ids=["real-part", "imaginary-part", "scalar"],
    )
    def test_floats_are_refused_like_matq_entries(self, make):
        with pytest.raises(TypeError, match=r"^floating-point values are not allowed"):
            make()

    def test_exact_parts_parse(self):
        m = ComplexMatrix([[(1, "1/2"), Fraction(2, 3)], ["-3/4", (0, 5)]])
        assert m.entries == (
            ((Fraction(1), Fraction(1, 2)), (Fraction(2, 3), Fraction(0))),
            ((Fraction(-3, 4), Fraction(0)), (Fraction(0), Fraction(5))),
        )


class TestRealify:
    def test_complex_identity(self):
        assert realify(ComplexMatrix.identity(1)) == MatQ.identity(2)

    def test_multiplication_by_i(self):
        assert realify(ComplexMatrix.scalar(1, (0, 1))) == MatQ([[0, -1], [1, 0]])

    def test_block_formula(self):
        assert realify(ComplexMatrix([[(3, 4)]])) == MatQ([[3, -4], [4, 3]])

    def test_repr(self):
        m = ComplexMatrix([[("1/2", 3), (0, -1)], [(5, 0), (0, "2/3")]])
        assert repr(m) == "ComplexMatrix([[('1/2', '3'), ('0', '-1')], [('5', '0'), ('0', '2/3')]])"

    def test_ring_homomorphism(self):
        rng = random.Random(91)
        for _ in range(40):
            n = rng.randint(1, 3)
            m1 = rand_complex_matrix(rng, n)
            m2 = rand_complex_matrix(rng, n)
            assert realify(m1 @ m2) == realify(m1) @ realify(m2)
            assert realify(m1 + m2) == realify(m1) + realify(m2)

    def test_determinant_is_squared_modulus(self):
        rng = random.Random(92)
        for _ in range(40):
            n = rng.randint(1, 3)
            m = rand_complex_matrix(rng, n)
            re, im = m.det_c()
            assert realify(m).det() == re * re + im * im


def det_c_laplace(rows):
    """Independent complex determinant oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    re, im = Fraction(0), Fraction(0)
    for j in range(n):
        a, b = rows[0][j]
        c, d = det_c_laplace([[r[k] for k in range(n) if k != j] for r in rows[1:]])
        sign = -1 if j % 2 else 1
        re += sign * (a * c - b * d)
        im += sign * (a * d + b * c)
    return (re, im)


class TestComplexDeterminant:
    def test_matches_laplace_expansion(self):
        rng = random.Random(95)
        for _ in range(60):
            m = rand_complex_matrix(rng, rng.randint(1, 5))
            assert m.det_c() == det_c_laplace(m.entries)

    def test_hand_values(self):
        assert ComplexMatrix([[(3, 4)]]).det_c() == (3, 4)
        assert ComplexMatrix.scalar(3, (0, 1)).det_c() == (0, -1)  # i^3
        assert ComplexMatrix([[(1, 1), (0, 2)], [(1, 0), (1, -1)]]).det_c() == (2, -2)

    def test_multiplicative(self):
        # the phase of det_c, which |det_c|^2 = det(realify) cannot see
        rng = random.Random(96)
        for _ in range(30):
            n = rng.randint(1, 4)
            m1, m2 = rand_complex_matrix(rng, n), rand_complex_matrix(rng, n)
            (a, b), (c, d) = m1.det_c(), m2.det_c()
            assert (m1 @ m2).det_c() == (a * c - b * d, a * d + b * c)

    def test_n12_in_polynomial_time(self):
        def on_alarm(signum, frame):
            raise TimeoutError("det_c still running after 10 s at n = 12")

        rng = random.Random(97)
        m = rand_complex_matrix(rng, 12)
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(10)
        try:
            re, im = m.det_c()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert realify(m).det() == re * re + im * im


class TestComplexStructure:
    def test_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            j = standard_complex_structure(n).j
            minus = MatZ([[-1 if a == b else 0 for b in range(2 * n)] for a in range(2 * n)])
            assert j @ j == minus

    def test_rejects_wrong_square(self):
        with pytest.raises(ValueError):
            ComplexStructure(1, MatZ.identity(2))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch, match=r"^complex structure on C\^2 must act on R\^4$"):
            ComplexStructure(2, standard_complex_structure(1).j)

    def test_repr(self):
        assert repr(standard_complex_structure(2)) == "ComplexStructure(n=2)"


_parts = st.just(Fraction(0)) | st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def _real_matrices(draw):
    """(n, t), t a 2n-by-2n MatQ, n <= 3: a realification, one with a single entry changed, or arbitrary."""
    n = draw(st.integers(min_value=1, max_value=3))
    size = 2 * n
    kind = draw(st.sampled_from(["realified", "changed", "arbitrary"]))
    if kind == "arbitrary":
        return n, MatQ(draw(st.lists(st.lists(_parts, min_size=size, max_size=size), min_size=size, max_size=size)))
    entries = draw(st.lists(st.lists(st.tuples(_parts, _parts), min_size=n, max_size=n), min_size=n, max_size=n))
    rows = [list(row) for row in realify(ComplexMatrix(entries)).rows]
    if kind == "changed":
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        rows[i][j] += draw(_parts.filter(bool))
    return n, MatQ(rows)


class TestComplexLinear:
    @given(_real_matrices())
    @example((1, MatQ([[1, 0], [0, -1]])))
    @example((2, MatQ.identity(4)))
    def test_is_commuting_with_i(self, case):
        # the oracle: t J == J t, J the realified multiplication by i
        n, t = case
        j = realify(ComplexMatrix.scalar(n, (0, 1)))
        assert is_complex_linear(t, n) == (t @ j == j @ t)

    def test_realifications_are_complex_linear(self):
        rng = random.Random(93)
        for _ in range(20):
            n = rng.randint(1, 3)
            assert is_complex_linear(realify(rand_complex_matrix(rng, n)), n)

    def test_conjugation_is_not(self):
        # anticommutes with multiplication by i
        assert not is_complex_linear(MatQ([[1, 0], [0, -1]]), 1)

    def test_identity_higher_dim(self):
        assert is_complex_linear(MatQ.identity(4), 2)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            is_complex_linear(MatQ.identity(3), 1)


class TestGaussianLattice:
    def test_one_dim(self):
        assert gaussian_lattice(1) == from_basis(MatQ.identity(2))

    def test_two_dim(self):
        assert gaussian_lattice(2).n == 4

    def test_needs_a_dimension(self):
        with pytest.raises(ValueError, match="^complex dimension must be >= 1$"):
            gaussian_lattice(0)

    def test_unit_covolume(self):
        for n in (1, 2, 3):
            assert covolume(gaussian_lattice(n)) == 1

    def test_one_plus_i_sublattice_index(self):
        sub = from_basis(realify(ComplexMatrix.scalar(1, (1, 1))))
        assert sublattice_index(sub, gaussian_lattice(1)) == 2


class TestUnitary:
    def test_multiplication_by_i(self):
        assert is_unitary(realify(ComplexMatrix.scalar(1, (0, 1))), 1)

    def test_unit_modulus(self):
        t = realify(ComplexMatrix.scalar(1, (Fraction(3, 5), Fraction(4, 5))))
        assert t.transpose() @ t == MatQ.identity(2)
        assert is_unitary(t, 1)

    def test_scaling_is_not(self):
        assert not is_unitary(realify(ComplexMatrix.scalar(1, (2, 0))), 1)

    def test_conjugation_is_orthogonal_but_not_unitary(self):
        conj = MatQ([[1, 0], [0, -1]])
        assert conj.transpose() @ conj == MatQ.identity(2)
        assert not is_unitary(conj, 1)

    def test_unitary_preserves_gram(self):
        rng = random.Random(94)
        t = realify(ComplexMatrix.scalar(1, (Fraction(3, 5), Fraction(4, 5))))
        for _ in range(10):
            basis = MatQ([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
            if basis.det() == 0:
                continue
            lat = from_basis(basis)
            assert gram(from_basis(t @ basis)).matrix == gram(lat).matrix


class TestComplexInducedMaps:
    def test_identity(self):
        f = complex_map_check(ComplexMatrix.identity(1), gaussian_lattice(1), gaussian_lattice(1))
        assert volume_scale(f) == 1

    def test_multiplication_by_i_fixes_gaussian(self):
        # i * Z[i] = Z[i]; the realified matrix is integer unimodular
        f = complex_map_check(ComplexMatrix.scalar(1, (0, 1)), gaussian_lattice(1), gaussian_lattice(1))
        assert volume_scale(f) == 1

    def test_one_plus_i_is_index_two(self):
        with pytest.raises(NotLatticePreserving):
            complex_map_check(ComplexMatrix.scalar(1, (1, 1)), gaussian_lattice(1), gaussian_lattice(1))
