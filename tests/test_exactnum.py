import copy
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from latquot.errors import (
    DimensionMismatch,
    FloatRangeError,
    NotPositiveDefinite,
    NotSymmetric,
    PivotBreakdown,
    SingularMatrix,
)
from latquot.exactnum import (
    MatQ,
    MatZ,
    _int_lift,
    _lll,
    det,
    float_sqrt,
    hnf,
    inverse,
    is_positive_definite,
    ldl,
    lll_gram,
    to_float,
)

from conftest import rand_invertible, rand_matq, rand_unimodular, rand_unimodular_pm


def frac(p, q=1):
    return Fraction(p, q)


# independent determinant oracle: Laplace cofactor expansion
def det_cofactor(m: MatQ) -> Fraction:
    n = m.n
    if n == 1:
        return m.rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = MatQ([[m.rows[r][c] for c in range(n) if c != j] for r in range(1, n)])
        term = m.rows[0][j] * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


_small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=5)


def _matrix_strategy(n):
    return st.lists(st.lists(_small_fracs, min_size=n, max_size=n), min_size=n, max_size=n).map(MatQ)


matrices_2_to_4 = st.integers(min_value=2, max_value=4).flatmap(_matrix_strategy)


@st.composite
def _sparse_matrices(draw, max_n=8):
    """Square matrices, n <= max_n, with about half their entries zero and,
    in half the draws, a zero leading entry: elimination must swap rows at
    the first pivot and at later ones."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = st.one_of(st.just(Fraction(0)), _small_fracs)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[0][0] = Fraction(0)
    return MatQ(rows)


@st.composite
def _rank_deficient(draw):
    """An n-by-n integer matrix, 2 <= n <= 8, of rank n - 1: its last column
    is an integer combination of the others, which are independent."""
    n = draw(st.integers(min_value=2, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rows = [list(r) for r in rand_unimodular(rng, n, ops=3 * n).rows]
    k = [rng.randint(-3, 3) for _ in range(n - 1)]
    for row in rows:
        row[n - 1] = sum(c * x for c, x in zip(k, row))
    return MatZ(rows)


class TestDet:
    def test_identity(self):
        assert det(MatQ.identity(3)) == 1

    def test_diagonal(self):
        assert det(MatQ([[2, 0], [0, 3]])) == 6

    def test_triangular(self):
        assert det(MatQ([[1, 1], [0, 1]])) == 1

    def test_rational_entries(self):
        m = MatQ([[frac(1, 2), frac(1, 3)], [frac(1, 4), frac(1, 5)]])
        assert det(m) == frac(1, 10) - frac(1, 12)

    def test_zero_pivot_needs_row_swap(self):
        assert det(MatQ([[0, 1], [1, 0]])) == -1
        m = MatQ([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert det(m) == det_cofactor(m)

    def test_zero_pivot_mid_elimination(self):
        # elimination hits a zero pivot at step 1
        m = MatQ([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert det(m) == det_cofactor(m)

    def test_one_by_one(self):
        assert det(MatQ([[frac(-7, 3)]])) == frac(-7, 3)

    @given(matrices_2_to_4)
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == det_cofactor(m)

    @given(matrices_2_to_4.flatmap(lambda m: st.tuples(st.just(m), _matrix_strategy(m.n))))
    def test_multiplicative(self, pair):
        m1, m2 = pair
        assert det(m1 @ m2) == det(m1) * det(m2)


class TestInverse:
    def test_identity(self):
        assert inverse(MatQ.identity(2)) == MatQ.identity(2)

    def test_unipotent(self):
        assert inverse(MatQ([[1, 1], [0, 1]])) == MatQ([[1, -1], [0, 1]])

    def test_diagonal_reciprocal(self):
        assert inverse(MatQ([[2, 0], [0, frac(1, 2)]])) == MatQ([[frac(1, 2), 0], [0, 2]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(MatQ([[1, 1], [1, 1]]))

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rand_invertible(rng, rng.randint(1, 4))
            assert inverse(inverse(m)) == m

    def test_product_is_identity(self):
        rng = random.Random(12)
        for _ in range(25):
            m = rand_invertible(rng, rng.randint(1, 4))
            assert m @ inverse(m) == MatQ.identity(m.n)

    def test_product_is_identity_at_n7(self):
        rng = random.Random(13)
        m = rand_invertible(rng, 7, height=3)
        assert m @ m.inverse() == MatQ.identity(7)

    def test_unimodular_inverse_is_integral(self):
        rng = random.Random(14)
        for _ in range(30):
            u = rand_unimodular_pm(rng, rng.randint(2, 4)).to_matq()
            assert inverse(u).is_integral()


class TestEliminationKernel:
    """det and inverse share one fraction-free elimination, and the
    elimination itself rejects singular input, in inverse and in hnf."""

    @given(_sparse_matrices())
    @example(MatQ([[0, 1], [1, 0]]))
    @example(MatQ([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))  # zero pivot after the first step
    def test_inverse_matches_sympy(self, m):
        sympy = pytest.importorskip("sympy")
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows])
        # the oracle decides invertibility: the kernel under test must not filter its own draws
        assume(theirs.det() != 0)
        inv = inverse(m)
        assert m @ inv == MatQ.identity(m.n)
        assert inv == MatQ([[Fraction(int(x.p), int(x.q)) for x in row] for row in theirs.inv().tolist()])

    @given(_rank_deficient())
    def test_rank_deficient_raises_from_inverse_and_hnf(self, m):
        with pytest.raises(SingularMatrix, match="^matrix has determinant 0$"):
            inverse(m.to_matq())
        with pytest.raises(SingularMatrix, match="^matrix has determinant 0$"):
            hnf(m)


class TestSolve:
    """A X = R by one elimination with R as its right-hand side, checked by
    its residual: ``inverse`` shares the solve's code, so it is no oracle."""

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
    def test_residual_is_exactly_zero(self, n, seed):
        rng = random.Random(seed)
        a = rand_invertible(rng, n)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        assert a.mul_vec(a.solve(x)) == tuple(x)
        r = rand_matq(rng, n, height=9)
        assert a @ a.solve(r) == r

    @given(_rank_deficient())
    def test_singular_raises(self, m):
        with pytest.raises(SingularMatrix, match="^matrix has determinant 0$"):
            m.to_matq().solve([1] * m.n)

    def test_wrong_size_right_hand_side_raises(self):
        a = MatQ.identity(3)
        for x in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(DimensionMismatch, match=f"^vector length {len(x)} does not match dimension 3$"):
                a.solve(x)
        for r in (MatQ.identity(2), MatQ.identity(4)):
            with pytest.raises(DimensionMismatch):
                a.solve(r)


class TestToFloat:
    def test_normal_values_are_plain_float(self):
        for x in (Fraction(1, 3), Fraction(-10**300), Fraction(2, 10**307), 7, 2.5):
            assert to_float(x) == float(x)

    def test_exact_zero_is_zero(self):
        assert to_float(Fraction(0)) == 0.0

    @pytest.mark.parametrize("x", [
        Fraction(1, 10**400),  # float is 0
        Fraction(1, 10**310),  # float is subnormal
        Fraction(-(10**400)),  # float overflows
        Fraction(2) ** 1024,  # rounds past the largest float
        0.0,  # a float result of nonzero values: an underflow
        sys.float_info.min / 2,
        float("inf"),
        float("nan"),
    ])
    def test_out_of_range_raises(self, x):
        with pytest.raises(FloatRangeError):
            to_float(x)


class TestHnf:
    def test_identity(self):
        assert hnf(MatZ.identity(2)) == MatZ.identity(2)

    def test_shear_reduces_to_identity(self):
        # column reduction by hand: subtract column 1 from column 2
        assert hnf(MatZ([[1, 1], [0, 1]])) == MatZ.identity(2)

    def test_already_hnf(self):
        assert hnf(MatZ([[2, 0], [0, 3]])) == MatZ([[2, 0], [0, 3]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            hnf(MatZ([[1, 2], [2, 4]]))

    def _assert_hnf_shape(self, h: MatZ):
        for i in range(h.n):
            assert h.rows[i][i] > 0
            for j in range(i + 1, h.n):
                assert h.rows[i][j] == 0
            for j in range(i):
                assert 0 <= h.rows[i][j] < h.rows[i][i]

    def test_shape_and_lattice_preserved(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = MatZ([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            h = hnf(m)
            self._assert_hnf_shape(h)
            # same column lattice: the change of basis is integer and unimodular
            u = h.to_matq().inverse() @ m.to_matq()
            assert u.is_integral() and abs(u.det()) == 1
            assert abs(h.det()) == abs(m.det())

    def test_idempotent(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = MatZ([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            h = hnf(m)
            assert hnf(h) == h

    def test_canonical_across_presentations(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 4)
            m = MatZ([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            u = rand_unimodular(rng, n)
            assert hnf(m) == hnf(m @ u)


class TestLdl:
    def test_identity(self):
        low, diag = ldl(MatQ.identity(2))
        assert low == MatQ.identity(2)
        assert diag == (1, 1)

    def test_hand_elimination(self):
        # eliminate: pivot 1, multiplier 1, Schur complement 2 - 1 = 1
        low, diag = ldl(MatQ([[1, 1], [1, 2]]))
        assert low == MatQ([[1, 0], [1, 1]])
        assert diag == (1, 1)

    def test_indefinite_zero_pivot_breaks(self):
        with pytest.raises(PivotBreakdown, match="non-positive pivot"):
            ldl(MatQ([[0, 1], [1, 0]]))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            ldl(MatQ([[1, 2], [0, 1]]))

    def test_zero_pivot_with_zero_residual_is_fine(self):
        cases = [
            ([[1, 0], [0, 0]], [[1, 0], [0, 1]], (1, 0)),
            ([[1, 1, 0], [1, 1, 0], [0, 0, 5]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]], (1, 0, 5)),
            # the pivot after the skipped one is 10 / 2: it divides by the last nonzero pivot
            ([[2, 2, 0], [2, 2, 0], [0, 0, 5]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]], (2, 0, 5)),
            ([[0, 0], [0, 1]], [[1, 0], [0, 1]], (0, 1)),
        ]
        for s, low, diag in cases:
            assert ldl(MatQ(s)) == (MatQ(low), diag)

    def test_breakdown_after_skipped_pivot(self):
        # pivot 0 at index 1 with residual 0 is skipped; the Schur complement
        # [[0, 1], [1, 1]] then has pivot 0 with residual 1
        with pytest.raises(PivotBreakdown, match="non-positive pivot"):
            ldl(MatQ([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))

    def test_negative_pivots_reported(self):
        _, diag = ldl(MatQ([[-2, 0], [0, 3]]))
        assert diag == (-2, 3)
        assert not is_positive_definite(MatQ([[-2, 0], [0, 3]]))

    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 4)
            t = rand_invertible(rng, n, height=4)
            s = t.transpose() @ t
            low, diag = ldl(s)
            d = MatQ([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            assert low @ d @ low.transpose() == s
            assert all(x > 0 for x in diag)

    def test_positive_definiteness_detects_indefinite(self):
        assert not is_positive_definite(MatQ([[1, 2], [2, 1]]))
        assert is_positive_definite(MatQ([[2, 1], [1, 2]]))

    @given(st.data())
    def test_matches_sympy(self, data):
        sympy = pytest.importorskip("sympy")
        n = data.draw(st.integers(min_value=1, max_value=6))
        nonzero = _small_fracs.filter(bool)
        low = MatQ([[data.draw(_small_fracs) if j < i else int(i == j) for j in range(n)] for i in range(n)])
        diag = MatQ([[data.draw(nonzero) if i == j else 0 for j in range(n)] for i in range(n)])
        s = low @ diag @ low.transpose()
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in s.rows])
        tl, td = theirs.LDLdecomposition(hermitian=False)
        ours_low, ours_diag = ldl(s)
        assert ours_low == MatQ([[Fraction(int(x.p), int(x.q)) for x in row] for row in tl.tolist()])
        assert ours_diag == tuple(Fraction(int(td[i, i].p), int(td[i, i].q)) for i in range(n))
        assert (ours_low, ours_diag) == (low, tuple(diag.rows[i][i] for i in range(n)))


def lll_invariants(g: MatQ):
    """Oracle for the integral LLL quantities of a Gram form, by minors alone.

    d[j] is the Gram determinant of the leading j vectors and lam[k, j] the
    minor on rows 0..j-1, k and columns 0..j, which equals d[j + 1] * mu_kj.
    """
    n = g.n

    def minor(rows, cols):
        return MatQ([[g.rows[r][c] for c in cols] for r in rows]).det()

    d = [Fraction(1)] + [minor(range(j), range(j)) for j in range(1, n + 1)]
    lam = {(k, j): minor([*range(j), k], range(j + 1)) for k in range(n) for j in range(k)}
    return d, lam


# rational bases times random unimodular shears, n <= 6
sheared_grams = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
).map(lambda t: _sheared_gram(random.Random(t[3]), *t[:3]))


def _sheared_gram(rng, n, ops, kmax):
    b = rand_invertible(rng, n) @ rand_unimodular(rng, n, ops, kmax).to_matq()
    return b.transpose() @ b


class TestLllGram:
    def test_identity_is_fixed(self):
        assert lll_gram(MatQ.identity(3)) == (MatQ.identity(3), MatZ.identity(3))

    def test_hand_reduction(self):
        # one size-reduction step: b1 <- b1 - b0 turns [[1, 1], [1, 2]] into I
        assert lll_gram(MatQ([[1, 1], [1, 2]])) == (MatQ.identity(2), MatZ([[1, -1], [0, 1]]))

    def test_lovasz_swap(self):
        # |b1|^2 = 1 is far below 3/4 |b0|^2 = 3, so the two vectors swap
        assert lll_gram(MatQ([[4, 0], [0, 1]])) == (MatQ([[1, 0], [0, 4]]), MatZ([[0, 1], [1, 0]]))

    def test_rational_form(self):
        g = MatQ([["1/2", "1/3"], ["1/3", "5"]])
        reduced, v = lll_gram(g)
        assert v.to_matq().transpose() @ g @ v.to_matq() == reduced

    def test_not_positive_definite(self):
        # [[0, 1], [1, 0]] breaks down and [[0, 0], [0, 1]] skips a zero pivot in ldl
        for m in ([[1, 2], [2, 1]], [[1, 0], [0, 0]], [[-1]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]):
            with pytest.raises(NotPositiveDefinite):
                lll_gram(MatQ(m))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            lll_gram(MatQ([[1, 2], [0, 1]]))

    @given(sheared_grams)
    def test_reduced_equivalent_form(self, g):
        reduced, v = lll_gram(g)
        assert v.to_matq().transpose() @ g @ v.to_matq() == reduced
        assert abs(v.det()) == 1

    @given(sheared_grams)
    def test_gram_schmidt_data(self, g):
        v, _, (b, scale, d, lam) = _lll(g)
        reduced = Fraction(1, scale) * MatQ(b)
        assert (reduced, v) == lll_gram(g)
        n = g.n
        # d[k] is the leading k-by-k minor of b
        assert d[0] == 1
        for k in range(1, n + 1):
            assert d[k] == MatQ([row[:k] for row in b[:k]]).det()
        # lam and the ratios of d are the integer form of the multipliers
        # mu_kj and the Gram-Schmidt norms of G', by the minors-only oracle
        dq, lamq = lll_invariants(reduced)
        assert [len(row) for row in lam] == list(range(n))
        assert [[Fraction(lam[k][j], d[j + 1]) for j in range(k)] for k in range(n)] == [
            [lamq[k, j] / dq[j + 1] for j in range(k)] for k in range(n)
        ]
        assert [Fraction(d[k + 1], d[k]) for k in range(n)] == [scale * dq[k + 1] / dq[k] for k in range(n)]

    @given(sheared_grams)
    def test_size_reduced_and_lovasz(self, g):
        reduced, _ = lll_gram(g)
        d, lam = lll_invariants(reduced)
        for (k, j), x in lam.items():
            assert 2 * abs(x) <= d[j + 1]
        for k in range(1, g.n):
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k, k - 1] ** 2


class TestMatrixBasics:
    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            MatQ([[0.5, 0], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MatQ([[1, 2, 3], [4, 5, 6]])

    def test_fractions_are_shared_not_copied(self):
        q = Fraction(2, 3)
        assert MatQ([[q]]).rows[0][0] is q

    def test_string_entries_parse(self):
        assert MatQ([["1/2", "0"], ["0", "2"]]).rows[0][0] == frac(1, 2)

    def test_matz_requires_integers(self):
        with pytest.raises(ValueError):
            MatZ([[frac(1, 2), 0], [0, 1]])

    def test_from_columns(self):
        m = MatQ.from_columns([[1, 0], [2, 3]])
        assert m.col(1) == (2, 3)

    def test_random_products_stay_exact(self):
        rng = random.Random(41)
        m = rand_matq(rng, 3)
        assert (m + (-m)) == MatQ([[0] * 3 for _ in range(3)])
        assert 2 * m == m + m


class TestFloatSqrt:
    @pytest.mark.parametrize("x, root", [
        (Fraction(0), 0.0),
        (Fraction(4), 2.0),
        (Fraction(9, 16), 0.75),
        (Fraction(1, 10**320), 1e-160),  # x itself is subnormal
        (Fraction(10**400), 1e200),  # x itself overflows
        (Fraction(2) ** -1074, 2.0**-537),
    ])
    def test_root_in_range(self, x, root):
        assert float_sqrt(x) == root

    @pytest.mark.parametrize("x", [
        Fraction(1, 10**700),  # root 1e-350 is subnormal
        Fraction(10**700),  # root 1e350 overflows
        Fraction(2) ** 2048,  # root 2^1024 rounds past the largest float
    ])
    def test_root_out_of_range_raises(self, x):
        with pytest.raises(FloatRangeError):
            float_sqrt(x)

    @given(st.integers(min_value=1, max_value=10**40), st.integers(min_value=1, max_value=10**40),
           st.integers(min_value=-1900, max_value=1900))
    def test_within_one_ulp(self, p, q, e):
        x = Fraction(p, q) * Fraction(2) ** e
        try:
            r = float_sqrt(x)
        except FloatRangeError:
            # only a root outside the normal floats [2^-1022, 2^1024) is refused
            # (near the top, one that rounds up to 2^1024)
            assert x < Fraction(2) ** -2044 or x > Fraction(2) ** 2046
            return
        # neighbours of r bracket the exact root
        assert Fraction(math.nextafter(r, 0)) ** 2 < x < Fraction(math.nextafter(r, math.inf)) ** 2


def _sympy_matrix(sympy, m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def _from_sympy(rows):
    return [[Fraction(int(x.p), int(x.q)) for x in row] for row in rows]


class TestKeptLu:
    """det, solve and inverse read one kept fraction-free LU by substitution:
    checked against sympy's LUsolve, inv and det and by the exact residual, on
    matrices whose elimination swaps rows at the first or at a middle pivot,
    or finds no pivot only in the last column."""

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [1, frac(1, 2), 0], [3, 0, 1]],  # swap at the first pivot
        [[0, 0, 1, 1], [0, 2, 0, 1], [1, 1, 1, 0], [frac(1, 3), 1, 0, frac(-2, 5)]],
        [[1, 1, 0, 2], [1, 1, 1, 0], [0, 2, 1, 1], [1, 0, 0, 1]],  # swap at the second pivot
        [[1, 1, 2, 0], [1, 1, 3, 1], [0, 1, 0, 1], [1, 2, 3, 1]],
    ])
    def test_matches_sympy_and_the_residual(self, rows):
        sympy = pytest.importorskip("sympy")
        m = MatQ(rows)
        n = m.n
        theirs = _sympy_matrix(sympy, m.rows)
        assert theirs.det() != 0
        x = [frac(1, 2), frac(-3), frac(5, 7), frac(2, 9)][:n]
        r = MatQ([[frac(i - 2 * j, 1 + i + j) for j in range(n)] for i in range(n)])
        assert m.det() == _from_sympy([[theirs.det()]])[0][0]
        x_theirs = theirs.LUsolve(_sympy_matrix(sympy, [[c] for c in x]))
        assert m.solve(x) == tuple(row[0] for row in _from_sympy(x_theirs.tolist()))
        assert m.solve(r) == MatQ(_from_sympy(theirs.LUsolve(_sympy_matrix(sympy, r.rows)).tolist()))
        assert m.inverse() == MatQ(_from_sympy(theirs.inv().tolist()))
        assert m.mul_vec(m.solve(x)) == tuple(x)
        assert m @ m.solve(r) == r
        assert m @ m.inverse() == MatQ.identity(n)
        assert m.solve([0] * n) == (0,) * n

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 2]],  # a swap at the first pivot, then none at the last
        [[frac(1, 2), 1], [1, 2]],
    ])
    def test_singular_at_the_last_pivot(self, rows):
        sympy = pytest.importorskip("sympy")
        m = MatQ(rows)
        assert _sympy_matrix(sympy, m.rows).det() == 0
        assert m.det() == 0
        for call in (lambda: m.solve([1] * m.n), lambda: m.solve(MatQ.identity(m.n)), m.inverse):
            with pytest.raises(SingularMatrix, match="^matrix has determinant 0$"):
                call()

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32))
    def test_repeated_calls_agree_and_leave_the_lu_as_it_was(self, n, seed):
        rng = random.Random(seed)
        m = rand_invertible(rng, n)
        kept = copy.deepcopy(m._factor())
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        r = rand_matq(rng, n, height=9)
        first = (m.det(), m.solve(x), m.solve(r), m.inverse())
        for _ in range(2):
            m.solve(rand_matq(rng, n, height=9))
            m.solve([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
            assert (m.det(), m.solve(x), m.solve(r), m.inverse()) == first
        assert m._factor() == kept
        fresh = MatQ(m.rows)  # its own elimination
        assert (fresh.det(), fresh.solve(x), fresh.solve(r), fresh.inverse()) == first


class TestLllInverse:
    @given(sheared_grams)
    def test_inverse_transform_is_carried_along(self, g):
        v, v_inv, gs = _lll(g)
        assert v @ v_inv == MatZ.identity(g.n)
        assert lll_gram(g)[1] == v


class TestMatrixBody:
    def test_equal_only_within_one_type(self):
        assert MatQ.identity(2) != MatZ.identity(2)
        assert MatZ.identity(2) != MatQ.identity(2)

    def test_mixed_products_are_refused(self):
        with pytest.raises(TypeError, match="^expected MatZ, got MatQ$"):
            MatZ.identity(2) @ MatQ.identity(2)
        with pytest.raises(TypeError, match="^expected MatQ, got MatZ$"):
            MatQ.identity(2) @ MatZ.identity(2)

    def test_no_instance_dict(self):
        for m in (MatQ.identity(2), MatZ.identity(2)):
            assert not hasattr(m, "__dict__")

    @given(_sparse_matrices())
    @example(MatQ([[0, 1], [1, 0]]))
    def test_integer_det_matches_sympy_and_is_kept(self, m):
        sympy = pytest.importorskip("sympy")
        z = MatZ(_int_lift(m.rows)[0])
        assert z.det() == _sympy_matrix(sympy, z.rows).det()
        lu = z._factor()
        assert z.det() == lu[3] and z._factor() is lu
