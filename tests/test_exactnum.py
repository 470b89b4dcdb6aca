import copy
import itertools
import math
import operator
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from latquot import lattice_core
from latquot.complex_lattices import ComplexMatrix, is_complex_linear, realify
from latquot.errors import (
    DimensionMismatch,
    FloatRangeError,
    NotPositiveDefinite,
    NotSymmetric,
    PivotBreakdown,
    SingularMatrix,
)
from latquot.exactnum import (
    _EXACT,
    MatQ,
    MatZ,
    PosDefForm,
    _bareiss,
    _forward,
    _frac,
    _ldl,
    _lll,
    _symmetric_bareiss,
    _unpack,
    det,
    float_sqrt,
    hnf,
    inverse,
    is_positive_definite,
    ldl,
    lll_gram,
    to_float,
)
from latquot.flat_geometry import LatticeVector, geodesic_spectrum, gram
from latquot.lattice_core import Lattice, contains, equals, from_basis, scale, standard
from latquot.moduli_spaces import gram_map
from latquot.quotient_torus import TorusPoint, make_induced_map, reduce

from conftest import rand_invertible, rand_matq, rand_unimodular, rand_unimodular_pm, time_limit


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


def one_column_bareiss(a: list[list[int]]) -> tuple[int, list[int]]:
    """The oracle: fraction-free elimination one column per pass, which ``_bareiss``
    replaced.  Mutates a into the LU and returns (det, perm), as ``_bareiss`` does."""
    n = len(a)
    perm = list(range(n))
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    perm[k], perm[r] = perm[r], perm[k]
                    sign = -sign
                    break
            else:
                return 0, perm
        row_k = a[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1:]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            row_i[k + 1:] = [(x * pivot - factor * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
        prev = pivot
    return sign * prev, perm


@st.composite
def _sparse_int_rows(draw):
    """Square integer rows, 1 <= n <= 8, about half their entries zero: pivots that
    vanish, and rank deficiency, at either column of a two-column pass."""
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.one_of(st.just(0), st.integers(min_value=-4, max_value=4))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _hermite_times_shears(seed: int, n: int) -> tuple[list[list[int]], int]:
    """(rows, det): an integer lower-triangular matrix in column Hermite form (diagonal from
    1, 2, 3, 5, each entry left of it in [0, 6 d)) times 2n column shears of size at most 2."""
    rng = random.Random(seed)
    diag = [rng.choice((1, 2, 3, 5)) for _ in range(n)]
    low = MatZ([[rng.randrange(6 * diag[i]) if j < i else diag[i] * (j == i) for j in range(n)]
                for i in range(n)])
    return [list(row) for row in (low @ rand_unimodular(rng, n, ops=2 * n, kmax=2)).ints], math.prod(diag)


class TestTwoStepElimination:
    """``_bareiss`` eliminates two columns per pass; its (det, perm, LU) are those of the
    one-column kernel entry by entry, singular inputs included, and so is every
    matrix's kept ``_factor()``."""

    @staticmethod
    def _matches_oracle(rows) -> tuple[int, list[int], list[list[int]]]:
        """Asserts that ``_bareiss`` leaves the oracle's (det, perm) and LU; returns all three."""
        expected_lu = [list(row) for row in rows]
        expected = one_column_bareiss(expected_lu)
        lu = [list(row) for row in rows]
        assert (_bareiss(lu), lu) == (expected, expected_lu)
        return (*expected, expected_lu)

    @given(_sparse_int_rows())
    @example([[1, 1, 2, 0], [1, 1, 3, 1], [0, 1, 0, 1], [1, 2, 3, 1]])  # column 1's pivot needs a swap mid-pass
    @example([[1, 1, 0], [1, 1, 1], [0, 1, 1]])  # the same, n odd
    @example([[1, 0, 1, 5], [0, 1, 1, 2], [2, 3, 5, 1], [1, 1, 2, 0]])  # singular at column 2 (= col 0 + col 1)
    @example([[0, 1], [0, 2]])  # singular at column 0
    @example([[1, 2, 3], [2, 4, 1], [3, 6, 5]])  # singular at column 1 (= 2 col 0)
    @example([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0], [1, 1, 0, 2]])  # singular at column 3
    @example([[-3]])
    @example([[0]])
    @example([[2, 1, 0, 1, 3], [1, 3, 2, 0, 1], [0, 2, 4, 1, 1], [1, 0, 1, 5, 2], [3, 1, 1, 2, 6]])  # the last column, n odd
    @example([[1, 2, 3], [4, 5, 6], [7, 8, 9]])  # singular at the last column, n odd
    def test_matches_the_one_column_kernel(self, rows):
        det_, perm, lu = self._matches_oracle(rows)
        assert MatZ(rows)._factor()[:3] == (perm, lu, det_)

    @pytest.mark.parametrize("seed, n", [(20, 20), (30, 30)])
    def test_hermite_times_shears(self, seed, n):
        rows, det_ = _hermite_times_shears(seed, n)
        assert self._matches_oracle(rows)[0] == det_


def one_column_symmetric_bareiss(b, scale) -> tuple:
    """The oracle: the fraction-free LDL^T one column per pass, which ``_symmetric_bareiss``
    replaced.  (b, scale, d, lam), as ``_symmetric_bareiss`` returns them."""
    n = len(b)
    a = [list(row[:i + 1]) for i, row in enumerate(b)]
    d = [1]
    prev = 1
    for k in range(n):
        pivot = a[k][k]
        d.append(pivot)
        col = [a[i][k] for i in range(k + 1, n)]
        if pivot == 0:
            if any(col):
                break
            continue
        for i in range(k + 1, n):
            row, factor = a[i], col[i - k - 1]
            row[k + 1:] = [(pivot * x - factor * y) // prev for x, y in zip(row[k + 1:], col)]
        prev = pivot
    return b, scale, d, [row[:k] for k, row in enumerate(a)]


@st.composite
def _sparse_symmetric_forms(draw):
    """Symmetric integer forms, 1 <= n <= 8, about half their entries zero: indefinite
    ones drawn entry by entry, and L diag(D) L^T with D in [-3, 3], whose zero D skip a
    pivot or, with a negative D, break the elimination down; with D >= 0, semidefinite."""
    n = draw(st.integers(min_value=1, max_value=8))
    small = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    if draw(st.booleans()):
        upper = [[draw(small) for _ in range(n)] for _ in range(n)]
        return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    low = [[draw(small) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    diag = [draw(st.integers(min_value=0 if draw(st.booleans()) else -3, max_value=3)) for _ in range(n)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


class TestTwoStepSymmetric:
    """``_symmetric_bareiss`` eliminates two columns per pass; its (d, lam) are those of
    the one-column kernel entry by entry, through skipped pivots and breakdowns, and
    ``ldl`` reads back S = L diag(D) L^T from them whenever no pivot breaks down."""

    @given(_sparse_symmetric_forms(), st.sampled_from([1, 6]))
    @example([[0, 0, 0], [0, 2, 1], [0, 1, 3]], 1)  # a skipped pivot at index 0
    @example([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]], 1)  # skipped at index 2
    @example([[1, 1, 0], [1, 1, 0], [0, 0, 5]], 1)  # skipped at index 1, the second of a pair
    @example([[1, 1, 2, 0], [1, 1, 2, 0], [2, 2, 5, 1], [0, 0, 1, 3]], 1)  # the same, rows below finished
    @example([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 1)  # skipped at index 0, breakdown at index 1
    @example([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 1)  # skipped at 1, breakdown at 2
    @example([[1, 1, 1], [1, 1, 0], [1, 0, 1]], 1)  # breakdown at the second pivot of a pair
    @example([[2, 1, 0, 0, 1], [1, 3, 1, 0, 0], [0, 1, 4, 1, 0], [0, 0, 1, 5, 1], [1, 0, 0, 1, 6]], 1)  # n odd
    @example([[0]], 1)
    @example([[-3]], 6)
    def test_matches_the_one_column_kernel(self, b, scale):
        b = tuple(map(tuple, b))
        got = _symmetric_bareiss(b, scale)
        assert got == one_column_symmetric_bareiss(b, scale)
        assert all(type(row) is list for row in got[3])  # ``_lll`` updates them in place
        s = MatQ._of(b, scale)
        if len(got[2]) <= s.n:
            with pytest.raises(PivotBreakdown):
                _ldl(got)
            return
        low, diag = _ldl(got)
        dm = MatQ([[diag[i] if i == j else 0 for j in range(s.n)] for i in range(s.n)])
        assert low @ dm @ low.transpose() == s

    @pytest.mark.parametrize("seed, n", [(6, 6), (14, 14), (20, 20)])
    def test_sheared_gram_forms(self, seed, n):
        g = _sheared_gram(random.Random(seed), n, 3 * n, 3)
        got = _symmetric_bareiss(g.ints, g.den)
        assert got == one_column_symmetric_bareiss(g.ints, g.den) and all(x > 0 for x in got[2])


def one_row_forward(lu: list[list[int]], y: list[int]) -> list[int]:
    """The oracle: the forward substitution one row per step, which ``_forward`` replaced."""
    n = len(y)
    prev = 1
    for k in range(n - 1):
        pivot, yk = lu[k][k], y[k]
        y[k + 1:] = [(pivot * yi - row[k] * yk) // prev for yi, row in zip(y[k + 1:], lu[k + 1:])]
        prev = pivot
    return y


class TestTwoRowForward:
    """``_forward`` takes two rows per step; its y are those of one row per step, entry for
    entry, for a vector and for a packed block, through the LU of a nonsingular matrix."""

    @given(_sparse_int_rows(), st.integers(min_value=0, max_value=2**32))
    @example([[3]], 0)
    @example([[0, 1], [2, 5]], 0)  # one step, after a swap
    @example([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 1)  # one pair
    @example([[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]], 2)  # a pair, then the last row alone
    def test_matches_one_row_per_step(self, rows, seed):
        m = MatZ(rows)
        assume(m.det() != 0)
        perm, lu, _ = m._factor()
        n, rng = m.n, random.Random(seed)
        vec = [rng.choice([0, rng.randint(-10**6, 10**6)]) for _ in range(n)]
        w = m._width(0, 0)
        block = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        packed = [sum(x << s for x, s in zip(row, range(0, n * w, w))) for row in block]
        identity = [1 << s for s in range(0, n * w, w)]
        for c in (vec, packed, identity):
            y = [c[p] for p in perm]
            assert _forward(lu, list(y)) == one_row_forward(lu, list(y))


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


def _assert_hnf_shape(h: MatZ):
    for i in range(h.n):
        assert h.rows[i][i] > 0
        for j in range(i + 1, h.n):
            assert h.rows[i][j] == 0
        for j in range(i):
            assert 0 <= h.rows[i][j] < h.rows[i][i]


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

    @pytest.mark.parametrize("rows", [
        [[frac(1, 3), frac(1, 2)], [0, 1]],  # once answered the form of 6 m
        [[frac(1, 2), 0], [0, 1]],  # once answered the form of 2 m
    ])
    def test_non_integer_entries_raise(self, rows):
        with pytest.raises(ValueError, match="^matrix has non-integer entries$"):
            hnf(MatQ(rows))

    def test_shape_and_lattice_preserved(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = MatZ([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            h = hnf(m)
            _assert_hnf_shape(h)
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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def xgcd_fold_hnf(m: MatZ) -> MatZ:
    """The oracle: the pairwise extended-gcd fold that ``hnf``'s Euclidean row step replaced.
    Each row i folds every entry right of column i into column i by one unimodular 2 x 2 step
    on all n rows, then reduces the entries left of the pivot, as ``hnf`` does."""
    n = m.n
    a = [list(row) for row in m.ints]
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] == 0:
                continue
            p, q = a[i][i], a[i][j]
            g, u, v = _xgcd(p, q)
            ps, qs = p // g, q // g
            for r in range(n):
                ci, cj = a[r][i], a[r][j]
                a[r][i] = u * ci + v * cj
                a[r][j] = ps * cj - qs * ci
        if a[i][i] == 0:
            raise SingularMatrix("matrix has determinant 0")
        if a[i][i] < 0:
            for r in range(n):
                a[r][i] = -a[r][i]
        piv = a[i][i]
        for j in range(i):
            f = a[i][j] // piv
            if f:
                for r in range(n):
                    a[r][j] -= f * a[r][i]
    return MatZ(a)


@st.composite
def _hermite_inputs(draw):
    """Square integer rows: n <= 8 with about 30% of the entries zero and the rest in
    [-6, 6], singular ones included, or n <= 4 with entries up to 10^30 in absolute value."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=8))
        entries = st.tuples(st.integers(0, 9), st.integers(-6, 6)).map(lambda t: t[1] if t[0] > 2 else 0)
    else:
        n = draw(st.integers(min_value=1, max_value=4))
        entries = st.integers(min_value=-10**30, max_value=10**30)
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _hermite_outcome(f, rows):
    """f(MatZ(rows)), or the message of the SingularMatrix it raises."""
    try:
        return f(MatZ(rows))
    except SingularMatrix as e:
        return ("SingularMatrix", str(e))


class TestEuclidHermite:
    """``hnf``'s Euclidean row step answers what the extended-gcd fold answers, raises
    included, and what sympy's ``hermite_normal_form`` answers once its upper-triangular
    convention is turned into this lower-triangular one."""

    @given(_hermite_inputs())
    @example([[3, 2], [1, 1]])  # 3 / 2 is a tie: the nearest quotient 2 leaves -1
    @example([[4, 1], [1, 0]])  # row 0's least entry is in column 1, swapped into column 0
    @example([[-2, 0], [1, 3]])  # a negative pivot
    @example([[-3]])
    @example([[0]])
    @example([[0, 0], [1, 2]])  # singular at row 0
    @example([[1, 2, 3], [2, 4, 6], [1, 1, 1]])  # singular at row 1 (= 2 row 0)
    @example([[1, 0, 0], [0, 1, 0], [1, 1, 0]])  # singular at the last row
    def test_matches_the_fold(self, rows):
        assert _hermite_outcome(hnf, rows) == _hermite_outcome(xgcd_fold_hnf, rows)

    @given(_hermite_inputs())
    def test_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        # J m J, J the reversal, has the column lattice J L(m); sympy's upper-triangular
        # form H of it turns into the lower-triangular form J H J of L(m)
        theirs = sympy.Matrix([row[::-1] for row in rows[::-1]])
        assume(theirs.det() != 0)
        h = hermite_normal_form(theirs).tolist()
        assert hnf(MatZ(rows)).rows == tuple(tuple(int(x) for x in row[::-1]) for row in h[::-1])


def _sheared_identity(n: int, seed: int) -> list[list[int]]:
    """I_n after 50 n row shears row_i += c row_j, with i != j and c in [-3, 3] drawn from
    Random(seed): a unimodular basis of Z^n, its entries of 74-92 bits at n = 24."""
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(50 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


class TestHermiteBlowUps:
    """Bases on which the extended-gcd fold's intermediate entries grew for seconds (up to
    21 s at n = 24): each Hermite form, and each hash that reads it, finishes in time."""

    @pytest.mark.parametrize("seed", [1, 2, 8])
    def test_sheared_unimodular_n24(self, seed):
        rows = _sheared_identity(24, seed)
        with time_limit(5):
            assert hnf(MatZ(rows)) == MatZ.identity(24)
            assert hash(from_basis(MatZ(rows))) == hash(standard(24))

    def test_torus_point_hashes_alike_on_two_sheared_presentations(self):
        l1, l2 = (from_basis(MatZ(_sheared_identity(24, seed))) for seed in (1, 2))
        x = [Fraction(k, 7) for k in range(24)]
        with time_limit(5):
            p1, p2 = reduce(l1, x), reduce(l2, x)
            assert p1 == p2
            assert hash(p1) == hash(p2)

    def test_sheared_unimodular_n40(self):
        rows = _sheared_identity(40, 1)
        with time_limit(5):
            assert hnf(MatZ(rows)) == MatZ.identity(40)

    @pytest.mark.parametrize("n", [40, 60])
    def test_random_one_digit(self, n):
        rng = random.Random(n)
        m = MatZ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        with time_limit(5):
            h = hnf(m)
            _assert_hnf_shape(h)
            assert abs(h.det()) == abs(m.det()) != 0
        with time_limit(1):
            assert equals(Lattice(m), Lattice(h))  # solved through m: h's wide entries take its column bound
            assert equals(Lattice(h), Lattice(m))  # solved through h, whose long last row takes its row bound
        x = [Fraction(k, 7) for k in range(n)]
        with time_limit(5):
            assert hash(reduce(from_basis(m), x)) == hash(reduce(from_basis(h), x))


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
        v, _, (b, scale, d, lam) = _lll(g.ints, g.den)
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


# n <= 6, entries zero or of mixed denominators
gram_bases = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.just(Fraction(0)) | st.fractions(min_value=-50, max_value=50, max_denominator=12),
                 min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(MatQ)


def _body(m):
    return m.ints, m.den


class TestGram:
    """The Gram form m^T m as ``m.transpose() @ m``, against the row-by-column Fraction product."""

    @given(gram_bases)
    def test_integer_form_of_the_rational_product(self, m):
        g = m.transpose() @ m
        oracle = fraction_product(m.transpose(), m)
        assert [[Fraction(x, g.den) for x in row] for row in g.ints] == [list(row) for row in oracle.rows]
        assert g.den > 0 and math.gcd(g.den, *[x for row in g.ints for x in row]) == 1
        # so it is exactly the body of the rational product, which the constructor lifts from its Fractions
        assert _body(g) == _body(oracle)

    @given(gram_bases)
    def test_form_of_the_integers_is_the_form_of_the_product(self, m):
        # a form built on the product's body equals the one built on the Fraction product
        product = fraction_product(m.transpose(), m)
        if m.det() == 0:
            for make in (lambda: PosDefForm(product), lambda: PosDefForm(m.transpose() @ m)):
                with pytest.raises(NotPositiveDefinite, match="^form must be positive definite$"):
                    make()
            return
        oracle = PosDefForm(product)
        for form in (PosDefForm(m.transpose() @ m), gram_map(m), gram(Lattice(m))):
            assert form.matrix.rows == oracle.matrix.rows
            assert form._factors == oracle._factors

    def test_hand_example(self):
        # columns (1/2, 0) and (1/3, 1): m^T m = [[1/4, 1/6], [1/6, 10/9]] = [[9, 6], [6, 40]] / 36
        m = MatQ([["1/2", "1/3"], [0, 1]])
        assert _body(m.transpose() @ m) == (((9, 6), (6, 40)), 36)
        # body 2 * m = [[1, 1], [1, -1]]: [[2, 0], [0, 2]] over 4, both divided by g = 2
        m = MatQ([["1/2", "1/2"], ["1/2", "-1/2"]])
        assert _body(m.transpose() @ m) == (((1, 0), (0, 1)), 2)


def _fraction_product(ra, rb):
    """The product oracle on square lists of Fraction rows: the row-by-column definition in Fraction arithmetic."""
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*rb)) for row in ra)


def fraction_product(a: MatQ, b: MatQ) -> MatQ:
    """The product oracle on two MatQs (``_fraction_product`` on their Fraction rows)."""
    return MatQ(_fraction_product(a.rows, b.rows))


# 72 primes above 50, so no numerator drawn below cancels one
_BIG_PRIMES = [p for p in range(53, 500) if all(p % q for q in range(2, 23))][:72]


@st.composite
def _entry_pairs(draw):
    """Two n-by-n lists of Fraction rows, n <= 6, of one of three kinds: entries zero,
    negative or of mixed denominators; integral; or 2n^2 entries with pairwise distinct
    prime denominators, so each body's common denominator is a product of n^2 primes."""
    n = draw(st.integers(min_value=1, max_value=6))
    size = 2 * n * n
    kind = draw(st.sampled_from(["mixed", "integral", "primes"]))
    if kind == "mixed":
        entries = st.just(Fraction(0)) | st.fractions(min_value=-50, max_value=50, max_denominator=12)
        flat = draw(st.lists(entries, min_size=size, max_size=size))
    elif kind == "integral":
        flat = [Fraction(k) for k in draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))]
    else:
        nums = draw(st.lists(st.integers(-50, 50).filter(bool), min_size=size, max_size=size))
        flat = [Fraction(p, q) for p, q in zip(nums, draw(st.permutations(_BIG_PRIMES)))]
    rows = [flat[i:i + n] for i in range(0, size, n)]
    return rows[:n], rows[n:]


def _product_pairs():
    """The ``_entry_pairs`` as two MatQs."""
    return _entry_pairs().map(lambda rows: (MatQ(rows[0]), MatQ(rows[1])))


class TestProduct:
    """``MatQ @ MatQ``: one integer product of the two bodies over the product of their denominators."""

    @given(_product_pairs())
    @example((MatQ([[0]]), MatQ([["1/2"]])))
    def test_matches_the_fraction_product(self, pair):
        a, b = pair
        p, oracle = a @ b, fraction_product(a, b)
        assert p.rows == oracle.rows
        assert hash(p) == hash(oracle)
        assert all(type(x) is Fraction for row in p.rows for x in row)

    def test_integer_product_stays_integer(self):
        p = MatZ([[2, -1], [0, 3]]) @ MatZ([[1, 4], [5, -2]])
        assert p.rows == ((-3, 10), (15, -6))
        assert all(type(x) is int for row in p.rows for x in row)

    def test_forms_no_fraction_sum_or_product(self, monkeypatch):
        rng = random.Random(19)
        a, b = rand_invertible(rng, 4), rand_invertible(rng, 4)
        z = ComplexMatrix([[("1/2", 3), (0, "-2/7")], [(5, 1), ("1/3", 0)]])
        m, basis = rand_invertible(rng, 3), rand_invertible(rng, 3)
        source = Lattice(basis)
        target = Lattice(m @ basis @ rand_unimodular_pm(rng, 3).to_matq())
        counts = Counter()
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda x, y, real=real, name=name: counts.update([name]) or real(x, y))
        assert Fraction(1, 2) * Fraction(1, 3) + 1 == Fraction(7, 6)
        assert counts == {"__mul__": 1, "__add__": 1}  # the counters count
        counts.clear()
        p, w = a @ b, z @ z
        f = make_induced_map(m, source, target)
        linear = is_complex_linear(realify(z), 2)
        assert not counts
        # and the answers, checked in Fractions
        assert p == fraction_product(a, b)
        assert realify(w) == fraction_product(realify(z), realify(z))
        assert fraction_product(m, basis) == fraction_product(target.basis, f.witness.to_matq())
        assert linear

    def test_refuses_before_lifting(self):
        a = MatQ([["1/2", 3], [0, "-2/5"]])
        # a list of rows has entries too: only the type check refuses it
        with pytest.raises(TypeError, match="^expected MatQ, got list$"):
            a @ [[1, 2], [3, 4]]
        with pytest.raises(DimensionMismatch, match="^matrix sizes differ: 2 vs 3$"):
            a @ MatQ.identity(3)


def fraction_mul_vec(m, v) -> tuple:
    """The oracle for ``mul_vec``: the Fraction-summing product that ``MatQ.mul_vec`` ran
    before the lift.  Each entry that is not an int or a Fraction is converted by ``_frac``,
    each row is summed in Fraction arithmetic, and a MatQ's sums are taken over its den."""
    if len(v) != m.n:
        raise DimensionMismatch(f"vector length {len(v)} does not match matrix size {m.n}")
    if not _EXACT.issuperset(map(type, v)):
        v = [_frac(c) for c in v]
    sums = tuple(sum(map(operator.mul, row, v)) for row in m.ints)
    return sums if isinstance(m, MatZ) else tuple(Fraction(s, m.den) for s in sums)


_BIG = st.integers(min_value=-(2**64), max_value=2**64)
_BIG_FRACTIONS = st.builds(Fraction, _BIG, st.integers(min_value=1, max_value=2**64))
_VECTOR_ENTRIES = {
    "ints": _BIG,
    "fractions": _BIG_FRACTIONS,
    "integral": _BIG.map(Fraction),
    "bools": st.booleans(),
    "strings": _BIG_FRACTIONS.map(str),
    "decimals": st.builds(lambda p, e: Decimal(f"{p}E-{e}"), _BIG, st.integers(min_value=0, max_value=30)),
}
_VECTOR_ENTRIES["mixed"] = st.one_of(*_VECTOR_ENTRIES.values())


@st.composite
def _vector_products(draw):
    """(m, v): a MatZ or a MatQ, n <= 8, with entries up to 2^64 in size (a MatQ's over
    denominators up to 2^64), and a length-n vector of one kind of entry, or of all kinds."""
    n = draw(st.integers(min_value=1, max_value=8))
    entries = _BIG if draw(st.booleans()) else st.one_of(_BIG, _BIG_FRACTIONS)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    m = MatZ(rows) if all(type(x) is int for row in rows for x in row) and draw(st.booleans()) else MatQ(rows)
    kind = draw(st.sampled_from(sorted(_VECTOR_ENTRIES)))
    return m, draw(st.lists(_VECTOR_ENTRIES[kind], min_size=n, max_size=n))


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestVectorProduct:
    """``mul_vec``: a MatZ times ints is the int product itself, and any other product is
    one integer product with the vector's lift, checked entry for entry, value and type,
    against the Fraction sums of ``fraction_mul_vec``."""

    @given(_vector_products())
    @example((MatZ([[2**64, -1], [0, 3]]), [Fraction(1, 2**64), True]))
    @example((MatZ([[1, 2], [3, 4]]), [Fraction(2), Fraction(-4, 2)]))
    @example((MatQ([["1/3", 0], [2, "-5/7"]]), [1, -1]))
    @example((MatQ([[1, 2], [3, 4]]), [5, -6]))  # den 1, yet Fractions
    def test_matches_the_fraction_sums(self, pair):
        m, v = pair
        got, want = m.mul_vec(v), fraction_mul_vec(m, v)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
        ints = isinstance(m, MatZ) and all(type(x) is int for x in v)
        assert all(type(x) is (int if ints else Fraction) for x in got)

    @given(_vector_products(), st.data())
    def test_floats_and_wrong_lengths_raise_as_the_oracle_does(self, pair, data):
        m, v = pair
        at = data.draw(st.integers(min_value=0, max_value=m.n - 1))
        floated = v[:at] + [data.draw(st.floats())] + v[at + 1:]  # exact entries before it
        for w, error in ((floated, TypeError), (v[:-1], DimensionMismatch), (v + v[:1], DimensionMismatch),
                         (floated + [0], DimensionMismatch)):
            raised = _raised(lambda: m.mul_vec(w))
            assert raised[0] is error and raised == _raised(lambda: fraction_mul_vec(m, w))

    def test_forms_no_fraction_sum_or_product(self, monkeypatch):
        z, q = MatZ([[2, -1, 0], [1, 1, 5], [0, 3, -2]]), MatQ([["1/2", 0, 3], [1, "-2/3", 0], [0, 0, "5/4"]])
        v = [Fraction(1, 6), Fraction(-3, 4), Fraction(2, 9)]
        want = [fraction_mul_vec(m, v) for m in (z, q)]
        counts = Counter()
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            real = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name, lambda x, y, real=real, name=name: counts.update([name]) or real(x, y))
        got = [m.mul_vec(v) for m in (z, q)]
        assert not counts
        assert got == want


class TestIntegerBody:
    """The one body: every matrix is integer rows ``ints`` over one ``den`` > 0 in lowest terms,
    and its ``rows`` are the Fraction oracle's, for every operation that builds one, n <= 6."""

    @staticmethod
    def check(m, oracle):
        assert type(m) is MatQ
        assert m.den > 0 and math.gcd(m.den, *[x for row in m.ints for x in row]) == 1
        assert all(type(x) is int for row in m.ints for x in row)
        assert m.rows == tuple(map(tuple, oracle))

    def test_constructor_keeps_one_denominator(self):
        q = Fraction(2, 3)
        m = MatQ([[q, 1], ["-1/6", 0]])
        assert (m.ints, m.den) == (((4, 6), (-1, 0)), 6)
        assert m.rows == ((q, 1), (Fraction(-1, 6), 0))
        assert all(type(x) is Fraction for row in m.rows for x in row)
        assert ((0 * m).ints, (0 * m).den) == (((0, 0), (0, 0)), 1)
        z = MatZ([[2, 0], [Fraction(-4, 2), 1]])
        assert (z.ints, z.den, z.rows) == (((2, 0), (-2, 1)), 1, ((2, 0), (-2, 1)))

    @given(_entry_pairs(), st.fractions(min_value=-20, max_value=20, max_denominator=30))
    @example(([[0]], [[Fraction(1, 2)]]), Fraction(0))
    @example(([[Fraction(1, 2), 3], [0, Fraction(-2, 5)]], [[1, 0], [0, 1]]), Fraction(-5, 3))
    def test_every_result_is_in_lowest_terms_and_matches_fractions(self, rows, c):
        ra, rb = ([[Fraction(x) for x in row] for row in r] for r in rows)
        a, b = MatQ(ra), MatQ(rb)
        n = a.n
        self.check(a, ra)
        self.check(b, rb)
        self.check(a @ b, _fraction_product(ra, rb))
        self.check(a + b, [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        self.check(a - b, [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)])
        self.check(-a, [[-x for x in row] for row in ra])
        self.check(c * a, [[c * x for x in row] for row in ra])
        self.check(a.transpose(), zip(*ra))
        gram_rows = _fraction_product(list(zip(*ra)), ra)
        # a positive semidefinite form: its LDL^T never breaks down
        low, diag = ldl(MatQ(gram_rows))
        self.check(low, low.rows)
        assert all(low.rows[i][i] == 1 and not any(low.rows[i][i + 1:]) for i in range(n))
        scaled = [[x * d for x, d in zip(row, diag)] for row in low.rows]
        assert _fraction_product(scaled, list(zip(*low.rows))) == gram_rows
        if a.det() == 0:
            return
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        x = a.solve(rb[0])
        assert all(type(v) is Fraction for v in x)
        assert _fraction_product(ra, [[v] for v in x]) == tuple((v,) for v in rb[0])
        for m, want in ((a.solve(b), rb), (a.inverse(), identity)):
            self.check(m, m.rows)
            assert _fraction_product(ra, m.rows) == tuple(map(tuple, want))
        reduced, v = lll_gram(MatQ(gram_rows))
        vq = [[Fraction(x) for x in row] for row in v.rows]
        self.check(reduced, _fraction_product(_fraction_product(list(zip(*vq)), gram_rows), vq))
        lattice = Lattice(a)
        self.check(lattice.gram_matrix(), gram_rows)
        d = math.lcm(*[x.denominator for row in ra for x in row])
        h = hnf(MatZ([[x * d for x in row] for row in ra]))
        self.check(lattice.canonical_basis(), [[Fraction(x, d) for x in row] for row in h.rows])

    @given(_product_pairs())
    def test_equality_and_hash_are_rows_equality(self, pair):
        a, b = pair
        n = a.n
        candidates = [a, b, a @ b, fraction_product(a, b), a + b - b, -(-a), a.transpose().transpose(),
                      b @ MatQ.identity(n), MatQ(a.rows), 2 * a - a, a - a, MatQ([[0] * n] * n)]
        for (x, rx), (y, ry) in itertools.product([(m, m.rows) for m in candidates], repeat=2):
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)


class TestMatrixBasics:
    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            MatQ([[0.5, 0], [0, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MatQ([[1, 2, 3], [4, 5, 6]])

    def test_string_entries_parse(self):
        assert MatQ([["1/2", "0"], ["0", "2"]]).rows[0][0] == frac(1, 2)

    def test_matz_requires_integers(self):
        for entry in (frac(1, 2), 0.5, True):
            with pytest.raises(ValueError, match="^MatZ entries must be integers$"):
                MatZ([[entry, 0], [0, 1]])

    def test_to_matz_requires_integral_entries(self):
        assert MatQ([[2, 0], [0, 1]]).to_matz() == MatZ([[2, 0], [0, 1]])
        with pytest.raises(ValueError, match="^matrix has non-integer entries$"):
            MatQ([[frac(1, 2), 0], [0, 1]]).to_matz()

    def test_from_columns(self):
        m = MatQ.from_columns([[1, 0], [2, 3]])
        assert m.col(1) == (2, 3)

    def test_library_built_entries_are_of_the_class_type(self, monkeypatch):
        m = MatQ([["1/2", 3], [0, "-2/5"]])
        built = [m + m, m - m, -m, 2 * m, Fraction(1, 3) * m]
        # zero multipliers (identity), a skipped pivot, a nonzero multiplier
        for s in ([[1, 0], [0, 1]], [[1, 1, 0], [1, 1, 0], [0, 0, 5]], [[4, 2], [2, 5]]):
            built.append(ldl(MatQ(s))[0])
        lifts = []
        real_hnf = lattice_core.hnf
        monkeypatch.setattr(lattice_core, "hnf", lambda z: lifts.append(z) or real_hnf(z))
        built.append(Lattice(m).canonical_basis())
        for r in built:
            assert type(r) is MatQ
            assert all(type(x) is Fraction for row in r.rows for x in row)
        [z] = lifts
        assert type(z) is MatZ and z.rows == ((5, 30), (0, -4))
        assert all(type(x) is int for row in z.rows for x in row)

    def test_random_products_stay_exact(self):
        rng = random.Random(41)
        m = rand_matq(rng, 3)
        assert (m + (-m)) == MatQ([[0] * 3 for _ in range(3)]) == m - m
        assert 2 * m == m + m
        assert 2 * m - m == m
        assert MatQ([[1, 2], [3, 4]]) - MatQ.identity(2) == MatQ([[0, 2], [3, 3]])


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


def fraction_float_sqrt(x):
    """The Fraction formula float_sqrt used before it ran in integers: the oracle."""
    k = (x.denominator.bit_length() - x.numerator.bit_length()) // 2
    return to_float(Fraction(math.sqrt(x * Fraction(4) ** k)) / Fraction(2) ** k)


def float_sqrt_or_refusal(sqrt, x):
    try:
        return sqrt(x)
    except FloatRangeError:
        return FloatRangeError


# squares of the smallest and largest normal floats, and their neighbours
NORMAL_EDGES = [
    f * f * s
    for f in (Fraction(sys.float_info.min), Fraction(sys.float_info.max))
    for s in (Fraction(1), 1 - Fraction(1, 2**60), 1 + Fraction(1, 2**60), Fraction(1, 2), 2)
] + [Fraction(math.nextafter(sys.float_info.max, 0)) ** 2, Fraction(2) ** 2048 - 1, Fraction(2) ** -2044]


class TestFloatSqrtOracle:
    """``float_sqrt`` in integers answers bit for bit what the Fraction formula did."""

    @pytest.mark.parametrize("x", NORMAL_EDGES)
    def test_normal_range_edges(self, x):
        assert float_sqrt_or_refusal(float_sqrt, x) == float_sqrt_or_refusal(fraction_float_sqrt, x)

    @given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=1, max_value=10**60),
           st.integers(min_value=-2100, max_value=2100))
    def test_matches_the_fraction_formula(self, p, q, e):
        x = Fraction(p, q) * Fraction(2) ** e
        assert float_sqrt_or_refusal(float_sqrt, x) == float_sqrt_or_refusal(fraction_float_sqrt, x)

    def test_random_rationals(self):
        rng = random.Random(14)
        for _ in range(2000):
            x = Fraction(rng.getrandbits(rng.randint(1, 200)), rng.getrandbits(rng.randint(1, 200)) or 1)
            assert float_sqrt(x) == fraction_float_sqrt(x)


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


def column_substitute(a: MatQ, cols: list, e: int) -> tuple[list[tuple[int, ...]], int]:
    """The oracle for the packed substitution: the substitution one column at a time
    that ``MatQ._substitute`` ran before it packed the columns.  (xs, q): for each
    integer column c, x = q A^-1 c / e over one q > 0, through the LU that ``a`` keeps."""
    perm, lu, det = a._factor()[:3]
    if det == 0:
        raise SingularMatrix("matrix has determinant 0")
    n = a.n
    top = lu[n - 1][n - 1]
    f = a.den if top > 0 else -a.den
    out = []
    for c in cols:
        y = [c[p] for p in perm]
        # the steps before y's first nonzero entry s only scale y[s:] by p_{s-1}
        s = 0
        while s < n and not y[s]:
            s += 1
        prev = 1
        if s:
            prev = lu[s - 1][s - 1]
            y[s:] = [prev * v for v in y[s:]]
        for k in range(s, n - 1):
            pivot, yk = lu[k][k], y[k]
            y[k + 1:] = [(pivot * yi - row[k] * yk) // prev for yi, row in zip(y[k + 1:], lu[k + 1:])]
            prev = pivot
        x = []
        for k in range(n - 1, -1, -1):
            row = lu[k]
            x.append((top * y[k] - sum(map(operator.mul, row[:k:-1], x))) // row[k])
        out.append(tuple([f * v for v in reversed(x)]))
    return out, abs(top) * e


def column_solve(a: MatQ, rhs: MatQ) -> MatQ:
    cols, q = column_substitute(a, list(zip(*rhs.ints)), rhs.den)
    return MatQ._of(tuple(zip(*cols)), q)


def sylvester(n: int) -> list[list[int]]:
    """The Sylvester-Hadamard matrix of order n, a power of 2: entries +-1, orthogonal
    columns, so |det| = n^(n/2) is Hadamard's bound met with equality."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@st.composite
def _big_systems(draw):
    """(a, rhs, m): an invertible n x n MatQ, n <= 8, and a right-hand side whose first m
    columns hold entries of 1 to 256 bits, some over denominators, and whose others are 0."""
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def entry():
        bits = rng.randint(1, 256)
        return Fraction(rng.randint(-(2**bits) + 1, 2**bits - 1), rng.choice([1, 1, 2, 3, 5]))

    a = MatQ([[entry() for _ in range(n)] for _ in range(n)])
    assume(a.det() != 0)
    rhs = MatQ([[entry() if j < m else 0 for j in range(n)] for _ in range(n)])
    return a, rhs, m


def _hermite_system() -> tuple[MatQ, MatQ, int]:
    """(a, rhs, m) for ``_big_systems``' test: a Hermite-form basis, diagonal 1, ..., 1, D and
    a last row of 64-bit entries, against one-digit columns: its row bound is the lesser."""
    rng = random.Random(6)
    n, big = 6, 2**64 + 13
    a = MatQ([[int(i == j) for j in range(n - 1)] + [0] for i in range(n - 1)]
             + [[rng.randrange(big) for _ in range(n - 1)] + [big]])
    return a, MatQ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]), n


def _wide_system() -> tuple[MatQ, MatQ, int]:
    """(a, rhs, m): one-digit entries against 256-bit columns, over 3: the column bound is the lesser."""
    rng = random.Random(7)
    a = MatQ([[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 1], [1, 0, 1, 5]])
    return a, MatQ([[Fraction(rng.randint(-(2**256), 2**256), 3) for _ in range(4)] for _ in range(4)]), 4


class TestPackedSubstitution:
    """Every column of a right-hand side rides in one packed integer per row through the
    kept LU, read back in slots of the width that Hadamard's bound gives: checked row for
    row against the per-column substitution, and on Sylvester-Hadamard matrices, which
    meet that bound with equality, against sympy and the exact residual."""

    @given(_big_systems())
    @example((MatQ([[1]]), MatQ([[2**256 - 1]]), 1))
    @example((MatQ([[0, 1], [1, 0]]), MatQ([[0, 0], [-(2**255), 0]]), 1))  # a swap and a zero leading entry
    @example(_hermite_system())
    @example(_wide_system())
    def test_matches_the_per_column_substitution(self, system):
        a, rhs, m = system
        kept = copy.deepcopy(a._factor())
        want = column_solve(a, rhs)
        got = a.solve(rhs)
        assert got == want and all(not any(row[m:]) for row in got.ints)
        assert a.inverse() == column_solve(a, MatQ.identity(a.n))
        assert a.solve(rhs.col(0)) == want.col(0)
        assert a._factor() == kept

    @pytest.mark.parametrize("system, row_is_lesser", [(_hermite_system(), True), (_wide_system(), False)])
    def test_the_width_takes_the_lesser_hadamard_bound(self, system, row_is_lesser):
        a, rhs, _ = system
        n = a.n
        assert a.solve(rhs) == column_solve(a, rhs)
        b = max(x.bit_length() for row in rhs.ints for x in row)
        hc = b + (n.bit_length() + 1) // 2
        col_w, row_w = a._h
        assert (row_w + n * b < col_w + hc) is row_is_lesser
        assert a._width(hc, b) == min(col_w + hc, row_w + n * b)
        assert a._width(0, 0) == min(col_w, row_w)  # the unit columns of ``inverse``

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_sylvester_hadamard_matrices(self, n):
        sympy = pytest.importorskip("sympy")
        rows = sylvester(n)
        h = MatQ(rows)
        theirs = _sympy_matrix(sympy, rows)
        assert h.det() ** 2 == n**n == theirs.det() ** 2
        rng = random.Random(n)
        shear = rand_unimodular(rng, n, ops=3 * n).to_matq()
        near = [[rng.choice([-1, 1]) * (2**256 - rng.randint(0, 2**16)) for _ in range(n)] for _ in range(n)]
        big = MatQ(near)
        over = MatQ([[Fraction(x, rng.randint(1, 2**64)) for x in row] for row in near])
        for rhs in (h, -h, h @ shear, shear, big, over, MatQ([[0] * n] * n)):
            x = h.solve(rhs)
            assert h @ x == rhs
            assert x == MatQ(_from_sympy(theirs.LUsolve(_sympy_matrix(sympy, rhs.rows)).tolist()))
            assert x == column_solve(h, rhs)
        sheared = h @ shear  # the same |det|, longer columns
        for rhs in (h, big, over):
            assert sheared @ sheared.solve(rhs) == rhs
            assert sheared.solve(rhs) == column_solve(sheared, rhs)
        assert h.solve(h) == MatQ.identity(n) and h.solve(-h) == -MatQ.identity(n)
        assert h.inverse() == MatQ(_from_sympy(theirs.inv().tolist())) == Fraction(1, n) * h.transpose()
        # one column: the MatQ solve's column is the vector solve
        c = big.col(0)
        one = MatQ([[x] + [0] * (n - 1) for x in c])
        assert h.solve(one).col(0) == h.solve(c)
        assert h.solve([0] * n) == (0,) * n

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_a_singular_hadamard_pair_still_raises(self, n):
        rows = sylvester(n)
        rows[-1] = rows[0]
        m = MatQ(rows)
        for call in (lambda: m.solve([1] * n), lambda: m.solve(MatQ(sylvester(n))), m.inverse):
            with pytest.raises(SingularMatrix, match="^matrix has determinant 0$"):
                call()

    @pytest.mark.parametrize("w", [2, 3, 8, 61, 64])
    def test_slots_read_back_at_the_edge_of_their_width(self, w):
        edge = 2 ** (w - 1) - 1
        rows = [[edge, -edge, 0, -1, 1], [-edge, -edge, -1, edge, 0], [0, 0, 0, 0, 0]]
        shifts = range(0, 5 * w, w)
        packed = [sum(x << s for x, s in zip(row, shifts)) for row in rows]
        assert _unpack(packed, w, shifts) == tuple(map(tuple, rows))


class TestLllInverse:
    @given(sheared_grams)
    def test_inverse_transform_is_carried_along(self, g):
        v, v_inv, gs = _lll(g.ints, g.den)
        assert v @ v_inv == MatZ.identity(g.n)
        assert lll_gram(g)[1] == v


class TestMatrixBody:
    """A MatZ is a MatQ of den 1: equal to, hashed as and multipliable with any MatQ of the
    same body, and only a product of two MatZ is a MatZ."""

    @given(_product_pairs())
    @example((MatQ([[1, 2], [3, 4]]), MatQ([[1, 0], [0, 1]])))
    def test_equal_bodies_are_equal_across_types(self, pair):
        for q in pair:
            z = MatZ(q.ints)
            assert isinstance(z, MatQ)
            assert (z == q) is (q == z) is q.is_integral()
            assert (z != q) is (q != z) is not q.is_integral()
            if q.is_integral():
                assert hash(z) == hash(q)

    @given(_product_pairs())
    def test_mixed_products_are_the_fraction_product(self, pair):
        a, b = pair
        z = MatZ(a.ints)
        for x, y in ((z, b), (b, z)):
            p = x @ y
            assert type(p) is MatQ and p == fraction_product(x, y)
        assert type(z @ MatZ(b.ints)) is MatZ
        assert type(z.transpose()) is MatZ and type(b.transpose()) is MatQ

    def test_other_results_are_matqs(self):
        z = MatZ([[2, 1], [1, 1]])
        for m in (z + z, z - z, -z, 3 * z, z.inverse(), z.solve(z)):
            assert type(m) is MatQ
        assert z.inverse() == MatQ([[1, -1], [-1, 2]]) and z.solve(z) == MatZ.identity(2)
        assert z.det() == 1 and type(z.det()) is int and type(MatQ.det(z)) is Fraction

    @pytest.mark.parametrize("cls", [MatQ, MatZ])
    def test_non_matrix_operands_are_refused(self, cls):
        a = cls.identity(2)
        for other in ([[1, 0], [0, 1]], ComplexMatrix.identity(1)):
            for op in (operator.matmul, operator.add, operator.sub):
                with pytest.raises(TypeError, match=f"^expected MatQ, got {type(other).__name__}$"):
                    op(a, other)

    def test_traced_methods_are_in_each_class_namespace(self):
        """perfbench's tracer wraps ``vars(cls)[name]`` of each class it traces, so each such
        method is defined in the class itself, not only inherited."""
        assert {"det", "inverse", "__matmul__"} <= vars(MatQ).keys()
        assert {"det", "__matmul__"} <= vars(MatZ).keys()

    @pytest.mark.parametrize("cls", [MatQ, MatZ])
    def test_sizes_must_agree(self, cls):
        a = cls.identity(2)
        with pytest.raises(DimensionMismatch, match="^matrix sizes differ: 2 vs 3$"):
            a @ cls.identity(3)
        with pytest.raises(DimensionMismatch, match="^vector length 3 does not match matrix size 2$"):
            a.mul_vec([1, 0, 0])
        if cls is MatQ:
            for op in (MatQ.__add__, MatQ.__sub__):
                with pytest.raises(DimensionMismatch, match="^matrix sizes differ: 2 vs 3$"):
                    op(a, MatQ.identity(3))

    @pytest.mark.parametrize("cls", [MatQ, MatZ])
    def test_library_built_matrices_are_checked_square(self, cls):
        for ints in ((), ((1,), (1,)), ((1, 1),)):
            with pytest.raises(ValueError, match="^matrix must be square with n >= 1$"):
                cls._of(ints)
        assert cls._of(((1,),)) == cls.identity(1)

    def test_no_instance_dict(self):
        for m in (MatQ.identity(2), MatZ.identity(2)):
            assert not hasattr(m, "__dict__")

    @given(_sparse_matrices())
    @example(MatQ([[0, 1], [1, 0]]))
    def test_integer_det_matches_sympy_and_is_kept(self, m):
        sympy = pytest.importorskip("sympy")
        z = MatZ(m.ints)
        assert z.det() == _sympy_matrix(sympy, z.rows).det()
        lu = z._factor()
        assert z.det() == lu[2] and z._factor() is lu


# every exact entry point converts a caller's value with exactnum._frac, so a
# float raises there instead of entering as its binary expansion; the
# integer-only types keep their ValueError
NO_FLOATS = "^floating-point values are not allowed in exact arithmetic$"


class TestFloatRefusal:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: MatQ([[0.5]]), TypeError, NO_FLOATS),
        (lambda: MatQ.identity(2).mul_vec([0.5, 0]), TypeError, NO_FLOATS),
        (lambda: MatZ([[1, 0], [0, 1]]).mul_vec([0.5, 1]), TypeError, NO_FLOATS),
        (lambda: MatZ([[1, 0], [0, 1]]).mul_vec([1, 0.5]), TypeError, NO_FLOATS),
        (lambda: MatQ.identity(2).solve([0.5, 0]), TypeError, NO_FLOATS),
        (lambda: MatQ([[1, frac(1, 2)], ["3/4", 0.5]]), TypeError, NO_FLOATS),
        (lambda: MatQ.identity(2).mul_vec([frac(1, 3), 0.5]), TypeError, NO_FLOATS),
        (lambda: MatQ.identity(2).solve([1, 0.5]), TypeError, NO_FLOATS),
        (lambda: 0.5 * MatQ.identity(2), TypeError, NO_FLOATS),
        (lambda: MatZ([[1.0]]), ValueError, "^MatZ entries must be integers$"),
        (lambda: ComplexMatrix([[0.5]]), TypeError, NO_FLOATS),
        (lambda: TorusPoint(standard(2), [0.5, 0]), TypeError, NO_FLOATS),
        (lambda: reduce(standard(2), [0.1, 0]), TypeError, NO_FLOATS),
        (lambda: contains(standard(2), [1.0, 0]), TypeError, NO_FLOATS),
        (lambda: scale(standard(2), 0.5), TypeError, NO_FLOATS),
        (lambda: geodesic_spectrum(standard(2), 2.0), TypeError, NO_FLOATS),
        (lambda: LatticeVector(standard(2), [1.0, 0]), ValueError, "^lattice vector coefficients must be integers$"),
    ], ids=["MatQ", "MatQ.mul_vec", "MatZ.mul_vec", "MatZ.mul_vec-after-an-exact-entry", "MatQ.solve",
            "MatQ-after-exact-entries",
            "MatQ.mul_vec-after-an-exact-entry", "MatQ.solve-after-an-exact-entry", "c*MatQ", "MatZ",
            "ComplexMatrix", "TorusPoint", "reduce",
            "contains", "scale", "geodesic_spectrum", "LatticeVector"])
    def test_floats_are_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_the_lift_converts_bools_strings_and_decimals_as_fractions(self):
        entries = [True, "-3/4", Decimal("0.25"), frac(5, 6), False, 7, "2", Decimal("-1.5"), frac(-1, 9)]
        rows = [entries[0:3], entries[3:6], entries[6:9]]
        want = [[Fraction(x) for x in row] for row in rows]
        m = MatQ(rows)
        assert m.rows == tuple(map(tuple, want)) and m == MatQ(want)
        assert (m.ints, m.den) == (((36, -27, 9), (30, 0, 252), (72, -54, -4)), 36)
        assert MatQ.identity(3).mul_vec(entries[:3]) == tuple(want[0])
        assert MatQ.identity(3).solve(entries[3:6]) == tuple(want[1])

    def test_exact_values_still_convert(self):
        assert reduce(standard(2), ["3/2", 1]).coords == (frac(1, 2), 0)
        assert contains(standard(2), ["2", frac(4, 2)])
        assert scale(standard(1), "1/2").basis == MatQ([[frac(1, 2)]])
        assert geodesic_spectrum(standard(1), "4") == [(1, 1), (4, 1)]
