"""Exact rational and integer matrix arithmetic.

This is the bedrock of the package: arbitrary-precision rationals
(``fractions.Fraction``), dense square rational matrices (``MatQ``) and
integer matrices (``MatZ``), with exact determinants, linear solves and
inverses, Hermite normal forms, one fraction-free LDL^T that ``ldl``, the
positive-definiteness test and the integral LLL reduction of Gram forms
share, and the positive-definite form type.  ``MatQ`` and ``MatZ`` share one
integer body: a matrix is its integer rows ``ints`` over one denominator
``den`` > 0 in lowest terms (a ``MatZ`` has den 1).  Every operation works on
that body with no Fraction arithmetic: ``a @ b`` is one integer product over
``a.den * b.den``, so a Gram form m^T m is ``m.transpose() @ m``, whose body
is the integral Gram matrix that the LLL takes, and each matrix keeps the
fraction-free LU of its first elimination: its determinant is that LU's last
pivot, and every solve and inverse after it is a forward and back
substitution, with no Gauss-Jordan pass.  ``MatQ.rows`` builds the entries
as Fractions on access, for output.  Nothing rounds but ``to_float``, the one
conversion behind the explicitly metric float outputs elsewhere (and
``float_sqrt``, its square-root form).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import (
    DimensionMismatch,
    FloatRangeError,
    NotPositiveDefinite,
    NotSymmetric,
    PivotBreakdown,
    SingularMatrix,
)

# The scalar of the exact layer.  Fraction already guarantees the invariants
# we need: positive denominator and gcd(|num|, den) = 1 after construction.
Rational = Fraction


def _frac(x) -> Fraction:
    if type(x) is Fraction:
        return x  # immutable, so sharing it is safe
    if isinstance(x, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    return Fraction(x)


def to_float(x: Fraction | float) -> float:
    """float(x), refusing a nonzero value that no normal float represents.

    x is exact, or a float computed from nonzero exact values, where 0.0 can
    only be an underflow.  Raises FloatRangeError when x is not an exact zero
    and its float is zero, subnormal or not finite, so that a float output
    never silently reads 0 or inf.
    """
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not sys.float_info.min <= abs(f) <= sys.float_info.max and (isinstance(x, float) or x != 0):
        raise FloatRangeError("value is outside the range of normal floats")
    return f


def float_sqrt(x: Fraction) -> float:
    """sqrt(x) for an exact x = p / q >= 0, refusing only a nonzero root that no normal float represents.

    x is scaled by 4^k to about 1 as one correctly rounded integer division
    (p * 4^k / q, or p / (q * 4^-k)) and the root by 2^-k, exactly, with
    ``ldexp``, so x itself need not fit a float and no Fraction is formed.
    """
    p, q = x.numerator, x.denominator
    if not p:
        return 0.0
    k = (q.bit_length() - p.bit_length()) // 2
    try:
        root = math.ldexp(math.sqrt((p << 2 * k) / q if k >= 0 else p / (q << -2 * k)), -k)
    except OverflowError:
        root = math.inf
    return to_float(root)


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


def _int_lift(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(A, d): the least common denominator d of the entries and A = d * rows, as integer rows.

    gcd(d, every entry of A) = 1, so (A, d) is in lowest terms: a prime
    power that d holds in full divides some entry's denominator, and that
    entry's integer is prime to it.
    """
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows), d


def _int_entries(values: Sequence, message: str) -> tuple[int, ...]:
    """The values as ints: Fractions of denominator 1 pass, bools and other non-integers raise."""
    values = tuple(values)
    if {int}.issuperset(map(type, values)):
        return values  # the common case, without isinstance(x, Fraction), an abstract-base check, per entry
    out = []
    for x in values:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(message)
            x = x.numerator
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(message)
        out.append(x)
    return tuple(out)


def _bareiss(a: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free (Bareiss) elimination of n integer rows: their fraction-free LU.

    Mutates its argument into that LU and returns (det, perm), det 0 when a
    column has no pivot.  Row i of the result is input row perm[i].  On and
    above the diagonal a holds U, the pivots p_k = a[k][k]; each entry below
    it is the multiplier L_ik its row had when column k was eliminated, which
    the elimination never overwrites.  Every division is exact.  Each matrix
    keeps this LU (``_Mat._factor``); solves substitute through it (``MatQ._substitute``).
    """
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


class _Mat:
    """The one matrix body that ``MatQ`` and ``MatZ`` share: an immutable square matrix
    ``ints / den``, its integer rows ``ints`` (a tuple of tuples) over one denominator
    ``den`` > 0 in lowest terms, gcd(den, every entry) = 1; a ``MatZ`` has den 1.

    Each matrix keeps the fraction-free LU of its first elimination
    (``_factor``).  A subclass converts a caller's entries to the body and
    hands it to this constructor; every matrix the library builds comes
    through ``_of``.  ``==`` and ``hash`` compare (ints, den), within one
    type, and results of ``transpose`` and ``@`` are built by the operand's
    own class, so they stay within one type.
    """

    __slots__ = ("n", "ints", "den", "_lu")

    def __init__(self, ints: tuple, den: int = 1):
        n = len(ints)
        if n < 1 or any(len(row) != n for row in ints):
            raise ValueError("matrix must be square with n >= 1")
        self.n = n
        self.ints = ints
        self.den = den
        self._lu: tuple | None = None

    @classmethod
    def _of(cls, ints: tuple, den: int = 1):
        """The matrix ints / den, for a square tuple of int tuples and den > 0 that the library
        built, reduced to lowest terms by one gcd, with no conversion of its entries."""
        if den != 1:
            g = math.gcd(den, *[x for row in ints for x in row])
            if g != 1:
                ints = tuple(tuple(x // g for x in row) for row in ints)
                den //= g
        m = object.__new__(cls)
        _Mat.__init__(m, ints, den)
        return m

    @classmethod
    def identity(cls, n: int):
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self):
        return self._of(tuple(zip(*self.ints)), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __matmul__(self, other):
        """One integer product of the bodies, by rows, over the product of the denominators."""
        self._check_same_size(other)
        cols = tuple(zip(*other.ints))
        ints = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.ints)
        return self._of(ints, self.den * other.den)

    def _check_same_size(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")

    def mul_vec(self, v: Sequence) -> tuple:
        """ints * v: the product itself for a ``MatZ``."""
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} does not match matrix size {self.n}")
        return tuple(sum(map(mul, row, v)) for row in self.ints)

    def _factor(self) -> tuple[list[int], list[list[int]], int]:
        """(perm, lu, det): what ``_bareiss`` leaves for the integers ``ints``.
        Computed on first use and kept; nothing mutates it afterwards."""
        if self._lu is None:
            lu = [list(row) for row in self.ints]
            det, perm = _bareiss(lu)
            self._lu = (perm, lu, det)
        return self._lu


class MatQ(_Mat):
    """Immutable n-by-n matrix of exact rationals: integer rows over one denominator.

    The fraction-free LU of its integers is computed the first time ``det``,
    ``solve`` or ``inverse`` needs it, and kept for every later call.
    """

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence]):
        super().__init__(*_int_lift([[_frac(x) for x in row] for row in rows]))

    # also in this class's own namespace, where perfbench's tracer wraps it per class
    __matmul__ = _Mat.__matmul__

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, built on each access: for output and cold code."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.ints)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "MatQ":
        return cls(cols).transpose()

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(row[j], self.den) for row in self.ints)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"MatQ([{body}])"

    def _combine(self, other: "MatQ", sign: int) -> "MatQ":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same_size(other)
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        rows = zip(self.ints, other.ints)
        return MatQ._of(tuple(tuple(p * a + q * b for a, b in zip(ra, rb)) for ra, rb in rows), den)

    def __add__(self, other: "MatQ") -> "MatQ":
        return self._combine(other, 1)

    def __sub__(self, other: "MatQ") -> "MatQ":
        return self._combine(other, -1)

    def __neg__(self) -> "MatQ":
        return MatQ._of(tuple(tuple(-x for x in row) for row in self.ints), self.den)

    def __rmul__(self, c) -> "MatQ":
        c = _frac(c)
        p = c.numerator
        return MatQ._of(tuple(tuple(p * x for x in row) for row in self.ints), self.den * c.denominator)

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        """The product with v lifted to integers x over d: each entry one Fraction over den * d."""
        (x,), d = _int_lift([[_frac(c) for c in v]])
        den = self.den * d
        return tuple(Fraction(s, den) for s in super().mul_vec(x))

    def is_integral(self) -> bool:
        return self.den == 1

    def to_matz(self) -> "MatZ":
        if self.den != 1:
            raise ValueError("matrix has non-integer entries")
        return MatZ._of(self.ints)

    def det(self) -> Fraction:
        """Exact determinant: the kept LU's signed last pivot over den^n."""
        return Fraction(self._factor()[2], self.den**self.n)

    def solve(self, rhs: "MatQ | Sequence") -> "MatQ | tuple[Fraction, ...]":
        """The exact X with A X = rhs, rhs a vector or a MatQ: a forward and a back
        substitution through the kept LU per column of rhs, O(n^2) each, no new elimination.

        Raises SingularMatrix if det A = 0, DimensionMismatch if rhs does not have n rows.
        """
        n = self.n
        if isinstance(rhs, MatQ):
            if rhs.n != n:
                raise DimensionMismatch(f"matrix sizes differ: {n} vs {rhs.n}")
            cols, q = self._substitute(list(zip(*rhs.ints)), rhs.den)
            return MatQ._of(tuple(zip(*cols)), q)
        if len(rhs) != n:
            raise DimensionMismatch(f"vector length {len(rhs)} does not match dimension {n}")
        (c,), e = _int_lift([[_frac(x) for x in rhs]])
        (x,), q = self._substitute([c], e)
        return tuple(Fraction(v, q) for v in x)

    def inverse(self) -> "MatQ":
        """Exact inverse: ``solve``'s identity case, the identity fed as integers."""
        n = self.n
        cols, q = self._substitute([[int(i == j) for i in range(n)] for j in range(n)], 1)
        return MatQ._of(tuple(zip(*cols)), q)

    def _substitute(self, cols: list, e: int) -> tuple[list[tuple[int, ...]], int]:
        """(xs, q): for each integer column c, the integers x = q A^-1 c / e, over one q > 0:
        fraction-free forward and back substitution (Nakos, Turner & Williams, 1997)
        through the kept LU of M = den * A.

        Forward, y_i <- (p_k y_i - L_ik y_k) / p_{k-1} on the permuted c is
        Bareiss run on c as one more column.  Back, X_k = (D y_k - sum_{j>k}
        U_kj X_j) / p_k gives X = D M^-1 c, D the last pivot, an integer vector
        by Cramer's rule.  Every division is exact.  A^-1 c / e = den X / (D e),
        so q = |D| e and x = +-den X.
        """
        perm, lu, det = self._factor()
        if det == 0:
            raise SingularMatrix("matrix has determinant 0")
        n = self.n
        top = lu[n - 1][n - 1]
        f = self.den if top > 0 else -self.den
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
            x = []  # X_{n-1}, X_{n-2}, ..., X_{k+1} while X_k is formed
            for k in range(n - 1, -1, -1):
                row = lu[k]
                x.append((top * y[k] - sum(map(mul, row[:k:-1], x))) // row[k])
            out.append(tuple([f * v for v in reversed(x)]))
        return out, abs(top) * e


class MatZ(_Mat):
    """Immutable n-by-n matrix of arbitrary-precision integers, the body over den 1; like
    a ``MatQ``, it keeps the fraction-free LU its first ``det`` computes."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[int]]):
        super().__init__(tuple(_int_entries(row, "MatZ entries must be integers") for row in rows))

    # also in this class's own namespace, where perfbench's tracer wraps it per class
    __matmul__ = _Mat.__matmul__

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The integer entries: the body itself."""
        return self.ints

    def __repr__(self) -> str:
        return f"MatZ({[list(row) for row in self.ints]})"

    def det(self) -> int:
        """Exact determinant: the kept LU's signed last pivot."""
        return self._factor()[2]

    def to_matq(self) -> MatQ:
        return MatQ._of(self.ints)


def det(m: MatQ) -> Fraction:
    return m.det()


def inverse(m: MatQ) -> MatQ:
    return m.inverse()


def hnf(m: MatZ) -> MatZ:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    The result H is reachable from m by unimodular column operations (so both
    generate the same column lattice), is lower triangular with positive
    diagonal, and has every entry left of a diagonal pivot reduced into
    [0, pivot).  These conditions pin H down uniquely, which is what makes it
    usable as a canonical form.
    """
    n = m.n
    a = [list(row) for row in m.ints]
    for i in range(n):
        # gcd-fold everything in row i at columns >= i into column i
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
            # rows 0..i are now zero right of column i - 1: m is singular
            raise SingularMatrix("matrix has determinant 0")
        if a[i][i] < 0:
            for r in range(n):
                a[r][i] = -a[r][i]
        # reduce the entries left of the pivot into [0, pivot)
        piv = a[i][i]
        for j in range(i):
            f = a[i][j] // piv
            if f:
                for r in range(n):
                    a[r][j] -= f * a[r][i]
    return MatZ._of(tuple(map(tuple, a)))


def _symmetric(s: MatQ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(b, scale): the body of a symmetric matrix, b = scale * s, its symmetry checked on b."""
    if tuple(zip(*s.ints)) != s.ints:
        raise NotSymmetric("matrix is not symmetric")
    return s.ints, s.den


def _symmetric_bareiss(b: Sequence[Sequence[int]], scale: int) -> tuple[Sequence, int, list[int], list[list[int]]]:
    """Fraction-free LDL^T of the symmetric integer form b = scale * s: (b, scale, d, lam).

    Bareiss elimination without pivoting of b leaves the leading minors d of
    b (d[0] = 1) and lam[k][j] = d[j + 1] * L_kj, j < k; b itself is not
    changed.  A zero pivot with a zero residual column is skipped: that is
    Bareiss on b without its row and column.  At any other zero pivot the
    elimination breaks down and stops, leaving d shorter than n + 1 and
    ending in that zero.  A matrix comes in through ``_symmetric``, its body.
    """
    n = len(b)
    a = [list(row[:i + 1]) for i, row in enumerate(b)]  # lower triangle, eliminated in place
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


def ldl(s: MatQ) -> tuple[MatQ, tuple[Fraction, ...]]:
    """Exact LDL^T factorization of a symmetric rational matrix.

    Returns (L, D) with S = L * diag(D) * L^T and L unit lower triangular,
    read off ``_symmetric_bareiss``.  A zero pivot is tolerated only when its
    whole residual column vanishes; otherwise no such factorization exists
    without pivoting and PivotBreakdown is raised.
    """
    return _ldl(_symmetric_bareiss(*_symmetric(s)))


def _ldl(factors: tuple) -> tuple[MatQ, tuple[Fraction, ...]]:
    """``ldl`` read off a ``_symmetric_bareiss`` result already at hand.

    L_kj = lam[k][j] / d[j + 1], so L is formed over den, the lcm of the
    nonzero pivots d[1..n-1]; a skipped pivot's column of lam is all zero.
    """
    b, scale, d, lam = factors
    n = len(b)
    if len(d) <= n:
        raise PivotBreakdown(
            f"non-positive pivot 0 at index {len(d) - 2} with nonzero residual; "
            "matrix is not positive definite"
        )
    diag = []
    prev = 1
    for pivot in d[1:]:
        diag.append(Fraction(pivot, prev * scale))
        prev = pivot or prev
    den = math.lcm(*[p for p in d[1:n] if p])
    low = tuple(tuple(x * (den // d[j + 1]) if x else 0 for j, x in enumerate(row))
                + (den,) + (0,) * (n - k - 1) for k, row in enumerate(lam))
    return MatQ._of(low, den), tuple(diag)


def lll_gram(g: MatQ) -> tuple[MatQ, MatZ]:
    """Integral LLL reduction (delta = 3/4) of a positive-definite Gram form.

    Returns (G', V) with G' = V^T G V and V unimodular, where the basis that
    G' describes is size-reduced (|mu_kj| <= 1/2) and satisfies the Lovasz
    condition.  This is de Weger's fraction-free LLL (Cohen, Alg. 2.6.7) run
    on the form scaled to integers: it keeps the Gram determinants d_k of the
    leading k vectors and lambda_kj = d_j * mu_kj, all integers, and every
    division is exact.  G' and V are read off ``_lll``, run on G's body.
    """
    v, _, (b, scale, _, _) = _lll(*_symmetric(g))
    return MatQ._of(b, scale), v


def _lll(b: Sequence[Sequence[int]], scale: int) -> tuple[MatZ, MatZ, tuple]:
    """(V, V^-1, gs): ``lll_gram``'s V, its inverse and the integer Gram-Schmidt data of G' at exit,
    for the Gram form G = b / scale given as the symmetric integers b and scale.

    b is the integral Gram matrix that de Weger's LLL wants: the body of a
    Gram form, such as ``m.transpose() @ m`` for a basis m.  The run works on
    a copy.  The data at exit is (b, scale, d, lam): the integer form
    b = scale * G', the Gram determinants d[k] of the leading k reduced
    vectors (d[0] = 1), and the lower triangle lam[k][j] = d[j + 1] * mu_kj,
    j < k: the integer LDL^T of b.  It starts as
    ``_symmetric_bareiss(b, scale)``, and each size reduction and swap
    updates it in place.  V^-1 takes the inverse of each step V does, O(n)
    each, so no elimination inverts V.
    """
    b = [list(row) for row in b]
    _, _, d, lam = _symmetric_bareiss(b, scale)  # b[i][j] = b_i . b_j
    if not all(x > 0 for x in d):
        raise NotPositiveDefinite("Gram matrix must be positive definite")
    n = len(b)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns of V
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # rows of V^-1

    def red(k: int, j: int) -> None:
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) <= dj:
            return
        q = (2 * lam[k][j] + dj) // (2 * dj)  # nearest integer to lam / d
        b[k][k] += q * q * b[j][j] - 2 * q * b[k][j]
        for r in range(n):
            if r != k:
                b[r][k] -= q * b[r][j]
                b[k][r] = b[r][k]
        cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
        inv[j] = [x + q * y for x, y in zip(inv[j], inv[k])]
        lam[k][j] -= q * dj
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    def swap(k: int) -> None:
        cols[k], cols[k - 1] = cols[k - 1], cols[k]
        inv[k], inv[k - 1] = inv[k - 1], inv[k]
        b[k], b[k - 1] = b[k - 1], b[k]
        for row in b:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        big = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
        d[k] = big

    k = 1
    while k < n:
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                red(k, j)
            k += 1
    gs = (tuple(map(tuple, b)), scale, tuple(d), tuple(map(tuple, lam)))
    return MatZ._of(tuple(zip(*cols))), MatZ._of(tuple(map(tuple, inv))), gs


def is_positive_definite(s: MatQ) -> bool:
    """Exact positive-definiteness test: every leading minor of the body is positive."""
    return all(x > 0 for x in _symmetric_bareiss(*_symmetric(s))[2])


class PosDefForm:
    """A symmetric positive-definite rational matrix (``is_positive_definite`` checks both).

    Gram forms of lattice bases (``flat_geometry.GramForm``) and the images
    T^T T of ``moduli_spaces.gram_map`` are both of this type.  The
    ``_symmetric_bareiss`` run on the matrix's body that checks it is kept
    for ``_ldl``.
    """

    __slots__ = ("n", "matrix", "_factors")

    def __init__(self, matrix: MatQ):
        factors = _symmetric_bareiss(*_symmetric(matrix))
        if not all(x > 0 for x in factors[2]):
            raise NotPositiveDefinite("form must be positive definite")
        self.n = matrix.n
        self.matrix = matrix
        self._factors = factors

    def __eq__(self, other) -> bool:
        return isinstance(other, PosDefForm) and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"PosDefForm({self.matrix!r})"
