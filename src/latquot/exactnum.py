"""Exact rational and integer matrix arithmetic.

This is the bedrock of the package: arbitrary-precision rationals
(``fractions.Fraction``), dense square rational matrices (``MatQ``) and
integer matrices (``MatZ``), with exact determinants, linear solves and
inverses, Hermite normal forms (one Euclidean step per row, by least
remainders), one fraction-free LDL^T, two columns per pass, that ``ldl``,
the positive-definiteness test and the integral LLL reduction of Gram forms
share, and the positive-definite form type.  A matrix is its integer rows
``ints`` over one denominator ``den`` > 0 in lowest terms, and a ``MatZ`` is
a ``MatQ`` of den 1: it is equal to, and multiplies with, any ``MatQ`` of the
same body, and only a product of two ``MatZ`` is a ``MatZ``.  Every operation
works on that body with no Fraction arithmetic: ``a @ b`` is one integer
product over ``a.den * b.den``, so a Gram form m^T m is ``m.transpose() @ m``, whose body
is the integral Gram matrix that the LLL takes; ``a.mul_vec(v)`` is one
integer product with v lifted to integers over one d, each entry of the
result one Fraction over ``a.den * d`` (a ``MatZ`` times ints answers the
int product itself); and each matrix keeps the
fraction-free LU of its first elimination, two columns per pass by Bareiss's
two-step method (Bareiss 1968), each entry one exact division of a
three-term integer sum: its determinant is that LU's last
pivot, and every solve and inverse after it is one forward substitution, two
rows per step by the same identity, and one back substitution, with no
Gauss-Jordan pass, that carries all the columns of a right-hand side at
once, each row packed into one integer whose slots are wide enough for the
solution by the lesser of Hadamard's bounds on its columns and on its rows.
``MatQ.rows`` builds the entries as Fractions on access, for output.
Nothing rounds but ``to_float``, the one conversion behind the explicitly
metric float outputs elsewhere (and ``float_sqrt``, its square-root form).

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain
from operator import lshift, mul
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
_EXACT = frozenset((int, Fraction))  # the entry types used as they are


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


def _int_lift(rows: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(A, d) for a caller's rows of exact values: the least common denominator d of the
    entries and A = d * rows, as integer rows.  Each entry is read once, as the integer
    ratio of itself (an int or a Fraction) or of its ``_frac``, which refuses a float.
    d is one lcm of the distinct denominators, and an entry already over d is not scaled.

    gcd(d, every entry of A) = 1, so (A, d) is in lowest terms: a prime
    power that d holds in full divides some entry's denominator, and that
    entry's integer is prime to it.
    """
    ratios = [[(x if type(x) in _EXACT else _frac(x)).as_integer_ratio() for x in row] for row in rows]
    d = math.lcm(*{q for row in ratios for _, q in row})
    return tuple([tuple([p if q == d else p * (d // q) for p, q in row]) for row in ratios]), d


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


def _pivot(a: list[list[int]], perm: list[int], k: int) -> int:
    """Brings a nonzero entry of column k to a[k][k] by swapping in the first row below
    that has one: 1 when a[k][k] was nonzero, -1 after a swap, 0 when no row from k on has one."""
    if a[k][k]:
        return 1
    for r in range(k + 1, len(a)):
        if a[r][k]:
            a[k], a[r] = a[r], a[k]
            perm[k], perm[r] = perm[r], perm[k]
            return -1
    return 0


def _bareiss(a: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free (Bareiss) elimination of n integer rows: their fraction-free LU.

    Mutates its argument into that LU and returns (det, perm), det 0 when a
    column has no pivot.  Row i of the result is input row perm[i].  On and
    above the diagonal a holds U, the pivots p_k = a[k][k]; each entry below
    it is the multiplier L_ik its row had when column k was eliminated, which
    the elimination never overwrites.  Each matrix keeps this LU
    (``MatQ._factor``); solves substitute through it, every column of a
    right-hand side in one packed integer per row (``MatQ._substitute``).

    Each pass eliminates two columns, k and k + 1 (Bareiss's two-step method,
    Bareiss 1968, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination").  Column k + 1 below row k, and row k + 1, are
    first brought past column k, which gives the multipliers L_i(k+1) and
    U's row k + 1; the pivot of column k + 1 is found among them.  Then, with
    q = p_(k-1), for a row i > k + 1 with multipliers l = L_ik, m = L_i(k+1)
    and a column c > k + 1 where row i holds x and U's rows k and k + 1 hold
    y and z,
        p_(k+1) p_k x - p_(k+1) l y - q m z = q p_k x',
    x' the entry that one column at a time leaves after column k + 1.  So
    the division is exact, and the LU is the same entry by entry: Bareiss
    entries are minors of the input.  For odd n the last column ends alone.
    """
    n = len(a)
    perm = list(range(n))
    sign = prev = 1
    for k in range(0, n, 2):
        s = _pivot(a, perm, k)
        if not s:
            return 0, perm
        sign *= s
        row_k = a[k]
        pk = row_k[k]
        j = k + 1
        if j == n:
            return sign * pk, perm
        yj = row_k[j]
        for row in a[j:]:
            row[j] = (pk * row[j] - row[k] * yj) // prev
        tail_k = row_k[j + 1:]
        s = _pivot(a, perm, j)
        # row k + 1 past column k; with no pivot in column k + 1, every row below, as one
        # column at a time leaves them
        for row in a[j:j + 1] if s else a[j:]:
            l = row[k]
            row[j + 1:] = [(pk * x - l * y) // prev for x, y in zip(row[j + 1:], tail_k)]
        if not s:
            return 0, perm
        sign *= s
        row_j = a[j]
        pj, z = row_j[j], row_j[j + 1:]
        c, d = pj * pk, prev * pk
        for row in a[j + 1:]:
            cl, cm = pj * row[k], prev * row[j]
            row[j + 1:] = [(c * x - cl * y - cm * w) // d for x, y, w in zip(row[j + 1:], tail_k, z)]
        prev = pj
    return sign * prev, perm


class MatQ:
    """Immutable n-by-n matrix of exact rationals ``ints / den``: its integer rows ``ints``
    (a tuple of tuples) over one denominator ``den`` > 0 in lowest terms,
    gcd(den, every entry) = 1.

    A ``MatZ`` is a ``MatQ`` of den 1.  ``==`` and ``hash`` compare (ints, den),
    so equal bodies are equal matrices whatever their types.  Every matrix the
    library builds comes through ``_of``; ``transpose`` keeps the type of its
    operand, ``@`` answers a ``MatZ`` when both operands are one, and every
    other result is a ``MatQ``.  The fraction-free LU of its integers
    (``_factor``) is computed the first time ``det``, ``solve`` or ``inverse``
    needs it, and kept for every later call.
    """

    __slots__ = ("n", "ints", "den", "_lu", "_h")

    def __init__(self, rows: Sequence[Sequence]):
        self._set(*_int_lift(rows))

    def _set(self, ints: tuple, den: int = 1) -> None:
        n = len(ints)
        if n < 1 or any(len(row) != n for row in ints):
            raise ValueError("matrix must be square with n >= 1")
        self.n = n
        self.ints = ints
        self.den = den
        self._lu: tuple | None = None
        self._h: tuple | None = None

    @classmethod
    def _of(cls, ints: tuple, den: int = 1):
        """The matrix ints / den, for a square tuple of int tuples and den > 0 that the library
        built, reduced to lowest terms by one gcd, with no conversion of its entries."""
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(ints))
            if g != 1:
                ints = tuple(tuple(x // g for x in row) for row in ints)
                den //= g
        m = object.__new__(cls)
        m._set(ints, den)
        return m

    @classmethod
    def identity(cls, n: int):
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self):
        return self._of(tuple(zip(*self.ints)), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, MatQ) and self.den == other.den and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __matmul__(self, other: "MatQ") -> "MatQ":
        """One integer product of the bodies, by rows, over the product of the denominators:
        a ``MatZ`` when both operands are one, else a ``MatQ``."""
        self._check_same_size(other)
        cols = tuple(zip(*other.ints))
        ints = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.ints)
        return (type(self) if type(other) is type(self) else MatQ)._of(ints, self.den * other.den)

    def _check_same_size(self, other) -> None:
        if not isinstance(other, MatQ):
            raise TypeError(f"expected MatQ, got {type(other).__name__}")
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")

    def mul_vec(self, v: Sequence) -> tuple:
        """The product (ints / den) v, as ints for a ``MatZ`` and a vector of ints.  Any other
        v is lifted to integers x over d (``_int_lift``, which refuses a float), and each
        entry is one Fraction over den * d of the one integer product ints * x."""
        if len(v) != self.n:
            raise DimensionMismatch(f"vector length {len(v)} does not match matrix size {self.n}")
        if isinstance(self, MatZ) and {int}.issuperset(map(type, v)):
            return tuple(sum(map(mul, row, v)) for row in self.ints)
        (x,), d = _int_lift([v])
        den = self.den * d
        return tuple([Fraction(sum(map(mul, row, x)), den) for row in self.ints])

    def _factor(self) -> tuple[list[int], list[list[int]], int]:
        """(perm, lu, det): what ``_bareiss`` leaves for the integers ``ints``.
        Computed on first use and kept; nothing mutates it afterwards."""
        if self._lu is None:
            lu = [list(row) for row in self.ints]
            det, perm = _bareiss(lu)
            self._lu = (perm, lu, det)
        return self._lu

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
        """The exact X with A X = rhs, rhs a vector or a MatQ: one forward and one back
        substitution through the kept LU, with no new elimination.  A MatQ's columns ride
        together, each row of rhs packed into one integer (``_substitute``), so the
        Python-level steps are O(n^2) for any number of columns.

        Raises SingularMatrix if det A = 0, DimensionMismatch if rhs does not have n rows.
        """
        n = self.n
        if isinstance(rhs, MatQ):
            if rhs.n != n:
                raise DimensionMismatch(f"matrix sizes differ: {n} vs {rhs.n}")
            ints = rhs.ints
            # each entry of rhs is below 2^b, so each column c has |c| < sqrt(n) 2^b <= 2^(b + (bits(n) + 1) // 2)
            b = max(map(int.bit_length, chain.from_iterable(ints)))
            w = self._width(b + (n.bit_length() + 1) // 2, b)
            shifts = range(0, n * w, w)
            x, q = self._substitute([sum(map(lshift, row, shifts)) for row in ints])
            return MatQ._of(_unpack(x, w, shifts), q * rhs.den)
        if len(rhs) != n:
            raise DimensionMismatch(f"vector length {len(rhs)} does not match dimension {n}")
        (c,), e = _int_lift([rhs])
        x, q = self._substitute(c)
        q *= e
        return tuple([Fraction(v, q) for v in x])

    def inverse(self) -> "MatQ":
        """Exact inverse: ``solve``'s identity case, the identity's row j packed as 2^(w j)."""
        n = self.n
        w = self._width(0, 0)
        shifts = range(0, n * w, w)
        x, q = self._substitute([1 << s for s in shifts])
        return MatQ._of(_unpack(x, w, shifts), q)

    def _width(self, hc: int, b: int) -> int:
        """The slot width w, in bits, that holds every entry of den X = +-q A^-1 C when every
        column c of the right-hand side C has |c| <= 2^hc and every entry |c_r| <= 2^b.

        By Cramer's rule X_i = D (M^-1 c)_i = +-det M_i, M_i the integers M = den A with
        column i replaced by c, and Hadamard's bound holds on the columns and on the rows
        of M_i.  Columns: |X_i| <= |c| prod_(l != i) |M_l| <= 2^(hc + h_col), as every
        column of the nonsingular integer M has |M_l| >= 1, and
        h_col = sum_l ((M_l . M_l).bit_length() + 1) // 2 >= sum_l log2 |M_l|.  Rows: row r
        of M_i is M_r with entry i replaced by c_r, so its squared norm is at most
        |M_r|^2 + 4^b <= (|M_r|^2 + 1) 4^b, and |X_i| <= 2^(n b + h_row) for
        h_row = sum_r ((|M_r|^2 + 1).bit_length() + 1) // 2.  The column bound is the
        lesser for a right-hand side of wide entries; the row bound for a basis with a
        few long rows, such as a Hermite form, whose last row lengthens every column.
        With the lesser, 2^h, |den X_i| < 2^(w - 1), a signed slot, for
        w = h + bits(den) + 2.  The first call computes h_col and h_row, each plus
        bits(den) + 2, and the matrix keeps them.
        """
        if self._h is None:
            e = self.den.bit_length() + 2
            self._h = (e + sum([(sum(map(mul, col, col)).bit_length() + 1) // 2 for col in zip(*self.ints)]),
                       e + sum([((sum(map(mul, row, row)) + 1).bit_length() + 1) // 2 for row in self.ints]))
        col_w, row_w = self._h
        return min(col_w + hc, row_w + self.n * b)

    def _substitute(self, c: Sequence[int]) -> tuple[list[int], int]:
        """(x, q): the integers x = q A^-1 C over q = |D| > 0 for the right-hand side C
        given as its n rows, each one integer: fraction-free forward and back substitution
        (Nakos, Turner & Williams, 1997) through the kept LU of M = den * A.

        A vector's rows are its plain entries.  The rows of an n x m block C are
        packed, row i as sum_j C_ij 2^(w j) (Kronecker substitution), so each step
        below is a few big-integer operations on whole rows, whatever m is.  The
        packing is linear and every division is exact slot by slot, so each packed
        step is an exact integer identity; only the final slots need the width
        bound of ``_width`` to be read back (``_unpack``).

        Forward (``_forward``) is Bareiss run on P C as more columns.  Back,
        x_k = (den |D| y_k - sum_{j>k} U_kj x_j) / p_k gives x = den |D| M^-1 C = +-den X,
        D the last pivot and X = D M^-1 C integers by Cramer's rule.  A^-1 C = den M^-1 C,
        so q = |D|.
        """
        perm, lu, top = self._factor()
        if top == 0:
            raise SingularMatrix("matrix has determinant 0")
        y = _forward(lu, [c[p] for p in perm])
        q = abs(top)
        d = self.den * q
        x = []  # x_{n-1}, x_{n-2}, ..., x_{k+1} while x_k is formed
        for k in range(self.n - 1, -1, -1):
            row = lu[k]
            x.append((d * y[k] - sum(map(mul, row[:k:-1], x))) // row[k])
        return x[::-1], q


def _forward(lu: list[list[int]], y: list[int]) -> list[int]:
    """The forward substitution of ``MatQ._substitute``, in place: the rows y of P C, whole
    integers or packed, brought past every column of a nonsingular fraction-free LU.

    One row per step would be y_i <- (p_k y_i - L_ik y_k) / p_(k-1), Bareiss run on
    y as one more column.  Each step here takes two rows, k and k + 1, by the identity of
    ``_bareiss``: y_(k+1) is first brought past column k, then every row below is updated
    once, y_i <- (p_(k+1) p_k y_i - p_(k+1) L_ik y_k - p_(k-1) L_i(k+1) y_(k+1)) / (p_(k-1) p_k),
    an exact division that leaves the y of one row per step, entry for entry.  For even n
    the last row ends alone.
    """
    n = len(y)
    prev = 1
    for k in range(0, n - 1, 2):
        j = k + 1
        pk, yk = lu[k][k], y[k]
        y[j] = yj = (pk * y[j] - lu[j][k] * yk) // prev
        if j + 1 < n:
            pj = lu[j][j]
            c, e, f, g = pj * pk, pj * yk, prev * yj, prev * pk
            y[j + 1:] = [(c * yi - row[k] * e - row[j] * f) // g for yi, row in zip(y[j + 1:], lu[j + 1:])]
            prev = pj
    return y


def _unpack(rows: list[int], w: int, shifts: range) -> tuple[tuple[int, ...], ...]:
    """The signed w-bit slots at ``shifts`` of each packed row, every slot below 2^(w - 1) in
    absolute value: 2^(w - 1) is added to each slot, so that no slot borrows from the next,
    and each is read back with one shift and one mask."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    offset = half * ((1 << shifts.stop) - 1) // mask  # 2^(w - 1) in every slot
    return tuple([tuple([(v >> s & mask) - half for s in shifts]) for v in map(offset.__add__, rows)])


class MatZ(MatQ):
    """Immutable n-by-n matrix of arbitrary-precision integers: a ``MatQ`` of den 1, whose
    ``rows`` are its ints and whose ``det`` is an int."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence[int]]):
        self._set(tuple(_int_entries(row, "MatZ entries must be integers") for row in rows))

    # also in this class's own namespace, where perfbench's tracer wraps it per class
    __matmul__ = MatQ.__matmul__

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


def hnf(m: MatQ) -> MatZ:
    """Column-style Hermite normal form of a nonsingular integral matrix.

    The result H is reachable from m by unimodular column operations (so both
    generate the same column lattice), is lower triangular with positive
    diagonal, and has every entry left of a diagonal pivot reduced into
    [0, pivot).  These conditions pin H down uniquely, which is what makes it
    usable as a canonical form.  m is any ``MatQ`` with integer entries, a
    ``MatZ`` among them; a matrix with a non-integer entry raises ValueError
    (``MatQ.to_matz``), and a singular one SingularMatrix.

    One Euclidean step per row i: while two or more columns j >= i are
    nonzero in row i, the one whose entry x is least in absolute value is
    subtracted from each other one the nearest-integer number of times,
    (2 a + x) // (2 x), which leaves |a| <= |x| / 2.  The column left is
    swapped into column i with its pivot made positive, and the entries left
    of the pivot are reduced into [0, pivot) with floor quotients.  Rows above
    i are zero in every column j >= i, so the step touches rows i and below
    only.  Least remainders are the usual practical cure for entry growth in
    Hermite elimination (Havas, Majewski & Matthews, Experimental Math. 7,
    1998), but they prove no bound on the entries.
    """
    n = m.n
    a = [list(row) for row in m.to_matz().ints]
    for i in range(n):
        ri, low = a[i], a[i:]
        live = [j for j in range(i, n) if ri[j]]
        if not live:
            # rows 0..i are zero right of column i - 1: m is singular
            raise SingularMatrix("matrix has determinant 0")
        while len(live) > 1:
            p = min(live, key=lambda j: abs(ri[j]))
            x = ri[p]
            qs = [(j, (2 * ri[j] + x) // (2 * x)) for j in live if j != p]  # each nonzero: |ri[j]| >= |x|
            for row in low:
                if y := row[p]:
                    for j, q in qs:
                        row[j] -= q * y
            live = [j for j in live if ri[j]]
        p = live[0]
        if p != i:
            for row in low:
                row[i], row[p] = row[p], row[i]
        if ri[i] < 0:
            for row in low:
                row[i] = -row[i]
        piv = ri[i]
        if fs := [(j, f) for j in range(i) if (f := ri[j] // piv)]:
            for row in low:
                if y := row[i]:
                    for j, f in fs:
                        row[j] -= f * y
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

    Only the lower triangle is kept; by symmetry U_kc is the entry (c, k).
    Each pass eliminates two columns, k and j = k + 1, as ``_bareiss`` does:
    column j is brought past column k, which gives its pivot p_j and the
    multipliers m = L_ij, then every entry x of a row i > j is updated at
    once, x' = (p_j p_k x - p_j l y - q m z) / (q p_k), with q the last
    nonzero pivot before p_k, l = L_ik, and y, z the entries (c, k) and
    (c, j), c the column of x.  A skipped p_k starts the next pair at k + 1.
    When p_j is 0, the rows below are finished past column k alone, as one
    column at a time leaves them, and column j is skipped or breaks down as
    the first of the next pair; for odd n the last column ends alone.  So d
    and lam are those of one column per pass, entry for entry, and the rows
    of lam are lists that ``_lll`` updates in place.
    """
    n = len(b)
    a = [list(row[:i + 1]) for i, row in enumerate(b)]  # lower triangle, eliminated in place
    d = [1]
    prev = 1
    k = 0
    while k < n:
        pk = a[k][k]
        d.append(pk)
        low = a[k + 1:]
        ys = [row[k] for row in low]
        if not pk:
            if any(ys):
                break
            k += 1
            continue
        j = k + 1
        if j == n:
            break
        u = ys[0]
        for row, l in zip(low, ys):
            row[j] = (pk * row[j] - l * u) // prev
        pj = a[j][j]
        low, ys = low[1:], ys[1:]
        if not pj:  # column j alone: skipped or broken down at the top of the loop
            for row, l in zip(low, ys):
                row[j + 1:] = [(pk * x - l * y) // prev for x, y in zip(row[j + 1:], ys)]
            prev, k = pk, j
            continue
        d.append(pj)
        zs = [row[j] for row in low]
        c, e = pj * pk, prev * pk
        for row, l, m in zip(low, ys, zs):
            cl, cm = pj * l, prev * m
            row[j + 1:] = [(c * x - cl * y - cm * z) // e for x, y, z in zip(row[j + 1:], ys, zs)]
        prev = pj
        k += 2
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
    nonzero pivots d[1..n-1], with den // d[j + 1] computed once per column;
    a skipped pivot's column of lam is all zero, and so is its factor.
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
    scales = [den // p if p else 0 for p in d[1:n]]  # one per column of lam
    low = tuple(tuple(map(mul, row, scales)) + (den,) + (0,) * (n - k - 1) for k, row in enumerate(lam))
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
    Gram form, such as ``m.transpose() @ m`` for a basis m.  The data at exit
    is (b', scale, d, lam): the integer form b' = scale * G', the Gram
    determinants d[k] of the leading k reduced vectors (d[0] = 1), and the
    lower triangle lam[k][j] = d[j + 1] * mu_kj, j < k: the integer LDL^T of
    b'.  d and lam start as ``_symmetric_bareiss(b, scale)``, and each size
    reduction and swap updates them in place; no step reads the form itself,
    so b' = V^T b V is formed once, at exit.  V^-1 takes the inverse of each
    step V does, O(n) each, so no elimination inverts V.
    """
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
        cols[k] = [x - q * y for x, y in zip(cols[k], cols[j])]
        inv[j] = [x + q * y for x, y in zip(inv[j], inv[k])]
        lam[k][j] -= q * dj
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    def swap(k: int) -> None:
        cols[k], cols[k - 1] = cols[k - 1], cols[k]
        inv[k], inv[k - 1] = inv[k - 1], inv[k]
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
    bv = [[sum(map(mul, row, col)) for row in b] for col in cols]  # the columns of b V
    gs = (tuple(tuple(sum(map(mul, c, x)) for x in bv) for c in cols), scale, tuple(d), tuple(map(tuple, lam)))
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
