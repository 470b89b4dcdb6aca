"""Coset descriptions of spaces of lattices and of quadratic forms.

The map T -> T^T T identifies invertible matrices modulo left multiplication
by orthogonal ones with positive-definite symmetric forms; cutting down to
determinant 1 and integer stabilizers gives the space of unit-covolume
lattices with orientation data, and rotation equivalence of those lattices
is decided by the exact arithmetic isometry search.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CovolumeMismatch, NotSymmetric, SingularMatrix
from .exactnum import MatQ, MatZ, PosDefForm, _ldl, _symmetric, _symmetric_bareiss, float_sqrt, to_float
from .lattice_core import Lattice, covolume


def gram_map(t: MatQ) -> PosDefForm:
    """T -> T^T T; lands in the positive-definite symmetric forms."""
    if t.det() == 0:
        raise SingularMatrix("matrix has determinant 0")
    return PosDefForm(t.transpose() @ t)


def same_left_coset(t1: MatQ, t2: MatQ) -> bool:
    """Whether t2 = R t1 for some orthogonal R.

    Decided as equality of the Gram images t1^T t1 == t2^T t2, which holds
    exactly when t2 * t1^-1 is orthogonal, compared as the two products'
    bodies: integer rows over one denominator in lowest terms.
    """
    if t1.det() == 0 or t2.det() == 0:
        raise SingularMatrix("matrices must be invertible")
    return t1.transpose() @ t1 == t2.transpose() @ t2


def posdef_witness(s: PosDefForm | MatQ) -> list[list[float]]:
    """A matrix T with T^T T equal to the form, up to floating square roots.

    Built as sqrt(D) * L^T from the exact LDL^T factorization that a
    PosDefForm keeps (a plain MatQ is made one first, which decides
    positivity), so the result is upper triangular.  Each entry is a float
    square root (``float_sqrt``) times an exact multiplier, rounded once, so
    it is refused (FloatRangeError) only when it has no normal float.  This is
    the module's single floating-point output.
    """
    form = s if isinstance(s, PosDefForm) else PosDefForm(s)
    low, diag = _ldl(form._factors)
    roots = [Fraction(float_sqrt(d)) for d in diag]
    # row i is sqrt(D_i) times row i of L^T, column i of L
    return [[to_float(r * x) for x in col] for r, col in zip(roots, low.transpose().rows)]


def in_M(s: MatQ) -> bool:
    """Symmetric, positive definite, determinant exactly 1: one integer LDL^T of s's body, scale * s."""
    try:
        _, scale, d, _ = _symmetric_bareiss(*_symmetric(s))
    except NotSymmetric:
        return False
    return all(x > 0 for x in d) and d[-1] == scale**s.n  # d[n] = det(scale * s)


def in_Sigma(u: MatQ) -> bool:
    """Integer entries and determinant exactly 1 (the stabilizer of Z^n in SL)."""
    return u.is_integral() and u.det() == 1


def orientation(a: MatQ) -> int:
    """Sign of the determinant: the orientation datum of a basis."""
    d = a.det()
    if d == 0:
        raise SingularMatrix("matrix has determinant 0")
    return 1 if d > 0 else -1


class UnitCovolumeForm(NamedTuple):
    """Gram form of a lattice together with its unit-covolume normalization.

    ``scale * gram`` is the Gram form of the rescaled lattice whose quotient
    has volume 1.  When the covolume is an n-th power of a rational the
    scale (and hence the normalized form) is also available exactly.
    An immutable tuple of its three fields.
    """

    gram: MatQ
    scale: float
    scale_exact: Fraction | None

    def normalized_float(self) -> list[list[float]]:
        c = self.scale_exact if self.scale_exact is not None else Fraction(self.scale)
        return [[to_float(c * x) for x in row] for row in self.gram.rows]

    def normalized_exact(self) -> MatQ | None:
        if self.scale_exact is None:
            return None
        return self.scale_exact * self.gram


def _nth_root_int(k: int, n: int) -> int | None:
    """The exact integer n-th root of k >= 1, or None if k is not an n-th power."""
    if k == 1:
        return 1
    lo, hi = 1, 1 << (k.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < k:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == k else None


def unit_covolume_form(lattice: Lattice) -> UnitCovolumeForm:
    """Gram form plus the scalar rescaling it to covolume 1.

    The scalar is covolume^(-2/n): rescaling the basis by covolume^(-1/n)
    multiplies the Gram form by that square.  Without an exact root it is
    taken on covolume = m * 2^e, m in (1/2, 2), as m^(-2/n) * 2^(r/n) in
    floats times the exact 2^k, (k, r) = divmod(-2e, n), so the covolume
    itself need not fit a float.
    """
    g = lattice.gram_matrix()
    vol = covolume(lattice)
    n = lattice.n
    p_root = _nth_root_int(vol.numerator, n)
    q_root = _nth_root_int(vol.denominator, n)
    if p_root is not None and q_root is not None:
        exact = Fraction(q_root, p_root) ** 2
        scale = to_float(exact)
    else:
        exact = None
        e = vol.numerator.bit_length() - vol.denominator.bit_length()
        k, r = divmod(-2 * e, n)
        m = float(vol / Fraction(2) ** e)
        scale = to_float(Fraction(m ** (-2 / n) * 2.0 ** (r / n)) * Fraction(2) ** k)
    return UnitCovolumeForm(gram=g, scale=scale, scale_exact=exact)


def double_coset_equivalent(l1: Lattice, l2: Lattice, oriented: bool = False) -> MatZ | None:
    """Rotation equivalence of two equal-covolume lattices, with witness.

    Delegates to the exact isometry search; with ``oriented`` the witness is
    required to respect orientations on both sides.
    """
    # imported here, so that the rest of this module loads without flat_geometry
    from .flat_geometry import isometric_mod_rotation

    # the covolumes, once the dimensions agree: the search refuses differing dimensions first
    if l1.n == l2.n and abs(l1.basis_det) != abs(l2.basis_det):
        raise CovolumeMismatch("lattices have different covolumes")
    return isometric_mod_rotation(l1, l2, oriented=oriented)
