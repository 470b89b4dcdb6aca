"""Integer bases given as a ``MatZ`` and as a ``MatQ`` of the same body.

A ``MatZ`` is a ``MatQ`` of denominator 1, so ``from_basis(MatZ(rows))`` and
``from_basis(MatQ(rows))`` are one lattice.  The oracle is the all-``MatQ``
answer: every query answers the same on either presentation, and every
two-lattice query the same on any mix of the two presentations of each
lattice, values, witnesses and raises alike.
"""

import random
from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from latquot.complex_lattices import ComplexStructure
from latquot.errors import LatquotError, NotEqualLattices
from latquot.exactnum import MatQ, MatZ, PosDefForm, inverse
from latquot.flat_geometry import LatticeVector, isometric_mod_rotation, shortest_vectors
from latquot.lattice_core import (
    change_of_basis_witness,
    contains,
    covolume,
    equals,
    from_basis,
    scale,
    standard,
    sublattice_index,
)
from latquot.moduli_spaces import double_coset_equivalent, in_Sigma, same_left_coset, unit_covolume_form
from latquot.quotient_torus import TorusPoint, make_induced_map, reduce

from conftest import _signed_permutation, rand_unimodular_pm

_ENTRIES = st.integers(min_value=-4, max_value=4)


@st.composite
def integer_bases(draw):
    """(rows, other, a, power, x) for one n <= 4: a nonsingular integer basis rows; a second
    basis other, in a third of the draws rows times a unimodular matrix (the same lattice),
    in a third a signed permutation of that (an isometric lattice) and otherwise drawn on
    its own; a nonsingular integer matrix a; a basis power = k U, U unimodular, whose
    covolume k^n has an exact n-th root; and a point x of R^n in (1/6) Z^n."""
    n = draw(st.integers(min_value=1, max_value=4))
    square = st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    rows, a = draw(square), draw(square)
    assume(MatZ(rows).det() != 0 and MatZ(a).det() != 0)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kind = draw(st.sampled_from(("same", "rotated", "drawn")))
    if kind == "drawn":
        other = draw(square)
        assume(MatZ(other).det() != 0)
    else:
        m = MatZ(rows) @ rand_unimodular_pm(rng, n)
        other = (_signed_permutation(rng, n, False) @ m if kind == "rotated" else m).ints
    k = draw(st.integers(min_value=1, max_value=3))
    power = [[k * x for x in row] for row in rand_unimodular_pm(rng, n).rows]
    x = draw(st.lists(st.integers(min_value=-18, max_value=18).map(lambda p: Fraction(p, 6)), min_size=n, max_size=n))
    return rows, other, a, power, x


def presentations(rows):
    """The lattice on the integer rows, as a MatZ basis and as a MatQ basis."""
    return from_basis(MatZ(rows)), from_basis(MatQ(rows))


def answer(call):
    """What call returns, or the type and message of the library error it raises."""
    try:
        return call()
    except LatquotError as e:
        return type(e), str(e)


def one_answer(f, rows):
    """f's answer on the lattice on rows, the same on both presentations."""
    z, q = (answer(lambda: f(lattice)) for lattice in presentations(rows))
    assert z == q
    return q


def one_pair_answer(f, rows1, rows2):
    """f's answer on the lattices on rows1 and rows2, the same on all four pairs of presentations."""
    answers = [answer(lambda: f(l1, l2)) for l1 in presentations(rows1) for l2 in presentations(rows2)]
    assert all(x == answers[-1] for x in answers), answers
    return answers[-1]


class TestIntegerBasisOracle:
    @given(integer_bases())
    def test_single_lattice_queries(self, bases):
        rows, _, a, _, x = bases
        one_answer(lambda lattice: contains(lattice, x), rows)
        one_answer(lambda lattice: reduce(lattice, x).coords, rows)
        one_answer(hash, rows)
        one_answer(lambda lattice: [v.coeffs for v in shortest_vectors(lattice)], rows)
        for c in (2, Fraction(-3, 4)):
            scaled = one_answer(lambda lattice: scale(lattice, c), rows)
            assert type(scaled.basis_det) is Fraction and scaled.basis == c * MatQ(rows)
        vol = one_answer(covolume, rows)
        assert type(vol) is Fraction and vol == abs(MatQ(rows).det())
        sub = (MatZ(rows) @ MatZ(a)).rows
        index = one_pair_answer(sublattice_index, sub, rows)
        assert type(index) is int and index == abs(MatZ(a).det())

    @given(integer_bases())
    def test_equality_across_presentations(self, bases):
        rows, other, _, _, x = bases
        c = [int(2 * y) for y in x]
        for rows1, rows2 in ((rows, rows), (rows, other), (other, rows)):
            same = one_pair_answer(equals, rows1, rows2)
            assert one_pair_answer(lambda l1, l2: l1 == l2, rows1, rows2) is same
            assert one_pair_answer(lambda l1, l2: l1 != l2, rows1, rows2) is not same
            if same:
                assert one_pair_answer(lambda l1, l2: hash(l1) == hash(l2), rows1, rows2)
            witness = one_pair_answer(change_of_basis_witness, rows1, rows2)
            assert type(witness) is MatZ if same else witness[0] is NotEqualLattices
            one_pair_answer(lambda l1, l2: reduce(l1, x) == reduce(l2, x), rows1, rows2)
            one_pair_answer(lambda l1, l2: LatticeVector(l1, c) == LatticeVector(l2, c), rows1, rows2)
        assert one_pair_answer(equals, rows, rows)

    @given(integer_bases())
    def test_isometry_and_double_coset(self, bases):
        rows, other, *_ = bases
        for rows1, rows2 in ((rows, other), (other, rows)):
            for oriented in (False, True):
                one_pair_answer(lambda l1, l2: isometric_mod_rotation(l1, l2, oriented=oriented), rows1, rows2)
                one_pair_answer(lambda l1, l2: double_coset_equivalent(l1, l2, oriented=oriented), rows1, rows2)

    @given(integer_bases())
    def test_induced_maps_and_unit_covolume_forms(self, bases):
        rows, other, a, power, _ = bases
        image = (MatZ(a) @ MatZ(other)).rows
        witnesses = [one_pair_answer(lambda l1, l2: make_induced_map(m, l1, l2).witness, rows, image)
                     for m in (MatZ(a), MatQ(a))]
        assert witnesses[0] == witnesses[1]
        for basis in (rows, other, power):
            one_answer(lambda lattice: unit_covolume_form(lattice).normalized_exact(), basis)
            one_answer(lambda lattice: unit_covolume_form(lattice).normalized_float(), basis)
        assert one_answer(lambda lattice: unit_covolume_form(lattice).normalized_exact(), power) is not None


T = [[2, 1], [0, 3]]
LZ, LQ = presentations(T)
X = [Fraction(5, 2), 7]


class TestMixedTypeRegressions:
    """Queries that once answered wrongly or raised for a MatZ beside a MatQ of the same body."""

    def test_same_left_coset_of_one_body(self):
        assert same_left_coset(MatZ(T), MatQ(T)) and same_left_coset(MatQ(T), MatZ(T))

    def test_positive_definite_forms_of_one_body_are_equal(self):
        s = [[2, 1], [1, 2]]
        assert PosDefForm(MatZ(s)) == PosDefForm(MatQ(s))

    def test_a_rational_complex_structure(self):
        assert ComplexStructure(1, MatQ([[0, -1], [1, 0]])).j == ComplexStructure.standard(1).j

    def test_contains(self):
        assert contains(LZ, [3, 3]) and not contains(LZ, X)

    def test_reduce(self):
        assert reduce(LZ, X).coords == reduce(LQ, X).coords == (Fraction(1, 12), Fraction(1, 3))

    def test_equals_and_eq(self):
        assert equals(LZ, LQ) and equals(LQ, LZ)
        assert LZ == LQ and LQ == LZ and not LZ != LQ

    def test_one_set_member(self):
        assert len({LZ, LQ}) == 1

    def test_sublattice_index(self):
        assert sublattice_index(LZ, standard(2)) == 6
        assert sublattice_index(from_basis(MatZ([[4, 1], [0, 3]])), LQ) == 2

    def test_scale(self):
        assert scale(LZ, 2) == from_basis(MatQ([[4, 2], [0, 6]]))

    def test_change_of_basis_witness(self):
        assert change_of_basis_witness(LZ, LQ) == MatZ.identity(2)

    def test_torus_points_and_lattice_vectors(self):
        assert reduce(LZ, X) == reduce(LQ, X)
        assert TorusPoint(LQ, (Fraction(1, 2), 0)) == TorusPoint(LZ, (Fraction(1, 2), 0))
        assert LatticeVector(LZ, (1, 0)) == LatticeVector(LQ, (1, 0))

    def test_covolume_is_a_fraction(self):
        vol = covolume(LZ)
        assert type(vol) is Fraction and vol == 6

    def test_in_sigma(self):
        assert in_Sigma(MatZ([[1, 1], [0, 1]])) and not in_Sigma(MatZ([[1, 1], [0, 2]]))

    def test_inverse(self):
        assert inverse(MatZ([[1, 1], [0, 1]])) == MatQ([[1, -1], [0, 1]])

    def test_make_induced_map(self):
        assert make_induced_map(MatZ([[1, 0], [0, 1]]), LQ, LZ).witness == MatZ.identity(2)
        assert make_induced_map(MatZ([[1, 2], [0, 1]]), LZ, LQ).witness == MatZ([[1, 3], [0, 1]])

    def test_unit_covolume_form(self):
        assert unit_covolume_form(from_basis(MatZ([[2, 0], [0, 2]]))).normalized_exact() == MatQ.identity(2)
