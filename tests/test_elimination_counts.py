"""How many eliminations a question costs once its objects exist.

Counted by wrapping the one forward elimination (``exactnum._bareiss``),
the one LDL^T (``exactnum._symmetric_bareiss``) and the lift of Fractions
to integer rows over one denominator (``exactnum._int_lift``).  A matrix keeps the
fraction-free LU its first ``det``, ``solve`` or ``inverse`` computes, a
lattice keeps the inverse of its LLL transform, and a positive-definite form
keeps its LDL^T, so repeated questions run substitutions only.
"""

import random
from fractions import Fraction

import pytest

from latquot import exactnum, moduli_spaces
from latquot.exactnum import MatQ, MatZ
from latquot.flat_geometry import gram, isometric_mod_rotation
from latquot.lattice_core import Lattice, contains, equals, sublattice_index
from latquot.moduli_spaces import gram_map, posdef_witness
from latquot.quotient_torus import reduce, torus_add

from conftest import rand_invertible, rand_orthogonal, rand_unimodular_pm


@pytest.fixture
def calls(monkeypatch):
    counts = {"_bareiss": 0, "_symmetric_bareiss": 0, "_int_lift": 0}

    def wrap(name, *modules):
        real = getattr(exactnum, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    wrap("_bareiss", exactnum)
    wrap("_symmetric_bareiss", exactnum, moduli_spaces)
    wrap("_int_lift", exactnum)
    return counts


def _presentations(seed, n=3):
    """A lattice, the same lattice by another basis, and its sublattice 2L."""
    rng = random.Random(seed)
    b = rand_invertible(rng, n)
    other = b @ rand_unimodular_pm(rng, n).to_matq()
    return Lattice(b), Lattice(other), Lattice(2 * b)


@pytest.mark.parametrize("seed", range(4))
def test_lattice_questions_run_no_elimination_after_construction(calls, seed):
    l1, l2, sub = _presentations(seed)
    x = [Fraction(1, 3), Fraction(-2), Fraction(5, 7)]
    calls["_bareiss"] = 0
    assert contains(l1, l1.basis.mul_vec([1, -2, 3]))
    assert not contains(l1, [Fraction(1, 10**9), 0, 0])
    p = reduce(l1, x)
    assert l1.basis.mul_vec(l1.coordinates(x)) == tuple(x)
    assert sublattice_index(sub, l1) == 8
    assert equals(l1, l2)
    q = torus_add(p, reduce(l2, x))
    assert q == reduce(l1, [2 * c for c in x])
    assert calls["_bareiss"] == 0


def test_two_hashes_of_a_torus_point_eliminate_once(calls):
    l1, l2, _ = _presentations(11)
    p = reduce(l1, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    calls["_bareiss"] = 0
    first = hash(p)
    assert hash(p) == first
    assert calls["_bareiss"] == 1  # the canonical basis's LU, kept with it
    assert hash(reduce(l2, p.ambient())) == first


def test_second_isometry_search_eliminates_nothing(calls):
    rng = random.Random(5)
    b = rand_invertible(rng, 3)
    l1 = Lattice(b)
    l2 = Lattice(rand_orthogonal(rng, 3) @ b @ rand_unimodular_pm(rng, 3).to_matq())
    first = isometric_mod_rotation(l1, l2)
    assert first is not None
    calls["_bareiss"] = 0
    assert isometric_mod_rotation(l1, l2) == first
    assert calls["_bareiss"] == 0


def test_posdef_witness_of_a_form_reuses_its_ldl(calls):
    t = MatQ([[2, 1, 0], [Fraction(1, 3), 1, 1], [0, -1, 4]])
    witness = posdef_witness(gram_map(t))
    assert calls["_symmetric_bareiss"] == 1  # the form's construction
    assert witness == posdef_witness(t.transpose() @ t)


def test_gram_forms_are_factored_on_their_integers_without_a_re_lift(calls):
    t = MatQ([[2, 1, 0], [Fraction(1, 3), 1, 1], [0, -1, 4]])
    assert calls["_int_lift"] == 1  # t's own construction, from its Fractions
    calls["_int_lift"] = 0
    assert gram_map(t) == gram(Lattice(t))
    # one LDL^T each, on the body of the product t^T t, with no Fractions lifted to integers
    assert calls["_symmetric_bareiss"] == 2
    assert calls["_int_lift"] == 0


def test_two_determinants_of_an_integer_matrix_eliminate_once(calls):
    u = MatZ([[0, 2, 1], [1, 1, 0], [3, 0, 1]])
    assert u.det() == u.det() == -5
    assert calls["_bareiss"] == 1  # the LU is kept, as a MatQ keeps its own


def test_second_oriented_isometry_search_reuses_the_transform_determinants(calls):
    rng = random.Random(5)
    b = rand_invertible(rng, 3)
    l1 = Lattice(b)
    # the pair of test_second_isometry_search_eliminates_nothing, one column negated so the orientations agree
    flip = MatQ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    l2 = Lattice(rand_orthogonal(rng, 3) @ b @ rand_unimodular_pm(rng, 3).to_matq() @ flip)
    calls["_bareiss"] = 0
    first = isometric_mod_rotation(l1, l2, oriented=True)
    first_calls = calls["_bareiss"]
    calls["_bareiss"] = 0
    assert isometric_mod_rotation(l1, l2, oriented=True) == first
    # one det W per complete candidate, W = V1 U' V2^-1 formed at the leaf; det V1 and det V2 are never taken
    assert calls["_bareiss"] == first_calls == 2
    assert first is not None and first.det() == 1
