import random
import sys
from fractions import Fraction

import pytest

from latquot.errors import DigitLimitError, ParseError, SchemaError, ZeroDenominator
from latquot.exactnum import MatQ
from latquot.lattice_core import from_basis, standard
from latquot.quotient_torus import TorusPoint
from latquot.serialize import (
    complex_matrix_to_json,
    format_float,
    format_rational,
    lattice_to_json,
    matrix_to_json,
    parse_complex_matrix,
    parse_lattice,
    parse_lattice_vector,
    parse_matrix,
    parse_point,
    parse_rational,
    parse_vector,
    point_to_json,
    vector_to_json,
)

from conftest import rand_fraction

# the interpreter's int<->str digit limit, read as the library reads it: 0 for none
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParseRational:
    def test_normalizes(self):
        assert parse_rational("3/6") == Fraction(1, 2)

    def test_negative_integer(self):
        q = parse_rational("-4")
        assert q == -4 and q.denominator == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_rational("1/0")

    def test_plus_sign(self):
        assert parse_rational("+7/2") == Fraction(7, 2)

    @pytest.mark.parametrize(
        "text,offset",
        [("", 0), ("-", 1), ("a", 0), ("1/", 2), ("1/-2", 2), ("1/2/3", 3), ("1.5", 1), (" 1", 0), ("1 ", 1),
         ("+/2", 1), ("1/2x", 3), ("\u0663", 0), ("1/\u0663", 2)],  # U+0663 is the Arabic-Indic digit three
    )
    def test_parse_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_rational(text)
        assert info.value.offset == offset

    @pytest.mark.parametrize("prefix", ["", "-", "1/"])
    def test_digit_run_over_the_limit(self, prefix):
        run = "9" * (LIMIT + 1 if LIMIT else 5001)
        if LIMIT:
            with pytest.raises(ParseError) as info:
                parse_rational(prefix + run)
            assert info.value.offset == len(prefix)
            assert parse_rational(prefix + run[1:]) == Fraction(prefix + run[1:])  # at the limit
        else:
            assert format_rational(parse_rational(prefix + run)) == prefix + run

    def test_format_over_the_limit(self):
        digits = LIMIT + 1 if LIMIT else 5001
        for q in (Fraction(10 ** (digits - 1), 3), Fraction(3, 10 ** (digits - 1))):
            if LIMIT:
                with pytest.raises(DigitLimitError):
                    format_rational(q)
            else:
                assert parse_rational(format_rational(q)) == q

    def test_round_trip(self):
        rng = random.Random(111)
        for _ in range(200):
            q = rand_fraction(rng, height=30)
            assert parse_rational(format_rational(q)) == q

    def test_format(self):
        assert format_rational(Fraction(-4)) == "-4"
        assert format_rational(Fraction(1, 2)) == "1/2"


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert format_float(0.5) == "0.5"
        assert format_float(39.47841760435743) == "39.4784176044"


class TestMatrix:
    def test_round_trip(self):
        m = MatQ([["1/2", "-3"], ["0", "5/7"]])
        assert parse_matrix(matrix_to_json(m)) == m

    def test_accepts_plain_integers(self):
        assert parse_matrix([[1, 0], [0, 1]]) == MatQ.identity(2)

    def test_rejects_floats(self):
        with pytest.raises(SchemaError):
            parse_matrix([[0.5, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(SchemaError):
            parse_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_bad_string(self):
        with pytest.raises(ParseError):
            parse_matrix([["1//2", "0"], ["0", "1"]])


class TestLattice:
    def test_round_trip(self):
        lat = from_basis(MatQ([["2", "1"], ["0", "1/3"]]))
        doc = lattice_to_json(lat)
        again = parse_lattice(doc)
        assert again.basis == lat.basis

    def test_dimension_consistency(self):
        with pytest.raises(SchemaError):
            parse_lattice({"n": 3, "basis": [["1", "0"], ["0", "1"]]})

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            parse_lattice({"basis": [["1"]]})


class TestPoint:
    def test_round_trip(self):
        p = TorusPoint(standard(2), [Fraction(1, 2), Fraction(3, 4)])
        assert parse_point(point_to_json(p)) == p

    def test_coords_range_checked(self):
        doc = {"lattice": lattice_to_json(standard(1)), "coords": ["3/2"]}
        with pytest.raises(SchemaError):
            parse_point(doc)


class TestVectors:
    def test_round_trip(self):
        v = (Fraction(1, 2), Fraction(-3), Fraction(0))
        assert parse_vector(vector_to_json(v)) == v

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            parse_vector([])


class TestComplexMatrix:
    def test_round_trip(self):
        doc = [[["3/5", "4/5"]]]
        m = parse_complex_matrix(doc)
        assert complex_matrix_to_json(m) == doc

    def test_entry_shape_checked(self):
        with pytest.raises(SchemaError):
            parse_complex_matrix([[["1", "0", "0"]]])

    def test_shape_is_checked_before_any_entry(self):
        # a bad entry in the first row and a short second row: the shape is reported
        with pytest.raises(SchemaError, match="^complex matrix must be square$"):
            parse_complex_matrix([[["1"], ["0", "0"]], [["1", "0"]]])


Z1 = {"n": 1, "basis": [["1"]]}


class TestSchemaErrors:
    """Each malformed document is refused with its own kind and message."""

    @pytest.mark.parametrize("parse, doc, kind, message", [
        (parse_rational, 5, ParseError, "expected a rational string, got int"),
        (parse_vector, [True], SchemaError, "expected a rational string or integer, got a boolean"),
        (parse_matrix, "1", SchemaError, "matrix must be a non-empty array of rows"),
        (parse_lattice, [Z1], SchemaError, "lattice must be an object with 'n' and 'basis'"),
        (parse_lattice, {"n": "1", "basis": [["1"]]}, SchemaError, "lattice 'n' must be an integer"),
        (parse_lattice, {"n": True, "basis": [["1"]]}, SchemaError, "lattice 'n' must be an integer"),
        (parse_point, [Z1, ["0"]], SchemaError, "torus point must be an object with 'lattice' and 'coords'"),
        (parse_lattice_vector, {"lattice": Z1}, SchemaError,
         "lattice vector must be an object with 'lattice' and 'coeffs'"),
        (parse_lattice_vector, {"lattice": Z1, "coeffs": ["1"]}, SchemaError,
         "lattice vector 'coeffs' must be an array of integers"),
        (parse_lattice_vector, {"lattice": Z1, "coeffs": [True]}, SchemaError,
         "lattice vector 'coeffs' must be an array of integers"),
        (parse_point, {"lattice": Z1, "coords": ["0", "1/2"]}, SchemaError,
         "torus point has 2 coordinates but its lattice 'n' is 1"),
        (parse_lattice_vector, {"lattice": Z1, "coeffs": [1, 0]}, SchemaError,
         "lattice vector has 2 coefficients but its lattice 'n' is 1"),
        (parse_complex_matrix, {"0": ["1", "0"]}, SchemaError, "complex matrix must be a non-empty array of rows"),
        (parse_complex_matrix, [[["1", "0"], ["0", "1"]]], SchemaError, "complex matrix must be square"),
    ], ids=["rational-not-a-string", "rational-bool", "matrix-not-a-list", "lattice-not-an-object",
            "lattice-n-string", "lattice-n-bool", "point-not-an-object", "vector-no-coeffs",
            "vector-coeffs-strings", "vector-coeffs-bools", "point-coords-length", "vector-coeffs-length",
            "complex-not-a-list", "complex-not-square"])
    def test_kind_and_message(self, parse, doc, kind, message):
        with pytest.raises(kind) as info:
            parse(doc)
        assert type(info.value) is kind and str(info.value) == message
