"""JSON interchange: rationals as "p/q" strings, bit-exact round-trips.

Inputs never contain floating-point numbers.  Rational values are strings
("p" or "p/q" with positive q), integer values are plain JSON integers, and
floats appear only in output fields whose keys end in "_float", rendered to
12 significant digits.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .errors import DigitLimitError, ParseError, SchemaError, ZeroDenominator
from .exactnum import MatQ, MatZ
from .lattice_core import Lattice

# The point, vector and complex-matrix types are imported by the functions
# that build them, so parsing a lattice or a matrix loads no other module.
if TYPE_CHECKING:
    from .complex_lattices import ComplexMatrix
    from .flat_geometry import LatticeVector
    from .quotient_torus import TorusPoint

# a sign, the numerator's digits, then "/" and the denominator's; [0-9], as
# \d would also take other scripts' digits
_RATIONAL = re.compile(r"[+-]?([0-9]*)(?:/([0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q" (q a positive integer) into a normalized Fraction.

    A digit run longer than the interpreter's int-to-str limit
    (``sys.get_int_max_str_digits()``, 0 for none) is a ParseError at its
    offset, raised before ``int()`` would refuse it.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}")
    m = _RATIONAL.match(text)
    if not m[1]:
        raise ParseError("expected a digit", offset=m.start(1))
    if m[2] == "":
        raise ParseError("expected a digit after '/'", offset=m.end())
    if m.end() != len(text):
        raise ParseError(f"unexpected character {text[m.end()]!r}", offset=m.end())
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before Python 3.10.7
    for g in (1, 2):
        if limit and len(m[g] or "") > limit:
            raise ParseError(f"more than {limit} digits, the int_max_str_digits limit", offset=m.start(g))
    numerator = int(text[:m.end(1)])
    if m[2] is None:
        return Fraction(numerator)
    denominator = int(m[2])
    if denominator == 0:
        raise ZeroDenominator("denominator must be a positive integer")
    return Fraction(numerator, denominator)


def format_rational(q: Fraction) -> str:
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # a numerator or denominator over the int-to-str digit limit
        raise DigitLimitError(str(exc)) from exc


def format_float(x: float) -> str:
    """Floating output rendering: 12 significant digits."""
    return f"{x:.12g}"


def _rational_from_json(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a rational string or integer, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise SchemaError(f"expected a rational string or integer, got {type(value).__name__}")


def parse_vector(doc: Any) -> tuple[Fraction, ...]:
    if not isinstance(doc, list) or not doc:
        raise SchemaError("vector must be a non-empty array of rationals")
    return tuple(_rational_from_json(x) for x in doc)


def vector_to_json(v: Sequence[Fraction]) -> list[str]:
    return [format_rational(x) for x in v]


def _rows(doc: Any, what: str, cell) -> list[list]:
    """A square matrix given as a non-empty array of rows, each entry read by ``cell``."""
    if not isinstance(doc, list) or not doc or not all(isinstance(row, list) for row in doc):
        raise SchemaError(f"{what} must be a non-empty array of rows")
    if any(len(row) != len(doc) for row in doc):
        raise SchemaError(f"{what} must be square")
    return [[cell(x) for x in row] for row in doc]


def parse_matrix(doc: Any) -> MatQ:
    return MatQ(_rows(doc, "matrix", _rational_from_json))


def matrix_to_json(m: MatQ) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.rows]


def matz_to_json(m: MatZ) -> list[list[int]]:
    return [list(row) for row in m.rows]


def parse_lattice(doc: Any) -> Lattice:
    if not isinstance(doc, dict):
        raise SchemaError("lattice must be an object with 'n' and 'basis'")
    try:
        n = doc["n"]
        basis = doc["basis"]
    except KeyError as exc:
        raise SchemaError(f"lattice object is missing key {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise SchemaError("lattice 'n' must be an integer")
    m = parse_matrix(basis)
    if m.n != n:
        raise SchemaError(f"lattice 'n' is {n} but basis is {m.n}x{m.n}")
    return Lattice(m)


def lattice_to_json(lattice: Lattice) -> dict[str, Any]:
    return {"n": lattice.n, "basis": matrix_to_json(lattice.basis)}


def _on_lattice(doc: Any, what: str, key: str, noun: str, parse) -> tuple[Lattice, Any]:
    """(lattice, parse(doc[key])) of an object with 'lattice' and ``key``: one value per dimension."""
    if not isinstance(doc, dict) or "lattice" not in doc or key not in doc:
        raise SchemaError(f"{what} must be an object with 'lattice' and '{key}'")
    lattice = parse_lattice(doc["lattice"])
    values = parse(doc[key])
    if len(values) != lattice.n:
        raise SchemaError(f"{what} has {len(values)} {noun} but its lattice 'n' is {lattice.n}")
    return lattice, values


def parse_point(doc: Any) -> TorusPoint:
    from .quotient_torus import TorusPoint

    lattice, coords = _on_lattice(doc, "torus point", "coords", "coordinates", parse_vector)
    if any(c < 0 or c >= 1 for c in coords):
        raise SchemaError("torus point coordinates must lie in [0, 1)")
    return TorusPoint(lattice, coords)


def point_to_json(p: TorusPoint) -> dict[str, Any]:
    return {"lattice": lattice_to_json(p.lattice), "coords": vector_to_json(p.coords)}


def _integers(doc: Any) -> list[int]:
    if not isinstance(doc, list) or not all(isinstance(c, int) and not isinstance(c, bool) for c in doc):
        raise SchemaError("lattice vector 'coeffs' must be an array of integers")
    return doc


def parse_lattice_vector(doc: Any) -> LatticeVector:
    from .flat_geometry import LatticeVector

    return LatticeVector(*_on_lattice(doc, "lattice vector", "coeffs", "coefficients", _integers))


def _complex_entry(cell: Any) -> tuple[Fraction, Fraction]:
    if not isinstance(cell, list) or len(cell) != 2:
        raise SchemaError("complex entries must be two-element [re, im] arrays")
    return _rational_from_json(cell[0]), _rational_from_json(cell[1])


def parse_complex_matrix(doc: Any) -> ComplexMatrix:
    from .complex_lattices import ComplexMatrix

    return ComplexMatrix(_rows(doc, "complex matrix", _complex_entry))


def complex_matrix_to_json(m: ComplexMatrix) -> list[list[list[str]]]:
    return [[[format_rational(a), format_rational(b)] for a, b in row] for row in m.entries]
