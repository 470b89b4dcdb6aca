"""Exception types shared across the library.

The CLI reports an error's ``kind`` as the exception class name, so these
names are part of the external interface and must stay stable.
"""


class LatquotError(Exception):
    """Base class for every domain error raised by the library."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class InputError(LatquotError):
    """Base class for parse/schema failures (CLI exit code 2)."""


# exact matrix layer

class SingularMatrix(LatquotError):
    pass


class NotSymmetric(LatquotError):
    pass


class PivotBreakdown(LatquotError):
    pass


# lattices

class SingularBasis(LatquotError):
    pass


class DimensionMismatch(LatquotError):
    pass


class ZeroScale(LatquotError):
    pass


class NotASublattice(LatquotError):
    pass


class NotEqualLattices(LatquotError):
    pass


# quotient tori

class LatticeMismatch(LatquotError):
    pass


class NotLatticePreserving(LatquotError):
    pass


class NonFiniteInput(LatquotError):
    pass


class DegenerateParallelepiped(LatquotError):
    pass


# float-rendered outputs

class FloatRangeError(LatquotError):
    pass


# exact outputs

class DigitLimitError(LatquotError):
    """An exact output integer has more decimal digits than the interpreter's
    int-to-str limit (``sys.get_int_max_str_digits()``) lets it print."""


# CLI output

class OutputError(LatquotError):
    """The CLI's ``--output`` path cannot be written (a missing directory, a
    directory, no permission); the message names the path."""


# flat geometry

class NonPositiveBound(LatquotError):
    pass


class ZeroVector(LatquotError):
    pass


class DimensionTooLarge(LatquotError):
    pass


# moduli of forms and lattices

class NotPositiveDefinite(LatquotError):
    pass


class CovolumeMismatch(LatquotError):
    pass


# parsing

class ParseError(InputError):
    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ZeroDenominator(InputError):
    pass


class SchemaError(InputError):
    pass
