"""Exception hierarchy shared by every module in the library, the way
their messages name a value, and the check that an argument is an int."""


def _shown(text: str) -> str:
    """repr(text), or its length once the repr passes 40 characters."""
    return repr(text) if len(repr(text)) <= 40 else f"<{len(text)} characters>"


# The most characters a number the user may have typed is shown with: a token
# of one more has a repr past 40 characters, and _shown names it by its length.
_TOKEN_WIDTH = 38


def _shown_int(n: int, width: int = 40) -> str:
    """repr(n), or its count of digits once the repr passes width characters.
    A longer int is never converted to text: past sys.get_int_max_str_digits()
    that raises ValueError."""
    if -10 ** (width - 1) < n < 10**width:
        return repr(n)
    size = abs(n)
    digits = int((size.bit_length() - 1) * 0.30102999566398120)  # log10(2): a digit or one short
    while 10**digits <= size:
        digits += 1
    return f"<{digits} digits>"


def _require_int(name: str, value: object) -> None:
    """TypeError unless value is an int and, like an IntMatrix entry, no bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")


class FramingError(Exception):
    """Base class for all errors raised by this library."""


class NotSymmetric(FramingError):
    """A matrix that must be symmetric is not."""


class Unsolvable(FramingError):
    """A GF(2) linear system has no solution."""


class LambdaMismatch(FramingError):
    """Requested canonical target lies in a different framing lattice."""


class NonIntegralDefect(FramingError):
    """A defect formula produced a non-integer where an integer is required."""


class OddFraming(FramingError):
    """A construction requiring even framings was applied to an odd link."""


class NotCharacteristic(FramingError):
    """The given sublink fails the characteristic condition mod 2."""


class ParseError(FramingError):
    """A link document or command-line value failed to parse or validate."""
