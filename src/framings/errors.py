"""Exception hierarchy shared by every module in the library."""


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


class DegenerateAngle(FramingError):
    """A rotation angle outside the open interval (0, 2 pi) was supplied; the
    fixed-point formula needs rotations with no fixed direction."""


class ParseError(FramingError):
    """A link document or command-line value failed to parse or validate."""
