"""The integer lattice of stable-framing defects.

A stable framing of a closed oriented 3-manifold sits, within its spin
structure, at an integer point (d, h): the degree d of the normal section
and the Hirzebruch defect h = p1(W, framing) - 3 sigma(W) of any compact
bounding 4-manifold W.  The two generators of the translation group act
by rho: (d, h) -> (d, h + 4) and sigma: (d, h) -> (d - 1, h + 2), so the
framings compatible with one spin structure sweep out an index-4 affine
lattice classified by lambda = 2d + h mod 4.  Canonical framings are the
lattice points minimizing the norm 2|d| + |h|.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .errors import _TOKEN_WIDTH, LambdaMismatch, NonIntegralDefect, _require_int, _shown_int

TYPE_CHECKING = False
if TYPE_CHECKING:  # fractions is imported where a Fraction is computed with
    from fractions import Fraction


class TotalDefect(namedtuple("TotalDefect", "d h")):
    __slots__ = ()


class FramingOffset(namedtuple("FramingOffset", "m_rho n_sigma")):
    """Translation by m_rho copies of rho and n_sigma copies of sigma."""

    __slots__ = ()


class LambdaClass(namedtuple("LambdaClass", "value")):
    """A residue mod 4 of an int or a LambdaClass; 2 and -2 name the same class."""

    __slots__ = ()

    def __new__(cls, value: LambdaClass | int) -> LambdaClass:
        if isinstance(value, bool):  # as _require_int refuses one: True is no class 1
            raise TypeError("lambda class must be an int or a LambdaClass, not bool")
        return super().__new__(cls, operator.index(value) % 4)

    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def representative(self) -> int:
        """The representative in {-1, 0, 1, 2}."""
        return -1 if self.value == 3 else self.value

    def __index__(self) -> int:
        return self.value


def act(p: TotalDefect, off: FramingOffset) -> TotalDefect:
    """Translate a defect by an offset: rho adds (0, 4), sigma adds (-1, 2)."""
    return TotalDefect(p.d - off.n_sigma, p.h + 4 * off.m_rho + 2 * off.n_sigma)


def lambda_class(p: TotalDefect) -> LambdaClass:
    """2d + h mod 4; constant along orbits of the translation action."""
    return LambdaClass(2 * p.d + p.h)


def defect_norm(p: TotalDefect) -> int:
    """The selection norm 2|d| + |h|."""
    return 2 * abs(p.d) + abs(p.h)


def canonical_set(k: LambdaClass | int) -> frozenset[TotalDefect]:
    """All minimal-norm points of the lattice with invariant k.

    Found by brute-force search.  Every class contains (0, rep) with
    |rep| <= 2, so minimizers have norm at most 2 and a search window of
    norm <= 4 is more than enough.
    """
    lam = LambdaClass(k)
    candidates = [TotalDefect(d, h)
                  for d in range(-2, 3) for h in range(-4, 5)
                  if 2 * abs(d) + abs(h) <= 4 and (2 * d + h) % 4 == lam.value]
    best = min(defect_norm(p) for p in candidates)
    return frozenset(p for p in candidates if defect_norm(p) == best)


def canonical_offset(p: TotalDefect, target_lambda: int) -> FramingOffset:
    """The offset carrying p to the canonical point (0, target_lambda).

    target_lambda must be a representative with |target_lambda| <= 2 lying
    in the same class as p, otherwise LambdaMismatch is raised.
    """
    key = 2 * p.d + p.h
    if abs(target_lambda) > 2 or (key - target_lambda) % 4:
        raise LambdaMismatch(
            f"target {target_lambda} is not a small representative of the class of {tuple(p)}")
    return FramingOffset(m_rho=-(key - target_lambda) // 4, n_sigma=p.d)


def reverse_orientation(p: TotalDefect) -> TotalDefect:
    """Orientation reversal conjugates (d, h) to (d, -h)."""
    return TotalDefect(p.d, -p.h)


def boundary_defect(euler_char: int, signature: int) -> TotalDefect:
    """Defect of the restriction to the boundary of a framing of a
    4-manifold with the given Euler characteristic and signature."""
    return TotalDefect(euler_char, -3 * signature)


def _shown_fraction(q: Fraction | int) -> str:
    """str(q), as a number the user may have typed is named: a numerator or
    denominator past _TOKEN_WIDTH characters by its digit count (_shown_int),
    and the longer of the two when p/q passes it, so no p/q is echoed whole."""
    from fractions import Fraction

    q = Fraction(q)
    parts = [q.numerator] if q.denominator == 1 else [q.numerator, q.denominator]
    shown = [_shown_int(part, _TOKEN_WIDTH) for part in parts]
    if len("/".join(shown)) > _TOKEN_WIDTH:
        longer = -1 if len(shown[-1]) > len(shown[0]) else 0
        shown[longer] = _shown_int(parts[longer], 0)  # width 0: by its digit count
    return "/".join(shown)


def pullback_cover(p: TotalDefect, r: int, sigma_pi: Fraction | int = 0) -> TotalDefect:
    """Defect of the pulled-back framing on an r-fold cover.

    The degree multiplies; the defect picks up three times the signature
    defect of the covering.  sigma_pi is an int or a Fraction; a float,
    whose binary value is not the rational it stands for, is refused, and
    so is a bool, as for the degree.  The corrected defect must come out
    an integer or the inputs are inconsistent.
    """
    from fractions import Fraction

    _require_int("cover degree", r)
    if r < 1:
        raise ValueError("cover degree must be at least 1")
    if isinstance(sigma_pi, bool) or not isinstance(sigma_pi, (int, Fraction)):
        raise TypeError(f"sigma_pi must be an int or a Fraction, not {type(sigma_pi).__name__}")
    corrected = r * Fraction(p.h) + 3 * Fraction(sigma_pi)
    if corrected.denominator != 1:
        raise NonIntegralDefect(f"{_shown_fraction(r)}*{_shown_fraction(p.h)} + "
                                f"3*({_shown_fraction(sigma_pi)}) = "
                                f"{_shown_fraction(corrected)} is not an integer")
    return TotalDefect(r * p.d, int(corrected))
