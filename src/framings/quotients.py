"""Quotients of the 3-sphere by its finite subgroups.

The five families of finite subgroups of the unit quaternions -- cyclic,
binary dihedral, binary tetrahedral, octahedral and icosahedral -- act
freely on the 3-sphere, and the right-handed Lie framing descends to each
quotient.  Its Hirzebruch defect is (2 - sigma(G)) / |G|, where sigma(G)
is three times the signature defect of the universal covering.  sigma(G)
is available both in closed form and by brute-force evaluation of the
fixed-point cotangent sums, which serves as a numerical oracle.

Angles are exact rational multiples of pi, integer pairs (p, q) for p/q,
made floats only in each cotangent term.  The brute-force sum streams
them in runs of a cyclic subgroup's rotations, never holding |G| angles,
and folds repeated runs in at C level, in order, to the same double.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from functools import reduce
from itertools import cycle, islice
from operator import add

from .defects import TotalDefect
from .errors import _TOKEN_WIDTH, NonIntegralDefect, _require_int, _shown, _shown_int

TYPE_CHECKING = False
if TYPE_CHECKING:  # fractions is imported where a Fraction is computed with
    from fractions import Fraction
    from typing import Iterator, Sequence

_FAMILY_NAMES = {
    "C": "cyclic",
    "D": "binary dihedral",
    "T": "binary tetrahedral",
    "O": "binary octahedral",
    "I": "binary icosahedral",
}

# Decomposition of each binary polyhedral group into maximal cyclic
# subgroups pairwise intersecting in {1, -1}, derived from the rotation
# axes of the underlying solid: (number of subgroups, their order).
#   tetrahedron: 4 face/vertex axes of order 3, 3 edge axes of order 2;
#   octahedron:  3 vertex axes of order 4, 4 face axes of order 3, 6 edge
#                axes of order 2;
#   icosahedron: 6 vertex axes of order 5, 10 face axes of order 3, 15
#                edge axes of order 2;
# doubled in the binary cover.
_POLYHEDRAL_CYCLIC = {
    "T": ((4, 6), (3, 4)),
    "O": ((3, 8), (4, 6), (6, 4)),
    "I": ((15, 4), (10, 6), (6, 10)),
}


class FiniteSubgroup(namedtuple("FiniteSubgroup", "family m")):
    """A finite subgroup of the unit quaternions, up to conjugacy."""

    __slots__ = ()

    def __new__(cls, family: str, m: int = 0) -> FiniteSubgroup:
        if family not in _FAMILY_NAMES:
            raise ValueError(f"unknown family {family!r}")
        _require_int("group parameter", m)
        if family == "C" and m < 1:
            raise ValueError("cyclic groups need m >= 1")
        if family == "D" and m < 2:
            raise ValueError("binary dihedral groups need m >= 2")
        if family in "TOI" and m:
            raise ValueError(f"family {family} takes no parameter")
        return super().__new__(cls, family, m)

    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def order(self) -> int:
        return {"C": self.m, "D": 4 * self.m, "T": 24, "O": 48, "I": 120}[self.family]

    @property
    def label(self) -> str:
        if self.family in "CD":  # m by its digit count where the spec's repr would pass 40
            return f"{self.family}{_shown_int(self.m, _TOKEN_WIDTH - 1)}"
        return self.family

    @property
    def description(self) -> str:
        name = _FAMILY_NAMES[self.family]
        if self.family in "CD":
            return f"{name} of order {_shown_int(self.order)}"
        return name

    def __repr__(self) -> str:  # m as _shown_int names it: str() raises past 4300 digits
        return f"{type(self).__name__}(family={self.family!r}, m={_shown_int(self.m)})"


def cyclic(m: int) -> FiniteSubgroup:
    return FiniteSubgroup("C", m)


def binary_dihedral(m: int) -> FiniteSubgroup:
    return FiniteSubgroup("D", m)


TETRAHEDRAL = FiniteSubgroup("T")
OCTAHEDRAL = FiniteSubgroup("O")
ICOSAHEDRAL = FiniteSubgroup("I")


def parse_group(spec: str) -> FiniteSubgroup:
    """Parse a group spec: C<m>, D<m>, T, O or I, spaces around.  The one reader
    of a C/D parameter's digits: it drops leading zeros, and more digits than
    sys.get_int_max_str_digits() (0: no limit) raise ValueError naming their count."""
    if not isinstance(spec, str):
        raise TypeError(f"group spec must be a str, not {type(spec).__name__}")
    match = re.fullmatch(r"([CDTOI])(\d+)?", spec.strip(), re.ASCII)
    if not match:
        raise ValueError(f"bad group spec {_shown(spec)}; expected C<m>, D<m>, T, O or I")
    family, digits = match.groups()
    if family in "CD":
        if digits is None:
            raise ValueError(f"family {family} needs a parameter, e.g. {family}3")
        digits = digits.lstrip("0") or "0"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(digits) > limit:
            raise ValueError(f"group {family} has a parameter of {len(digits)} digits, "
                             f"past the interpreter's limit of {limit} digits")
        return FiniteSubgroup(family, int(digits))
    if digits is not None:
        raise ValueError(f"family {family} takes no parameter")
    return FiniteSubgroup(family)


def sigma_g(group: FiniteSubgroup) -> int:
    """sigma(G) in closed form: three times the signature defect of the
    universal covering of the quotient."""
    m = group.m
    return {"C": m * m - 3 * m + 2,
            "D": 4 * m * m + 2,
            "T": 98, "O": 242, "I": 722}[group.family]


def signature_defect(group: FiniteSubgroup) -> Fraction:
    """Signature defect of the universal covering of the quotient, exactly
    sigma(G) / 3."""
    from fractions import Fraction

    return Fraction(sigma_g(group), 3)


def _angle_runs(group: FiniteSubgroup) -> Iterator[tuple[Sequence[int], int, int]]:
    """Rotation angle of every non-identity element, in runs
    (numerators, q, times): each p in numerators stands for the multiple
    p/q of pi, not necessarily in lowest terms, and the whole run of
    numerators occurs `times` times in a row.

    Left multiplication by a unit quaternion u rotates two orthogonal
    planes through the same angle theta with cos(theta) = Re(u); the
    multiset of those angles is all the cotangent sum needs.

    Cyclic groups are the m-th roots of unity on a great circle.  Binary
    dihedral groups add, to the cyclic group of order 2m, the 2m elements
    obtained by multiplying with a perpendicular imaginary unit; these are
    pure imaginary quaternions, squaring to -1, so each rotates by pi/2.
    The polyhedral groups are enumerated through their decomposition into
    maximal cyclic subgroups meeting pairwise in {1, -1}.
    """
    family, m = group.family, group.m
    if family == "C":
        yield range(2, 2 * m, 2), m, 1
    elif family == "D":
        yield range(1, 2 * m), m, 1
        yield (1,), 2, 2 * m
    else:
        yield (1,), 1, 1  # the central element -1, shared by all subgroups
        for count, order in _POLYHEDRAL_CYCLIC[family]:
            yield tuple(2 * k for k in range(1, order) if 2 * k != order), order, count


def sigma_g_bruteforce(group: FiniteSubgroup) -> float:
    """sigma(G) evaluated as 3 times the cotangent sum over the group:
    each element u != 1 contributes cot^2 of half its rotation angle.

    The angles come as exact integer ratios, in runs; each becomes a float
    only in its own term, as the correctly rounded p / q times pi/2, so no
    list of the |G| angles is built.  A run that occurs once is streamed;
    a repeated run has its few distinct terms evaluated once, then reduce,
    a strict left fold seeded with the total, adds them cycled `times`
    times: one add per term in enumeration order, which fixes the double,
    as sum() (changed in Python 3.12) and math.fsum would not.
    """
    # Halving is exact, so p / q * half_pi is the double p / q * math.pi / 2.
    cos, sin, half_pi = math.cos, math.sin, math.pi / 2
    count, total = 0, 0.0
    for numerators, q, times in _angle_runs(group):
        count += len(numerators) * times
        if times == 1:
            for p in numerators:
                x = p / q * half_pi
                total += (cos(x) / sin(x)) ** 2
        else:
            angles = [p / q * half_pi for p in numerators]
            terms = [(cos(x) / sin(x)) ** 2 for x in angles]
            total = reduce(add, islice(cycle(terms), len(terms) * times), total)
    assert count + 1 == group.order
    return 3.0 * total


def quotient_framing_defect(group: FiniteSubgroup) -> TotalDefect:
    """Total defect of the descended right Lie framing on the quotient:
    degree 0 and h = (2 - sigma(G)) / |G|."""
    h, remainder = divmod(2 - sigma_g(group), group.order)
    if remainder:
        raise NonIntegralDefect(
            f"2 - sigma({group.label}) is not divisible by the group order")
    return TotalDefect(0, h)
