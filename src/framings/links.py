"""Framed-link surgery calculus.

A framed link is recorded by its symmetric linking matrix Q: framings on
the diagonal, pairwise linking numbers off it.  Surgery on the link
produces a closed oriented 3-manifold bounding the 2-handlebody whose
intersection form is Q, and everything computed here (homology, spin
structures with their mu and lambda, the natural framings' defects) is a
function of that matrix alone; each record stores each fact once.  The
spin structures are kept as their GF(2) affine space (SpinStructures):
any one row is built from its basis, and all 2^r are walked once, in
Gray-code order, on first use, each stored at its rank in bitmask order.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache
from itertools import compress
from operator import index, lshift

from .defects import FramingOffset, LambdaClass, TotalDefect, act, boundary_defect
from .errors import NotCharacteristic, NotSymmetric, OddFraming
from .exactmath import IntMatrix, exact_signature, signature_and_smith, solve_gf2

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterator, Mapping, Sequence


# A bitmask's bytes made 0 and 1, so that compress picks its members at C level.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class FramedLink(namedtuple("FramedLink", "matrix")):
    """A framed link, known only through its linking matrix."""

    __slots__ = ()

    def __new__(cls, matrix: IntMatrix) -> FramedLink:
        if not matrix.is_symmetric():
            raise NotSymmetric("a linking matrix must be square and symmetric")
        return super().__new__(cls, matrix)

    # _replace builds through _make, which would otherwise skip __new__.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "FramedLink":
        return cls(IntMatrix(rows))

    @property
    def components(self) -> int:
        return self.matrix.rows

    @property
    def is_even(self) -> bool:
        """True when every framing (diagonal entry) is even."""
        return all(x % 2 == 0 for x in self.matrix.diagonal())


def empty_link() -> FramedLink:
    """The empty link; surgery on it is the 3-sphere."""
    return FramedLink(IntMatrix(()))


def unknot(framing: int) -> FramedLink:
    return FramedLink.from_rows([[framing]])


def _plumbing(weights: Sequence[int], edges: Sequence[tuple[int, int]]) -> FramedLink:
    """Unknots framed by weights, the two ends of each edge linking once."""
    rows = [[0] * len(weights) for _ in weights]
    for i, weight in enumerate(weights):
        rows[i][i] = weight
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return FramedLink.from_rows(rows)


def chain_link(components: int) -> FramedLink:
    """A simple chain of +2-framed unknots, consecutive components linking
    once; a chain of m-1 components presents the lens space L(m, 1)."""
    return _plumbing([2] * components, [(i, i + 1) for i in range(components - 1)])


def e8_link() -> FramedLink:
    """The +2-framed E8 plumbing, a 7-chain with a vertex hung on the fifth:
    determinant one, so surgery gives the Poincare homology sphere."""
    return _plumbing([2] * 8, [(i, i + 1) for i in range(6)] + [(4, 7)])


class HomologyProfile(namedtuple("HomologyProfile", "betti1 torsion r s")):
    """First homology of the surgered manifold: Betti number, torsion
    coefficients, and the mod-2 ranks r of H1 and s of its torsion part."""

    __slots__ = ()


class SpinStructureData(namedtuple("SpinStructureData",
                                   "bitmask self_intersection arf arf_assumed mu lam")):
    """A spin structure of the surgered manifold, by its characteristic
    sublink C: C's bitmask (1 at each member), C.C, Arf(C), mu (mod 16) and
    lambda (mod 4).  The linking matrix does not determine Arf, a knot
    invariant of C: the caller supplies it, else arf_assumed marks a 0."""

    __slots__ = ()


class SpinStructures:
    """The spin structures of the surgered manifold, one row per
    characteristic sublink C, in ascending bitmask order.

    The characteristic sublinks, lk(C, K_i) = Q_ii mod 2 for every
    component i, are the GF(2) affine space base + span(basis), each vector
    an int mask with component 0 its leading bit.  The basis is in reduced
    echelon form: each vector's leading bit is in no other vector, nor in
    base.  Vector k has the k-th least significant leading bit, so row i,
    base plus the vectors at the 1 bits of i, has a larger mask than every
    row before it.

    count, the exact 2**r, is the record's only size: it has no len(), which
    could not hold 2**r past sys.maxsize, and so it is always true.
    rows[i] builds row i from the basis in O(n**2), with no walk.  The two
    columns, masks and self_intersections (C.C), are filled once, on first
    use, by one Gray-code walk over all count rows (_walk); iteration builds
    each row from them.  Arf is looked up in arf_table by bitmask, 0 with
    arf_assumed set when absent, and lambda is computed once per mu residue.
    """

    __slots__ = ("components", "count", "arf_table", "_rows", "_sigma", "_r",
                 "_base", "_basis", "_base_y", "_columns", "_lams")

    def __init__(self, rows: tuple[tuple[int, ...], ...], sigma: int, r: int,
                 arf_table: Mapping[str, int], base: int, basis: tuple[int, ...],
                 base_y: list[int]) -> None:
        self.components, self.count, self.arf_table = len(rows), 1 << len(basis), arf_table
        self._rows, self._sigma, self._r, self._base, self._basis = rows, sigma, r, base, basis
        self._base_y = base_y  # Q times the base, where the walk starts
        self._columns: tuple[list[int], list[int]] | None = None
        self._lams: dict[int, LambdaClass] = {}

    @property
    def masks(self) -> list[int]:
        """Each row's sublink as an int mask, component 0 its leading bit."""
        return self._walked()[0]

    @property
    def self_intersections(self) -> list[int]:
        """Each row's C.C."""
        return self._walked()[1]

    def _walked(self) -> tuple[list[int], list[int]]:
        if self._columns is None:
            self._columns = _walk(self._rows, self._base, self._basis, self._base_y)
        return self._columns

    def row(self, mask: int, cc: int) -> SpinStructureData:
        """The row of the sublink mask, whose C.C is cc."""
        bits = bin(mask | 1 << self.components)[3:]
        arf = self.arf_table.get(bits)
        mu = (self._sigma - cc + 8 * (arf or 0)) % 16
        lam = self._lams.get(mu) or self._lams.setdefault(mu, lambda_from_mu(self._r, mu))
        return tuple.__new__(SpinStructureData, (bits, cc, arf or 0, arf is None, mu, lam))

    def __iter__(self) -> Iterator[SpinStructureData]:
        return map(self.row, self.masks, self.self_intersections)

    def __getitem__(self, i: int) -> SpinStructureData:
        i = index(i)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError("spin structure index out of range")
        mask = self._base
        for k, v in enumerate(self._basis):
            if i >> k & 1:
                mask ^= v
        members = _members(mask, self.components)
        y = _times_q(self._rows, members)
        return self.row(mask, sum(y[j] for j in members))


def _spin_structures(link: FramedLink, sigma: int, r: int,
                     arf_table: Mapping[str, int]) -> SpinStructures:
    """The spin structures' record, its vectors checked characteristic.

    The characteristic sublinks are the 2**r solutions x = particular +
    span(kernel) of Q x = diag(Q) over GF(2), and solve_gf2 gives them as
    masks in the record's reduced echelon form: its particular solution and
    kernel are the record's base and basis.  Those are the vectors the walk
    toggles, and they are checked once (Q times the base is diag(Q), Q
    times each basis vector 0, mod 2), a failure naming the base or the
    base plus that basis vector; then every row is characteristic.  Nothing
    is walked here.
    """
    q = link.matrix
    n, rows = q.rows, q.entries
    diagonal = q.diagonal()
    base, basis = solve_gf2(q, diagonal)
    y = _times_q(rows, _members(base, n))
    if _parity_mask(y) != _parity_mask(diagonal):
        raise _not_characteristic(base, n)
    for v in basis:
        if _parity_mask(_times_q(rows, _members(v, n))):
            raise _not_characteristic(base ^ v, n)
    return SpinStructures(rows, sigma, r, arf_table, base, basis, y)


def _walk(rows: Sequence[Sequence[int]], base: int, basis: Sequence[int],
          y: list[int]) -> tuple[list[int], list[int]]:
    """The masks and C.C of base + span(basis), row i at index i, from
    y = Q times the base.

    A Gray-code walk visits the rows, step s toggling basis vector k, for k
    the trailing zeros of s (the ruler, built by doubling).  After step s
    the coefficients of the basis read s ^ (s >> 1) in binary, so the row
    is stored at that index: its rank in bitmask order (SpinStructures),
    with one toggle a step and no sort.  Setting x_i adds 2 y_i + Q_ii to C.C = x^T Q x and column i to
    y = Q x; clearing it subtracts 2 y_i - Q_ii and the column, y_i read
    before the update.  y is kept as one int of fixed-width lanes, lane j
    holding y_j + b, and each toggled column is packed once into the same
    lanes (_lanes: one int8 struct pass, or shifts when an entry is wider),
    so a toggle reads y_i with one shift and mask and adds or subtracts one
    int.  b bounds every |y_j| the walk reaches, from the base's y and the
    toggled columns alone, O(n) per toggled column, so no lane leaves
    [0, 2 b] and no carry or borrow crosses into the next.
    """
    n = len(rows)
    cc = sum(y[i] for i in _members(base, n))
    count = 1 << len(basis)
    masks, ccs = [base] * count, [cc] * count
    if basis:  # else one row, and nothing to pack
        supports = [_members(v, n) for v in basis]
        toggled = set().union(*supports)
        # Q is symmetric: column i is row i
        packed, columns, width, offset = _lanes(y, [rows[i] for i in toggled])
        column_of = dict(zip(toggled, columns))
        lane = (1 << width) - 1
        toggles = [(v, [(width * i, 1 << n - 1 - i, column_of[i],
                         rows[i][i] - 2 * offset, rows[i][i] + 2 * offset)
                        for i in support]) for v, support in zip(basis, supports)]
        ruler = []  # the toggle of each step
        for toggle in toggles:
            ruler += [toggle] + ruler
        mask = base
        for rank, (v, components) in zip([s ^ s >> 1 for s in range(1, count)], ruler):
            for shift, bit, column, to_set, to_clear in components:
                if mask & bit:  # 2 y_i - Q_ii = 2 (lane - b) - Q_ii
                    cc += to_clear - 2 * (packed >> shift & lane)
                    packed -= column
                else:
                    cc += 2 * (packed >> shift & lane) + to_set
                    packed += column
            mask ^= v
            masks[rank] = mask
            ccs[rank] = cc
    return masks, ccs


def _lanes(y: Sequence[int],
           columns: Sequence[Sequence[int]]) -> tuple[int, list[int], int, int]:
    """y and each column as one int of lanes, entry j in lane j, lane 0
    lowest: (y with b added to every lane, the columns, the lane width in
    bits, b).  y_j plus or minus each of any subset of the columns' entries
    j stays within b of 0: b is max |y_j| plus len(columns) times a bound on
    their entries.
    Entries in [-128, 127] are bounded by 128 and packed by one C-level
    struct pass, an int8 in the low byte of each whole-byte lane and zero
    pad bytes above, so a negative entry reads 256 too high, which its sign
    bit, shifted up one, takes back.  Any other entry fails that pass;
    the columns are then bounded by their largest |entry| and packed by
    shifts into lanes of just the bits 0, ..., 2 b need.  O(n) per column."""
    n, peak = len(y), max(map(abs, y), default=0)
    offset = peak + (len(columns) << 7)
    width = -(-_lane_bits(offset) // 8) * 8
    layout = _int8_lanes(width // 8, n)
    try:
        unsigned = [int.from_bytes(layout.pack(*c), "little") for c in columns]
    except struct.error:  # an entry past int8
        offset = peak + len(columns) * max(max(max(c), -min(c)) for c in columns)
        width = _lane_bits(offset)
        ones = _ones(width, n)
        packed = [sum(map(lshift, c, range(0, width * n, width))) for c in columns]
    else:
        ones = _ones(width, n)
        signs = ones << 7
        packed = [u - ((u & signs) << 1) for u in unsigned]
    return (sum(map(lshift, y, range(0, width * n, width))) + offset * ones,
            packed, width, offset)


@lru_cache(maxsize=64)
def _int8_lanes(size: int, n: int) -> struct.Struct:
    """The layout of n lanes of size bytes, an int8 in the low byte of each
    and zero pad bytes above: compiled once per (size, n)."""
    return struct.Struct("<" + f"b{size - 1}x" * n)


def _lane_bits(offset: int) -> int:
    """The bits a lane needs to hold 0, ..., 2 * offset."""
    return (2 * offset + 1).bit_length()


def _ones(width: int, n: int) -> int:
    """1 in each of n lanes of width bits."""
    return ((1 << width * n) - 1) // ((1 << width) - 1)


def _times_q(rows: Sequence[Sequence[int]], members: Sequence[int]) -> list[int]:
    """Q x for x the 0/1 vector of members and Q symmetric: the sum of
    their rows."""
    return list(map(sum, zip([0] * len(rows), *[rows[i] for i in members])))


def _members(mask: int, n: int) -> list[int]:
    """The components in mask, component 0 the leading of n bits."""
    return list(compress(range(n), bin(mask | 1 << n)[3:].encode().translate(_BIT_VALUES)))


def _parity_mask(values: Sequence[int]) -> int:
    """The parities of values as the bits of one int, values[0] leading."""
    return int("0" + "".join(["1" if v & 1 else "0" for v in values]), 2)


def _not_characteristic(mask: int, n: int) -> NotCharacteristic:
    """The error naming mask's members, component 0 the leading of n bits."""
    return NotCharacteristic(f"sublink {_members(mask, n)} is not characteristic")


def lambda_from_mu(r: int, mu: int) -> LambdaClass:
    """lambda = 2(1 + r) + mu mod 4, for r the mod-2 rank of H1."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return LambdaClass(2 * (1 + r) + mu)


def mu_representative(mu: int) -> int:
    """Normalize a mod-16 class to its representative in {-7, ..., 8}."""
    return ((mu + 7) % 16) - 7


class NaturalFramings(namedtuple("NaturalFramings", "chi sigma tau even")):
    """Defects of the framings a surgery presentation carries naturally,
    each a function of (chi, sigma, tau) alone.

    All but freed_gompf_h need even framings on every component (the
    handlebody is then parallelizable) and raise OddFraming otherwise.
    Twisting delta by m rho and n sigma is act(delta, FramingOffset(m, n)).
    """

    __slots__ = ()

    @property
    def delta(self) -> TotalDefect:
        """Restriction of the unique framing of the 2-handlebody."""
        if not self.even:
            raise OddFraming("this framing needs even framings on every component")
        return boundary_defect(self.chi, self.sigma)

    @property
    def epsilon_h(self) -> int:
        """Defect of the honest framing delta + chi sigma."""
        return act(self.delta, FramingOffset(0, self.chi)).h

    @property
    def phi_half_tau(self) -> TotalDefect:
        """delta twisted by tau/2 sigmas, with defect (chi - tau/2, tau - 3 sigma)."""
        return act(self.delta, FramingOffset(0, self.tau // 2))

    @property
    def freed_gompf_h(self) -> int:
        """Defect of the surgery 2-framing, 2 tau - 6 sigma; defined for
        any framings."""
        return 2 * self.tau - 6 * self.sigma


def natural_framings(link: FramedLink) -> NaturalFramings:
    """The natural framings of the 2-handlebody, from its Euler
    characteristic 1 + #components, exact signature and the trace of the
    linking matrix."""
    return _framings(link, exact_signature(link.matrix))


def _framings(link: FramedLink, sigma: int) -> NaturalFramings:
    return NaturalFramings(link.components + 1, sigma, link.matrix.trace(), link.is_even)


class LinkAnalysis(namedtuple("LinkAnalysis", "framings homology spin_structures")):
    """Everything the surgery calculus says about one link, computed with
    one symmetric elimination (signature_and_smith) and one GF(2) solve."""

    __slots__ = ()


def analyze(link: FramedLink, arf_table: Mapping[str, int] | None) -> LinkAnalysis:
    """Natural framings (hence chi, sigma, tau), homology and spin
    structures of a link, in one pass.  arf_table maps sublink bitmasks to
    Arf invariants and may be None; each of its values must be 0 or 1.
    The spin structures' record builds its rows when they are read, so it
    keeps a copy of the table."""
    table = {} if arf_table is None else dict(arf_table)
    if not all(isinstance(arf, int) and not isinstance(arf, bool) and arf in (0, 1)
               for arf in table.values()):
        raise ValueError("arf must be 0 or 1")
    sigma, form = signature_and_smith(link.matrix)
    torsion = tuple(f for f in form.invariant_factors if f > 1)
    s = sum(1 for f in torsion if f % 2 == 0)
    profile = HomologyProfile(betti1=form.kernel_rank, torsion=torsion,
                              r=form.kernel_rank + s, s=s)
    return LinkAnalysis(framings=_framings(link, sigma), homology=profile,
                        spin_structures=_spin_structures(link, sigma, profile.r, table))
