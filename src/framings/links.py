"""Framed-link surgery calculus.

A framed link is recorded by its symmetric linking matrix Q: framings on
the diagonal, pairwise linking numbers off it.  Surgery on the link
produces a closed oriented 3-manifold bounding the 2-handlebody whose
intersection form is Q, and everything computed here (homology, spin
structures with their mu and lambda, the natural framings' defects) is a
function of that matrix alone; each record stores each fact once.  The
spin structures are walked once, in Gray-code order, and one parity test
of Q x decides whether a sublink is characteristic.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .defects import FramingOffset, LambdaClass, TotalDefect, act, boundary_defect
from .errors import NotCharacteristic, NotSymmetric, OddFraming
from .exactmath import IntMatrix, exact_signature, smith_normal_form, solve_gf2


class FramedLink(NamedTuple("FramedLink", [("matrix", IntMatrix)])):
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


class Sublink(NamedTuple("Sublink", [("bitmask", str), ("self_intersection", int),
                                      ("arf", int), ("arf_assumed", bool)])):
    """A sublink C by its bitmask (1 at each member), C.C and Arf invariant.

    Arf is a knot-theoretic invariant of the embedded sublink that the
    linking matrix does not determine; it is caller-supplied data and
    arf_assumed records whether the default 0 was silently used.
    """

    __slots__ = ()

    def __new__(cls, bitmask: str, self_intersection: int, arf: int, arf_assumed: bool) -> Sublink:
        if arf not in (0, 1):
            raise ValueError("arf must be 0 or 1")
        return super().__new__(cls, bitmask, self_intersection, arf, arf_assumed)

    _make = classmethod(lambda cls, fields: cls(*fields))


def _members(bitmask: str) -> list[int]:
    return [i for i, bit in enumerate(bitmask) if bit == "1"]


def sublink_of(link: FramedLink, members: Sequence[int] | frozenset[int], arf: int = 0) -> Sublink:
    """Build a Sublink of the given link, computing C.C and the bitmask."""
    chosen = frozenset(members)
    n = link.components
    if any(i < 0 or i >= n for i in chosen):
        raise ValueError("sublink member out of range")
    q = link.matrix
    cc = sum(q[i, j] for i in chosen for j in chosen)
    bits = "".join("1" if i in chosen else "0" for i in range(n))
    return Sublink(bits, cc, arf, False)


class HomologyProfile(NamedTuple):
    """First homology of the surgered manifold: Betti number, torsion
    coefficients, and the mod-2 ranks r of H1 and s of its torsion part."""

    betti1: int
    torsion: tuple[int, ...]
    r: int
    s: int


class SpinStructureData(NamedTuple):
    """A spin structure of the surgered manifold, indexed by its
    characteristic sublink, with its mu (mod 16) and lambda (mod 4)."""

    sublink: Sublink
    mu: int
    lam: LambdaClass


def homology(link: FramedLink) -> HomologyProfile:
    """H1 of the surgered manifold, presented by the linking matrix."""
    form = smith_normal_form(link.matrix)
    betti1 = form.kernel_rank
    torsion = tuple(f for f in form.invariant_factors if f > 1)
    s = sum(1 for f in torsion if f % 2 == 0)
    return HomologyProfile(betti1=betti1, torsion=torsion, r=betti1 + s, s=s)


def characteristic_sublinks(link: FramedLink,
                            arf_table: Mapping[str, int] | None = None) -> list[Sublink]:
    """All sublinks C with lk(C, K_i) = Q_ii mod 2 for every component i.

    These index the spin structures of the surgered manifold; there are
    exactly 2**r of them, the solutions x = particular + span(kernel) of
    Q x = diag(Q) over GF(2).  One Gray-code walk visits them: consecutive
    x differ by the kernel vector whose index is the number of trailing
    zeros of the step count.  Setting x_i adds 2 y_i + Q_ii to C.C = x^T Q x
    and column i to y = Q x; clearing it subtracts 2 y_i - Q_ii and the
    column, y_i read before the update.  A step costs O(n) per component
    toggled, and each sublink is checked characteristic in O(n) from the
    parity of y.  Results are sorted by ascending bitmask.  Arf invariants
    are looked up in arf_table by bitmask, defaulting to 0 with arf_assumed set.
    """
    q = link.matrix
    rows = q.entries  # Q is symmetric: column i is row i
    diagonal = q.diagonal()
    parity = [d & 1 for d in diagonal]
    solution = solve_gf2(q, list(diagonal))
    x = list(solution.particular)
    y = _times_q(rows, x)
    cc = sum(v for v, bit in zip(y, x) if bit)
    toggles = [[i for i, bit in enumerate(v) if bit] for v in solution.kernel]
    out = []
    for step in range(1 << len(toggles)):
        if step:
            for i in toggles[(step & -step).bit_length() - 1]:
                column = rows[i]
                if x[i]:
                    cc -= 2 * y[i] - column[i]
                    y = [a - b for a, b in zip(y, column)]
                else:
                    cc += 2 * y[i] + column[i]
                    y = [a + b for a, b in zip(y, column)]
                x[i] ^= 1
        bits = "".join("1" if bit else "0" for bit in x)
        _require_characteristic(y, parity, bits)
        if arf_table is not None and bits in arf_table:
            arf, assumed = arf_table[bits], False
        else:
            arf, assumed = 0, True
        out.append(Sublink(bits, cc, arf, assumed))
    out.sort(key=lambda c: c.bitmask)
    return out


def _times_q(rows: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    """Q x for a 0/1 vector x, Q given by its rows."""
    return [sum(v for v, bit in zip(row, x) if bit) for row in rows]


def _require_characteristic(y: list[int], parity: list[int], bitmask: str) -> None:
    """The sublink is characteristic when y = Q x has the parity of diag(Q)."""
    if [v & 1 for v in y] != parity:
        raise NotCharacteristic(f"sublink {_members(bitmask)} is not characteristic")


def _mu(sigma: int, c: Sublink) -> int:
    return (sigma - c.self_intersection + 8 * c.arf) % 16


def mu_invariant(link: FramedLink, c: Sublink) -> int:
    """mu of the spin structure named by the characteristic sublink c:
    sigma - C.C + 8 Arf(C), as a residue mod 16.  A c that is not a
    sublink of this link (its bitmask is not n bits of 0 and 1, or its C.C
    is not x^T Q x) raises ValueError."""
    q = link.matrix
    if len(c.bitmask) != q.rows or not set(c.bitmask) <= {"0", "1"}:
        raise ValueError(f"bitmask {c.bitmask!r} is not a {q.rows}-bit mask of 0 and 1")
    x = [int(bit) for bit in c.bitmask]
    y = _times_q(q.entries, x)
    if c.self_intersection != sum(v for v, bit in zip(y, x) if bit):
        raise ValueError(f"C.C = {c.self_intersection} is not that of sublink "
                         f"{_members(c.bitmask)} of this link")
    _require_characteristic(y, [d & 1 for d in q.diagonal()], c.bitmask)
    return _mu(exact_signature(q), c)


def lambda_from_mu(r: int, mu: int) -> LambdaClass:
    """lambda = 2(1 + r) + mu mod 4, for r the mod-2 rank of H1."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return LambdaClass(2 * (1 + r) + mu)


def mu_representative(mu: int) -> int:
    """Normalize a mod-16 class to its representative in {-7, ..., 8}."""
    return ((mu + 7) % 16) - 7


class NaturalFramings(NamedTuple):
    """Defects of the framings a surgery presentation carries naturally,
    each a function of (chi, sigma, tau) alone.

    All but freed_gompf_h need even framings on every component (the
    handlebody is then parallelizable) and raise OddFraming otherwise; n
    counts the twists inserted on the 0-handle before gluing.
    """

    chi: int
    sigma: int
    tau: int
    even: bool

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

    def phi(self, n: int) -> TotalDefect:
        """Stable framing built from n sigma twists on the 0-handle."""
        return act(self.delta, FramingOffset(0, n))

    def honest_plus_h(self, n: int) -> int:
        """Honest framing glued from the right Lie framing plus n rho twists."""
        return act(self.delta, FramingOffset(n, self.chi)).h

    def honest_minus_h(self, n: int) -> int:
        """Honest framing glued from the left Lie framing plus n rho twists."""
        return act(self.delta, FramingOffset(n, -self.chi)).h

    @property
    def phi_half_tau(self) -> TotalDefect:
        """phi(tau/2), with defect (chi - tau/2, tau - 3 sigma)."""
        return self.phi(self.tau // 2)

    @property
    def freed_gompf_h(self) -> int:
        """Defect of the surgery 2-framing, 2 tau - 6 sigma; defined for
        any framings."""
        return 2 * self.tau - 6 * self.sigma


def natural_framings(link: FramedLink) -> NaturalFramings:
    """The natural framings of the 2-handlebody, from its Euler
    characteristic 1 + #components, exact signature and the trace of the
    linking matrix."""
    q = link.matrix
    return NaturalFramings(chi=link.components + 1, sigma=exact_signature(q), tau=q.trace(),
                           even=link.is_even)


class LinkAnalysis(NamedTuple):
    """Everything the surgery calculus says about one link, computed with a
    single signature, a single Smith form and a single GF(2) solve."""

    framings: NaturalFramings
    homology: HomologyProfile
    spin_structures: tuple[SpinStructureData, ...]


def analyze(link: FramedLink, arf_table: Mapping[str, int] | None) -> LinkAnalysis:
    """Natural framings (hence chi, sigma, tau), homology and spin
    structures (Arf invariants looked up in arf_table as in
    characteristic_sublinks) of a link, in one pass."""
    framings = natural_framings(link)
    profile = homology(link)
    spins = []
    for c in characteristic_sublinks(link, arf_table):
        mu = _mu(framings.sigma, c)
        spins.append(SpinStructureData(sublink=c, mu=mu, lam=lambda_from_mu(profile.r, mu)))
    return LinkAnalysis(framings=framings, homology=profile, spin_structures=tuple(spins))


def reverse_link_orientation(link: FramedLink) -> FramedLink:
    """The presentation of the oppositely oriented manifold: negate Q.
    The signature negates; component count and chi are unchanged."""
    return FramedLink(-link.matrix)
