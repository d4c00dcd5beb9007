"""Catalog of headline values, recomputed through the library on demand.

Every entry carries the value the library produces today next to the
value it is expected to produce, so a stale or broken computation shows
up as a FAIL row in `framings catalog` and as a test failure.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bundles, defects, links, quotients
from .defects import FramingOffset


class CatalogEntry(NamedTuple):
    key: str
    description: str
    value: object
    expected: object

    @property
    def ok(self) -> bool:
        return self.value == self.expected


def build_catalog() -> list[CatalogEntry]:
    rows: list[CatalogEntry] = []

    def add(key: str, description: str, value: object, expected: object) -> None:
        rows.append(CatalogEntry(key, description, value, expected))

    # The 3-sphere and its Lie framings.
    delta = defects.boundary_defect(1, 0)
    add("s3.delta", "restriction of the 4-ball framing to its boundary",
        list(delta), [1, 0])
    add("s3.delta_minus", "boundary framing of the punctured product of a circle and a 3-sphere",
        list(defects.boundary_defect(-1, 0)), [-1, 0])
    hopf_plus = defects.act(delta, FramingOffset(0, 1))
    add("s3.hopf_plus", "right-handed Hopf framing, one sigma past the 4-ball framing",
        list(hopf_plus), [0, 2])
    add("s3.hopf_plus.quotient", "same framing through the trivial quotient",
        list(quotients.quotient_framing_defect(quotients.cyclic(1))), [0, 2])
    add("s3.hopf_minus", "left-handed Hopf framing by orientation reversal",
        list(defects.reverse_orientation(hopf_plus)), [0, -2])

    # The rotation group as the order-2 quotient.
    so3_plus = quotients.quotient_framing_defect(quotients.cyclic(2))
    add("so3.lie_plus", "right Lie framing on the rotation group",
        list(so3_plus), [0, 1])
    add("so3.lie_minus", "left Lie framing on the rotation group",
        list(defects.reverse_orientation(so3_plus)), [0, -1])

    # The 3-torus.
    add("t3.lie", "Lie framing on the 3-torus, bounding a framed product",
        list(defects.boundary_defect(0, 0)), [0, 0])
    add("t3.lambda.lie", "lambda of the Lie spin structures (r = 3, mu = 8)",
        links.lambda_from_mu(3, 8).value, 0)
    add("t3.lambda.rest", "lambda of the remaining spin structures (r = 3, mu = 0)",
        links.lambda_from_mu(3, 0).value, 0)
    add("t3.r", "mod-2 rank of H1 from the 0-framed 3-component unlink",
        links.homology(links.FramedLink.from_rows([[0] * 3] * 3)).r, 3)

    # Quotients of the 3-sphere.
    add("quotient.sigma.cyclic", "sigma(C_m) = m^2 - 3m + 2 at m = 5",
        quotients.sigma_g(quotients.cyclic(5)), 12)
    add("quotient.sigma.dihedral", "sigma(D*_m) = 4m^2 + 2 at m = 3",
        quotients.sigma_g(quotients.binary_dihedral(3)), 38)
    add("quotient.sigma.tetrahedral", "sigma of the binary tetrahedral group",
        quotients.sigma_g(quotients.TETRAHEDRAL), 98)
    add("quotient.sigma.octahedral", "sigma of the binary octahedral group",
        quotients.sigma_g(quotients.OCTAHEDRAL), 242)
    add("quotient.sigma.icosahedral", "sigma of the binary icosahedral group",
        quotients.sigma_g(quotients.ICOSAHEDRAL), 722)
    add("quotient.sigma.icosahedral.cotangent", "cotangent-sum evaluation, rounded",
        round(quotients.sigma_g_bruteforce(quotients.ICOSAHEDRAL), 6), 722.0)
    add("quotient.h.lens", "h of the quotient framing on L(m,1) is 3 - m, m = 1..8",
        [quotients.quotient_framing_defect(quotients.cyclic(m)).h for m in range(1, 9)],
        [3 - m for m in range(1, 9)])
    add("quotient.h.dihedral", "h of the quotient framing on prism manifolds is -m, m = 2..5",
        [quotients.quotient_framing_defect(quotients.binary_dihedral(m)).h for m in range(2, 6)],
        [-2, -3, -4, -5])
    add("quotient.h.polyhedral", "h of the quotient framings for T*, O*, I*",
        [quotients.quotient_framing_defect(g).h
         for g in (quotients.TETRAHEDRAL, quotients.OCTAHEDRAL, quotients.ICOSAHEDRAL)],
        [-4, -5, -6])
    add("quotient.signature_defect.lens4", "signature defect (m-1)(m-2)/3 at m = 4",
        str(quotients.signature_defect(quotients.cyclic(4))), "2")
    add("quotient.signature_defect.icosahedral", "signature defect of the Poincare sphere cover",
        str(quotients.signature_defect(quotients.ICOSAHEDRAL)), "722/3")

    # Surgery presentations, each analyzed once.
    k4 = links.analyze(links.unknot(-4), None)
    add("surgery.lens.delta_K", "boundary framing of the -4-framed unknot handlebody",
        list(k4.framings.delta), [2, 3])
    add("surgery.lens.mu", "mu of both spin structures of L(4,1) from the unknot presentation",
        sorted(s.mu for s in k4.spin_structures), [3, 15])
    chain = links.analyze(links.chain_link(4), None)
    add("surgery.lens.delta_L", "boundary framing of the +2 chain presentation of L(5,1)",
        list(chain.framings.delta), [5, -12])
    add("surgery.lens.mu_L", "mu of the chain presentation's spin structure",
        chain.spin_structures[0].mu, 4)
    e8 = links.analyze(links.e8_link(), None)
    add("surgery.poincare.delta", "boundary framing of the E8 plumbing handlebody",
        list(e8.framings.delta), [9, -24])
    add("surgery.poincare.rho_offsets", "rho multiples canonicalizing the E8 boundary framing",
        sorted(defects.canonical_offset(e8.framings.delta, t).m_rho for t in (-2, 2)), [1, 2])
    add("surgery.epsilon.empty", "honest framing from the empty surgery",
        links.natural_framings(links.empty_link()).epsilon_h, 2)

    # Circle bundles.
    hopf_fiber = bundles.fiber_framing(bundles.CircleBundle(0, 1))
    add("bundle.hopf.p1", "relative p1 of the disk bundle bounded by the Hopf fibration",
        hopf_fiber.p1, 5)
    add("bundle.hopf.h", "defect of the Hopf fiber framing", hopf_fiber.h, 2)
    add("bundle.so3", "defect of the fiber framing of the euler-2 bundle over the sphere",
        bundles.fiber_framing(bundles.CircleBundle(0, 2)).h, 1)
    add("bundle.t3", "defect of the fiber framing of the trivial bundle over the torus",
        bundles.fiber_framing(bundles.CircleBundle(1, 0)).h, 0)

    # Canonical sets and 2-framings.
    add("canonical.lambda0", "canonical defects for lambda = 0",
        sorted(map(list, defects.canonical_set(0))), [[0, 0]])
    add("canonical.lambda1", "canonical defects for lambda = 1",
        sorted(map(list, defects.canonical_set(1))), [[0, 1]])
    add("canonical.lambda_minus1", "canonical defects for lambda = -1",
        sorted(map(list, defects.canonical_set(-1))), [[0, -1]])
    add("canonical.lambda2", "canonical defects for lambda = 2",
        sorted(map(list, defects.canonical_set(2))), [[-1, 0], [0, -2], [0, 2], [1, 0]])
    add("two_framing.s3", "canonical 2-framing of the 3-sphere as the sum of the Hopf framings",
        hopf_plus.h + defects.reverse_orientation(hopf_plus).h, 0)
    add("two_framing.e8", "surgery 2-framing defect of the E8 presentation",
        e8.framings.freed_gompf_h, -16)

    return rows
