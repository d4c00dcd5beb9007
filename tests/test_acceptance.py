"""Acceptance suite.

One test per criterion; run `pytest tests/test_acceptance.py -v` to get a
pass/fail line for each.  Exact values are asserted with zero tolerance;
the only floating-point comparisons are the cotangent-sum oracle (1e-6)
and the eigenvalue-sign oracle (margin 1e-6 on the eigenvalues).
"""

import random
import time
from fractions import Fraction

from framings import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    CircleBundle,
    FramedLink,
    FramingOffset,
    TotalDefect,
    act,
    analyze,
    binary_dihedral,
    boundary_defect,
    canonical_offset,
    canonical_set,
    chain_link,
    cyclic,
    e8_link,
    exact_signature,
    fiber_framing,
    lambda_class,
    lambda_from_mu,
    natural_framings,
    pullback_cover,
    quotient_framing_defect,
    reverse_orientation,
    sigma_g,
    sigma_g_bruteforce,
    smith_normal_form,
    unknot,
)

import oracles
from oracles import mu_of


def _random_even_link(rng: random.Random) -> FramedLink:
    n = rng.randint(0, 8)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((-2, 0, 2))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(-3, 3)
    return FramedLink.from_rows(rows)


def test_criterion_1_paper_fixture_suite():
    # The 3-sphere: Hopf framings and the 4-ball framings.
    delta = boundary_defect(1, 0)
    assert delta == TotalDefect(1, 0)
    assert boundary_defect(-1, 0) == TotalDefect(-1, 0)
    hopf_plus = act(delta, FramingOffset(0, 1))
    assert hopf_plus == TotalDefect(0, 2)
    assert reverse_orientation(hopf_plus) == TotalDefect(0, -2)
    assert quotient_framing_defect(cyclic(1)) == TotalDefect(0, 2)

    # The rotation group.
    so3 = quotient_framing_defect(cyclic(2))
    assert so3 == TotalDefect(0, 1)
    assert reverse_orientation(so3) == TotalDefect(0, -1)

    # The 3-torus: both product framings bound chi = sigma = 0, lambda = 0;
    # the Lie framing is amphichiral, fixing (0, 0) under conjugation.
    assert boundary_defect(0, 0) == TotalDefect(0, 0)
    assert reverse_orientation(TotalDefect(0, 0)) == TotalDefect(0, 0)
    torus_presentation = FramedLink.from_rows([[0] * 3] * 3)
    assert analyze(torus_presentation, None).homology.r == 3
    assert lambda_from_mu(3, 0).value == 0
    assert lambda_from_mu(3, 8).value == 0
    # With the three-component Arf bit supplied, one spin structure gets
    # mu = 8 (the Lie one) and the other seven get 0; all have lambda = 0.
    spins = analyze(torus_presentation, {"111": 1}).spin_structures
    assert sorted(s.mu for s in spins) == [0] * 7 + [8]
    assert all(s.lam.value == 0 for s in spins)

    # Quotient framings on lens spaces and the Poincare sphere.
    for m in range(1, 13):
        assert quotient_framing_defect(cyclic(m)) == TotalDefect(0, 3 - m)
    assert quotient_framing_defect(ICOSAHEDRAL) == TotalDefect(0, -6)

    # Lens space surgery presentations, m <= 12.
    for m in range(2, 13, 2):
        k = unknot(-m)
        assert natural_framings(k).delta == TotalDefect(2, 3)
        mus = {c.bitmask: c.mu for c in analyze(k, None).spin_structures}
        assert mus["0"] == (-1) % 16               # mu_K
        assert mus["1"] == (m - 1) % 16            # mu_L
    for m in range(1, 13):
        chain = chain_link(m - 1)
        assert natural_framings(chain).delta == TotalDefect(m, 3 - 3 * m)
        empty = analyze(chain, None).spin_structures[0]
        assert empty.bitmask == "0" * (m - 1) and empty.mu == (m - 1) % 16

    # The Poincare sphere from the E8 plumbing.
    e8_delta = natural_framings(e8_link()).delta
    assert e8_delta == TotalDefect(9, -24)
    square = canonical_set(2)
    canonical_rhos = [r for r in range(-5, 6)
                      if act(e8_delta, FramingOffset(r, 9)) in square]
    assert canonical_rhos == [1, 2]

    # The disk bundle bounded by the Hopf fibration.
    assert fiber_framing(CircleBundle(0, 1)).p1 == 5
    assert fiber_framing(CircleBundle(0, 1)).h == 2

    # Canonical sets, all four classes.
    assert canonical_set(0) == {TotalDefect(0, 0)}
    assert canonical_set(1) == {TotalDefect(0, 1)}
    assert canonical_set(-1) == {TotalDefect(0, -1)}
    assert canonical_set(2) == {TotalDefect(1, 0), TotalDefect(-1, 0),
                                TotalDefect(0, 2), TotalDefect(0, -2)}
    print("ACCEPTANCE 1 (paper fixture suite): PASS")


def test_criterion_2_cotangent_oracle():
    groups = ([cyclic(m) for m in range(1, 201)]
              + [binary_dihedral(m) for m in range(2, 101)]
              + [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL])
    start = time.perf_counter()
    for group in groups:
        assert abs(sigma_g_bruteforce(group) - sigma_g(group)) < 1e-6, group.label
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"cotangent sweep took {elapsed:.2f}s"
    for m in (1, 2, 3, 10, 200):
        assert sigma_g(cyclic(m)) == m * m - 3 * m + 2
    for m in (2, 3, 100):
        assert sigma_g(binary_dihedral(m)) == 4 * m * m + 2
    assert (sigma_g(TETRAHEDRAL), sigma_g(OCTAHEDRAL), sigma_g(ICOSAHEDRAL)) == (98, 242, 722)
    print(f"ACCEPTANCE 2 (cotangent oracle, {len(groups)} groups in {elapsed:.2f}s): PASS")


def test_criterion_3_random_even_link_properties():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(500):
        link = _random_even_link(rng)
        chi, sigma, tau = (natural_framings(link).chi, natural_framings(link).sigma,
                           natural_framings(link).tau)
        # (a) the surgery 2-framing splits as a sum of the honest framings
        delta = natural_framings(link).delta
        assert (act(delta, FramingOffset(tau // 2, chi)).h
                + act(delta, FramingOffset(0, -chi)).h) == 2 * tau - 6 * sigma
        # (b) lambda of the boundary framing matches the mu formula at C = {}
        report = analyze(link, None)
        mu = mu_of(link.matrix.entries, [], 0)
        assert report.spin_structures[0].mu == mu
        assert lambda_class(delta) == lambda_from_mu(report.homology.r, mu)
        # (c) epsilon sits chi sigmas past delta
        assert act(delta, FramingOffset(0, chi)) == TotalDefect(0, natural_framings(link).epsilon_h)
        # (d) orientation reversal conjugates the boundary framing
        mirror = FramedLink.from_rows([[-x for x in row] for row in link.matrix.entries])
        assert natural_framings(mirror).delta == TotalDefect(chi, 3 * sigma)
        # (e) spin structures are counted by 2**r
        assert (len(oracles.characteristic_subsets_bruteforce(link.matrix.entries))
                == report.spin_structures.count == 2 ** report.homology.r)
        checked += 1
    assert checked == 500
    print("ACCEPTANCE 3 (500 random even links): PASS")


def test_criterion_4_action_law_suite():
    rng = random.Random(4)
    for _ in range(2000):
        p = TotalDefect(rng.randint(-50, 50), rng.randint(-50, 50))
        a = FramingOffset(rng.randint(-20, 20), rng.randint(-20, 20))
        b = FramingOffset(rng.randint(-20, 20), rng.randint(-20, 20))
        assert act(p, FramingOffset(0, 0)) == p
        assert act(act(p, a), b) == act(p, FramingOffset(a.m_rho + b.m_rho,
                                                         a.n_sigma + b.n_sigma))
        assert lambda_class(act(p, a)) == lambda_class(p)
        target = lambda_class(p).representative
        assert act(p, canonical_offset(p, target)) == TotalDefect(0, target)
        # pullback composition
        r1, r2 = rng.randint(1, 6), rng.randint(1, 6)
        s1, s2 = Fraction(rng.randint(-30, 30), 3), Fraction(rng.randint(-30, 30), 3)
        assert (pullback_cover(pullback_cover(p, r1, s1), r2, s2)
                == pullback_cover(p, r1 * r2, r2 * s1 + s2))
    # the quotient framings of all five families pull back to the Hopf framing
    groups = ([cyclic(m) for m in range(1, 25)]
              + [binary_dihedral(m) for m in range(2, 25)]
              + [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL])
    for group in groups:
        assert pullback_cover(quotient_framing_defect(group), group.order,
                              Fraction(sigma_g(group), 3)) == TotalDefect(0, 2)
    print("ACCEPTANCE 4 (action laws and covering round trips): PASS")


def test_criterion_5_signature_and_snf_oracles():
    rng = random.Random(55)
    checked = 0
    while checked < 1000:
        n = rng.randint(0, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        expected, clear = oracles.signature_by_eigenvalues(rows)
        if not clear:
            continue  # eigenvalue too close to zero for the float oracle
        assert exact_signature(rows) == expected
        checked += 1
    for _ in range(1000):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(rows).invariant_factors
        # unimodular equivalence: the minor-gcd fingerprint determines the
        # equivalence class, and it is recomputed here from scratch
        assert factors == oracles.invariant_factors_by_minors(rows)
        for x, y in zip(factors, factors[1:]):
            assert (y == 0) or (x != 0 and y % x == 0)
        det = oracles.det_fraction_gauss(rows)
        if det:
            product = 1
            for factor in factors:
                product *= factor
            assert product == abs(det)
    print("ACCEPTANCE 5 (signature and SNF oracles, 1000 + 1000 matrices): PASS")


def test_criterion_6_lattice_embedding():
    for m in (4, 8, 12, 16):
        lam = lambda_class(TotalDefect(m, 3 - 3 * m))
        assert lam.representative == -1
        sigma_pi = Fraction((m - 1) * (m - 2), 3)
        points = [TotalDefect(d, h) for d in range(-6, 7) for h in range(-13, 14)
                  if lambda_class(TotalDefect(d, h)) == lam]
        assert len(points) > 40
        for p in points:
            up = pullback_cover(p, m, sigma_pi)
            du, dh = up.d, up.h - 2
            assert du % m == 0 and dh % m == 0
            assert (2 * (du // m) + dh // m) % 4 == 0
    print("ACCEPTANCE 6 (lens lattice embedding, m = 4, 8, 12, 16): PASS")
