"""Quotients of the 3-sphere by finite subgroups."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from framings import (
    ICOSAHEDRAL,
    OCTAHEDRAL,
    TETRAHEDRAL,
    DegenerateAngle,
    FramingOffset,
    TotalDefect,
    act,
    binary_dihedral,
    cyclic,
    g_signature_local,
    lens_canonical_offset,
    lens_signature_defect,
    parse_group,
    pullback_cover,
    quotient_framing_defect,
    sigma_g,
    sigma_g_bruteforce,
)
from framings.quotients import _angle_pairs

from records import assert_rejected, assert_round_trips

COTANGENT_SUMS = Path(__file__).resolve().parent / "golden" / "cotangent_sums.json"

ALL_FAMILIES = ([cyclic(m) for m in range(1, 9)]
                + [binary_dihedral(m) for m in range(2, 7)]
                + [TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL])


class TestFiniteSubgroup:
    def test_orders(self):
        assert cyclic(7).order == 7
        assert binary_dihedral(3).order == 12
        assert (TETRAHEDRAL.order, OCTAHEDRAL.order, ICOSAHEDRAL.order) == (24, 48, 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclic(0)
        with pytest.raises(ValueError):
            binary_dihedral(1)

    @pytest.mark.parametrize("good, changes, message", [
        (cyclic(3), {"family": "X"}, "unknown family 'X'"),
        (cyclic(3), {"m": 0}, "cyclic groups need m >= 1"),
        (binary_dihedral(2), {"m": 1}, "binary dihedral groups need m >= 2"),
        (TETRAHEDRAL, {"m": 2}, "family T takes no parameter"),
        (cyclic(3), {"family": "I"}, "family I takes no parameter"),
    ], ids=["unknown", "cyclic", "dihedral", "polyhedral", "polyhedral-with-m"])
    def test_every_build_runs_the_checks(self, good, changes, message):
        assert_rejected(good, changes, ValueError, message)
        assert_round_trips(good)

    def test_parse_group(self):
        assert parse_group("C5") == cyclic(5)
        assert parse_group("D12") == binary_dihedral(12)
        assert parse_group("I") == ICOSAHEDRAL
        for bad in ("X", "C", "T3", "C-1", ""):
            with pytest.raises(ValueError):
                parse_group(bad)


class TestSigmaG:
    def test_closed_forms(self):
        assert sigma_g(cyclic(5)) == 12
        assert sigma_g(cyclic(1)) == 0
        assert sigma_g(binary_dihedral(2)) == 18
        assert (sigma_g(TETRAHEDRAL), sigma_g(OCTAHEDRAL), sigma_g(ICOSAHEDRAL)) == (98, 242, 722)

    @given(st.integers(1, 60))
    def test_cyclic_formula(self, m):
        assert sigma_g(cyclic(m)) == m * m - 3 * m + 2


class TestCotangentSums:
    @pytest.mark.parametrize("group", ALL_FAMILIES, ids=lambda g: g.label)
    def test_every_non_identity_element_is_enumerated(self, group):
        # One angle p/q (a multiple of pi) per element u != 1, each strictly
        # between 0 and 2: the identity, angle 0, is left out.
        pairs = list(_angle_pairs(group))
        assert len(pairs) == group.order - 1
        assert all(q > 0 and 0 < p < 2 * q for p, q in pairs)

    def test_cyclic_three(self):
        assert sigma_g_bruteforce(cyclic(3)) == pytest.approx(2.0, abs=1e-12)

    def test_cyclic_two_contributes_nothing(self):
        # The only non-identity element is -1, a half turn in both planes.
        assert sigma_g_bruteforce(cyclic(2)) == pytest.approx(0.0, abs=1e-12)

    def test_icosahedral(self):
        assert sigma_g_bruteforce(ICOSAHEDRAL) == pytest.approx(722.0, abs=1e-9)

    @pytest.mark.parametrize("group", ALL_FAMILIES, ids=lambda g: g.label)
    def test_matches_the_closed_form(self, group):
        assert abs(sigma_g_bruteforce(group) - sigma_g(group)) < 1e-6

    def test_the_sweep_builds_no_list_of_angles(self):
        # 2e5 elements; a list of their angles alone takes megabytes.
        tracemalloc.start()
        try:
            sigma_g_bruteforce(binary_dihedral(50000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"peak {peak} bytes"

    def test_sums_match_the_pinned_doubles_bit_for_bit(self):
        # repr of every sum as computed when the file was written: C1-C400,
        # D2-D200, T, O, I and four large groups.  The order of summation
        # is part of the result, so any change to it shows here.
        pinned = json.loads(COTANGENT_SUMS.read_text(encoding="utf-8"))
        assert len(pinned) == 606
        computed = {label: repr(sigma_g_bruteforce(parse_group(label))) for label in pinned}
        assert computed == pinned


class TestQuotientFramingDefect:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_lens_spaces(self, m):
        assert quotient_framing_defect(cyclic(m)) == TotalDefect(0, 3 - m)

    def test_poincare_sphere(self):
        assert quotient_framing_defect(ICOSAHEDRAL) == TotalDefect(0, -6)

    def test_remaining_families(self):
        assert quotient_framing_defect(binary_dihedral(5)) == TotalDefect(0, -5)
        assert quotient_framing_defect(TETRAHEDRAL) == TotalDefect(0, -4)
        assert quotient_framing_defect(OCTAHEDRAL) == TotalDefect(0, -5)

    @pytest.mark.parametrize("group", ALL_FAMILIES, ids=lambda g: g.label)
    def test_pullback_to_the_universal_cover_round_trips(self, group):
        defect = quotient_framing_defect(group)
        sigma_pi = Fraction(sigma_g(group), 3)
        assert pullback_cover(defect, group.order, sigma_pi) == TotalDefect(0, 2)


class TestLensCanonicalOffset:
    def test_examples(self):
        assert lens_canonical_offset(7) == FramingOffset(1, 0)
        assert lens_canonical_offset(1) == FramingOffset(0, 0)
        assert lens_canonical_offset(5) == FramingOffset(1, 0)

    @pytest.mark.parametrize("m", range(1, 61))
    def test_lands_in_the_canonical_band(self, m):
        landed = act(quotient_framing_defect(cyclic(m)), lens_canonical_offset(m))
        assert landed.d == 0 and -1 <= landed.h <= 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lens_canonical_offset(0)


class TestLensSignatureDefect:
    def test_values(self):
        assert lens_signature_defect(1) == 0
        assert lens_signature_defect(4) == 2
        assert lens_signature_defect(5) == 4
        assert Fraction(sigma_g(ICOSAHEDRAL), 3) == Fraction(722, 3)

    @given(st.integers(1, 200))
    def test_is_sigma_over_three(self, m):
        assert lens_signature_defect(m) == Fraction(sigma_g(cyclic(m)), 3)


class TestGSignatureLocal:
    @pytest.mark.parametrize("m,k", [(5, 1), (5, 2), (7, 3), (12, 5)])
    def test_equal_angle_point_gives_minus_cot_squared(self, m, k):
        angle = Fraction(2 * k, m)
        value = g_signature_local(points=[(angle, angle)])
        expected = -(math.cos(k * math.pi / m) / math.sin(k * math.pi / m)) ** 2
        assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_self_intersection_surface(self):
        assert g_signature_local(surfaces=[(0, Fraction(1, 3))]) == 0.0

    def test_half_turn_contributes_nothing(self):
        value = g_signature_local(points=[(1, 1)])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_surface_term(self):
        # csc^2(pi/2) = 1, so the term is just the self-intersection.
        value = g_signature_local(surfaces=[(3, 1)])
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_angles_may_be_strings(self):
        assert g_signature_local(points=[("1/2", "3/2")]) == pytest.approx(1.0, abs=1e-12)
        assert g_signature_local(surfaces=[(2, "1")]) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_angles_are_rejected(self):
        with pytest.raises(DegenerateAngle):
            g_signature_local(points=[(0, 1)])
        with pytest.raises(DegenerateAngle):
            g_signature_local(surfaces=[(1, 2)])

    @pytest.mark.parametrize("m", range(2, 30))
    def test_cyclic_defect_assembly(self, m):
        # The cone on the lens space has vanishing signatures upstairs and
        # down, so the signature defect is minus the sum of the local
        # g-signatures over the non-identity rotations.
        total = sum(
            g_signature_local(points=[(Fraction(2 * k, m),) * 2])
            for k in range(1, m))
        assert -total == pytest.approx(float(lens_signature_defect(m)), abs=1e-6)
