"""Quotients of the 3-sphere by finite subgroups."""

import json
import math
import sys
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
    FiniteSubgroup,
    FramingOffset,
    TotalDefect,
    act,
    binary_dihedral,
    cyclic,
    canonical_offset,
    lambda_class,
    parse_group,
    pullback_cover,
    quotient_framing_defect,
    sigma_g,
    sigma_g_bruteforce,
    signature_defect,
)
from framings.quotients import _angle_runs

from oracles import cotangent_sum, dedekind_sum
from records import assert_rejected, assert_round_trips
from strategies import group_parameter_specs

COTANGENT_SUMS = Path(__file__).resolve().parent / "golden" / "cotangent_sums.json"


def angle_pairs(group):
    """The library's runs of rotation angles, flattened to one pair (p, q)
    per non-identity element."""
    return [(p, q) for numerators, q, times in _angle_runs(group)
            for _ in range(times) for p in numerators]


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

    # cyclic(2.5) was once accepted with order 2.5, and cyclic(True) labelled CTrue.
    @pytest.mark.parametrize("good, m, message", [
        (cyclic(3), 2.5, "group parameter must be an int, not float"),
        (cyclic(3), True, "group parameter must be an int, not bool"),
        (binary_dihedral(2), 2.0, "group parameter must be an int, not float"),
        (TETRAHEDRAL, False, "group parameter must be an int, not bool"),
    ], ids=["float", "bool", "dihedral-float", "polyhedral-bool"])
    def test_a_parameter_that_is_no_int_is_refused(self, good, m, message):
        assert_rejected(good, {"m": m}, TypeError, message)
        with pytest.raises(TypeError, match=f"^{message}$"):
            FiniteSubgroup(good.family, m)

    # str(m) past sys.get_int_max_str_digits() raised "Exceeds the limit (4300
    # digits)" from each of the three; m is named by its digit count instead.
    @pytest.mark.parametrize("build, family, order", [(cyclic, "C", 1), (binary_dihedral, "D", 4)],
                             ids=["cyclic", "dihedral"])
    def test_text_names_a_huge_parameter_by_its_digit_count(self, build, family, order):
        group = build(10**5000)
        name = {"C": "cyclic", "D": "binary dihedral"}[family]
        assert group.label == f"{family}<5001 digits>"
        assert group.description == f"{name} of order <5001 digits>"
        assert repr(group) == f"FiniteSubgroup(family='{family}', m=<5001 digits>)"
        small = build(12)
        assert (small.label, small.description, repr(small)) == (
            f"{family}12", f"{name} of order {12 * order}", f"FiniteSubgroup(family='{family}', m=12)")

    # The label names m by its digit count once the label's repr would pass
    # 40 characters, as the command line names a spec it echoes.
    @pytest.mark.parametrize("digits, label", [(37, "C" + "9" * 37), (38, "C<38 digits>")])
    def test_the_label_names_m_where_its_repr_passes_40(self, digits, label):
        assert cyclic(10**digits - 1).label == label

    def test_parse_group(self):
        assert parse_group("C5") == cyclic(5)
        assert parse_group("D12") == binary_dihedral(12)
        assert parse_group("I") == ICOSAHEDRAL
        for bad in ("X", "C", "T3", "C-1", ""):
            with pytest.raises(ValueError):
                parse_group(bad)

    # None and 7 once raised AttributeError, b"C7" "cannot use a string pattern".
    @pytest.mark.parametrize("spec, name", [(None, "NoneType"), (7, "int"), (b"C7", "bytes")])
    def test_a_spec_that_is_no_str_is_refused(self, spec, name):
        with pytest.raises(TypeError, match=f"^group spec must be a str, not {name}$"):
            parse_group(spec)

    # int() counts leading zeros against the interpreter's limit on the
    # digits it converts, and past it raises "Exceeds the limit (4300 digits)
    # ... use sys.set_int_max_str_digits()"; parse_group never does.
    def test_leading_zeros_past_the_parse_limit_are_dropped(self):
        assert parse_group("C" + "0" * 5000 + "7") == cyclic(7)
        assert parse_group(" D" + "0" * 5000 + "3 ") == binary_dihedral(3)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python parses integers of any length")
    def test_a_parameter_past_the_parse_limit_is_named_by_its_digit_count(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError) as excinfo:
            parse_group("C" + "9" * 5000)
        assert str(excinfo.value) == (f"group C has a parameter of 5000 digits, "
                                      f"past the interpreter's limit of {limit} digits")

    @given(group_parameter_specs())
    def test_a_parameter_of_any_length_gives_the_group_or_one_short_line(self, spec):
        family, significant = spec[0], spec[1:].lstrip("0") or "0"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        try:
            group = parse_group(spec)
        except ValueError as exc:
            message = str(exc)
            assert "\n" not in message and len(message) <= 200, message
            assert "Exceeds the limit" not in message and significant not in message
            if 0 < limit < len(significant):
                assert message == (f"group {family} has a parameter of {len(significant)} "
                                   f"digits, past the interpreter's limit of {limit} digits")
            else:  # C0, D0 or D1
                assert int(significant) < {"C": 1, "D": 2}[family], message
        else:
            assert not 0 < limit < len(significant)
            assert group == FiniteSubgroup(family, int(significant))


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
        pairs = angle_pairs(group)
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

    @given(st.one_of(st.integers(1, 20000).map(cyclic),
                     st.integers(2, 5000).map(binary_dihedral),
                     st.sampled_from([TETRAHEDRAL, OCTAHEDRAL, ICOSAHEDRAL])))
    def test_sums_match_the_element_by_element_oracle_bit_for_bit(self, group):
        # Beyond the pins: the runs, evaluated once per distinct angle, give
        # the double of one term per element added in enumeration order.
        assert repr(sigma_g_bruteforce(group)) == repr(cotangent_sum(group))

    def test_sums_match_the_pinned_doubles_bit_for_bit(self):
        # repr of every sum as computed when the file was written: C1-C400,
        # D2-D200, T, O, I and four large groups.  The order of summation
        # is part of the result, so any change to it shows here.
        pinned = json.loads(COTANGENT_SUMS.read_text(encoding="utf-8"))
        assert len(pinned) == 606
        computed = {label: repr(sigma_g_bruteforce(parse_group(label))) for label in pinned}
        assert computed == pinned


class TestDedekindSums:
    """The cotangent sums exactly: sum_{k<n} cot^2(pi k / n) = 4n s(1, n)
    (Hirzebruch-Zagier), with s(h, k) the Dedekind sum."""

    def test_cyclic_closed_form(self):
        for m in range(1, 201):
            assert 12 * m * dedekind_sum(1, m) == sigma_g(cyclic(m)), m

    def test_binary_dihedral_closed_form(self):
        # The cyclic subgroup of order 2m, plus the 2m elements of order 4,
        # each adding 3 cot^2(pi/4) = 3.
        for m in range(2, 101):
            assert 24 * m * dedekind_sum(1, 2 * m) + 6 * m == sigma_g(binary_dihedral(m)), m

    @pytest.mark.parametrize("m", range(2, 30))
    def test_cyclic_defect_assembly(self, m):
        # The cone on the lens space has vanishing signatures upstairs and
        # down, so the signature defect is the sum of the local terms
        # cot^2(theta / 2) over the non-identity rotations, here streamed
        # by the library's own enumeration; their exact sum is 4m s(1, m).
        exact = 4 * m * dedekind_sum(1, m)
        assert exact == signature_defect(cyclic(m))
        total = 0.0
        for p, q in angle_pairs(cyclic(m)):
            x = math.pi * p / (2 * q)
            total += (math.cos(x) / math.sin(x)) ** 2
        assert total == pytest.approx(float(exact), rel=1e-12, abs=1e-12)

    # The oracle for a general h, against which an exact library Dedekind
    # sum is to be checked (ROADMAP item 3).
    @pytest.mark.parametrize("h, k", [(1, 1), (2, 3), (3, 5), (5, 8), (7, 12),
                                      (11, 30), (13, 21), (17, 100)])
    def test_reciprocity(self, h, k):
        assert dedekind_sum(h, k) + dedekind_sum(k, h) == (
            Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)) / 12 - Fraction(1, 4)

    @pytest.mark.parametrize("h, k", [(1, 2), (2, 5), (3, 7), (5, 12), (7, 30), (31, 64)])
    def test_cotangent_form(self, h, k):
        # s(h, k) = (1 / 4k) sum_{j<k} cot(pi j / k) cot(pi h j / k).
        value = sum(1 / (math.tan(math.pi * j / k) * math.tan(math.pi * h * j / k))
                    for j in range(1, k)) / (4 * k)
        assert value == pytest.approx(float(dedekind_sum(h, k)), abs=1e-9)

    @given(st.integers(-200, 200), st.integers(1, 60))
    def test_odd_periodic_and_invariant_under_inverses(self, h, k):
        s = dedekind_sum(h, k)
        assert dedekind_sum(-h, k) == -s
        assert dedekind_sum(h + k, k) == s
        if math.gcd(h, k) == 1:
            assert dedekind_sum(pow(h, -1, k), k) == s


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


def lens_offset(m: int) -> FramingOffset:
    """The offset canonicalizing the quotient framing of L(m, 1), through
    canonical_offset to the small representative of its lambda class."""
    defect = quotient_framing_defect(cyclic(m))
    return canonical_offset(defect, lambda_class(defect).representative)


class TestLensCanonicalOffset:
    def test_examples(self):
        assert lens_offset(7) == FramingOffset(1, 0)
        assert lens_offset(1) == FramingOffset(0, 0)
        assert lens_offset(5) == FramingOffset(1, 0)

    @pytest.mark.parametrize("m", range(1, 61))
    def test_lands_in_the_canonical_band(self, m):
        landed = act(quotient_framing_defect(cyclic(m)), lens_offset(m))
        assert landed.d == 0 and -1 <= landed.h <= 2

    def test_is_floor_of_m_minus_one_over_four_rhos(self):
        # The closed form: h = 3 - m lands in {-1, 0, 1, 2} after
        # (m - 1) // 4 rho twists.
        for m in range(1, 2001):
            assert lens_offset(m) == FramingOffset((m - 1) // 4, 0), m


class TestLensSignatureDefect:
    def test_values(self):
        assert signature_defect(cyclic(1)) == 0
        assert signature_defect(cyclic(4)) == 2
        assert signature_defect(cyclic(5)) == 4
        assert signature_defect(ICOSAHEDRAL) == Fraction(722, 3)

    @given(st.integers(1, 200))
    def test_is_sigma_over_three(self, m):
        assert signature_defect(cyclic(m)) == Fraction((m - 1) * (m - 2), 3)
