"""The defect lattice, its translation action and canonical selection."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from framings import (
    FramingOffset,
    LambdaClass,
    LambdaMismatch,
    NonIntegralDefect,
    TotalDefect,
    act,
    boundary_defect,
    canonical_offset,
    canonical_set,
    defect_norm,
    lambda_class,
    pullback_cover,
    reverse_orientation,
)
from framings.defects import _shown_fraction

from records import assert_rejected, assert_round_trips
from strategies import framing_offsets, total_defects


class TestLambdaClass:
    def test_normalizes_mod_4(self):
        assert LambdaClass(-2) == LambdaClass(2)
        assert hash(LambdaClass(-2)) == hash(LambdaClass(2))
        assert LambdaClass(7).value == 3

    def test_representatives(self):
        assert [LambdaClass(k).representative for k in range(4)] == [0, 1, 2, -1]

    def test_accepts_a_class_and_rejects_non_integers(self):
        assert LambdaClass(LambdaClass(7)).value == 3
        assert canonical_set(LambdaClass(2)) == canonical_set(2)
        with pytest.raises(TypeError):
            LambdaClass(2.5)

    @pytest.mark.parametrize("value, message", [
        (2.5, "'float' object cannot be interpreted as an integer"),
        ("1", "'str' object cannot be interpreted as an integer"),
        (True, "lambda class must be an int or a LambdaClass, not bool"),
    ], ids=["float", "str", "bool"])
    def test_every_build_runs_the_checks(self, value, message):
        good = LambdaClass(1)
        assert_rejected(good, {"value": value}, TypeError, message)
        assert_round_trips(good)

    def test_every_build_reduces_mod_4(self):
        good = LambdaClass(1)
        assert good._replace(value=9) == LambdaClass._make([9]) == LambdaClass(9) == good
        assert good._replace(value=-2).value == 2


class TestAct:
    def test_sigma_turns_delta_into_hopf(self):
        assert act(TotalDefect(1, 0), FramingOffset(0, 1)) == TotalDefect(0, 2)

    def test_rho_conjugates_the_hopf_framings(self):
        assert act(TotalDefect(0, 2), FramingOffset(-1, 0)) == TotalDefect(0, -2)

    @given(total_defects())
    def test_identity_offset(self, p):
        assert act(p, FramingOffset(0, 0)) == p

    @given(total_defects(), framing_offsets(), framing_offsets())
    def test_action_composes(self, p, a, b):
        combined = FramingOffset(a.m_rho + b.m_rho, a.n_sigma + b.n_sigma)
        assert act(act(p, a), b) == act(p, combined)

    @given(total_defects(), framing_offsets())
    def test_action_is_free(self, p, off):
        if off != FramingOffset(0, 0):
            assert act(p, off) != p

    @given(total_defects(), framing_offsets())
    def test_lambda_is_orbit_invariant(self, p, off):
        assert lambda_class(act(p, off)) == lambda_class(p)


class TestLambdaAndLattices:
    def test_poincare_sphere_value(self):
        assert lambda_class(TotalDefect(9, -24)) == LambdaClass(2)

    def test_origin(self):
        assert lambda_class(TotalDefect(0, 0)).value == 0

    def test_lens_space_value(self):
        lam = lambda_class(TotalDefect(2, 3))
        assert lam.value == 3
        assert lam.representative == -1


class TestCanonicalSet:
    def test_lambda_zero(self):
        assert canonical_set(0) == {TotalDefect(0, 0)}

    def test_lambda_one(self):
        assert canonical_set(1) == {TotalDefect(0, 1)}

    def test_lambda_minus_one(self):
        assert canonical_set(-1) == {TotalDefect(0, -1)}

    def test_lambda_two_has_four_points(self):
        assert canonical_set(2) == {TotalDefect(1, 0), TotalDefect(-1, 0),
                                    TotalDefect(0, 2), TotalDefect(0, -2)}

    @pytest.mark.parametrize("k", [0, 2])
    def test_closed_under_conjugation(self, k):
        points = canonical_set(k)
        assert {reverse_orientation(p) for p in points} == points

    def test_conjugation_swaps_odd_classes(self):
        assert {reverse_orientation(p) for p in canonical_set(1)} == canonical_set(-1)

    @pytest.mark.parametrize("k", range(4))
    def test_members_minimize_norm_on_lattice_sample(self, k):
        best = min(defect_norm(p) for p in canonical_set(k))
        sample = [TotalDefect(d, h) for d in range(-6, 7) for h in range(-14, 15)
                  if lambda_class(TotalDefect(d, h)) == LambdaClass(k)]
        assert best == min(defect_norm(p) for p in sample)


class TestCanonicalOffset:
    def test_e8_boundary_framing(self):
        assert canonical_offset(TotalDefect(9, -24), 2) == FramingOffset(2, 9)
        assert canonical_offset(TotalDefect(9, -24), -2) == FramingOffset(1, 9)

    def test_already_canonical(self):
        for lam in (-2, -1, 0, 1, 2):
            assert canonical_offset(TotalDefect(0, lam), lam) == FramingOffset(0, 0)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_lens_chain_family(self, m):
        p = TotalDefect(m, 3 - 3 * m)
        lam = lambda_class(p).representative
        off = canonical_offset(p, lam)
        assert off == FramingOffset((m - 3 + lam) // 4, m)
        assert act(p, off) == TotalDefect(0, lam)

    def test_mismatch_raises(self):
        with pytest.raises(LambdaMismatch):
            canonical_offset(TotalDefect(0, 0), 1)
        with pytest.raises(LambdaMismatch):
            canonical_offset(TotalDefect(0, 0), 4)  # not a small representative

    # 3 and -3 lie in the classes of -1 and 1, and p in each, but neither
    # is a representative in {-2, ..., 2}.
    @pytest.mark.parametrize("target", [3, -3])
    def test_targets_past_two_are_refused(self, target):
        with pytest.raises(LambdaMismatch):
            canonical_offset(TotalDefect(0, target), target)

    @given(total_defects(), st.integers(-2, 2))
    def test_lands_on_the_axis(self, p, target):
        if (2 * p.d + p.h - target) % 4:
            return
        assert act(p, canonical_offset(p, target)) == TotalDefect(0, target)


class TestConjugationAndBoundary:
    def test_reverse_examples(self):
        assert reverse_orientation(TotalDefect(0, 2)) == TotalDefect(0, -2)
        assert reverse_orientation(TotalDefect(1, 0)) == TotalDefect(1, 0)
        assert reverse_orientation(TotalDefect(9, -24)) == TotalDefect(9, 24)

    def test_boundary_examples(self):
        assert boundary_defect(1, 0) == TotalDefect(1, 0)     # the 4-ball
        assert boundary_defect(-1, 0) == TotalDefect(-1, 0)
        assert boundary_defect(0, 0) == TotalDefect(0, 0)     # framed products


class TestPullbackCover:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_lens_universal_cover(self, m):
        defect = pullback_cover(TotalDefect(0, 3 - m), m, Fraction((m - 1) * (m - 2), 3))
        assert defect == TotalDefect(0, 2)

    def test_poincare_universal_cover(self):
        assert pullback_cover(TotalDefect(0, -6), 120, Fraction(722, 3)) == TotalDefect(0, 2)

    @given(total_defects())
    def test_trivial_cover(self, p):
        assert pullback_cover(p, 1, 0) == p

    @given(total_defects(), st.integers(1, 9))
    def test_zero_defect_cover_scales(self, p, r):
        assert pullback_cover(p, r, 0) == TotalDefect(r * p.d, r * p.h)

    @given(total_defects(), st.integers(1, 6), st.integers(1, 6),
           st.integers(-30, 30), st.integers(-30, 30))
    def test_composition_law(self, p, r1, r2, k1, k2):
        s1, s2 = Fraction(k1, 3), Fraction(k2, 3)
        towers = pullback_cover(pullback_cover(p, r1, s1), r2, s2)
        direct = pullback_cover(p, r1 * r2, r2 * s1 + s2)
        assert towers == direct

    def test_non_integral_defect(self):
        with pytest.raises(NonIntegralDefect):
            pullback_cover(TotalDefect(0, 0), 1, Fraction(1, 2))

    # Past sys.get_int_max_str_digits(), str() of the corrected defect in the
    # message once raised ValueError; a long int is named by its digit count.
    def test_non_integral_defect_past_the_print_limit(self):
        with pytest.raises(NonIntegralDefect) as excinfo:
            pullback_cover(TotalDefect(0, int("7" * 4000)), int("9" * 4000), Fraction(1, 9))
        assert str(excinfo.value) == ("<4000 digits>*<4000 digits> + 3*(1/9) = <8001 digits>/3 "
                                      "is not an integer")

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            pullback_cover(TotalDefect(0, 0), 0, 0)

    # A float degree once raised AttributeError.
    @pytest.mark.parametrize("r, name", [(2.5, "float"), (True, "bool"), (Fraction(2), "Fraction")])
    def test_degree_must_be_an_int(self, r, name):
        with pytest.raises(TypeError, match=f"^cover degree must be an int, not {name}$"):
            pullback_cover(TotalDefect(1, 2), r)

    def test_sigma_pi_defaults_to_zero(self):
        assert pullback_cover(TotalDefect(1, 2), 3) == TotalDefect(3, 6)

    def test_an_exact_third_gives_an_integral_defect(self):
        assert pullback_cover(TotalDefect(0, 1), 3, Fraction(1, 3)) == TotalDefect(0, 4)

    # A float once entered as its binary value: 1/3 gave a non-integral
    # defect where the exact third gives h = 4.
    @pytest.mark.parametrize("sigma_pi, name", [(1 / 3, "float"), (0.0, "float"), (True, "bool")],
                             ids=["third", "zero-float", "bool"])
    def test_sigma_pi_must_be_an_int_or_a_fraction(self, sigma_pi, name):
        with pytest.raises(TypeError,
                           match=f"^sigma_pi must be an int or a Fraction, not {name}$"):
            pullback_cover(TotalDefect(0, 1), 3, sigma_pi)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_lens_lattice_embeds_into_scaled_lattice(self, m):
        # Any point of the lens lattice pulls back into m * Lambda_0 + (0, 2).
        lam = lambda_class(TotalDefect(m, 3 - 3 * m))
        sigma_pi = Fraction((m - 1) * (m - 2), 3)
        points = [TotalDefect(d, h) for d in range(-4, 5) for h in range(-9, 10)
                  if lambda_class(TotalDefect(d, h)) == lam]
        for p in points:
            up = pullback_cover(p, m, sigma_pi)
            du, hu = up.d, up.h - 2
            assert du % m == 0 and hu % m == 0
            assert (2 * (du // m) + hu // m) % 4 == 0


class TestShownFraction:
    # p/q past the token width names the longer part by its digit count,
    # and the numerator when the two are equally long.
    @pytest.mark.parametrize("q, shown", [
        (Fraction(10**19 + 1, 10**24 + 3), "10000000000000000001/<25 digits>"),
        (Fraction(10**19 + 1, 10**19 + 3), "<20 digits>/10000000000000000003"),
    ], ids=["longer-denominator", "equal-lengths"])
    def test_names_the_longer_part(self, q, shown):
        assert _shown_fraction(q) == shown
