"""Framed-link surgery calculus."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from framings import (
    FramedLink,
    FramingOffset,
    Gf2Solution,
    IntMatrix,
    NotCharacteristic,
    NotSymmetric,
    OddFraming,
    Sublink,
    TotalDefect,
    act,
    analyze,
    chain_link,
    characteristic_sublinks,
    e8_link,
    empty_link,
    homology,
    lambda_class,
    lambda_from_mu,
    lens_double_splits,
    mu_invariant,
    mu_representative,
    natural_framings,
    reverse_link_orientation,
    sublink_of,
    unknot,
)

import framings.links
import oracles
from records import assert_rejected, assert_round_trips
from strategies import even_framed_links, framed_links, spin_test_links


def chi_sigma_tau(link: FramedLink) -> tuple[int, int, int]:
    nat = natural_framings(link)
    return nat.chi, nat.sigma, nat.tau


def members_of(c: Sublink) -> frozenset[int]:
    """The components of the sublink c, read off its bitmask."""
    return frozenset(i for i, bit in enumerate(c.bitmask) if bit == "1")


class TestFramedLink:
    def test_symmetry_is_required(self):
        with pytest.raises(NotSymmetric):
            FramedLink.from_rows([[0, 1], [2, 0]])

    def test_non_integer_entries_are_refused_not_truncated(self):
        with pytest.raises(TypeError):
            FramedLink.from_rows([[2.7]])

    def test_bool_entries_are_refused(self):
        with pytest.raises(TypeError):
            FramedLink.from_rows([[True]])

    @pytest.mark.parametrize("rows", [[[0, 1], [2, 0]], [[0, 1]]],
                             ids=["asymmetric", "not-square"])
    def test_every_build_runs_the_checks(self, rows):
        good = chain_link(2)
        assert_rejected(good, {"matrix": IntMatrix(rows)}, NotSymmetric,
                        "a linking matrix must be square and symmetric")
        assert_round_trips(good)

    def test_evenness(self):
        assert chain_link(3).is_even
        assert not unknot(-5).is_even
        assert empty_link().is_even

    def test_chain_link_shape(self):
        assert chain_link(3).matrix.to_lists() == [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        assert chain_link(0) == empty_link()
        assert chain_link(1).matrix.to_lists() == [[2]]

    def test_e8_presents_a_homology_sphere(self):
        profile = homology(e8_link())
        assert profile.betti1 == 0 and profile.torsion == ()
        assert e8_link().matrix.det() == 1
        assert e8_link().matrix.to_lists() == [
            [2, 1, 0, 0, 0, 0, 0, 0],
            [1, 2, 1, 0, 0, 0, 0, 0],
            [0, 1, 2, 1, 0, 0, 0, 0],
            [0, 0, 1, 2, 1, 0, 0, 0],
            [0, 0, 0, 1, 2, 1, 0, 1],
            [0, 0, 0, 0, 1, 2, 1, 0],
            [0, 0, 0, 0, 0, 1, 2, 0],
            [0, 0, 0, 0, 1, 0, 0, 2],
        ]


class TestBasicInvariants:
    def test_e8(self):
        assert chi_sigma_tau(e8_link()) == (9, 8, 16)

    def test_empty_link_presents_the_sphere(self):
        assert chi_sigma_tau(empty_link()) == (1, 0, 0)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_lens_chain(self, m):
        assert chi_sigma_tau(chain_link(m - 1)) == (m, m - 1, 2 * (m - 1))


class TestHomology:
    @pytest.mark.parametrize("m,r", [(4, 1), (5, 0)])
    def test_surgery_on_an_unknot(self, m, r):
        profile = homology(unknot(-m))
        assert profile.betti1 == 0
        assert profile.torsion == (m,)
        assert profile.r == r and profile.s == r

    def test_empty_link(self):
        profile = homology(empty_link())
        assert (profile.betti1, profile.torsion, profile.r, profile.s) == (0, (), 0, 0)

    def test_zero_framed_three_component_unlink(self):
        profile = homology(FramedLink.from_rows([[0] * 3] * 3))
        assert (profile.betti1, profile.r, profile.s) == (3, 3, 0)

    @given(framed_links(max_components=6))
    def test_r_splits_as_s_plus_betti(self, link):
        profile = homology(link)
        assert profile.r == profile.s + profile.betti1


class TestSublink:
    @pytest.mark.parametrize("arf", [2, -1, None])
    def test_every_build_runs_the_checks(self, arf):
        good = sublink_of(chain_link(2), [1], arf=1)
        assert_rejected(good, {"arf": arf}, ValueError, "arf must be 0 or 1")
        assert_round_trips(good)


class TestCharacteristicSublinks:
    def test_empty_sublink_is_characteristic_for_even_links(self):
        subs = characteristic_sublinks(chain_link(4))
        assert members_of(subs[0]) == frozenset()
        assert subs[0].bitmask == "0000"

    def test_even_surgery_on_an_unknot_has_two(self):
        subs = characteristic_sublinks(unknot(-4))
        assert [c.bitmask for c in subs] == ["0", "1"]

    def test_odd_surgery_on_an_unknot_has_one(self):
        subs = characteristic_sublinks(unknot(-5))
        assert [c.bitmask for c in subs] == ["1"]

    def test_arf_table_lookup(self):
        subs = characteristic_sublinks(unknot(-4), {"1": 1})
        assert [(c.bitmask, c.arf, c.arf_assumed) for c in subs] == [
            ("0", 0, True), ("1", 1, False)]

    @pytest.mark.xfail(strict=True, reason="the table's Arf 1 for the empty sublink is used "
                                            "(see tests/test_cli.py)")
    @pytest.mark.parametrize("link, key", [(unknot(-4), "0"), (empty_link(), "")],
                             ids=["unknot-4", "empty"])
    def test_refuses_arf_one_for_the_empty_sublink(self, link, key):
        with pytest.raises(ValueError):
            characteristic_sublinks(link, {key: 1})

    @given(framed_links(max_components=6))
    def test_matches_bruteforce_enumeration(self, link):
        rows = link.matrix.to_lists()
        expected = oracles.characteristic_subsets_bruteforce(rows)
        got = {members_of(c) for c in characteristic_sublinks(link)}
        assert got == expected

    @given(framed_links(max_components=6))
    def test_count_is_two_to_the_r(self, link):
        assert len(characteristic_sublinks(link)) == 2 ** homology(link).r


class TestMuInvariant:
    def test_even_unknot_surgery_empty_sublink(self):
        link = unknot(-4)
        empty = characteristic_sublinks(link)[0]
        assert mu_invariant(link, empty) == (-1) % 16
        assert mu_representative(mu_invariant(link, empty)) == -1

    @pytest.mark.parametrize("m", range(2, 13))
    def test_unknot_surgery_full_sublink(self, m):
        link = unknot(-m)
        full = sublink_of(link, [0])
        assert mu_invariant(link, full) == (m - 1) % 16

    @pytest.mark.parametrize("m", range(2, 13))
    def test_chain_presentation_agrees(self, m):
        link = chain_link(m - 1)
        empty = sublink_of(link, [])
        assert mu_invariant(link, empty) == (m - 1) % 16

    def test_not_characteristic(self):
        with pytest.raises(NotCharacteristic):
            mu_invariant(unknot(-5), sublink_of(unknot(-5), []))
        link = chain_link(2)
        with pytest.raises(NotCharacteristic, match=r"^sublink \[0\] is not characteristic$"):
            mu_invariant(link, sublink_of(link, [0]))

    @pytest.mark.parametrize("bitmask, cc", [("10", 7), ("1x", 7), ("x", -5), ("1", 7), ("", 0)],
                             ids=["too-long", "bad-character", "not-a-bit", "wrong-cc", "empty"])
    def test_rejects_a_sublink_of_another_link(self, bitmask, cc):
        # unknot(-5) has one component and C.C = -5 for its only nonempty
        # sublink; mu of that sublink is (-1 + 5) mod 16 = 4.
        link = unknot(-5)
        with pytest.raises(ValueError):
            mu_invariant(link, framings.links.Sublink(bitmask, cc, 0, False))
        assert mu_invariant(link, framings.links.Sublink("1", -5, 0, False)) == 4

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_both_presentations_carry_the_same_mu_multiset(self, m):
        from_unknot = sorted(s.mu for s in analyze(unknot(-m), None).spin_structures)
        from_chain = sorted(s.mu for s in analyze(chain_link(m - 1), None).spin_structures)
        assert from_unknot == from_chain

    @given(framed_links(max_components=5), st.integers(0, 31))
    def test_arf_bit_shifts_mu_by_eight(self, link, pick):
        subs = characteristic_sublinks(link)
        c = subs[pick % len(subs)]
        flipped = sublink_of(link, members_of(c), arf=1 - c.arf)
        assert (mu_invariant(link, flipped) - mu_invariant(link, c)) % 16 == 8
        assert mu_invariant(link, flipped) % 8 == mu_invariant(link, c) % 8


class TestGrayCodeWalk:
    @given(spin_test_links(), st.data())
    @settings(max_examples=150)
    def test_matches_bruteforce(self, link, data):
        rows = link.matrix.to_lists()
        n = len(rows)
        expected = oracles.characteristic_subsets_bruteforce(rows)
        masks = sorted("".join("1" if i in c else "0" for i in range(n)) for c in expected)
        arf_table = {m: data.draw(st.integers(0, 1)) for m in masks if data.draw(st.booleans())}
        subs = characteristic_sublinks(link, arf_table)
        assert [c.bitmask for c in subs] == masks
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert {members_of(c) for c in subs} == expected
        for c in subs:
            members = members_of(c)
            assert c.self_intersection == sum(rows[i][j] for i in members for j in members)
            if c.bitmask in arf_table:
                assert (c.arf, c.arf_assumed) == (arf_table[c.bitmask], False)
                assert sublink_of(link, members, c.arf) == c
            else:
                assert (c.arf, c.arf_assumed) == (0, True)
        spins = analyze(link, arf_table).spin_structures
        assert [s.sublink for s in spins] == subs
        for spin in spins:
            assert spin.mu == mu_invariant(link, spin.sublink)


def _count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Wrap the kernel functions links calls with counters."""
    calls = {}
    for name in ("exact_signature", "smith_normal_form", "solve_gf2"):
        calls[name] = 0
        original = getattr(framings.links, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(framings.links, name, counted)
    return calls


class TestSpinStructures:
    @given(framed_links())
    @settings(max_examples=50)
    def test_agrees_with_mu_invariant(self, link):
        for spin in analyze(link, None).spin_structures:
            assert spin.mu == mu_invariant(link, spin.sublink)
            assert spin.lam == lambda_from_mu(homology(link).r, spin.mu)


class TestAnalyze:
    def test_each_kernel_function_runs_once(self, monkeypatch):
        calls = _count_kernel_calls(monkeypatch)
        report = analyze(FramedLink.from_rows([[0] * 4] * 4), None)
        assert len(report.spin_structures) == 16
        assert calls == {"exact_signature": 1, "smith_normal_form": 1, "solve_gf2": 1}

    def test_e8(self):
        report = analyze(e8_link(), None)
        assert (report.framings.chi, report.framings.sigma, report.framings.tau) == (9, 8, 16)
        assert report.framings.delta == TotalDefect(9, -24)
        assert [s.mu for s in report.spin_structures] == [8]

    def test_enumerated_sublinks_are_checked_characteristic(self, monkeypatch):
        # Only C = {0} is characteristic for the -5 framed unknot.  A solver
        # returning the empty sublink, as its particular solution or one
        # kernel step away from a good one, must not go unnoticed.
        link = unknot(-5)
        for bad in (Gf2Solution(particular=(0,), kernel=()),
                    Gf2Solution(particular=(1,), kernel=((1,),))):
            monkeypatch.setattr(framings.links, "solve_gf2", lambda a, b, _bad=bad: _bad)
            with pytest.raises(NotCharacteristic):
                analyze(link, None)
            with pytest.raises(NotCharacteristic):
                characteristic_sublinks(link)

    def test_is_frozen(self):
        report = analyze(unknot(2), {"1": 1})
        with pytest.raises(AttributeError):
            report.framings = None
        with pytest.raises(AttributeError):
            report.framings.sigma = 0

    @given(framed_links(), st.data())
    @settings(max_examples=80)
    def test_matches_the_separate_functions(self, link, data):
        masks = [c.bitmask for c in characteristic_sublinks(link)]
        arf_table = {m: data.draw(st.integers(0, 1)) for m in masks}
        report = analyze(link, arf_table)
        assert report.framings == natural_framings(link)
        assert report.homology == homology(link)
        assert ([s.sublink for s in report.spin_structures]
                == characteristic_sublinks(link, arf_table))
        for spin in report.spin_structures:
            assert spin.mu == mu_invariant(link, spin.sublink)
            assert spin.lam == lambda_from_mu(report.homology.r, spin.mu)


class TestLambdaFromMu:
    def test_three_torus(self):
        assert lambda_from_mu(3, 8).value == 0
        assert lambda_from_mu(3, 0).value == 0

    def test_poincare_sphere(self):
        assert lambda_from_mu(0, 8).value == 2
        assert lambda_from_mu(0, 8) == lambda_class(TotalDefect(9, -24))

    def test_sphere(self):
        assert lambda_from_mu(0, 0).value == 2

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            lambda_from_mu(-1, 0)

    @given(st.integers(0, 10), st.integers(0, 15))
    def test_insensitive_to_arf_shifts(self, r, mu):
        assert lambda_from_mu(r, mu + 8) == lambda_from_mu(r, mu)


class TestNaturalFramings:
    def test_e8(self):
        nat = natural_framings(e8_link())
        assert nat.delta == TotalDefect(9, -24)
        assert nat.epsilon_h == -6
        assert nat.freed_gompf_h == -16

    @pytest.mark.parametrize("m", range(1, 13))
    def test_lens_chain_delta(self, m):
        assert natural_framings(chain_link(m - 1)).delta == TotalDefect(m, 3 - 3 * m)

    def test_empty_link(self):
        nat = natural_framings(empty_link())
        assert nat.delta == TotalDefect(1, 0)
        assert nat.epsilon_h == 2
        assert nat.freed_gompf_h == 0
        assert nat.phi_half_tau == TotalDefect(1, 0)

    def test_odd_framings_refuse_the_even_constructions(self):
        nat = natural_framings(unknot(-3))
        for field in ("delta", "epsilon_h", "phi_half_tau"):
            with pytest.raises(OddFraming):
                getattr(nat, field)
        for method in (nat.phi, nat.honest_plus_h, nat.honest_minus_h):
            with pytest.raises(OddFraming):
                method(0)
        assert nat.freed_gompf_h == 0  # 2 tau - 6 sigma = -6 + 6

    def test_lens_spaces_have_two_natural_defects(self):
        assert natural_framings(unknot(-4)).delta == TotalDefect(2, 3)

    @given(even_framed_links())
    def test_phi_0_is_delta_and_phi_plus_0_is_epsilon(self, link):
        nat = natural_framings(link)
        assert nat.phi(0) == nat.delta
        assert nat.honest_plus_h(0) == nat.epsilon_h

    @given(even_framed_links())
    def test_epsilon_is_delta_shifted_by_chi_sigmas(self, link):
        nat = natural_framings(link)
        assert act(nat.delta, FramingOffset(0, nat.chi)) == TotalDefect(0, nat.epsilon_h)

    @given(even_framed_links(), st.integers(-6, 6))
    def test_even_framings_have_their_closed_form_defects(self, link, n):
        chi, sigma, tau = chi_sigma_tau(link)
        nat = natural_framings(link)
        assert nat.delta == TotalDefect(chi, -3 * sigma)
        assert nat.epsilon_h == 2 * chi - 3 * sigma
        assert nat.phi(n) == TotalDefect(chi - n, 2 * n - 3 * sigma)
        assert nat.honest_plus_h(n) == 4 * n + 2 * chi - 3 * sigma
        assert nat.honest_minus_h(n) == 4 * n - 2 * chi - 3 * sigma
        assert nat.phi_half_tau == TotalDefect(chi - tau // 2, tau - 3 * sigma)

    @given(even_framed_links())
    def test_surgery_two_framing_splits_both_ways(self, link):
        nat = natural_framings(link)
        half = nat.tau // 2
        target = nat.freed_gompf_h
        assert nat.honest_plus_h(half) + nat.honest_minus_h(0) == target
        assert nat.honest_plus_h(0) + nat.honest_minus_h(half) == target

    @given(even_framed_links())
    @settings(max_examples=120)
    def test_lambda_of_delta_agrees_with_mu_formula(self, link):
        nat = natural_framings(link)
        empty = sublink_of(link, [])
        mu = mu_invariant(link, empty)
        assert lambda_class(nat.delta) == lambda_from_mu(homology(link).r, mu)


class TestReverseOrientation:
    def test_e8(self):
        reversed_link = reverse_link_orientation(e8_link())
        assert chi_sigma_tau(reversed_link)[1] == -8
        assert natural_framings(reversed_link).delta == TotalDefect(9, 24)

    def test_empty(self):
        assert reverse_link_orientation(empty_link()) == empty_link()

    def test_single_unknot(self):
        link = unknot(2)
        assert reverse_link_orientation(link).matrix.to_lists() == [[-2]]
        assert natural_framings(link).delta == TotalDefect(2, -3)
        assert natural_framings(reverse_link_orientation(link)).delta == TotalDefect(2, 3)

    @given(even_framed_links(max_components=6))
    def test_conjugates_the_boundary_framing(self, link):
        chi, sigma, _ = chi_sigma_tau(link)
        mirrored = natural_framings(reverse_link_orientation(link)).delta
        assert mirrored == TotalDefect(chi, 3 * sigma)


class TestLensDoubleSplitting:
    @pytest.mark.parametrize("n", range(0, 13))
    def test_criterion_matches_spin_structure_lambdas(self, n):
        link = unknot(-n) if n else unknot(0)
        has_zero = any(s.lam.value == 0 for s in analyze(link, None).spin_structures)
        assert has_zero == lens_double_splits(n)
