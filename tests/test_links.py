"""Framed-link surgery calculus."""

from collections import Counter
from math import prod

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
    SpinStructureData,
    SpinStructures,
    TotalDefect,
    act,
    analyze,
    chain_link,
    e8_link,
    empty_link,
    lambda_class,
    lambda_from_mu,
    mu_representative,
    natural_framings,
    unknot,
)

import framings.exactmath
import framings.links
import oracles
from oracles import mu_of
from records import assert_rejected, assert_round_trips
from strategies import (
    degenerate_symmetric_matrices,
    even_framed_links,
    framed_links,
    hyperbolic_forms,
    kirby_moves,
    spin_test_links,
    symmetric_int_matrices,
)


def chi_sigma_tau(link: FramedLink) -> tuple[int, int, int]:
    nat = natural_framings(link)
    return nat.chi, nat.sigma, nat.tau


def members_of(c: SpinStructureData) -> frozenset[int]:
    """The components of the sublink c, read off its bitmask."""
    return frozenset(i for i, bit in enumerate(c.bitmask) if bit == "1")


def spins_of(link: FramedLink, arf_table=None) -> SpinStructures:
    return analyze(link, arf_table).spin_structures


def rows_of(link: FramedLink) -> list[list[int]]:
    return link.matrix.to_lists()


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
        profile = analyze(e8_link(), None).homology
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
        profile = analyze(unknot(-m), None).homology
        assert profile.betti1 == 0
        assert profile.torsion == (m,)
        assert profile.r == r and profile.s == r

    def test_empty_link(self):
        profile = analyze(empty_link(), None).homology
        assert (profile.betti1, profile.torsion, profile.r, profile.s) == (0, (), 0, 0)

    def test_zero_framed_three_component_unlink(self):
        profile = analyze(FramedLink.from_rows([[0] * 3] * 3), None).homology
        assert (profile.betti1, profile.r, profile.s) == (3, 3, 0)

    @given(framed_links(max_components=6))
    def test_r_splits_as_s_plus_betti(self, link):
        profile = analyze(link, None).homology
        assert profile.r == profile.s + profile.betti1


class TestArfTable:
    @pytest.mark.parametrize("arf", [2, -1, None, True, 1.0, 0.0])
    def test_analyze_refuses_a_value_other_than_0_or_1(self, arf):
        with pytest.raises(ValueError, match="^arf must be 0 or 1$"):
            analyze(unknot(-4), {"1": arf})

    def test_every_value_is_checked_not_only_those_read(self):
        # "0" is not characteristic for the -5 framed unknot, so the walk
        # never looks it up; the check at analyze's entry still sees it.
        with pytest.raises(ValueError, match="^arf must be 0 or 1$"):
            analyze(unknot(-5), {"0": 2})

    def test_rows_round_trip(self):
        for row in spins_of(unknot(-4), {"1": 1}):
            assert_round_trips(row)


class TestCharacteristicSublinks:
    def test_empty_sublink_is_characteristic_for_even_links(self):
        subs = spins_of(chain_link(4))
        assert members_of(subs[0]) == frozenset()
        assert subs[0].bitmask == "0000"

    def test_even_surgery_on_an_unknot_has_two(self):
        subs = spins_of(unknot(-4))
        assert [c.bitmask for c in subs] == ["0", "1"]

    def test_odd_surgery_on_an_unknot_has_one(self):
        subs = spins_of(unknot(-5))
        assert [c.bitmask for c in subs] == ["1"]

    def test_arf_table_lookup(self):
        subs = spins_of(unknot(-4), {"1": 1})
        assert [(c.bitmask, c.arf, c.arf_assumed) for c in subs] == [
            ("0", 0, True), ("1", 1, False)]

    @pytest.mark.xfail(strict=True, reason="the table's Arf 1 for the empty sublink is used "
                                            "(see tests/test_cli.py)")
    @pytest.mark.parametrize("link, key", [(unknot(-4), "0"), (empty_link(), "")],
                             ids=["unknot-4", "empty"])
    def test_refuses_arf_one_for_the_empty_sublink(self, link, key):
        with pytest.raises(ValueError):
            analyze(link, {key: 1})

    @given(framed_links(max_components=6))
    def test_matches_bruteforce_enumeration(self, link):
        rows = link.matrix.to_lists()
        expected = oracles.characteristic_subsets_bruteforce(rows)
        got = {members_of(c) for c in spins_of(link)}
        assert got == expected

    @given(framed_links(max_components=6))
    def test_count_is_two_to_the_r(self, link):
        report = analyze(link, None)
        assert report.spin_structures.count == 2 ** report.homology.r
        assert 2 ** report.homology.r == len(oracles.characteristic_subsets_bruteforce(
            rows_of(link)))


class TestMuInvariant:
    def test_even_unknot_surgery_empty_sublink(self):
        link = unknot(-4)
        empty = spins_of(link)[0]
        assert empty.bitmask == "0"
        assert empty.mu == mu_of(rows_of(link), [], 0) == (-1) % 16
        assert mu_representative(empty.mu) == -1

    @pytest.mark.parametrize("m", range(2, 13))
    def test_unknot_surgery_full_sublink(self, m):
        link = unknot(-m)
        [full] = [c for c in spins_of(link) if c.bitmask == "1"]
        assert full.mu == mu_of(rows_of(link), [0], 0) == (m - 1) % 16

    @pytest.mark.parametrize("m", range(2, 13))
    def test_chain_presentation_agrees(self, m):
        link = chain_link(m - 1)
        empty = spins_of(link)[0]
        assert empty.bitmask == "0" * (m - 1)
        assert empty.mu == mu_of(rows_of(link), [], 0) == (m - 1) % 16

    @pytest.mark.parametrize("m", range(2, 13, 2))
    def test_both_presentations_carry_the_same_mu_multiset(self, m):
        from_unknot = sorted(s.mu for s in analyze(unknot(-m), None).spin_structures)
        from_chain = sorted(s.mu for s in analyze(chain_link(m - 1), None).spin_structures)
        assert from_unknot == from_chain

    @given(framed_links(max_components=5), st.integers(0, 31))
    def test_arf_bit_shifts_mu_by_eight(self, link, pick):
        subs = spins_of(link)
        c = subs[pick % subs.count]
        [flipped] = [f for f in spins_of(link, {c.bitmask: 1 - c.arf})
                     if f.bitmask == c.bitmask]
        assert flipped.arf == 1 - c.arf
        assert (flipped.mu - c.mu) % 16 == 8
        assert flipped.mu == mu_of(rows_of(link), members_of(c), flipped.arf)


def assert_rows_match_bruteforce(link: FramedLink, data) -> None:
    """Every row of the walk against the oracles: the bitmasks are the
    characteristic subsets, in ascending order; C.C is the sum of Q over
    the members; Arf comes from a drawn table; mu is mu_of's."""
    rows = link.matrix.to_lists()
    n = len(rows)
    expected = oracles.characteristic_subsets_bruteforce(rows)
    masks = sorted("".join("1" if i in c else "0" for i in range(n)) for c in expected)
    arf_table = {m: data.draw(st.integers(0, 1)) for m in masks if data.draw(st.booleans())}
    subs = spins_of(link, arf_table)
    assert [c.bitmask for c in subs] == masks
    assert all(a < b for a, b in zip(masks, masks[1:]))
    assert {members_of(c) for c in subs} == expected
    for c in subs:
        members = members_of(c)
        assert c.self_intersection == sum(rows[i][j] for i in members for j in members)
        if c.bitmask in arf_table:
            assert (c.arf, c.arf_assumed) == (arf_table[c.bitmask], False)
        else:
            assert (c.arf, c.arf_assumed) == (0, True)
        assert c.mu == mu_of(rows, members, c.arf)


class TestGrayCodeWalk:
    @given(spin_test_links(), st.data())
    @settings(max_examples=150)
    def test_matches_bruteforce(self, link, data):
        assert_rows_match_bruteforce(link, data)

    # Entries past int8 take the walk's shift packing, and copied components
    # with entries at powers of two meet its lane bound.
    @given(spin_test_links(wide=True), st.data())
    @settings(max_examples=400)
    def test_wide_entries_match_bruteforce(self, link, data):
        assert_rows_match_bruteforce(link, data)

    @pytest.mark.parametrize("link, rows", [
        (empty_link(), [("", 0)]),
        (unknot(-5), [("1", -5)]),
        (unknot(4), [("0", 0), ("1", 4)]),
        (FramedLink.from_rows([[int(i == j) for j in range(70)] for i in range(70)]),
         [("1" * 70, 70)]),
        (FramedLink.from_rows([[2**70] * 2] * 2),
         [("00", 0), ("01", 2**70), ("10", 2**70), ("11", 2**72)]),
        (FramedLink.from_rows([[-2**70] * 2] * 2),
         [("00", 0), ("01", -2**70), ("10", -2**70), ("11", -2**72)]),
        (FramedLink.from_rows([[127] * 2] * 2), [("01", 127), ("10", 127)]),
        (FramedLink.from_rows([[-128] * 2] * 2),
         [("00", 0), ("01", -128), ("10", -128), ("11", -512)]),
        (FramedLink.from_rows([[128] * 2] * 2),
         [("00", 0), ("01", 128), ("10", 128), ("11", 512)]),
        (FramedLink.from_rows([[-129] * 2] * 2), [("01", -129), ("10", -129)]),
        (FramedLink.from_rows([[1, 0, 2, 127], [0, 0, 2, 1], [2, 2, 0, 0], [127, 1, 0, -1]]),
         [("1000", 1), ("1010", 5)]),
        (FramedLink.from_rows([[1] * 3] * 3),
         [("001", 1), ("010", 1), ("100", 1), ("111", 9)]),
    ], ids=["empty", "odd-unknot", "even-unknot", "identity70", "wide-copies",
            "wide-negative-copies", "int8-top-copies", "int8-bottom-copies",
            "past-int8-copies", "below-int8-copies", "int8-lane-width", "shared-leading-bit"])
    def test_edges(self, link, rows):
        # Whole (bitmask, C.C) lists in ascending order; test_matches_bruteforce
        # holds random links to the same.  The identity's mask is 70 bits wide.
        # Two copies of a 2**70-framed unknot: the last step reads y_0 = 2**71
        # at the top of its lane, or at the bottom where the entries are
        # negative, so a lane a bit too narrow or an offset one too small
        # misreads it.  127 and -128 are the ends of the int8 struct pass, 128
        # and -129 the first entries past it, which take the shift packing.
        # int8-lane-width takes the int8 pass with y_3 = 127 beside one toggled
        # column, so b = 127 + 128 and a lane needs 9 bits, rounded up to 16;
        # 8-bit lanes would read one of its two C.C values wrong.
        # shared-leading-bit: the solver's kernel vectors 110 and 101 share
        # their leading bit, so rows come out in bitmask order only once the
        # basis is reduced (011, 101) and the base cleared (100 -> 001).
        assert [(c.bitmask, c.self_intersection) for c in spins_of(link)] == rows


class TestSpinRecord:
    """rows[i] builds row i from the basis, and iteration reads the walked
    columns: each is the other's oracle."""

    @pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
    @given(data=st.data())
    @settings(max_examples=150)
    def test_indexing_matches_iteration(self, wide, data):
        link = data.draw(spin_test_links(wide=wide))
        report = analyze(link, None)
        rows = report.spin_structures
        walked = list(rows)
        assert rows.count == len(walked) == 2 ** report.homology.r
        for i, row in enumerate(walked):
            assert rows[i] == row
            assert rows[i - rows.count] == row
        for i in (rows.count, -rows.count - 1):
            with pytest.raises(IndexError):
                rows[i]

    def test_a_200_component_unlink_is_counted_not_walked(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(framings.links, "_walk", walk)
        rows = analyze(FramedLink.from_rows([[0] * 200] * 200), None).spin_structures
        assert rows.count == 2 ** 200
        assert rows
        with pytest.raises(TypeError):
            len(rows)
        assert (rows[0].bitmask, rows[0].self_intersection) == ("0" * 200, 0)
        assert (rows[-1].bitmask, rows[-1].self_intersection) == ("1" * 200, 0)


def _count_kernel_calls(monkeypatch) -> dict[str, int]:
    """Wrap the kernel functions with counters where links looks them up;
    links does not import smith_normal_form, so that one is counted in
    exactmath."""
    calls = {}
    for module, name in ((framings.links, "exact_signature"),
                         (framings.exactmath, "smith_normal_form"),
                         (framings.links, "signature_and_smith"),
                         (framings.links, "solve_gf2")):
        calls[name] = 0
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestSpinStructures:
    @given(framed_links())
    @settings(max_examples=50)
    def test_agrees_with_the_mu_oracle(self, link):
        report = analyze(link, None)
        for spin in report.spin_structures:
            assert spin.mu == mu_of(rows_of(link), members_of(spin), 0)
            assert spin.lam == lambda_from_mu(report.homology.r, spin.mu)


class TestAnalyze:
    @pytest.mark.parametrize("link, spins", [(FramedLink.from_rows([[0] * 4] * 4), 16),
                                             (chain_link(4), 1)], ids=["zero4", "chain4"])
    def test_each_kernel_function_runs_once(self, monkeypatch, link, spins):
        # The signature and the Smith form come from one symmetric elimination.
        calls = _count_kernel_calls(monkeypatch)
        report = analyze(link, None)
        assert report.spin_structures.count == spins
        assert calls == {"exact_signature": 0, "smith_normal_form": 0,
                         "signature_and_smith": 1, "solve_gf2": 1}

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
        for bad in (Gf2Solution(particular=0b0, kernel=()),
                    Gf2Solution(particular=0b1, kernel=(0b1,))):
            monkeypatch.setattr(framings.links, "solve_gf2", lambda a, b, _bad=bad: _bad)
            with pytest.raises(NotCharacteristic, match=r"^sublink \[\] is not characteristic$"):
                analyze(link, None)
        # Q = diag(0, 0, 1): the particular 0b001 is right, but the kernel
        # vector 0b011 is not in ker Q mod 2, so the walk is refused before
        # it starts, naming particular + v = {1}.
        bad = Gf2Solution(particular=0b001, kernel=(0b011, 0b100))
        monkeypatch.setattr(framings.links, "solve_gf2", lambda a, b: bad)
        with pytest.raises(NotCharacteristic, match=r"^sublink \[1\] is not characteristic$"):
            analyze(FramedLink.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]), None)

    def test_is_frozen(self):
        report = analyze(unknot(2), {"1": 1})
        with pytest.raises(AttributeError):
            report.framings = None
        with pytest.raises(AttributeError):
            report.framings.sigma = 0

    @given(framed_links(), st.data())
    @settings(max_examples=80)
    def test_matches_the_separate_functions(self, link, data):
        masks = [c.bitmask for c in spins_of(link)]
        arf_table = {m: data.draw(st.integers(0, 1)) for m in masks}
        report = analyze(link, arf_table)
        assert report.framings == natural_framings(link)
        # H1 from the oracles, not the Smith kernel: r and betti1 are the
        # corank of Q mod 2 and over Q, the latter read mod a prime above
        # Hadamard's bound (7.4^6 < 1e6 at n <= 6, entries in [-3, 3]); the
        # torsion orders multiply to |det Q| when it is nonzero.
        rows = link.matrix.to_lists()
        n, hom = len(rows), report.homology
        assert hom.r == n - oracles.rank_mod_p(rows, 2)
        assert hom.betti1 == n - oracles.rank_mod_p(rows, 1_000_003)
        assert hom.s == hom.r - hom.betti1
        det = oracles.det_fraction_gauss(rows)
        if det:
            assert prod(hom.torsion) == abs(det)
        assert ([(s.bitmask, s.self_intersection) for s in report.spin_structures]
                == [(s.bitmask, s.self_intersection) for s in spins_of(link)])
        for spin in report.spin_structures:
            assert (spin.arf, spin.arf_assumed) == (arf_table[spin.bitmask], False)
            assert spin.mu == mu_of(rows, members_of(spin), spin.arf)
            assert spin.lam == lambda_from_mu(report.homology.r, spin.mu)


def _manifold_invariants(rows: list[list[int]]) -> tuple[tuple, Counter, dict[str, int]]:
    """((b1, torsion, r), the multiset of (mu mod 8, lambda), mu by
    bitmask) of the surgery on rows, the homology read both through
    signature_and_smith (in analyze) and the Hermite oracle."""
    report = analyze(FramedLink.from_rows(rows), None)
    factors = oracles.smith_by_hermite(rows)
    b1, torsion = factors.count(0), tuple(f for f in factors if f > 1)
    homology = (b1, torsion, b1 + sum(f % 2 == 0 for f in torsion))
    hom = report.homology
    assert (hom.betti1, hom.torsion, hom.r) == homology
    spins = report.spin_structures
    assert spins.count == 2 ** hom.r
    if report.framings.even:
        # Q mod 2 is alternating, so r = n (mod 2) and the empty sublink's
        # lambda, 2(1 + r) + sigma, is that of canonical's delta = (chi, -3 sigma).
        [empty] = [x for x in spins if "1" not in x.bitmask]
        assert empty.lam == lambda_class(report.framings.delta)
    mus = {x.bitmask: x.mu for x in spins}
    return homology, Counter((x.mu % 8, x.lam) for x in spins), mus


class TestKirbyMoves:
    """Surgery on a link and on any presentation reached from it by handle
    slides and +-1 blow-ups is one manifold M, so b1, the torsion, r and
    the multiset of (mu mod 8, lambda) over the spin structures agree; mu
    mod 16 is left out, as a slide can change an Arf invariant that Q does
    not record.  Negating Q presents -M."""

    @given(kirby_moves(st.one_of(hyperbolic_forms(),
                                 degenerate_symmetric_matrices(max_block=3, lo=-3, hi=3),
                                 symmetric_int_matrices(max_size=5, lo=-3, hi=3))))
    @settings(max_examples=150)
    def test_invariants_survive_moves_and_negation_mirrors_mu(self, presentations):
        q, moved = presentations
        homology, spins, mus = _manifold_invariants(q)
        moved_homology, moved_spins, _ = _manifold_invariants(moved)
        assert (moved_homology, moved_spins) == (homology, spins)
        mirror_homology, _, mirror_mus = _manifold_invariants([[-x for x in row] for row in q])
        assert mirror_homology == homology
        assert mirror_mus == {bits: -mu % 16 for bits, mu in mus.items()}


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
        with pytest.raises(OddFraming):  # no twist of delta is defined either
            act(nat.delta, FramingOffset(1, 1))
        assert nat.freed_gompf_h == 0  # 2 tau - 6 sigma = -6 + 6

    def test_lens_spaces_have_two_natural_defects(self):
        assert natural_framings(unknot(-4)).delta == TotalDefect(2, 3)

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
        assert nat.phi_half_tau == TotalDefect(chi - tau // 2, tau - 3 * sigma)
        # n sigma twists on the 0-handle, and the honest framings glued from
        # the right and left Lie framings plus n rho twists
        assert act(nat.delta, FramingOffset(0, n)) == TotalDefect(chi - n, 2 * n - 3 * sigma)
        assert act(nat.delta, FramingOffset(n, chi)).h == 4 * n + 2 * chi - 3 * sigma
        assert act(nat.delta, FramingOffset(n, -chi)).h == 4 * n - 2 * chi - 3 * sigma

    @given(even_framed_links())
    def test_surgery_two_framing_splits_both_ways(self, link):
        # Freed-Gompf: h(2 phi) is the sum of the honest framings at tau/2
        # and 0 rho twists, glued from the right and the left Lie framing.
        nat = natural_framings(link)
        half = nat.tau // 2

        def honest_h(m: int, side: int) -> int:
            return act(nat.delta, FramingOffset(m, side * nat.chi)).h

        assert honest_h(half, 1) + honest_h(0, -1) == nat.freed_gompf_h
        assert honest_h(0, 1) + honest_h(half, -1) == nat.freed_gompf_h

    @given(even_framed_links())
    @settings(max_examples=120)
    def test_lambda_of_delta_agrees_with_mu_formula(self, link):
        nat = natural_framings(link)
        mu = mu_of(rows_of(link), [], 0)
        assert lambda_class(nat.delta) == lambda_from_mu(analyze(link, None).homology.r, mu)


class TestLensDoubleSplitting:
    # Both signs of every |n| <= 16: the -n-framed unknot presents L(n, 1),
    # and scripts/lens_table.py reads its splits column this way up to 16.
    @pytest.mark.parametrize("n", range(-16, 17))
    def test_criterion_matches_spin_structure_lambdas(self, n):
        has_zero = any(s.lam.value == 0 for s in analyze(unknot(-n), None).spin_structures)
        assert has_zero == oracles.lens_double_splits(n)
