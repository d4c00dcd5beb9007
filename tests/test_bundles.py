"""Circle bundles over closed oriented surfaces."""

import pytest

from framings import (
    CircleBundle,
    FiberFraming,
    cyclic,
    fiber_framing,
    quotient_framing_defect,
)

VALID = [CircleBundle(g, n) for g in range(0, 7) for n in range(-12, 13)
         if fiber_framing(CircleBundle(g, n)) is not None]


class TestExistence:
    def test_hopf_bundle(self):
        assert fiber_framing(CircleBundle(0, 1)) is not None

    def test_euler_class_must_divide_chi(self):
        assert fiber_framing(CircleBundle(0, 3)) is None
        assert fiber_framing(CircleBundle(0, 4)) is None
        assert fiber_framing(CircleBundle(2, -2)) is not None

    def test_zero_euler_needs_the_torus(self):
        assert fiber_framing(CircleBundle(1, 0)) is not None
        assert fiber_framing(CircleBundle(0, 0)) is None
        assert fiber_framing(CircleBundle(2, 0)) is None

    def test_negative_genus_rejected(self):
        for euler in (1, 0, 3):
            with pytest.raises(ValueError, match="^genus must be nonnegative$"):
                fiber_framing(CircleBundle(-1, euler))


class TestDefect:
    def test_hopf_framing(self):
        assert fiber_framing(CircleBundle(0, 1)).h == 2

    def test_rotation_group(self):
        assert fiber_framing(CircleBundle(0, 2)).h == 1

    def test_reversed_hopf(self):
        assert fiber_framing(CircleBundle(0, -1)).h == -2

    def test_three_torus(self):
        assert fiber_framing(CircleBundle(1, 0)) == FiberFraming(None, 0)

    def test_no_framing(self):
        assert fiber_framing(CircleBundle(0, 3)) is None
        for genus in (0, 2):
            assert fiber_framing(CircleBundle(genus, 0)) is None

    @pytest.mark.parametrize("bundle", VALID, ids=str)
    def test_conjugation(self, bundle):
        mirrored = CircleBundle(bundle.genus, -bundle.euler)
        if bundle.euler == 0:
            assert fiber_framing(bundle).h == 0
        else:
            assert fiber_framing(mirrored).h == -fiber_framing(bundle).h

    @pytest.mark.parametrize("m", [1, 2])
    def test_agrees_with_the_cyclic_quotients(self, m):
        # Degree-m circle bundles over the sphere are the first two lens
        # spaces; the fiber framing defect matches the quotient framing.
        assert fiber_framing(CircleBundle(0, m)).h == quotient_framing_defect(cyclic(m)).h


class TestDiskBundleP1:
    def test_hopf_disk_bundle(self):
        assert fiber_framing(CircleBundle(0, 1)).p1 == 5

    @pytest.mark.parametrize("n", [-5, -1, 1, 2, 7])
    def test_torus_base_collapses_to_n(self, n):
        assert fiber_framing(CircleBundle(1, n)).p1 == n

    def test_euler_two_over_the_sphere(self):
        assert fiber_framing(CircleBundle(0, 2)).p1 == 4

    def test_zero_euler_is_rejected(self):
        assert fiber_framing(CircleBundle(1, 0)).p1 is None

    def test_no_framing_is_rejected(self):
        assert fiber_framing(CircleBundle(0, 3)) is None

    @pytest.mark.parametrize("bundle", [b for b in VALID if b.euler], ids=str)
    def test_defect_is_p1_minus_three_signs(self, bundle):
        sign = 1 if bundle.euler > 0 else -1
        framing = fiber_framing(bundle)
        assert framing.h == framing.p1 - 3 * sign
