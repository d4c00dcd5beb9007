"""Circle bundles over closed oriented surfaces."""

import pytest

from framings import (
    CircleBundle,
    NoFiberFraming,
    ZeroEuler,
    cyclic,
    disk_bundle_p1,
    fiber_framing_defect,
    fiber_framing_exists,
    quotient_framing_defect,
)

VALID = [CircleBundle(g, n) for g in range(0, 7) for n in range(-12, 13)
         if fiber_framing_exists(CircleBundle(g, n))]


class TestExistence:
    def test_hopf_bundle(self):
        assert fiber_framing_exists(CircleBundle(0, 1))

    def test_euler_class_must_divide_chi(self):
        assert not fiber_framing_exists(CircleBundle(0, 3))
        assert not fiber_framing_exists(CircleBundle(0, 4))
        assert fiber_framing_exists(CircleBundle(2, -2))

    def test_zero_euler_needs_the_torus(self):
        assert fiber_framing_exists(CircleBundle(1, 0))
        assert not fiber_framing_exists(CircleBundle(0, 0))
        assert not fiber_framing_exists(CircleBundle(2, 0))

    def test_negative_genus_rejected(self):
        with pytest.raises(ValueError):
            fiber_framing_exists(CircleBundle(-1, 1))
        for euler in (1, 0):
            with pytest.raises(ValueError):
                fiber_framing_defect(CircleBundle(-1, euler))


class TestDefect:
    def test_hopf_framing(self):
        assert fiber_framing_defect(CircleBundle(0, 1)) == 2

    def test_rotation_group(self):
        assert fiber_framing_defect(CircleBundle(0, 2)) == 1

    def test_reversed_hopf(self):
        assert fiber_framing_defect(CircleBundle(0, -1)) == -2

    def test_three_torus(self):
        assert fiber_framing_defect(CircleBundle(1, 0)) == 0

    def test_no_framing(self):
        with pytest.raises(NoFiberFraming):
            fiber_framing_defect(CircleBundle(0, 3))
        for genus in (0, 2):
            with pytest.raises(NoFiberFraming):
                fiber_framing_defect(CircleBundle(genus, 0))

    @pytest.mark.parametrize("bundle", VALID, ids=str)
    def test_conjugation(self, bundle):
        mirrored = CircleBundle(bundle.genus, -bundle.euler)
        if bundle.euler == 0:
            assert fiber_framing_defect(bundle) == 0
        else:
            assert fiber_framing_defect(mirrored) == -fiber_framing_defect(bundle)

    @pytest.mark.parametrize("m", [1, 2])
    def test_agrees_with_the_cyclic_quotients(self, m):
        # Degree-m circle bundles over the sphere are the first two lens
        # spaces; the fiber framing defect matches the quotient framing.
        assert fiber_framing_defect(CircleBundle(0, m)) == quotient_framing_defect(cyclic(m)).h


class TestDiskBundleP1:
    def test_hopf_disk_bundle(self):
        assert disk_bundle_p1(CircleBundle(0, 1)) == 5

    @pytest.mark.parametrize("n", [-5, -1, 1, 2, 7])
    def test_torus_base_collapses_to_n(self, n):
        assert disk_bundle_p1(CircleBundle(1, n)) == n

    def test_euler_two_over_the_sphere(self):
        assert disk_bundle_p1(CircleBundle(0, 2)) == 4

    def test_zero_euler_is_rejected(self):
        with pytest.raises(ZeroEuler):
            disk_bundle_p1(CircleBundle(1, 0))

    def test_no_framing_is_rejected(self):
        with pytest.raises(NoFiberFraming):
            disk_bundle_p1(CircleBundle(0, 3))

    @pytest.mark.parametrize("bundle", [b for b in VALID if b.euler], ids=str)
    def test_defect_is_p1_minus_three_signs(self, bundle):
        sign = 1 if bundle.euler > 0 else -1
        assert fiber_framing_defect(bundle) == disk_bundle_p1(bundle) - 3 * sign
