"""Circle bundles over closed oriented surfaces.

An oriented circle bundle of Euler class n over a genus-g surface admits
framings extending the fiber tangent field exactly when n divides the
Euler characteristic chi = 2 - 2g of the base.  Such a framing has
Hirzebruch defect n + chi^2/n - 3 sign(n), the relative p1 of the
associated disk bundle minus three times its signature.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NoFiberFraming, ZeroEuler


class CircleBundle(NamedTuple):
    genus: int
    euler: int

    @property
    def chi(self) -> int:
        """Euler characteristic of the base surface."""
        return 2 - 2 * self.genus


def _validate(bundle: CircleBundle) -> None:
    if bundle.genus < 0:
        raise ValueError("genus must be nonnegative")


def fiber_framing_exists(bundle: CircleBundle) -> bool:
    """True when the Euler class divides chi of the base (0 divides 0)."""
    _validate(bundle)
    if bundle.euler == 0:
        return bundle.chi == 0
    return bundle.chi % bundle.euler == 0


def disk_bundle_p1(bundle: CircleBundle) -> int:
    """Relative p1 of the associated disk bundle with respect to the
    fiber-preserving framing: (1 + chi/n)^2 n - 2 chi."""
    _validate(bundle)
    if bundle.euler == 0:
        raise ZeroEuler("p1 of the disk bundle needs a nonzero Euler class")
    if not fiber_framing_exists(bundle):
        raise NoFiberFraming(
            f"euler class {bundle.euler} does not divide chi = {bundle.chi}")
    n, chi = bundle.euler, bundle.chi
    ratio = chi // n
    return (1 + ratio) ** 2 * n - 2 * chi


def fiber_framing_defect(bundle: CircleBundle) -> int:
    """Hirzebruch defect of the fiber-preserving framing.

    For nonzero Euler class this is p1 of the disk bundle minus three
    times its signature sign(n).  The Euler-class-0 bundle over the torus
    is the 3-torus, whose fiber framing bounds in a punctured elliptic
    surface with -2 chi - 3 sigma = 0; we return that value directly.
    """
    if bundle.euler:
        sign = 1 if bundle.euler > 0 else -1
        return disk_bundle_p1(bundle) - 3 * sign
    if not fiber_framing_exists(bundle):
        raise NoFiberFraming(f"euler class 0 does not divide chi = {bundle.chi}")
    return 0
