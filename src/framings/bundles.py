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


class FiberFraming(NamedTuple):
    """The fiber-preserving framing of a circle bundle: the relative p1 of
    the disk bundle (None for Euler class 0) and the Hirzebruch defect h."""

    p1: int | None
    h: int


def fiber_framing(bundle: CircleBundle) -> FiberFraming | None:
    """The fiber-preserving framing, or None when the bundle has none; the
    genus and the divisibility are each checked once.

    For nonzero Euler class n, p1 = (1 + chi/n)^2 n - 2 chi, and h is p1
    minus three times the disk bundle's signature sign(n).  The
    Euler-class-0 bundle over the torus is the 3-torus, whose fiber framing
    bounds in a punctured elliptic surface with -2 chi - 3 sigma = 0; we
    return h = 0 directly.
    """
    if not fiber_framing_exists(bundle):
        return None
    n, chi = bundle.euler, bundle.chi
    if n == 0:
        return FiberFraming(None, 0)
    p1 = (1 + chi // n) ** 2 * n - 2 * chi
    return FiberFraming(p1, p1 - 3 * (1 if n > 0 else -1))


def _require(bundle: CircleBundle) -> FiberFraming:
    framing = fiber_framing(bundle)
    if framing is None:
        raise NoFiberFraming(f"euler class {bundle.euler} does not divide chi = {bundle.chi}")
    return framing


def disk_bundle_p1(bundle: CircleBundle) -> int:
    """Relative p1 of the associated disk bundle with respect to the
    fiber-preserving framing."""
    if bundle.euler == 0:
        _validate(bundle)
        raise ZeroEuler("p1 of the disk bundle needs a nonzero Euler class")
    return _require(bundle).p1


def fiber_framing_defect(bundle: CircleBundle) -> int:
    """Hirzebruch defect h of the fiber-preserving framing (see fiber_framing)."""
    return _require(bundle).h
