"""Circle bundles over closed oriented surfaces.

An oriented circle bundle of Euler class n over a genus-g surface admits
framings extending the fiber tangent field exactly when n divides the
Euler characteristic chi = 2 - 2g of the base.  Such a framing has
Hirzebruch defect n + chi^2/n - 3 sign(n), the relative p1 of the
associated disk bundle minus three times its signature.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import _require_int


class CircleBundle(namedtuple("CircleBundle", "genus euler")):
    __slots__ = ()

    @property
    def chi(self) -> int:
        """Euler characteristic of the base surface."""
        return 2 - 2 * self.genus


class FiberFraming(namedtuple("FiberFraming", "p1 h")):
    """The fiber-preserving framing of a circle bundle: the relative p1 of
    the disk bundle (None for Euler class 0) and the Hirzebruch defect h."""

    __slots__ = ()


def fiber_framing(bundle: CircleBundle) -> FiberFraming | None:
    """The fiber-preserving framing, or None when the Euler class does not
    divide chi of the base (0 divides only 0).  A non-int genus or Euler
    class raises TypeError, a negative genus ValueError.

    For nonzero Euler class n, p1 = (1 + chi/n)^2 n - 2 chi, and h is p1
    minus three times the disk bundle's signature sign(n).  The
    Euler-class-0 bundle over the torus is the 3-torus, whose fiber framing
    bounds in a punctured elliptic surface with -2 chi - 3 sigma = 0; we
    return h = 0 directly.
    """
    _require_int("genus", bundle.genus)
    _require_int("Euler class", bundle.euler)
    if bundle.genus < 0:
        raise ValueError("genus must be nonnegative")
    n, chi = bundle.euler, bundle.chi
    if n == 0:
        return FiberFraming(None, 0) if chi == 0 else None
    if chi % n:
        return None
    p1 = (1 + chi // n) ** 2 * n - 2 * chi
    return FiberFraming(p1, p1 - 3 * (1 if n > 0 else -1))
