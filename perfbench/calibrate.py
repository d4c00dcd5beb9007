"""CPU-speed calibration for a shared machine.

On a machine shared with other tenants the speed of one core drifts by
a quarter or more over seconds. A fixed pure-Python kernel, mixing the
integer loops, `Fraction` arithmetic and JSON rendering the workloads
spend their time in, is timed between operations; each measured time is
then scaled by REFERENCE_MS / (kernel time nearby), which reports it as
it would read on a core where the kernel takes REFERENCE_MS. The scaling
changes nothing the code under test does, so a slower or faster commit
moves the scaled numbers by the same share as the raw ones.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the 2-vCPU machine the bounds were set on
# (Python 3.11); only the unit of the scaled numbers depends on it.
REFERENCE_MS = 2.0


def kernel() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    f = Fraction(0)
    for k in range(1, 200):
        f += Fraction(k, k + 1)
    json.dumps({str(i): [i, 2 * i] for i in range(200)}, sort_keys=True, indent=2)
    return s + f.numerator % 2


def kernel_ms() -> float:
    t = perf_counter()
    kernel()
    return (perf_counter() - t) * 1e3


def scale(nearby_ms: list[float]) -> float:
    """Factor turning a time measured next to these kernel times into
    reference time."""
    return REFERENCE_MS / statistics.median(nearby_ms)
