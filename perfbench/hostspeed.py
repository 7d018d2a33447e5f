"""Host speed probe: a fixed computation timed around every unit of work.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by a third and more over seconds to minutes
(no steal time is reported: the same instructions simply take longer).
A run therefore times :func:`reference`, a fixed mix of the kinds of work
the program does (interpreted loops over dicts and ints, ``Fraction``
arithmetic, small numpy arrays), before its first unit of work and after
each unit.  A unit's times are multiplied by its factor, ``NOMINAL_S``
over the mean of the probes on either side of it (rates are divided by
it): they are reported as they would read on a host where the probe takes
``NOMINAL_S``.  The probe runs none of the program's code and collects no
garbage, so a change to the program moves the scaled figures exactly as it
moves the raw ones.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

# The probe's duration on the reference host; a fixed constant, so scaled
# times of two commits compare directly.
NOMINAL_S = 0.028


def reference() -> float:
    """The fixed computation; returns a checksum so no part is skipped."""
    table: dict[int, int] = {}
    total = 0
    for i in range(40_000):
        table[i % 512] = table.get(i % 512, 0) + i
        total += len(str(i))
    acc = Fraction(0)
    for i in range(1, 2000):
        acc += Fraction(i % 7 + 1, i % 50 + 3)
    values = np.arange(64.0)
    for _ in range(1600):
        values = np.minimum(values * 1.001, 50.0)
        total += int(values.argmax())
    return total + float(acc)


def probe() -> float:
    """Seconds the reference computation takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale for times measured between probes of *before* and *after* seconds."""
    return 2 * NOMINAL_S / (before + after)
