"""The benchmark's gauge of host speed.

The CPU speed a shared host gives one process drifts by up to 2x over
seconds to minutes, which swamps a 25 % regression bound.  ``reference()``
is a fixed piece of pure-Python work; timed next to a command, it tells how
fast the host ran at that moment, and ``normalised`` scales the command's
time to the speed at which ``reference()`` takes ``REF_NOMINAL_S``.

The module imports only ``math`` and ``time`` so the set-up subprocess can
time the reference after its own imports without loading anything
``gpurental`` would.
"""

from __future__ import annotations

import math
from time import perf_counter

# Median time of reference() on the host the baselines in README.md come
# from (2 vCPUs of a shared x86-64 VM, Python 3.11).
REF_NOMINAL_S = 2.0e-3


def reference() -> None:
    """A float loop with math calls, then 12-digit number formatting: the
    two kinds of work the CLI's time goes to."""
    x = 0.0
    for i in range(1, 4000):
        x += math.sqrt(i) / (1.0 + x * 1e-6)
    ",".join(format(i * 1.000001, ".12g") for i in range(1500))


def reference_time(samples: int) -> float:
    """Median seconds of ``samples`` back-to-back reference() calls."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else 0.5 * (times[mid - 1] + times[mid])


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` scaled to the host speed at which reference() takes
    REF_NOMINAL_S, judged from the reference times on either side."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
