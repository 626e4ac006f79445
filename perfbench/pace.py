"""The machine's pace, measured alongside the program.

Other tenants of the sandbox slow it by 30–45% for minutes at a time,
and every timing of the benchmark moves with them.  :func:`pace_sample`
times a fixed piece of pure-Python work that belongs to the benchmark.
The runner samples it all through a run and scales every timing by
``(REFERENCE_PACE / median pace) ** PACE_EXPONENT``.  A run in a slow
stretch then reads close to a run in a fast one.  Nothing here calls into ``repro``, so a
change to the program can never change the pace.
"""

from __future__ import annotations

import time

#: CPU seconds of one pace sample on a quiet 2-core x86-64 sandbox
#: (CPython 3.11); timings are reported as if every sample took this long
REFERENCE_PACE = 0.001

#: the program slows less than this tight loop does: between a fast and
#: a slow stretch, log program time over log pace had slopes from 0.4
#: (round trips) through 0.7 (hops) to 0.85 (native decode), so the
#: scale is the pace ratio to this power
PACE_EXPONENT = 0.7


def pace_sample() -> float:
    """CPU seconds of one fixed batch of dict, list and integer work."""
    t0 = time.process_time()
    counts = {}
    odd = []
    for i in range(6000):
        value = (3 * i + 7) & 0xFFFF
        counts[value & 255] = counts.get(value & 255, 0) + 1
        if value & 1:
            odd.append(value)
    return time.process_time() - t0
