"""A fixed reference computation that measures how fast the machine runs now.

On a shared virtual machine the same code runs at speeds that differ by up
to half from one half-minute to the next, with no steal time to show it.
The worker runs ``chunk()`` between operations; an operation's time times
REFERENCE_S over the chunk times around it is its time at the reference
speed.  Over 500 alternations of a chunk and a fixed set of pg-uac calls,
the two times correlated at 0.84, and half-minute medians that spread by
0.30 (interquartile range over median) spread by 0.02 once scaled.

The chunk mixes what splicegenus spends its time on (small Fraction
arithmetic, big-integer shifts and masks, dict updates, list rotation) and
must not change, or every scaled time changes with it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Median chunk time on the 2-vCPU Intel Xeon (2.1 GHz) virtual machine the
# bounds in BENCHMARK.json were set on; it only fixes the unit.
REFERENCE_S = 0.025


def chunk():
    """Run the reference computation once; return its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()          # keep the program's heap out of the measurement
    t0 = time.perf_counter()
    try:
        acc = Fraction(0)
        for i in range(1, 3000):
            acc += Fraction(i % 97 - 48, i % 13 + 1) * Fraction(3, i % 7 + 2)
        x = 1
        mask = (1 << 20000) - 1
        for i in range(600):
            x = ((x << 37) ^ (x * 3 + i)) & mask
        d = {}
        for i in range(60000):
            k = (i * 7919) % 10007
            d[k] = d.get(k, 0) + i
        rows = [[j * i % 11 for j in range(60)] for i in range(120)]
        for _ in range(5):
            rows = [r[-5:] + r[:-5] for r in rows]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
