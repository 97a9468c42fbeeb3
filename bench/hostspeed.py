"""The host's current speed, measured with a fixed calibration loop.

On the shared 2-core host the benchmark was tuned on, the processor
switches between a fast and a slow state that last from seconds to
minutes, the slow one about 40% slower; CPU time slows with wall time,
so it is no way out.  A run of the benchmark can fall wholly into either
state, so raw wall times of the same code differ by up to 40% from run
to run.

The benchmark therefore times this loop right before and after each op
and reports every end-to-end time at the reference speed: measured
seconds x ``REFERENCE_S`` / calibration seconds.  The loop is pure
Python and touches nothing of the program, so it warms no cache the
program uses, and a change to the program moves the program's time, not
the loop's.  Both raw and scaled times go into the run record.
"""

from __future__ import annotations

import time

#: calibration loop length
ITERATIONS = 300_000

#: seconds the loop takes in the fast state of the 2-core host the
#: benchmark was tuned on (Python 3, about 19 ms); scaled times read as
#: seconds on that host in that state
REFERENCE_S = 0.019


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc += i * i
    seconds = time.perf_counter() - t0
    if acc <= 0:        # keeps the loop's result in use
        raise AssertionError("calibration loop computed nothing")
    return seconds


def scale(seconds: float, host_s: float) -> float:
    """``seconds`` measured while the loop took ``host_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / host_s
