"""Host-speed reference: a fixed mix of interpreter and small-numpy work.

On a shared machine the same code runs up to twice as slow when the
neighbours are busy, over stretches of seconds to minutes. The harness
times this fixed loop right before and right after each measured
repetition (and each set-up probe) and scales the measurement by
``REFERENCE_S / loop time``. The result reads as seconds on a host that
runs the loop in REFERENCE_S. The loop is harness code, so a change to
the program does not change it.
"""

import time

import numpy as np

#: A fixed scale, near the loop's time on the 2-core x86-64 container
#: (Python 3.11, numpy 2.4) the benchmark was written on. Both sides of a
#: comparison use the same value.
REFERENCE_S = 0.060


def loop_time():
    """Seconds taken by the fixed loop, measured now."""
    start = time.perf_counter()
    matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    total = 0.0
    text = []
    for i in range(12000):
        vector = np.array([float(i), 1.0])
        total += float((matrix @ vector)[0]) * 1e-9
        text.append(f"{total:.9g}")
    squares = 0
    for i in range(200000):
        squares += i * i
    return time.perf_counter() - start


def around(measure):
    """Run `measure()` between two loop timings; returns its result and
    the mean loop time."""
    before = loop_time()
    result = measure()
    return result, 0.5 * (before + loop_time())
