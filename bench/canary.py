"""A fixed CPU kernel, timed next to every measurement, that calibrates for machine speed.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes (work on the sibling hyperthread, clock frequency), and
the drift moves a whole run. The kernel mixes what the package spends its time
on: interpreter-bound scalar math and short numpy vector operations. It uses
nothing from the package, so no change to the package can move it.

`slowness()` is the kernel's CPU time over REFERENCE_S: 1.0 at the reference
speed, 1.3 on a core running 30 % slower. A rate times the slowness, or a
duration divided by it, is expressed in seconds of the reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median kernel CPU time on the machine the benchmark was defined on: a 2-vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6. Changing it rescales every
# calibrated metric, so it is fixed.
REFERENCE_S = 0.0070


def kernel_seconds() -> float:
    start = time.process_time()
    acc = 0.0
    for i in range(40_000):
        acc += math.cos(i * 1e-3)
    a = np.arange(4096.0)
    for _ in range(100):
        a = np.sqrt(a * a + 1.0)
    return time.process_time() - start


def slowness() -> float:
    return kernel_seconds() / REFERENCE_S
