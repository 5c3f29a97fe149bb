"""Host-speed probe, to scale measured times to a reference host speed.

A virtual machine that shares its host can change speed by up to 1.7x for
seconds to minutes at a time: on a 2-vCPU Xeon VM, raw median pass times
of runs made minutes apart spread by 25-37% (interquartile range over
median). A fixed loop of small-array numpy calls, timed next to each
measured interval in the same process, tracks that speed; the interval is
multiplied by ``REFERENCE_PROBE_S`` over the probe's time. On the same VM
this brought the spread down to 5-12%.
"""

import statistics
import time

import numpy as np

# What the probe takes on a 2-vCPU Xeon VM at its usual speed.
REFERENCE_PROBE_S = 0.015
_PROBE_DATA = np.random.default_rng(0).standard_normal((16, 4, 4))


def probe():
    """Seconds for a fixed loop of small-array numpy calls, the kind of
    work ymgap's passes are made of. It runs no ymgap code. The loop runs
    once untimed, so caches left cold by a finished subprocess do not
    count, then three times; the median is returned."""
    a = _PROBE_DATA
    times = []
    for _ in range(4):
        t0 = time.perf_counter()
        for i in range(1500):
            b = a[i % 8] @ a[8 + i % 8]
            float(np.einsum('ij,ji->', b, a[3]))
            np.linalg.norm(b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


class SpeedScale:
    """Probes before and after each interval of a sequence; the interval is
    scaled by ``REFERENCE_PROBE_S`` over the mean of its two probes."""

    def __init__(self):
        self.probes = [probe()]

    def factor(self):
        """The scale factor of the interval that has just ended; the next
        interval starts now."""
        self.probes.append(probe())
        return REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)
