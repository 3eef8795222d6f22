"""Host-speed reference: a fixed kernel timed between the program's calls.

On a shared host the same work can run up to twice as slow for seconds
to minutes at a time, and CPU time moves with wall time, so no run is
long enough to average the swings away. The benchmark therefore times
this kernel, which never changes and shares no code with epimarket, in
the same interpreter before and after each timed call, and reports
timings in reference seconds: raw seconds times NOMINAL_S over the
kernel's time around them (see ``HostClock``). A program change moves
the timings as before; a host that runs everything slower for a while
moves the kernel too and leaves them nearly where they were.

The kernel mixes what the program spends its time on, in the same idiom:
a pure-Python RK4 loop over tuples of floats with a call per stage, rows
stored into a numpy array, and ``repr`` of each stored value joined into
CSV text. It writes no file.
"""
from __future__ import annotations

import math
import time

import numpy as np

STEPS = 6000
# about the kernel's time on the machine behind baseline.json (2-vCPU Xeon
# VM, Python 3.11.7) while its host is quiet; a scale only, fixed for good
NOMINAL_S = 0.06
SAMPLE_EVERY_S = 1.0
MIN_CALL_S = 0.05


def kernel() -> int:
    """RK4 of an SIR system, stored row by row and formatted as CSV text."""
    beta, gamma, h = 5e-4, 0.1, 0.05

    def field(t, y):
        s, i, _r = y
        flow = beta * s * i
        return (-flow, flow - gamma * i, gamma * i)

    y = (999.0, 1.0, 0.0)
    out = np.empty((STEPS + 1, 3))
    out[0] = y
    for k in range(STEPS):
        t = k * h
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = field(t + 0.5 * h, tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = field(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6.0 * (b + 2.0 * (c + d) + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        out[k + 1] = y
    cols = (out[:, 0], out[:, 1], out[:, 2], out[:, 0] + out[:, 1])
    lines = [",".join(repr(float(c[k])) for c in cols) for k in range(STEPS + 1)]
    return len("\n".join(lines))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Kernel samples around the timed calls of one pass, and their factor.

    The kernel runs before the first timed call and after each one,
    outside its timer, about once per SAMPLE_EVERY_S of timed work: one
    90 ms sample jitters by 15% or so, and more of them average that out.
    The mean of the samples taken at a boundary is the kernel's time there.
    """

    def __init__(self):
        self.calls: list[float] = []
        self.marks = [self._sample(2)]  # kernel time at each call boundary

    @staticmethod
    def _sample(n: int) -> float:
        return sum(kernel_seconds() for _ in range(n)) / n

    def lap(self, raw_s: float) -> float:
        """Record a call that just took raw_s seconds, then sample.

        Returns the call's reference seconds, scaled by the boundaries on
        either side of it alone: the host's speed swings within seconds,
        and a single call's nearest samples follow it best. A call shorter
        than MIN_CALL_S takes no sample; its boundary keeps the last one.
        """
        n = math.ceil(raw_s / SAMPLE_EVERY_S) if raw_s >= MIN_CALL_S else 0
        self.calls.append(raw_s)
        self.marks.append(self._sample(n) if n else self.marks[-1])
        return raw_s * NOMINAL_S / (0.5 * (self.marks[-2] + self.marks[-1]))

    def factor(self) -> float:
        """Multiplier from this pass's raw seconds to reference seconds.

        NOMINAL_S over the kernel's time averaged across the pass: each
        call contributes the mean of the boundaries on either side of it,
        weighted by its duration, so a long call counts for as much of the
        pass as it took. Over a whole pass this is steadier than summing
        the calls' own scalings.
        """
        kernel = sum(raw * 0.5 * (before + after) for raw, before, after
                     in zip(self.calls, self.marks, self.marks[1:]))
        return NOMINAL_S * sum(self.calls) / kernel
