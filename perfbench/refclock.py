"""Reference time: wall time corrected for how fast the host runs right now.

On a shared host the CPU speed available to one process drifts by 20% and
more over seconds to minutes, which no run length averages away.  The
harness therefore runs a fixed pure-Python loop, which calls no
``spectral_pair`` code, between ops (at most every ``PROBE_EVERY_S``) and
reports each duration divided by the host's slowness over the same stretch:
mean loop time / ``REF_LOOP_S``.  Throughput uses the slowness over the
whole run; an op's latency uses the samples taken within ``NEAR_S`` of it.
Times are in reference seconds, the time the work would take on a host that
runs the loop in exactly ``REF_LOOP_S``.
Means are used, not medians: the loop samples the host's speed at regular
wall-clock intervals, so its mean weights speed states by time, as the ops
experience them.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_LOOP_S = 0.5e-3
PROBE_EVERY_S = 0.02
# an op's latency is scaled by the samples this close to it; phases of the
# host's speed last from tens of ms up, so the window is short
NEAR_S = 0.1

_A = tuple(complex(0.1 * k, 0.2 - 0.05 * k) for k in range(9))


def reference_loop() -> tuple:
    """A chain of 3x3 complex products on tuples, about 0.5 ms here."""
    m = _A
    for _ in range(80):
        m = tuple(m[3 * i] * _A[j] + m[3 * i + 1] * _A[3 + j]
                  + m[3 * i + 2] * _A[6 + j]
                  for i in range(3) for j in range(3))
        m = tuple(0.5 * z for z in m)
    return m


class SpeedProbe:
    """Samples of the reference loop over one measured stretch: start times
    and durations, in time order."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._next = end + PROBE_EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def slowness(self) -> float:
        """Mean loop time over ``REF_LOOP_S``: >1 when the host is slower
        than the reference."""
        return statistics.mean(self.durations) / REF_LOOP_S

    def slowness_near(self, t0: float, t1: float) -> float:
        """Slowness from the samples within ``NEAR_S`` of [t0, t1], or the
        nearest sample when there is none."""
        lo = bisect.bisect_left(self.starts, t0 - NEAR_S)
        hi = bisect.bisect_right(self.starts, t1 + NEAR_S)
        if hi <= lo:
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return statistics.mean(self.durations[lo:hi]) / REF_LOOP_S
