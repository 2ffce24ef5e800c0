"""Wall times rescaled to a reference host speed.

The shared host's speed swings by up to 1.8x within seconds, and a short
pure-Python loop slows down with the checker and with process start-up.  A
Probe times that loop three times before a block, every PROBE_INTERVAL_S
during it (from a timer signal) and three times after it.  The block's time
net of the probing, multiplied by ``speed``, reads as seconds on a host
where the loop takes REFERENCE_S, about its time on an idle host.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0002
PROBE_INTERVAL_S = 0.01


def _calibration_loop() -> float:
    t0 = time.perf_counter()
    d = {}
    for i in range(2000):
        d[i & 255] = (i, i * 3 % 7)
    return time.perf_counter() - t0


class Probe:
    """Context manager; after the block, ``net_s`` is its wall time less the
    probing, ``probing_s`` the probing done up to its end, and ``speed``
    REFERENCE_S over the median loop time (below 1 while the host is slow)."""

    def __enter__(self) -> "Probe":
        self.start = time.perf_counter()
        self.samples = [_calibration_loop() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append(_calibration_loop())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probing_s = sum(self.samples)
        self.net_s = time.perf_counter() - self.start - self.probing_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [_calibration_loop() for _ in range(3)]
        self.speed = REFERENCE_S / statistics.median(self.samples)
