"""CPU-speed probe: scales a timed stretch to a fixed reference speed.

On a shared virtual machine the speed of a vCPU drifts by tens of
percent within seconds, so the wall time of a fixed piece of work
swings with the host's load.  The probe runs a fixed pure-Python loop
at regular intervals of the timed stretch, from a ``SIGALRM`` handler in
the timed thread itself (no extra thread or process), and weights each
interval between two samples by how fast the loop ran at its ends::

    scaled_s = sum(dt_i * PROBE_REF_S * (1/s_{i-1} + 1/s_i) / 2)

``s_i`` is the loop time of sample ``i`` and ``dt_i`` the wall time
between two samples, the samples themselves excluded.  The result is the
stretch's time on a CPU on which the loop takes ``PROBE_REF_S``.  A
sample that was itself interrupted reads slow and only shrinks its
interval's weight, so the estimate is robust to such outliers.
"""

from __future__ import annotations

import signal
import time

#: Loop time that defines the reference speed; about the median on the
#: 2-vCPU Xeon VM the baseline was measured on.
PROBE_REF_S = 0.75e-3

#: Seconds between two samples.
INTERVAL_S = 0.05

LOOP_N = 8000


def loop_s() -> float:
    """Wall time of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - t0


class Probe:
    """Times a stretch in wall seconds and in reference seconds.

    Use as ``with Probe() as p: ...``; afterwards ``p.wall_s`` excludes
    the samples, ``p.scaled_s`` is the reference-speed time and
    ``p.samples`` the loop times.
    """

    def __init__(self, start: float | None = None):
        # ``start``: a perf_counter reading before entry; the interval up to
        # the first sample is then weighted by the first sample alone.
        self._start = start
        self.samples: list[float] = []
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def _sample(self) -> None:
        t = time.perf_counter()
        s = loop_s()
        if self.samples:
            dt = t - self._last
            self.wall_s += dt
            self.scaled_s += dt * PROBE_REF_S * (1.0 / self.samples[-1] + 1.0 / s) / 2.0
        elif self._start is not None:
            dt = t - self._start
            self.wall_s += dt
            self.scaled_s += dt * PROBE_REF_S / s
        self.samples.append(s)
        self._last = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        # one-shot and re-armed here, so a handler never runs inside another
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Probe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
