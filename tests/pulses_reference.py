"""Reference pulse detector: sampled scan plus bisection.

Test-only code: the differential test in ``test_pulses.py`` compares
:func:`yamada_delay.detect_pulses`, which solves the trajectory's own
cubic Hermite pieces for the crossings, against this function, which
samples the run at spacing ``dt`` and bisects each bracketed upward
crossing on the dense output to 1e-3 time accuracy.  Nothing under
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from yamada_delay.pulses import REFRACTORY


def bisection_pulses(trajectory, threshold: float, refractory: float = REFRACTORY,
                     dt: float = 0.1) -> np.ndarray:
    """Upward crossings of ``threshold``, bisected to 1e-3, merged within ``refractory``."""
    ts, ys = trajectory.sample(dt)
    s = ys[:, 2] - threshold
    up = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
    times = []
    for i in up:
        lo, hi = ts[i], ts[i + 1]
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if trajectory.evaluate(mid)[2] - threshold >= 0.0:
                hi = mid
            else:
                lo = mid
        t_cross = 0.5 * (lo + hi)
        if not times or t_cross - times[-1] >= refractory:
            times.append(t_cross)
    return np.array(times)
