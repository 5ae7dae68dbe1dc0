"""Reference pulse detector and reference settled trains.

Test-only code; nothing under ``src/`` imports it.

* :func:`bisection_pulses` -- the differential test in ``test_pulses.py``
  compares :func:`yamada_delay.detect_pulses`, which solves the
  trajectory's own cubic Hermite pieces for the crossings, against this
  function, which samples the run at spacing ``dt`` and bisects each
  bracketed upward crossing on the dense output to 1e-3 time accuracy.
* :func:`settle_train` and :func:`extract_orbit` -- the simulated path
  to a pulse-train orbit that the periodic collocation solve replaced:
  a 34-delay settling run (for ``k >= 2`` after a loop of trial runs at
  the reappearance delay ``tau0``), then the mean of the trailing pulse
  intervals polished by :func:`yamada_delay.pulses.refine_period`.  The
  differential tests in ``test_periodic.py`` compare the collocated
  periods against it.
"""

from __future__ import annotations

import numpy as np

from yamada_delay.errors import InvalidArgumentError, NoBranchError
from yamada_delay.floquet import PeriodicOrbit
from yamada_delay.integrator import HistorySpec, StepControl, Trajectory, integrate
from yamada_delay.model import ModelParams
from yamada_delay.pulses import (
    PERIOD_INTERVALS,
    REFRACTORY,
    measure_train,
    refine_period,
    single_pulse_seed,
)

#: Largest periodicity residual of an extracted orbit.
RESIDUAL_TOL = 1e-5


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


def settle_train(
    params: ModelParams,
    k: int = 1,
    periods: float = 34.0,
    control: StepControl | None = None,
    drift_estimate: float = 3.0,
) -> Trajectory:
    """Integrate to a settled train with ``k`` pulses per delay interval.

    For ``k = 1`` the delay line is seeded with one solitary pulse
    (:func:`single_pulse_seed`) and the run covers ``periods`` delay
    intervals, which is ample for the train to lock at the working
    point.

    For ``k >= 2`` the train is grown by reappearance: a one-pulse
    train at the shorter delay ``tau0`` satisfying ``tau0 + (k-1) * T0
    = tau`` is re-read as the history at the full delay, interleaving
    ``k`` equally spaced copies of the pulse.  The inter-pulse phases
    are nearly neutral — well-separated pulses interact exponentially
    weakly — so uneven seed spacing would persist for the whole run;
    ``tau0`` is therefore pinned by measuring the trial period and
    correcting until the reappearance identity holds to 1e-6.

    Parameters
    ----------
    params : ModelParams
        Requires ``tau > 0`` and feedback strong enough to sustain a
        train (otherwise :class:`NoBranchError`).
    k : int, optional
        Pulses per delay interval.
    periods : float, optional
        Run length in units of the delay.
    drift_estimate : float, optional
        Starting guess for the regeneration lag ``delta``; only the
        seeding accuracy of the first trial depends on it.

    Returns
    -------
    Trajectory
        The full run at ``params``; pass it to the orbit-extraction and
        monodromy routines, or measure it directly.
    """
    if params.tau <= 0.0:
        raise InvalidArgumentError("a pulse train needs tau > 0")
    if k < 1:
        raise InvalidArgumentError("k must be a positive integer")
    if k == 1:
        horizon = periods * (params.tau + drift_estimate)
        return integrate(params, single_pulse_seed(params, control=control), horizon, control)

    tau0 = (params.tau - (k - 1) * drift_estimate) / k
    if tau0 <= 0.0:
        raise InvalidArgumentError(f"delay too short to hold {k} pulses")
    traj0 = None
    T0 = 0.0
    for _ in range(3):
        p0 = params.replace(tau=tau0)
        horizon0 = periods * (tau0 + drift_estimate)
        traj0 = integrate(p0, single_pulse_seed(p0, control=control), horizon0, control)
        train = measure_train(traj0, tau0, last=PERIOD_INTERVALS)
        if len(train.train_times) <= PERIOD_INTERVALS:
            raise NoBranchError("too few pulses to measure a period")
        T0 = refine_period(traj0, train.period)
        miss = tau0 + (k - 1) * T0 - params.tau
        if abs(miss) < 1e-6:
            break
        tau0 -= miss / k
    horizon = periods * k * T0
    return integrate(params, HistorySpec.from_tail(traj0, params.tau), horizon, control)


def extract_orbit(trajectory: Trajectory) -> PeriodicOrbit:
    """Extract the settled periodic orbit from the tail of a long run.

    The period is the mean of the last ``PERIOD_INTERVALS`` inter-pulse
    intervals, polished by :func:`refine_period`; the periodicity
    residual ``max |x(t) - x(t - T)|`` over the final period, relative
    to the per-component amplitude, must be below ``RESIDUAL_TOL``.

    Raises
    ------
    InvalidArgumentError
        If too few pulses are present, the trajectory is shorter than
        two periods plus margin, or the residual shows the transient
        has not settled.
    """
    params = trajectory.params
    if params.tau <= 0.0:
        raise InvalidArgumentError("orbit extraction requires tau > 0")
    train = measure_train(trajectory, params.tau, last=PERIOD_INTERVALS)
    if len(train.train_times) <= PERIOD_INTERVALS:
        raise InvalidArgumentError(
            f"need at least {PERIOD_INTERVALS + 1} pulses, found {len(train.pulse_times)}"
        )
    if train.k < 1:
        raise InvalidArgumentError("pulse spacing exceeds the delay (k < 1)")

    anchor = trajectory.t1
    period = refine_period(trajectory, train.period)
    probe = np.linspace(anchor - period, anchor, 257)
    a = trajectory.evaluate_many(probe)
    b = trajectory.evaluate_many(probe - period)
    amp = a.max(axis=0) - a.min(axis=0)
    amp[amp <= 0.0] = 1.0
    residual = float((np.abs(a - b) / amp).max())
    if residual > RESIDUAL_TOL:
        raise InvalidArgumentError(
            f"periodicity residual {residual:.2e} above {RESIDUAL_TOL:.0e}; "
            "transient not settled"
        )
    return PeriodicOrbit(trajectory, period, train.k, params, anchor, residual)
