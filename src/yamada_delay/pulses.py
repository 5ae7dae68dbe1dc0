"""Pulse-train experiments: detection, classification, sweeps, orbits.

The experiments work on simulated trajectories.  A pulse is an upward
crossing of the intensity through a threshold; a sustained train is a
sequence of pulses whose spacing and height have stabilized.  The
experiments mirror the standard protocol for a laser with delayed
feedback: kick the solitary laser once, let the single excitable pulse
fill the delay line, then switch the feedback on and watch whether the
re-injected pulse keeps regenerating itself.  :func:`settle_train` runs
that protocol only for a few delays, as the guess of the periodic
collocation solve in :mod:`yamada_delay.periodic`, which returns the
train as an exactly periodic orbit.

Measured quantities follow the pulse-train bookkeeping ``T = (tau +
delta) / k``: ``T`` is the inter-pulse interval, ``k`` the number of
pulses per delay interval, and ``delta > 0`` the regeneration lag of the
feedback loop.  Every experiment reads its runs through
:func:`measure_train` and keeps only its own acceptance rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NoBranchError
from .integrator import HistorySpec, StepControl, Trajectory, integrate
from .model import ModelParams
from .periodic import PeriodicOrbit, solve_periodic

__all__ = [
    "DECAY",
    "SINGLE_PULSE",
    "SUSTAINED_TRAIN",
    "CW_LIKE",
    "PulseTrainStats",
    "TrainMeasurement",
    "BranchSample",
    "detect_pulses",
    "measure_train",
    "single_pulse_seed",
    "classify_response",
    "reappearance_shift",
    "refine_period",
    "settle_train",
    "sweep_tau",
    "fold_estimate",
    "scan_kappa_min",
]

DECAY = "decay"
SINGLE_PULSE = "single-pulse"
SUSTAINED_TRAIN = "sustained-train"
CW_LIKE = "cw-like"

#: Minimum spacing between reported pulses; below the shortest
#: inter-pulse interval seen anywhere near the working point.
REFRACTORY = 5.0
#: Detection threshold as a fraction of the run's peak intensity, which
#: is sampled at SAMPLE_DT.  The floor only matters for runs that stay at
#: the off state; it keeps roundoff wiggles from registering as pulses.
THRESHOLD_FRAC = 0.3
SAMPLE_DT = 0.1
MIN_THRESHOLD = 1e-12
#: Largest interval coefficient of variation that still counts as a train.
INTERVAL_CV_TOL = 0.01
#: Trailing intervals averaged into a settled train's period estimate.
PERIOD_INTERVALS = 8
#: Length in delays of the simulated guess of :func:`settle_train`.
GUESS_DELAYS = 4.0
#: Leading share of a run left out of the train statistics by
#: :func:`classify_response` and by :func:`sweep_tau`.
TRANSIENT_FRAC = 0.25
WARMUP_FRAC = 0.4


def detect_pulses(
    trajectory: Trajectory,
    threshold: float,
    refractory: float = REFRACTORY,
) -> np.ndarray:
    """Times of upward intensity crossings through ``threshold``.

    Every node interval of the trajectory on which ``I - threshold``
    changes sign upward holds a crossing of the trajectory's own cubic
    Hermite piece; the pieces are solved all at once, so the crossings
    are exact to interpolation accuracy.  Crossings closer than
    ``refractory`` are merged (keeping the earliest).

    Parameters
    ----------
    trajectory : Trajectory
    threshold : float
        Intensity level, > 0.
    refractory : float, optional

    Returns
    -------
    ndarray
        Strictly increasing crossing times; empty if none.
    """
    if threshold <= 0.0:
        raise InvalidArgumentError("threshold must be positive")
    s = trajectory.y[:, 2] - threshold
    up = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
    t0 = trajectory.t[up]
    h = trajectory.t[up + 1] - t0
    d = trajectory.yp[:, 2]
    x = _upward_root(s[up], h * d[up], s[up + 1], h * d[up + 1])
    times = []
    for t_cross in t0 + x * h:
        if not times or t_cross - times[-1] >= refractory:
            times.append(t_cross)
    return np.array(times)


def _upward_root(y0, d0, y1, d1) -> np.ndarray:
    """Root in [0, 1] of each Hermite cubic with ends ``y0 < 0 <= y1``, slopes ``d0, d1``.

    Newton from the secant point; a step that would leave the sign
    bracket bisects it instead.
    """
    c2 = 3.0 * (y1 - y0) - 2.0 * d0 - d1
    c3 = 2.0 * (y0 - y1) + d0 + d1
    lo, hi = np.zeros_like(y0), np.ones_like(y0)
    x = y0 / (y0 - y1)
    for _ in range(60):
        p = ((c3 * x + c2) * x + d0) * x + y0
        lo = np.where(p < 0.0, x, lo)
        hi = np.where(p < 0.0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - p / ((3.0 * c3 * x + 2.0 * c2) * x + d0)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        if np.all(np.abs(step - x) <= 1e-15):
            return step
        x = step
    return x


def _peak_intensity(trajectory: Trajectory) -> float:
    """Peak of ``I`` over ``trajectory.sample(SAMPLE_DT)``, interpolating the ``I`` column alone."""
    ts = trajectory._sample_times(SAMPLE_DT)
    return float(trajectory._interpolate(ts, slice(2, 3)).max())


def _pulse_heights(trajectory: Trajectory, pulse_times: np.ndarray, window: float) -> np.ndarray:
    """Peak intensity within ``window`` after each pulse time."""
    ends = np.minimum(pulse_times + window, trajectory.t1)
    ts = np.linspace(pulse_times, ends, 80, axis=-1)
    return trajectory.evaluate_many(ts.ravel())[:, 2].reshape(ts.shape).max(axis=1)


@dataclass(frozen=True)
class TrainMeasurement:
    """Pulses of one run and the statistics of its trailing ``train_times``.

    ``period`` and ``cv`` are the mean and the coefficient of variation
    of the intervals between ``train_times``; ``k = round(tau /
    period)``.  All three are None with fewer than two train pulses.
    """

    threshold: float
    pulse_times: np.ndarray
    train_times: np.ndarray
    period: float | None
    cv: float | None
    k: int | None


def measure_train(
    trajectory: Trajectory,
    tau: float,
    since: float = -np.inf,
    last: int | None = None,
) -> TrainMeasurement:
    """Threshold, detect and average the pulse intervals of one run.

    The threshold is ``THRESHOLD_FRAC`` times the peak intensity of the
    whole run.  The statistics cover the pulses at or after ``since``,
    and only the final ``last`` intervals among them if given.
    Acceptance rules are the caller's.
    """
    threshold = max(THRESHOLD_FRAC * _peak_intensity(trajectory), MIN_THRESHOLD)
    pulses = detect_pulses(trajectory, threshold)
    train = pulses[pulses >= since]
    if last is not None:
        train = train[-(last + 1):]
    if len(train) < 2:
        return TrainMeasurement(threshold, pulses, train, None, None, None)
    intervals = np.diff(train)
    period = float(intervals.mean())
    cv = float(intervals.std() / period)
    return TrainMeasurement(threshold, pulses, train, period, cv, int(round(tau / period)))


def _history_peak_intensity(params: ModelParams, history: HistorySpec, samples: int = 512) -> float:
    """Max intensity over the history interval (the excitation scale)."""
    h, _ = history.realize(params)
    if params.tau <= 0.0:
        return float(h(0.0)[2])
    ts = np.linspace(-params.tau, 0.0, samples)
    return max(float(h(t)[2]) for t in ts)


@dataclass(frozen=True)
class PulseTrainStats:
    """Outcome of one excitation experiment.

    Attributes
    ----------
    classification : str
        One of ``decay``, ``single-pulse``, ``sustained-train``,
        ``cw-like``.
    pulse_times : ndarray
        All detected pulses over the run (strictly increasing,
        separated by at least the refractory floor).
    heights : ndarray
        Peak intensity following each pulse.
    k : int or None
        Pulses per delay interval (sustained trains only).
    period : float or None
        Mean inter-pulse interval.
    delta : float or None
        ``k * period - tau``; positive for self-regenerating trains.
    interval_cv : float or None
        Coefficient of variation of the measured intervals.
    threshold : float
        Intensity threshold used for detection.
    params : ModelParams
    horizon : float
    """

    classification: str
    pulse_times: np.ndarray
    heights: np.ndarray
    k: int | None
    period: float | None
    delta: float | None
    interval_cv: float | None
    threshold: float
    params: ModelParams
    horizon: float

    def to_json_obj(self) -> dict:
        from . import _io

        return _io.pulse_stats_json(self)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        from . import _io

        return _io.pulse_stats_rows(self)


def classify_response(
    params: ModelParams,
    history: HistorySpec,
    horizon: float,
    control: StepControl | None = None,
) -> PulseTrainStats:
    """Integrate from a history and classify the long-time response.

    The first ``TRANSIENT_FRAC`` of the horizon is excluded from train
    statistics.  Classification:

    * ``sustained-train`` -- at least five post-transient pulses with
      interval coefficient of variation below ``INTERVAL_CV_TOL``,
      stationary heights, persisting to the end of the run;
    * ``cw-like`` -- the late-time intensity is bounded away from the
      off state without forming a train: either settled to a constant
      (relative fluctuation < 1e-3 over the final five delay times) or
      still ringing down toward one;
    * ``single-pulse`` -- exactly one pulse over the whole run, large
      compared to the excitation that seeded it;
    * ``decay`` -- everything else (the field returns to the off
      state).

    Parameters
    ----------
    params : ModelParams
    history : HistorySpec
    horizon : float
        Must be at least ``20 * max(tau, 1)`` so that slow transients
        (the weak translational attraction of pulse trains) have died.

    Returns
    -------
    PulseTrainStats
    """
    floor = 20.0 * max(params.tau, 1.0)
    # Written so that NaN fails the check.
    if not horizon >= floor:
        raise InvalidArgumentError(f"horizon must be at least 20 * max(tau, 1) = {floor:g}, "
                                   f"got {horizon!r}")
    traj = integrate(params, history, horizon, control)
    train = measure_train(traj, params.tau, since=TRANSIENT_FRAC * horizon)
    pulses = train.pulse_times
    heights = _pulse_heights(traj, pulses, window=REFRACTORY)

    k = period = delta = cv = label = None
    post = train.train_times
    if len(post) >= 5:
        cv = train.cv
        post_heights = heights[len(pulses) - len(post):]
        # Exclude pulses whose peak window is cut off by the horizon
        # from the height statistic (their maximum is not yet reached).
        whole = post_heights[post + REFRACTORY <= traj.t1]
        if len(whole) < 2:
            whole = post_heights
        height_spread = float(whole.std() / whole.mean())
        persists = (horizon - post[-1]) < 2.0 * train.period
        if cv < INTERVAL_CV_TOL and height_spread < 0.05 and persists:
            label, k, period = SUSTAINED_TRAIN, train.k, train.period
            delta = k * period - params.tau
    if label is None:
        window = min(5.0 * max(params.tau, 10.0), traj.t1 - traj.t0)
        late = traj.evaluate_many(np.arange(traj.t1, traj.t1 - window, -SAMPLE_DT))[:, 2]
        late_mean = float(late.mean())
        settled = float(late.max() - late.min()) < 1e-3 * late_mean
        if late_mean > 1e-6 and settled:
            label = CW_LIKE
        elif len(pulses) == 1 and heights[0] >= 0.5 * _history_peak_intensity(params, history):
            label = SINGLE_PULSE
        elif late_mean > 1e-6:
            # Not settled yet, but bounded away from the off state: the
            # field is ringing down toward constant emission, not dying.
            label = CW_LIKE
        else:
            label = DECAY

    return PulseTrainStats(
        label, pulses, heights, k, period, delta, cv, train.threshold, params, float(horizon)
    )


def single_pulse_seed(
    params: ModelParams,
    amplitude: float = 1.0,
    width: float = 1.0,
    control: StepControl | None = None,
) -> HistorySpec:
    """History that fills the delay line with one solitary pulse.

    Runs the laser without feedback from a super-threshold rectangular
    intensity kick over one delay time and hands the response back as
    the history on ``[-tau, 0]``.  This is the canonical preparation
    for switching the feedback on: the stored pulse re-injects itself
    once and, if the feedback is strong enough, regenerates
    indefinitely.

    The default amplitude 1.0 is comfortably above the excitability
    threshold at the working point (which sits between 0.3 and 0.5).
    """
    if params.tau <= 0.0:
        raise InvalidArgumentError("a pulse seed needs tau > 0")
    solo = params.replace(kappa=0.0, tau=0.0)
    kick = HistorySpec.off_plus_pulse(amplitude=amplitude, width=width)
    traj = integrate(solo, kick, params.tau, control)
    return HistorySpec.from_tail(traj)


def reappearance_shift(tau0: float, T0: float, k: int) -> float:
    """Delay at which an orbit of period ``T0`` at ``tau0`` reappears.

    A periodic solution of the feedback loop at delay ``tau0`` is also
    a solution at ``tau0 + k * T0`` for any integer ``k >= 0``: shifting
    the delay by whole periods re-reads the same history.
    """
    if T0 <= 0.0:
        raise InvalidArgumentError("period must be positive")
    return tau0 + k * T0


# No longer called in the package (orbits are collocated), but kept importable
# from here and from floquet: bench/spans.py patches it there by name.
def refine_period(trajectory: Trajectory, period: float, window: float = 5e-3) -> float:
    """Sharpen a period estimate by minimizing the one-period defect.

    A mean of trailing pulse intervals still carries the slow drift of
    a train that is settling (about 2.5e-3 on a k = 2, tau = 400 run),
    which the steep pulse edges amplify into a large apparent mismatch
    between ``x(t)`` and ``x(t - T)``.  This polishes ``T`` by
    minimizing the component-normalized RMS defect over the last period
    of the trajectory, sampled from the dense output, down to
    interpolation accuracy.

    Parameters
    ----------
    trajectory : Trajectory
        Must cover at least two periods (plus the search window).
    period : float
        Initial estimate, accurate to within ``window``.
    window : float, optional
        Half-width of the search bracket around ``period``.

    Returns
    -------
    float
        Refined period.
    """
    from scipy.optimize import minimize_scalar

    anchor = trajectory.t1
    if anchor - 2.0 * period - window < trajectory.t0:
        raise InvalidArgumentError("trajectory shorter than two periods")
    probe = np.linspace(anchor - period, anchor, 257)
    a = trajectory.evaluate_many(probe)
    amp = a.max(axis=0) - a.min(axis=0)
    amp[amp <= 0.0] = 1.0

    def defect(T: float) -> float:
        b = trajectory.evaluate_many(probe - T)
        return float(np.sqrt((((a - b) / amp) ** 2).mean()))

    res = minimize_scalar(
        defect,
        bounds=(period - window, period + window),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def settle_train(
    params: ModelParams,
    k: int = 1,
    periods: float = 34.0,
    control: StepControl | None = None,
    drift_estimate: float = 3.0,
) -> PeriodicOrbit:
    """The periodic train with ``k`` pulses per delay interval, over ``periods`` delays.

    The train is a periodic orbit, found by the collocation solve of
    :func:`yamada_delay.periodic.solve_periodic` from a short simulated
    guess.  The guess is a one-pulse train: the delay line at ``tau0 =
    (tau - (k - 1) * drift_estimate) / k`` is seeded with one solitary
    pulse (:func:`single_pulse_seed`) and run for ``GUESS_DELAYS`` delays;
    its last whole period starts the solve.  For ``k = 1`` that is the
    only solve.  For ``k >= 2`` the last solve runs directly at the full
    delay: read modulo the period, a ``k``-pulse train at ``tau`` is the
    one-pulse train at ``d = tau - (k - 1) T(d)`` (reappearance), so the
    one-pulse profile is already close, and only ``T`` needs a good start.
    It comes from the one-pulse branch ``T(d)``, solved at ``tau0`` and at
    a delay 1 % shorter for its slope, and followed to ``d`` to first order.
    Near the feedback onset the regeneration lag ``T - d`` is about 20
    instead of 3 and changes along the branch: at ``kappa = 0.008``,
    ``tau = 200``, ``k = 2`` the period ``(tau + lag) / k`` with the
    guess's lag is 1 % off, and Newton's method loses the pulse from it.
    Newton's method finds the periodic orbit nearest its start; its Floquet
    multipliers tell whether that orbit is stable.

    Parameters
    ----------
    params : ModelParams
        Requires ``tau > 0`` and feedback strong enough to sustain a
        train (otherwise :class:`NoBranchError`).
    k : int, optional
        Pulses per delay interval.
    periods : float, optional
        Length of the returned train in units of the delay, > 0.
    control : StepControl, optional
        Step control of the guess run.
    drift_estimate : float, optional
        Starting guess for the regeneration lag ``delta``; only the
        guess depends on it.

    Returns
    -------
    PeriodicOrbit
        The orbit of the last collocation solve, ready for
        :func:`yamada_delay.floquet.monodromy_multipliers`.  Its
        ``trajectory`` covers the fewest whole periods that reach
        ``periods * tau`` and starts at an upward threshold crossing.

    Raises
    ------
    NoBranchError
        If the guess run does not hold two pulses.
    NumericalError
        If the collocation solve fails.
    """
    if params.tau <= 0.0:
        raise InvalidArgumentError("a pulse train needs tau > 0")
    if k < 1:
        raise InvalidArgumentError("k must be a positive integer")
    # Written so that NaN fails the check.
    if not 0.0 < periods < math.inf:
        raise InvalidArgumentError(f"periods must be positive and finite, got {periods!r}")
    tau0 = (params.tau - (k - 1) * drift_estimate) / k
    if tau0 <= 0.0:
        raise InvalidArgumentError(f"delay too short to hold {k} pulses")
    p0 = params.replace(tau=tau0)
    guess = integrate(p0, single_pulse_seed(p0, control=control),
                      GUESS_DELAYS * (tau0 + drift_estimate), control)
    train = measure_train(guess, tau0, last=1)
    if train.period is None:
        raise NoBranchError(f"no pulse train to start from: {len(train.pulse_times)} pulse(s) "
                            f"in {GUESS_DELAYS:g} delays at tau = {tau0:g}")
    start, level, span = float(train.train_times[0]), train.threshold, periods * params.tau
    if k == 1:
        return solve_periodic(params, guess, start, train.period, level, span)
    # The k-pulse train at tau is the one-pulse train at d = tau - (k - 1) T(d).
    # Follow the one-pulse branch T(d) from tau0 to that delay to first order,
    # with its slope from a second solve at a delay 1 % shorter.
    one = solve_periodic(p0, guess, start, train.period, level, tau0)
    step = 0.01 * tau0
    near = solve_periodic(p0.replace(tau=tau0 - step), one.trajectory, 0.0, one.period, level,
                          tau0, period=one.period - step)
    slope = (one.period - near.period) / step
    shift = (params.tau - tau0 - (k - 1) * one.period) / (1.0 + (k - 1) * slope)
    return solve_periodic(params, one.trajectory, 0.0, one.period, level, span,
                          period=one.period + slope * shift)


@dataclass
class BranchSample:
    """Period data collected along one branch of sustained trains.

    Attributes
    ----------
    tau, period, delta : ndarray
        Delay, measured period, and drift ``k * T - tau`` per point.
    k : ndarray of int
        Pulses per delay interval (constant along a healthy branch).
    aborted_at : float or None
        First swept delay that failed classification, if any; samples
        stop at the last good point.
    """

    tau: np.ndarray
    period: np.ndarray
    k: np.ndarray
    delta: np.ndarray
    aborted_at: float | None = None

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def t_min(self) -> float:
        """Smallest period on the branch (sets the coexistence count)."""
        return float(self.period.min())

    def interp_period(self, tau: float) -> float:
        """Linear interpolation of T(tau) on the sampled branch."""
        return float(np.interp(tau, self.tau, self.period))

    def to_json_obj(self) -> dict:
        from . import _io

        return _io.branch_json(self)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        from . import _io

        return _io.branch_rows(self)


def sweep_tau(
    params: ModelParams,
    tau_values,
    control: StepControl | None = None,
    periods: float = 16.0,
) -> BranchSample:
    """Trace a branch of sustained trains over increasing delays.

    The first point is seeded by :func:`single_pulse_seed`; each later
    point continues from the tail of the previous run, which keeps the
    sweep on the same branch (same ``k``) as long as it remains stable.
    For each delay the run covers roughly ``periods`` pulse periods,
    the first ``WARMUP_FRAC`` of which is discarded before measuring.

    Parameters
    ----------
    params : ModelParams
        ``tau`` is overridden per point.
    tau_values : array_like
        Strictly increasing delays, all > 0.

    Returns
    -------
    BranchSample
        Samples up to the last delay that sustained a clean train;
        ``aborted_at`` records the first failure, if any.

    Raises
    ------
    NoBranchError
        If the first delay does not sustain a train.
    """
    taus = np.asarray(list(tau_values), dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise InvalidArgumentError("tau_values must be a nonempty 1-d sequence")
    if np.any(np.diff(taus) <= 0.0) or taus[0] <= 0.0:
        raise InvalidArgumentError("tau_values must be positive and strictly increasing")

    rows: list[tuple[float, float, int, float]] = []
    aborted_at = None
    prev_traj: Trajectory | None = None
    for tau in taus:
        p = params.replace(tau=float(tau))
        if prev_traj is None:
            history = single_pulse_seed(p, control=control)
        else:
            history = HistorySpec.from_tail(prev_traj)
        horizon = periods * (tau + 30.0)
        traj = integrate(p, history, horizon, control)
        train = measure_train(traj, p.tau, since=WARMUP_FRAC * traj.t1)
        if len(train.train_times) < 5 or train.cv >= INTERVAL_CV_TOL or train.k < 1:
            aborted_at = float(tau)
            break
        rows.append((p.tau, train.period, train.k, train.k * train.period - p.tau))
        prev_traj = traj
    if not rows:
        raise NoBranchError(f"no sustained train at the first delay tau = {taus[0]:g}")
    tau_a, t_a, k_a, d_a = (np.array(col) for col in zip(*rows))
    return BranchSample(tau_a, t_a, k_a.astype(int), d_a, aborted_at)


def fold_estimate(branch: BranchSample, k: int) -> float | None:
    """Delay where the branch's reappearance map folds, if sampled.

    Reappearance maps a solution at ``tau`` to one at ``tau + k*T(tau)``;
    that map folds where ``1 + k * T'(tau) = 0``.  The derivative is
    estimated by finite differences on the sampled branch and the sign
    change located by linear interpolation.

    Returns
    -------
    float or None
        Interpolated fold delay, or None when ``1 + k T'`` does not
        change sign over the sample.
    """
    if len(branch) < 5:
        raise InvalidArgumentError("fold estimation needs at least 5 branch samples")
    tau, T = branch.tau, branch.period
    dT = np.gradient(T, tau)
    g = 1.0 + k * dT
    for i in range(len(g) - 1):
        if g[i] == 0.0:
            return float(tau[i])
        if g[i] * g[i + 1] < 0.0:
            frac = g[i] / (g[i] - g[i + 1])
            return float(tau[i] + frac * (tau[i + 1] - tau[i]))
    if g[-1] == 0.0:
        return float(tau[-1])
    return None


def scan_kappa_min(
    params: ModelParams,
    tau: float,
    kappa_bracket: tuple[float, float],
    tol: float,
    control: StepControl | None = None,
) -> float:
    """Bisect for the smallest feedback strength sustaining a train.

    Uses :func:`classify_response` with the standard pulse-seeded
    history as the oracle: below the onset the re-injected pulse decays,
    above it the train regenerates indefinitely.

    Parameters
    ----------
    params : ModelParams
        ``kappa`` and ``tau`` are overridden.
    tau : float
        Delay at which to scan, > 0.
    kappa_bracket : (float, float)
        ``(lo, hi)`` with lo < hi; lo must classify as not sustained
        and hi as sustained.
    tol : float
        Bisection tolerance on kappa, > 0.

    Returns
    -------
    float
        Midpoint of the final bracket.
    """
    lo, hi = (float(v) for v in kappa_bracket)
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidArgumentError("kappa bracket must satisfy 0 <= lo < hi <= 1")
    if tol <= 0.0:
        raise InvalidArgumentError("tol must be positive")
    if tau <= 0.0:
        raise InvalidArgumentError("tau must be positive")

    horizon = 20.0 * max(tau, 1.0)
    seed = single_pulse_seed(params.replace(tau=float(tau)), control=control)

    def sustained(kappa: float) -> bool:
        p = params.replace(kappa=kappa, tau=float(tau))
        stats = classify_response(p, seed, horizon, control=control)
        return stats.classification == SUSTAINED_TRAIN

    if sustained(lo):
        raise InvalidArgumentError("lower bracket endpoint already sustains a train")
    if not sustained(hi):
        raise InvalidArgumentError("upper bracket endpoint does not sustain a train")
    # the halvings leave about an ulp of roundoff on hi - lo: without the
    # slack a bracket that is tol wide in exact arithmetic halves once
    # more, and one between adjacent floats halves forever
    while hi - lo > tol + 4.0 * math.ulp(hi):
        mid = 0.5 * (lo + hi)
        if sustained(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
