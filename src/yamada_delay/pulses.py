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
train as an exactly periodic orbit; :func:`sweep_tau` reads that orbit
at each delay of a grid.

Measured quantities follow the pulse-train bookkeeping ``T = (tau +
delta) / k``: ``T`` is the inter-pulse interval, ``k`` the number of
pulses per delay interval, and ``delta > 0`` the regeneration lag of the
feedback loop.  Every experiment reads its runs through
:func:`measure_train`; :func:`classify_response` holds the only rule
for a sustained train.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._io import columns_to_rows, jlist, jnum, params_json
from .errors import InvalidArgumentError, NoBranchError, NumericalError
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
#: Relative rounding margin of the interval bounds of the peak search.
PEAK_MARGIN = 1e-12
#: Largest interval coefficient of variation that still counts as a train.
INTERVAL_CV_TOL = 0.01
#: Length in delays of the simulated guess of :func:`settle_train`.
GUESS_DELAYS = 4.0
#: Regeneration lag ``delta`` assumed by that guess (only the guess depends on it).
DRIFT_ESTIMATE = 3.0
#: Screening run of :func:`scan_kappa_min`: its length in delays, the time
#: in delays after which a pulse must occur (the seeded pulse has then
#: regenerated twice), and the least sampled peak intensity from then on,
#: as a share of the seed's peak intensity; and the screen's step control,
#: whatever the caller's, since a verdict only chooses which kappas are
#: run in full.  Of rtol = 1e-4, 2e-4, 3e-4, 5e-4 and 1e-3 (atol = rtol /
#: 100, the default's ratio), 3e-4 was the first to change a scan's full
#: runs (at tau = 50) on the scans of ``TestScreenControl`` in
#: ``tests/test_pulses.py``, at tau = 100, 150, 600 and 800, and at the
#: benchmark's delays of seeds 1 to 5, when the screen still read the
#: largest node value of ``I``.
_SCREEN_DELAYS = 3.0
_SCREEN_AFTER = 2.0
_SCREEN_FRAC = 0.5
_SCREEN_CONTROL = StepControl(atol=2e-6, rtol=2e-4)
#: Leading share of a run left out of the train statistics by
#: :func:`classify_response`.
TRANSIENT_FRAC = 0.25


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
        Shortest spacing of two reported crossings, >= 0 and finite.

    Returns
    -------
    ndarray
        Strictly increasing crossing times; empty if none.
    """
    # Written so that NaN fails both checks.
    if not threshold > 0.0:
        raise InvalidArgumentError(f"threshold must be positive, got {threshold!r}")
    if not 0.0 <= refractory < math.inf:
        raise InvalidArgumentError(f"refractory must be nonnegative and finite, got {refractory!r}")
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


def _peak_intensity(trajectory: Trajectory, since: float = -math.inf) -> float:
    """Peak of ``I`` over ``trajectory.sample(SAMPLE_DT)``, interpolating only near it.

    Only the samples at ``t >= since`` count.  On node interval ``i``
    (length ``h``), the cubic Hermite piece of ``I`` is a convex
    combination of ``I_i`` and ``I_{i+1}`` plus ``h I'_i`` and ``h
    I'_{i+1}`` with weights ``s (1 - s)^2`` and ``s^2 (s - 1)``, each at
    most 4/27 in size, so no sample on it exceeds the bound

        ``max(I_i, I_{i+1}) + (4/27) h (|I'_i| + |I'_{i+1}|)``.

    The bound is raised by the rounding margin ``PEAK_MARGIN * (|I_i| +
    |I_{i+1}| + h (|I'_i| + |I'_{i+1}|)) + 1e-300``: thousands of ulps of
    the terms that the interpolation rounds, plus the absolute rounding of
    subnormal terms.  The samples next to the node of largest ``I`` give a
    level the peak reaches; an interval whose bound lies below it cannot
    hold the peak, so only the samples in the other intervals are
    interpolated.  The result is the maximum over all those samples, bit
    for bit (``tests/pulses_reference.py`` keeps the full-sample maximum).
    """
    t, ival, dval = trajectory.t, trajectory.y[:, 2], trajectory.yp[:, 2]
    ts = trajectory._sample_times(SAMPLE_DT)
    ts = ts[np.searchsorted(ts, since):]
    # Interval i holds the samples t_i <= ts < t_{i+1}; the last also holds t1.
    counts = np.diff(np.searchsorted(ts, t[:-1]), append=len(ts))
    slope = np.diff(t) * (np.abs(dval[:-1]) + np.abs(dval[1:]))
    bound = (np.maximum(ival[:-1], ival[1:]) + (4.0 / 27.0) * slope
             + (PEAK_MARGIN * (np.abs(ival[:-1]) + np.abs(ival[1:]) + slope) + 1e-300))
    late = int(np.searchsorted(t, since))
    top = int(np.searchsorted(ts, t[late + np.argmax(ival[late:])]))
    level = trajectory._interpolate(ts[max(top - 1, 0):top + 1], slice(2, 3)).max()
    # Written so that a NaN bound or level keeps its samples (the maximum is then NaN).
    keep = np.repeat(~(bound < level), counts)
    return float(trajectory._interpolate(ts[keep], slice(2, 3)).max())


def _pulse_heights(trajectory: Trajectory, pulse_times: np.ndarray, window: float) -> np.ndarray:
    """Peak intensity within ``window`` after each pulse time."""
    ends = np.minimum(pulse_times + window, trajectory.t1)
    ts = np.linspace(pulse_times, ends, 80, axis=-1)
    return trajectory._interpolate(ts.ravel(), slice(2, 3)).reshape(ts.shape).max(axis=1)


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
    _, intensity, _ = history.realize(params)
    if params.tau <= 0.0:
        return float(intensity(0.0))
    ts = np.linspace(-params.tau, 0.0, samples)
    return max(float(intensity(t)) for t in ts)


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
        return {
            "classification": self.classification,
            "k": jnum(self.k),
            "period": jnum(self.period),
            "delta": jnum(self.delta),
            "interval_cv": jnum(self.interval_cv),
            "n_pulses": len(self.pulse_times),
            "threshold": jnum(self.threshold),
            "horizon": jnum(self.horizon),
            "pulse_times": jlist(self.pulse_times),
            "heights": jlist(self.heights),
            "params": params_json(self.params),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["pulse_index", "pulse_time", "height", "classification", "k", "period", "delta"]
        train = ["" if x is None else x for x in (self.k, self.period, self.delta)]
        rows = [[*row, self.classification, *train] for row in columns_to_rows(
            np.arange(len(self.pulse_times)), self.pulse_times, self.heights)]
        return header, rows or [[0, "", "", self.classification, "", "", ""]]


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
        # Detected pulses lie REFRACTORY apart, so that drops at most the
        # last one and leaves at least four.
        whole = post_heights[post + REFRACTORY <= traj.t1]
        height_spread = float(whole.std() / whole.mean())
        persists = (horizon - post[-1]) < 2.0 * train.period
        if cv < INTERVAL_CV_TOL and height_spread < 0.05 and persists:
            label, k, period = SUSTAINED_TRAIN, train.k, train.period
            delta = k * period - params.tau
    if label is None:
        window = min(5.0 * max(params.tau, 10.0), traj.t1 - traj.t0)
        late = traj._interpolate(np.arange(traj.t1, traj.t1 - window, -SAMPLE_DT), slice(2, 3))[:, 0]
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
    the delay by whole periods re-reads the same history.  ``k`` must be
    a Python or numpy integer; a float, even a whole one, is refused.
    """
    # Written so that NaN fails both checks.
    if not 0.0 < T0 < math.inf:
        raise InvalidArgumentError(f"period must be positive and finite, got {T0!r}")
    if not math.isfinite(tau0):
        raise InvalidArgumentError(f"tau0 must be finite, got {tau0!r}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidArgumentError(f"k must be an integer >= 0, got {k!r}")
    return tau0 + k * T0


# No longer called in the package (orbits are collocated), but kept importable
# from here and from floquet for the benchmark: bench/workloads.py's warm_up
# calls pulses.refine_period, and bench/spans.py patches it in both modules.
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
) -> PeriodicOrbit:
    """The periodic train with ``k`` pulses per delay interval, over ``periods`` delays.

    The train is a periodic orbit, found by the collocation solve of
    :func:`yamada_delay.periodic.solve_periodic` from a short simulated
    guess.  The guess is a one-pulse train: the delay line at ``tau0 =
    (tau - (k - 1) * DRIFT_ESTIMATE) / k`` is seeded with one solitary
    pulse (:func:`single_pulse_seed`) and run for ``GUESS_DELAYS`` delays;
    its last whole period starts the solve.  For ``k = 1`` that is the
    only solve.  For ``k >= 2`` the last solve runs directly at the full
    delay: read modulo the period, a ``k``-pulse train at ``tau`` is the
    one-pulse train at ``d = tau - (k - 1) T(d)`` (reappearance), so the
    one-pulse profile is already close, and only ``T`` needs a good start.
    It comes from the one-pulse branch ``T(d)``, solved at ``tau0`` with its
    exact slope ``dT_dtau``, and followed to ``d`` to first order.
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
        If the guess run does not hold two pulses, or (``k >= 2``) if the
        solve at the full delay fails from the one-pulse train at the
        reappearance delay.
    NumericalError
        If a one-pulse collocation solve fails.
    """
    if params.tau <= 0.0:
        raise InvalidArgumentError("a pulse train needs tau > 0")
    if k < 1:
        raise InvalidArgumentError("k must be a positive integer")
    # Written so that NaN fails the check.
    if not 0.0 < periods < math.inf:
        raise InvalidArgumentError(f"periods must be positive and finite, got {periods!r}")
    tau0 = (params.tau - (k - 1) * DRIFT_ESTIMATE) / k
    if tau0 <= 0.0:
        raise InvalidArgumentError(f"delay too short to hold {k} pulses")
    p0 = params.replace(tau=tau0)
    guess = integrate(p0, single_pulse_seed(p0, control=control),
                      GUESS_DELAYS * (tau0 + DRIFT_ESTIMATE), control)
    train = measure_train(guess, tau0, last=1)
    if train.period is None:
        raise NoBranchError(f"no pulse train to start from: {len(train.pulse_times)} pulse(s) "
                            f"in {GUESS_DELAYS:g} delays at tau = {tau0:g}")
    start, level, span = float(train.train_times[0]), train.threshold, periods * params.tau
    if k == 1:
        return solve_periodic(params, guess, start, train.period, level, span)
    # The k-pulse train at tau is the one-pulse train at d = tau - (k - 1) T(d).
    # Follow the one-pulse branch T(d) from tau0 to that delay to first order,
    # with the slope the solve at tau0 returns.
    one = solve_periodic(p0, guess, start, train.period, level, tau0)
    shift = (params.tau - tau0 - (k - 1) * one.period) / (1.0 + (k - 1) * one.dT_dtau)
    try:
        return solve_periodic(params, one.trajectory, 0.0, one.period, level, span,
                              period=one.period + one.dT_dtau * shift)
    except NumericalError as exc:
        raise NoBranchError(f"no {k}-pulse train found at tau = {params.tau:g} from the one-pulse "
                            f"train at the reappearance delay {tau0 + shift:g}: {exc}") from exc


@dataclass
class BranchSample:
    """One-pulse orbits along a grid of delays.

    Attributes
    ----------
    tau, period, delta : ndarray
        Delay, orbit period, and drift ``k * T - tau`` per point.
    k : ndarray of int
        Pulses per delay interval of each orbit.
    dT_dtau : ndarray
        Slope ``dT / dtau`` of the branch at each orbit
        (:attr:`yamada_delay.periodic.PeriodicOrbit.dT_dtau`).
    aborted_at : float or None
        First swept delay with no orbit, if any; samples stop at the
        delay before it.
    """

    tau: np.ndarray
    period: np.ndarray
    k: np.ndarray
    delta: np.ndarray
    dT_dtau: np.ndarray
    aborted_at: float | None = None

    #: The per-sample columns, in output order.
    FIELDS = ("tau", "period", "k", "delta", "dT_dtau")

    def __len__(self) -> int:
        return len(self.tau)

    @property
    def t_min(self) -> float:
        """Smallest period on the branch (sets the coexistence count)."""
        return float(self.period.min())

    def interp_period(self, tau: float) -> float:
        """Linear interpolation of T(tau) on the sampled branch."""
        return float(np.interp(tau, self.tau, self.period))

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f) for f in self.FIELDS]

    def to_json_obj(self) -> dict:
        columns = [jlist(c) for c in self.columns()]
        return {
            "samples": [dict(zip(self.FIELDS, row)) for row in zip(*columns)],
            "t_min": jnum(self.t_min),
            "aborted_at": None if self.aborted_at is None else jnum(self.aborted_at),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return list(self.FIELDS), columns_to_rows(*self.columns())


def sweep_tau(
    params: ModelParams,
    tau_values,
    control: StepControl | None = None,
) -> BranchSample:
    """The one-pulse orbit at each of a list of delays.

    Each delay is solved on its own by :func:`settle_train` with ``k =
    1``, from its solitary-pulse guess, so no state is carried from one
    delay to the next and the sweep cannot jump to another branch.

    Parameters
    ----------
    params : ModelParams
        ``tau`` is overridden per point.
    tau_values : array_like
        Strictly increasing delays, all > 0.
    control : StepControl, optional
        Step control of the guess runs.

    Returns
    -------
    BranchSample
        The orbits up to the delay before the first at which
        :func:`settle_train` raises :class:`NumericalError`;
        ``aborted_at`` records that delay, if any.

    Raises
    ------
    NoBranchError
        If there is no orbit at the first delay.
    """
    taus = np.asarray(list(tau_values), dtype=float)
    if taus.ndim != 1 or len(taus) == 0:
        raise InvalidArgumentError("tau_values must be a nonempty 1-d sequence")
    if np.any(np.diff(taus) <= 0.0) or taus[0] <= 0.0:
        raise InvalidArgumentError("tau_values must be positive and strictly increasing")

    orbits, aborted_at = [], None
    for tau in taus:
        try:
            orbits.append(settle_train(params.replace(tau=float(tau)), periods=1.0,
                                       control=control))
        except NumericalError as exc:
            if not orbits:
                raise NoBranchError(f"no pulse train at the first delay tau = {tau:g}: "
                                    f"{exc}") from exc
            aborted_at = float(tau)
            break
    tau_a = taus[:len(orbits)]
    T, k, slope = (np.array(c) for c in zip(*((o.period, o.k, o.dT_dtau) for o in orbits)))
    return BranchSample(tau_a, T, k, k * T - tau_a, slope, aborted_at)


def fold_estimate(branch: BranchSample, k: int) -> float | None:
    """Delay where the branch's reappearance map folds, if sampled.

    Reappearance maps a solution at ``tau`` to one at ``tau + k*T(tau)``;
    that map folds where ``1 + k * T'(tau) = 0``.  ``T'`` is each
    orbit's exact slope ``dT_dtau``, and the sign change is located by
    linear interpolation between samples.

    Returns
    -------
    float or None
        Interpolated fold delay, or None when ``1 + k T'`` does not
        change sign over the sample.
    """
    if len(branch) < 2:
        raise InvalidArgumentError("fold estimation needs at least 2 branch samples")
    tau = branch.tau
    g = 1.0 + k * branch.dT_dtau
    for i in range(len(g) - 1):
        if g[i] == 0.0:
            return float(tau[i])
        if g[i] * g[i + 1] < 0.0:
            frac = g[i] / (g[i] - g[i + 1])
            return float(tau[i] + frac * (tau[i + 1] - tau[i]))
    if g[-1] == 0.0:
        return float(tau[-1])
    return None


def _regenerates(params: ModelParams, history: HistorySpec, level: float) -> bool:
    """Screening verdict of :func:`scan_kappa_min`: does the seeded pulse regenerate twice?

    Integrates ``_SCREEN_DELAYS`` delays at ``_SCREEN_CONTROL`` and
    reports whether the peak intensity from ``_SCREEN_AFTER`` delays on
    reaches ``level``.  The peak is that of the samples, as in
    :func:`measure_train`, not of the nodes, so the verdict does not hinge
    on where the step control puts them.  The verdict only predicts
    :func:`classify_response`; the scan never returns it.
    """
    tau = params.tau
    traj = integrate(params, history, _SCREEN_DELAYS * tau, _SCREEN_CONTROL)
    return _peak_intensity(traj, since=_SCREEN_AFTER * tau) >= level


def scan_kappa_min(
    params: ModelParams,
    tau: float,
    kappa_bracket: tuple[float, float],
    tol: float,
    control: StepControl | None = None,
) -> float:
    """Search for the smallest feedback strength sustaining a train.

    Uses :func:`classify_response` with the standard pulse-seeded
    history as the oracle: below the onset the re-injected pulse decays,
    above it the train regenerates indefinitely.  A full run integrates
    20 delays at ``control``; a screening run integrates 3 at the
    screen's own loose step control (``_SCREEN_CONTROL``), since its
    verdict never reaches the result.  The search goes in three steps.

    1. *Screen.*  The search walks bisection's tree down to a predicted
       final cell ``[a, b]``, deciding each midpoint by a screening run:
       the point counts as sustaining when a pulse of at least half the
       seed's peak intensity occurs after two delays, that is, when the
       seeded pulse has regenerated twice.
    2. *Certify.*  ``a`` is classified in full, then ``b`` (unless it is
       the upper end, or ``a`` sustained).
    3. *Finish.*  Plain bisection over the original bracket, through a
       memo of the full runs: a kappa at or above the lowest sustaining
       one sustains, and one at or below the highest decaying one
       decays.  Only a kappa the memo does not decide is classified.
       When ``a`` decays and ``b`` sustains, ``[a, b]`` is bisection's
       final cell and no further run is made.

    The bracket's ends are classified only when the search needs them.
    Under the monotone oracle that bisection assumes, a decaying kappa
    implies that ``lo`` decays and a sustained one that ``hi`` sustains,
    so ``lo`` is run only as the certified ``a`` or, after the search,
    when no full run decayed, and ``hi`` only after the search when no
    full run sustained.  A bracket with a bad end fails after the search
    (after one full run when ``a`` is a sustaining ``lo``), and an upper
    end that would not sustain (cw-like output above the transcritical
    point, say) goes untested when a kappa inside the bracket sustains.

    The screen steers only which kappas are run in full: for an oracle
    monotone in kappa, whatever the screening verdicts, the result is
    bisection's, bit for bit, and the full runs are at most bisection's
    plus two, plus the upper end: of ``a``, ``b`` and a late ``lo``, at
    most two are run, since ``b`` is run only after ``a`` decayed and
    ``lo`` only when nothing decayed.  The sustained runs are at most
    bisection's plus one: if ``b`` sustains after ``a`` decayed,
    ``[a, b]`` is the final cell.

    Parameters
    ----------
    params : ModelParams
        ``kappa`` and ``tau`` are overridden.
    tau : float
        Delay at which to scan, > 0.
    kappa_bracket : (float, float)
        ``(lo, hi)`` with lo < hi; lo must classify as not sustained
        and hi as sustained (each is run only when the search needs
        it, see above).
    tol : float
        Width of the final bracket, > 0.

    Returns
    -------
    float
        Midpoint of the final bracket.
    """
    lo, hi = (float(v) for v in kappa_bracket)
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidArgumentError("kappa bracket must satisfy 0 <= lo < hi <= 1")
    # Written so that NaN fails the check.
    if not tol > 0.0:
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    if tau <= 0.0:
        raise InvalidArgumentError("tau must be positive")

    horizon = 20.0 * max(tau, 1.0)
    p_tau = params.replace(tau=float(tau))
    seed = single_pulse_seed(p_tau, control=control)
    level = _SCREEN_FRAC * _history_peak_intensity(p_tau, seed)
    # the highest kappa whose full run decayed and the lowest whose run sustained
    decays, sustains = -math.inf, math.inf

    def sustained(kappa: float) -> bool:
        nonlocal decays, sustains
        if kappa >= sustains:
            return True
        if kappa <= decays:
            return False
        stats = classify_response(p_tau.replace(kappa=kappa), seed, horizon, control=control)
        if stats.classification == SUSTAINED_TRAIN:
            sustains = kappa
            return True
        decays = kappa
        return False

    def splits(lo: float, hi: float) -> bool:
        # the halvings leave about an ulp of roundoff on hi - lo: without
        # the slack a bracket that is tol wide in exact arithmetic halves
        # once more, and one between adjacent floats halves forever
        return hi - lo > tol + 4.0 * math.ulp(hi)

    a, b = lo, hi
    while splits(a, b):
        mid = 0.5 * (a + b)
        if _regenerates(p_tau.replace(kappa=mid), seed, level):
            b = mid
        else:
            a = mid
    # the memo skips b once a sustained
    sustained(a)
    if b != hi:
        sustained(b)
    while splits(lo, hi):
        mid = 0.5 * (lo + hi)
        if sustained(mid):
            hi = mid
        else:
            lo = mid
    # A full run that decays implies that the lower end does, and one that
    # sustains that the upper end does.  An end that no run settled never
    # moved, and is run now; the certified a settles one of them.
    if decays == -math.inf and sustained(lo):
        raise InvalidArgumentError("lower bracket endpoint already sustains a train")
    if sustains == math.inf and not sustained(hi):
        raise InvalidArgumentError("upper bracket endpoint does not sustain a train")
    return 0.5 * (lo + hi)
