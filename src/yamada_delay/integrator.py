"""Delay differential equation integration by the method of steps.

The solver marches the Yamada field with an embedded Dormand-Prince
5(4) pair and proportional-integral step-size control, and keeps every
accepted node ``(t, y, y')`` in flat buffers.  The march uses the
model's exact structure: the stages are unrolled for its three state
components, each stage writes the rate equations inline from the six
rate constants, and since only the intensity is delayed, each stage
reads ``I(t - tau)`` alone.  The step is capped at ``tau / 4`` so a
delayed lookup never reads the step currently being built: the five
delayed values of a step are fixed before its stages start (the method
of steps).  That is the only default cap; below it the error estimate
alone sets the step, so the quiescent stretches between pulses are
crossed in long steps.

Derivative discontinuities enter at ``t = 0`` (where the prescribed
history hands over to the flow) and propagate to ``t = n*tau``; the
solver places nodes exactly on those breakpoints for the first few
rounds, after which the solution is smooth enough that step control
alone handles them.  Since a step ends on ``tau``, the march has two
phases.  A step that ends at or before ``tau`` reads all its
delayed values from the prescribed history; a step that starts at or
after ``tau`` reads them all from a cubic Hermite interpolant of the
``I`` column of the stored nodes, with one bisection for the first and
a forward walk for the others.  No step reads both.  The same Hermite
interpolation serves as the user-facing dense output.

Each run reports its own counts (:class:`SolverStats`, carried by the
:class:`Trajectory`).
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgumentError, NumericalError, OutOfDomainError, StiffnessError
from .model import ModelParams, State

__all__ = [
    "StepControl",
    "HistorySpec",
    "SolverStats",
    "Trajectory",
    "integrate",
]

# Dormand-Prince 5(4) tableau.  The fifth-order weights equal the last
# stage row (FSAL): k7 evaluated at the accepted point seeds the next step.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# b5 - b4: weights of the embedded error estimate (applied to k1..k7).
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

#: Delay intervals whose ends ``n * tau`` (and the images of history jumps)
#: are forced step boundaries; later images are smooth enough to ignore.
#: Must stay >= 1: the boundary at ``tau`` is what keeps a step from
#: reading both the history and the stored nodes (see :func:`solve_dde`).
SMOOTHING_ROUNDS = 3


@dataclass(frozen=True)
class StepControl:
    """Adaptive step-size options.

    Parameters
    ----------
    atol, rtol : float
        Absolute and relative error tolerances (per component).
    max_step : float or None
        Upper bound on the step.  The solver always enforces ``tau / 4``
        (``t_end`` when ``tau == 0``); that is the only cap when
        ``max_step`` is None or ``inf``, and below it the error
        estimate alone sets the step.
    max_steps : int
        Safety bound on the number of accepted steps.
    """

    atol: float = 1e-9
    rtol: float = 1e-7
    max_step: float | None = None
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (0.0 < self.atol < math.inf and 0.0 < self.rtol < math.inf):
            raise InvalidArgumentError("atol and rtol must be positive and finite")
        if self.max_step is not None and not self.max_step > 0.0:
            raise InvalidArgumentError("max_step must be positive")
        if self.max_steps < 1:
            raise InvalidArgumentError("max_steps must be >= 1")


class Trajectory:
    """Densely interpolable solution of one integration run.

    Stores the accepted nodes ``(t_i, y_i, y'_i)`` and evaluates
    anywhere in ``[t0, t1]`` by piecewise cubic Hermite interpolation,
    which matches the order of accuracy of the dense representation
    the integrator itself used for delayed lookups.  A trajectory also
    serves as the history source for a follow-up run (see
    :meth:`HistorySpec.from_tail`).  ``stats`` is the march's
    :class:`SolverStats` (None for a trajectory built from given nodes).
    """

    def __init__(self, t, y, yp, params: ModelParams, stats: SolverStats | None = None):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.yp = np.asarray(yp, dtype=float)
        self.params = params
        self.stats = stats
        if self.t.ndim != 1 or len(self.t) < 2:
            raise InvalidArgumentError("a trajectory needs at least two nodes")
        if np.any(np.diff(self.t) <= 0.0):
            raise InvalidArgumentError("node times must be strictly increasing")

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def _locate(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.t, ts, side="right") - 1
        return np.clip(idx, 0, len(self.t) - 2)

    def evaluate_many(self, ts) -> np.ndarray:
        """Evaluate the state at an array of times.

        Parameters
        ----------
        ts : array_like
            Times inside ``[t0, t1]`` (a slack of ``1e-9 * span`` is
            tolerated for floating-point fuzz at the endpoints).

        Returns
        -------
        ndarray of shape (len(ts), 3)
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        slack = 1e-9 * max(1.0, self.t1 - self.t0)
        if ts.size and (ts.min() < self.t0 - slack or ts.max() > self.t1 + slack):
            raise OutOfDomainError(
                f"time outside trajectory domain [{self.t0:.6g}, {self.t1:.6g}]"
            )
        return self._interpolate(ts, slice(None))

    def _interpolate(self, ts: np.ndarray, cols: slice) -> np.ndarray:
        """Hermite values of the state columns ``cols`` at ``ts``, shape (len(ts), ncols)."""
        idx = self._locate(ts)
        t0 = self.t[idx]
        h = self.t[idx + 1] - t0
        s = ((ts - t0) / h)[:, None]
        y0 = self.y[idx, cols]
        y1 = self.y[idx + 1, cols]
        f0 = self.yp[idx, cols]
        f1 = self.yp[idx + 1, cols]
        om = 1.0 - s
        h00 = (1.0 + 2.0 * s) * om * om
        h10 = s * om * om
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        hh = h[:, None]
        return h00 * y0 + hh * h10 * f0 + h01 * y1 + hh * h11 * f1

    def evaluate(self, t: float) -> np.ndarray:
        """State at a single time ``t`` in ``[t0, t1]``."""
        return self.evaluate_many([float(t)])[0]

    def _sample_times(self, dt: float) -> np.ndarray:
        if not dt > 0.0:
            raise InvalidArgumentError(f"sampling interval must be positive, got {dt!r}")
        ts = np.arange(self.t0, self.t1, dt)
        if not ts.size or ts[-1] < self.t1:
            ts = np.append(ts, self.t1)
        return ts

    def sample(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Uniform sampling ``t0, t0+dt, ...`` plus the final time.

        Returns ``(times, states)`` with states of shape (n, 3).
        """
        ts = self._sample_times(dt)
        return ts, self.evaluate_many(ts)

    def final_state(self) -> State:
        return State.from_array(self.y[-1])


class HistorySpec:
    """Prescription of the state on the history interval ``[-tau, 0]``.

    Build one with the class-method constructors and pass it to
    :func:`integrate`; the delay is taken from the parameter set at
    integration time, so the same spec can seed runs at different tau.
    """

    def __init__(self, kind: str, **payload):
        self.kind = kind
        self.payload = payload

    @classmethod
    def constant(cls, state: State) -> "HistorySpec":
        """Hold a fixed state (nonnegative intensity) for all past times."""
        if state.I < 0.0:
            raise InvalidArgumentError("history intensity must be nonnegative")
        return cls("constant", state=state)

    @classmethod
    def off_plus_pulse(cls, amplitude: float = 0.1, width: float = 1.0) -> "HistorySpec":
        """The non-lasing state plus a rectangular intensity kick.

        The kick of the given amplitude occupies the final ``width``
        time units of the history, ending at ``t = 0``; it is the
        standard trigger for a single excitable pulse.
        """
        # Written so that NaN fails both checks.
        if not 0.0 <= amplitude < math.inf:
            raise InvalidArgumentError("pulse amplitude must be nonnegative and finite")
        if not width > 0.0:
            raise InvalidArgumentError("pulse width must be positive")
        return cls("off_plus_pulse", amplitude=float(amplitude), width=float(width))

    @classmethod
    def from_tail(cls, source: Trajectory, shift: float | None = None) -> "HistorySpec":
        """Reuse the tail of an earlier run as the new history.

        The new history is ``h(t) = source(t + shift)`` for ``t`` in
        ``[-tau, 0]``; ``shift`` defaults to the final time of the
        source, i.e. the new run continues where the old one stopped.
        """
        s = source.t1 if shift is None else float(shift)
        return cls("from_tail", source=source, shift=s)

    def realize(self, params: ModelParams) -> tuple[tuple, Callable[[float], float], tuple]:
        """Concrete history on ``[-tau, 0]`` for these parameters.

        Only the intensity is delayed, so this returns ``(y0, intensity,
        jumps)``: the state ``(G, Q, I)`` at ``t = 0``, a callable giving
        ``I`` on ``[-tau, 0]``, and the interior times (< 0) at which the
        history jumps, so the integrator can track their delayed images
        as breakpoints.
        """
        tau = params.tau
        if self.kind == "constant":
            st: State = self.payload["state"]
            return (st.G, st.Q, st.I), (lambda t: st.I), ()
        if self.kind == "off_plus_pulse":
            amp = self.payload["amplitude"]
            width = self.payload["width"]

            def intensity(t: float) -> float:
                return amp if t >= -width else 0.0

            jumps = (-width,) if width < tau else ()
            return (params.A, params.B, amp), intensity, jumps
        if self.kind == "from_tail":
            source: Trajectory = self.payload["source"]
            shift: float = self.payload["shift"]
            # Written so that NaN fails the check.
            if not (source.t0 - 1e-9 <= shift - tau and shift <= source.t1 + 1e-9):
                raise InvalidArgumentError(
                    f"source trajectory on [{source.t0:g}, {source.t1:g}] cannot supply "
                    f"a history of length tau = {tau:g} ending at shift = {shift!r}"
                )

            # Convert only the source nodes that cover [shift - tau, shift].
            n = len(source.t)
            lo = int(np.searchsorted(source.t, shift - tau, side="right")) - 1
            lo = min(max(lo, 0), n - 2)
            hi = int(np.searchsorted(source.t, shift, side="right"))
            hi = min(max(hi, lo + 1), n - 1)
            ts = source.t[lo:hi + 1].tolist()
            col_i = source.y[lo:hi + 1, 2].tolist()
            col_fi = source.yp[lo:hi + 1, 2].tolist()
            t1 = source.t1

            def intensity(t: float) -> float:
                return _intensity_lookup(ts, col_i, col_fi, min(t + shift, t1))

            y0 = tuple(float(v) for v in source.evaluate(min(shift, t1)))
            return y0, intensity, ()
        raise InvalidArgumentError(f"unknown history kind {self.kind!r}")


def _intensity_lookup(ts: list, col_i: list, col_fi: list, x: float) -> float:
    """Cubic Hermite value of ``I`` at ``x`` from node times ``ts`` and the
    node lists of ``I`` and ``I'``.  Same arithmetic, term for term, as the
    march's delayed lookup and :meth:`Trajectory.evaluate_many`; the end
    intervals extend past the nodes.
    """
    i = bisect_right(ts, x) - 1
    if i > len(ts) - 2:
        i = len(ts) - 2
    elif i < 0:
        i = 0
    t0 = ts[i]
    dt = ts[i + 1] - t0
    u = (x - t0) / dt
    om = 1.0 - u
    return (
        (1.0 + 2.0 * u) * om * om * col_i[i]
        + dt * (u * om * om) * col_fi[i]
        + u * u * (3.0 - 2.0 * u) * col_i[i + 1]
        + dt * (u * u * (u - 1.0)) * col_fi[i + 1]
    )


@dataclass(frozen=True)
class SolverStats:
    """How one :func:`solve_dde` march went.

    Attributes
    ----------
    accepted, rejected : int
        Accepted and rejected DP5 steps.
    rhs_evals : int
        Right-hand-side evaluations: one at ``t = 0`` and six per
        attempted step (stages 2 to 7; stage 1 reuses the last one).
    h_min, h_max : float
        Smallest and largest accepted step.
    breakpoints : int
        Breakpoints (delayed images of the handover and of history
        jumps) the march stepped onto, ``t_end`` not included.
    wall_s : float
        Wall time of the march, in seconds.
    """

    accepted: int
    rejected: int
    rhs_evals: int
    h_min: float
    h_max: float
    breakpoints: int
    wall_s: float


def solve_dde(
    rates: Sequence[float],
    y0: Sequence[float],
    history: Callable[[float], float],
    tau: float,
    t_end: float,
    control: StepControl,
    extra_breakpoints: Sequence[float] = (),
):
    """Method-of-steps march of the Yamada field; returns ``(t, y, yp, stats)``.

    Every stage writes the rate equations inline,

    ``G' = gamma_G (A - G (1 + I))``,
    ``Q' = gamma_Q (B - Q (1 + a I))``,
    ``I' = (G - Q - 1) I + kappa I(t - tau)``,

    and reads only the delayed intensity.  A step makes five delayed
    lookups at ``t + c h - tau`` (stages 6 and 7 both sit at ``t + h``
    and share one), all before its stages, and from one source:

    - a step that ends at or before ``tau`` calls ``history`` five times;
    - a step that starts at or after ``tau`` reads one cubic Hermite
      interpolant of the ``I`` column of the accepted nodes, the same
      arithmetic as the third component of :meth:`Trajectory.evaluate`:
      its first lookup finds its node interval by bisection, and the
      others walk forward from there.

    No step lies across ``tau``: ``tau`` is a breakpoint, so a step ends
    on it and has all five lookups <= 0.  A step that starts at
    or after ``tau`` has them all > 0, since the step-underflow guard
    keeps ``c2 h`` far above the rounding of ``tau``.  The one exception
    needs a history jump whose image lies within ``1e-12 tau`` of
    ``tau`` (the breakpoints then merge) and a next step shorter than
    five times that gap: such a step reads the history's value at 0
    where the stored node at ``0+`` was, a difference of order gap times
    ``|I'|``, below the step's own error.

    Parameters
    ----------
    rates : sequence of six floats
        ``(gamma_G, A, gamma_Q, B, a, kappa)``, used as given:
        :func:`integrate` passes those of a validated :class:`ModelParams`.
    y0 : sequence of three floats
        Initial state ``(G, Q, I)`` at ``t = 0``.
    history : callable
        Intensity ``I`` on ``[-tau, 0]``, the only delayed component.
        For ``tau == 0`` the current intensity is fed back, the history
        is never called and the march reduces to an ordinary Runge-Kutta
        integration.
    tau : float
        Delay, >= 0.
    t_end : float
        Final time, > 0.
    control : StepControl
    extra_breakpoints : sequence of float
        Interior history jump times (< 0) whose delayed images get
        breakpoint treatment alongside the multiples of tau.

    Returns
    -------
    t, y, yp : ndarray
        Node times, shape (n,), and states and derivatives, shape (n, 3).
    stats : SolverStats

    Raises
    ------
    InvalidArgumentError
        For a ``t_end`` that is not positive and finite, ``tau < 0``, or
        a ``y0`` that does not have three components.
    """
    wall0 = time.perf_counter()
    # Written so that NaN fails the check.
    if not 0.0 < t_end < math.inf:
        raise InvalidArgumentError(f"t_end must be positive and finite, got {t_end!r}")
    if tau < 0.0:
        raise InvalidArgumentError("cannot integrate forward with a negative delay")
    gg, aa, gq, bb, sat, kap = (float(v) for v in rates)

    # tau / 4 (t_end at tau = 0) is the only default cap; below it the
    # error estimate alone sets the step.
    hmax = min(t_end, tau / 4.0) if tau > 0.0 else t_end
    if control.max_step is not None:
        hmax = min(hmax, control.max_step)

    # Breakpoints: images n*tau + d of the handover (d = 0) and of any
    # history jumps, for the first SMOOTHING_ROUNDS delay intervals.
    breaks: list[float] = []
    if tau > 0.0:
        for n in range(1, SMOOTHING_ROUNDS + 1):
            for d in (0.0, *extra_breakpoints):
                b = n * tau + d
                if 0.0 < b < t_end:
                    breaks.append(b)
    breaks = sorted(set(breaks))
    breaks.append(t_end)

    y0 = tuple(float(v) for v in y0)
    if len(y0) != 3:
        raise InvalidArgumentError(
            f"solve_dde marches three-component states, got {len(y0)} components"
        )
    # Accepted nodes: times in a list (for bisect), states and derivatives
    # flat, three floats per node.  The delayed lookup reads I and I' from
    # lists of their own, whose indexing hands back the stored float
    # where an array would box a new one.
    nodes_t = [0.0]
    nodes_y = array("d", y0)
    nodes_f = array("d")
    col_i = [y0[2]]
    col_fi = []

    delayed = tau > 0.0
    g, q, i = y0
    z = history(-tau) if delayed else i
    f0 = (
        gg * (aa - g * (1.0 + i)),
        gq * (bb - q * (1.0 + sat * i)),
        (g - q - 1.0) * i + kap * z,
    )
    nodes_f.extend(f0)
    col_fi.append(f0[2])

    atol, rtol = control.atol, control.rtol
    sc0 = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, sc0)) / 3)
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, sc0)) / 3)
    h = min(hmax, 0.01 * d0 / d1) if d1 > 1e-10 else min(hmax, 1e-3)
    h = max(h, 1e-8)

    # The tableau in locals.  Each stage sum below adds its terms left to
    # right, and the zero weights (A[6][1], E[1]) keep their ``0.0 * k2``
    # terms, so a non-finite k2 still poisons the step: the nodes equal,
    # bit for bit, those of a generic loop over the tableau rows.
    # The delayed lookups of a step sit at t + c h, c = c2 .. c6 (stage 7
    # shares stage 6's t + h).
    c2, c3, c4, c5, c6 = _C[1:6]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A[1:6]
    b1, _, b3, b4, b5, b6 = _A[6]
    e1, _, e3, e4, e5, e6, e7 = _E

    t = 0.0
    ya, yb, yc = y0
    k1a, k1b, k1c = f0
    err_old = 1e-4
    ibreak = 0
    naccept = 0
    nreject = 0
    facmax = 5.0
    max_steps = control.max_steps
    append_t = nodes_t.append
    extend_y = nodes_y.extend
    extend_f = nodes_f.extend
    append_i = col_i.append
    append_fi = col_fi.append

    # In the loop t >= 0, and each conditional expression evaluates as the
    # builtin max or min it stands for (``x if x > 1.0 else 1.0`` is
    # ``max(1.0, x)``), without the call.  A step that would end past the
    # guard of the next breakpoint ends on it; the guard is computed once
    # per breakpoint.
    stop = breaks[0]
    guard = stop - 1e-12 * (stop if stop > 1.0 else 1.0)
    t_last = t_end - 1e-12 * max(1.0, t_end)
    while t < t_last:
        passed = t + 1e-12 * (t if t > 1.0 else 1.0)
        if stop <= passed:
            while breaks[ibreak] <= passed:
                ibreak += 1
            stop = breaks[ibreak]
            guard = stop - 1e-12 * (stop if stop > 1.0 else 1.0)
        if h > hmax:
            h = hmax
        if t + h >= guard:
            h = stop - t
        if h < 1e-13 * (t if t > 1.0 else 1.0):
            raise StiffnessError(t)

        # The step's five delayed intensities I(t + c h - tau), all before
        # its stages: h <= tau / 4, so none reads the step being built.
        # Their times increase with c, and they all lie on one side of the
        # handover: tau is a breakpoint, so a step whose first lookup is
        # <= 0 ends at or before tau and reads the history alone.  Past
        # it, the first lookup finds its node interval by bisection and
        # the others walk forward from there, with _intensity_lookup's
        # Hermite arithmetic, term for term.
        s = t + c2 * h - tau
        if s > 0.0 and delayed:
            j = bisect_right(nodes_t, s) - 1
            t0 = nodes_t[j]
            dt = nodes_t[j + 1] - t0
            u = (s - t0) / dt
            om = 1.0 - u
            z2 = ((1.0 + 2.0 * u) * om * om * col_i[j]
                  + dt * (u * om * om) * col_fi[j]
                  + u * u * (3.0 - 2.0 * u) * col_i[j + 1]
                  + dt * (u * u * (u - 1.0)) * col_fi[j + 1])
            s = t + c3 * h - tau
            while nodes_t[j + 1] <= s:
                j += 1
            t0 = nodes_t[j]
            dt = nodes_t[j + 1] - t0
            u = (s - t0) / dt
            om = 1.0 - u
            z3 = ((1.0 + 2.0 * u) * om * om * col_i[j]
                  + dt * (u * om * om) * col_fi[j]
                  + u * u * (3.0 - 2.0 * u) * col_i[j + 1]
                  + dt * (u * u * (u - 1.0)) * col_fi[j + 1])
            s = t + c4 * h - tau
            while nodes_t[j + 1] <= s:
                j += 1
            t0 = nodes_t[j]
            dt = nodes_t[j + 1] - t0
            u = (s - t0) / dt
            om = 1.0 - u
            z4 = ((1.0 + 2.0 * u) * om * om * col_i[j]
                  + dt * (u * om * om) * col_fi[j]
                  + u * u * (3.0 - 2.0 * u) * col_i[j + 1]
                  + dt * (u * u * (u - 1.0)) * col_fi[j + 1])
            s = t + c5 * h - tau
            while nodes_t[j + 1] <= s:
                j += 1
            t0 = nodes_t[j]
            dt = nodes_t[j + 1] - t0
            u = (s - t0) / dt
            om = 1.0 - u
            z5 = ((1.0 + 2.0 * u) * om * om * col_i[j]
                  + dt * (u * om * om) * col_fi[j]
                  + u * u * (3.0 - 2.0 * u) * col_i[j + 1]
                  + dt * (u * u * (u - 1.0)) * col_fi[j + 1])
            s = t + c6 * h - tau
            while nodes_t[j + 1] <= s:
                j += 1
            t0 = nodes_t[j]
            dt = nodes_t[j + 1] - t0
            u = (s - t0) / dt
            om = 1.0 - u
            z6 = ((1.0 + 2.0 * u) * om * om * col_i[j]
                  + dt * (u * om * om) * col_fi[j]
                  + u * u * (3.0 - 2.0 * u) * col_i[j + 1]
                  + dt * (u * u * (u - 1.0)) * col_fi[j + 1])
        elif delayed:
            z2 = history(s)
            z3 = history(t + c3 * h - tau)
            z4 = history(t + c4 * h - tau)
            z5 = history(t + c5 * h - tau)
            z6 = history(t + c6 * h - tau)

        # Stages.  k1 is the FSAL derivative carried over from the last
        # accepted step.  Each stage evaluates the field at its state
        # (g, q, i) with the delayed intensity z.
        g = ya + h * (a21 * k1a)
        q = yb + h * (a21 * k1b)
        i = yc + h * (a21 * k1c)
        z = z2 if delayed else i
        k2a = gg * (aa - g * (1.0 + i))
        k2b = gq * (bb - q * (1.0 + sat * i))
        k2c = (g - q - 1.0) * i + kap * z

        g = ya + h * (a31 * k1a + a32 * k2a)
        q = yb + h * (a31 * k1b + a32 * k2b)
        i = yc + h * (a31 * k1c + a32 * k2c)
        z = z3 if delayed else i
        k3a = gg * (aa - g * (1.0 + i))
        k3b = gq * (bb - q * (1.0 + sat * i))
        k3c = (g - q - 1.0) * i + kap * z

        g = ya + h * (a41 * k1a + a42 * k2a + a43 * k3a)
        q = yb + h * (a41 * k1b + a42 * k2b + a43 * k3b)
        i = yc + h * (a41 * k1c + a42 * k2c + a43 * k3c)
        z = z4 if delayed else i
        k4a = gg * (aa - g * (1.0 + i))
        k4b = gq * (bb - q * (1.0 + sat * i))
        k4c = (g - q - 1.0) * i + kap * z

        g = ya + h * (a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a)
        q = yb + h * (a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b)
        i = yc + h * (a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c)
        z = z5 if delayed else i
        k5a = gg * (aa - g * (1.0 + i))
        k5b = gq * (bb - q * (1.0 + sat * i))
        k5c = (g - q - 1.0) * i + kap * z

        g = ya + h * (a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a)
        q = yb + h * (a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b)
        i = yc + h * (a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c + a65 * k5c)
        z = z6 if delayed else i
        k6a = gg * (aa - g * (1.0 + i))
        k6b = gq * (bb - q * (1.0 + sat * i))
        k6c = (g - q - 1.0) * i + kap * z

        # Stage 7 is the fifth-order solution (FSAL).
        na = ya + h * (b1 * k1a + 0.0 * k2a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a)
        nb = yb + h * (b1 * k1b + 0.0 * k2b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b)
        nc = yc + h * (b1 * k1c + 0.0 * k2c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c)
        z = z6 if delayed else nc
        k7a = gg * (aa - na * (1.0 + nc))
        k7b = gq * (bb - nb * (1.0 + sat * nc))
        k7c = (na - nb - 1.0) * nc + kap * z

        ea = h * (e1 * k1a + 0.0 * k2a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        eb = h * (e1 * k1b + 0.0 * k2b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        ec = h * (e1 * k1c + 0.0 * k2c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        # max(|y|, |y_new|) per component, written as max(a, b) evaluates:
        # b if b > a else a.
        ua, va = abs(ya), abs(na)
        ub, vb = abs(yb), abs(nb)
        uc, vc = abs(yc), abs(nc)
        err = math.sqrt((
            (ea / (atol + rtol * (va if va > ua else ua))) ** 2
            + (eb / (atol + rtol * (vb if vb > ub else ub))) ** 2
            + (ec / (atol + rtol * (vc if vc > uc else uc))) ** 2
        ) / 3)

        if err <= 1.0:
            t = t + h
            ya, yb, yc = na, nb, nc
            k1a, k1b, k1c = k7a, k7b, k7c
            append_t(t)
            extend_y((na, nb, nc))
            extend_f((k7a, k7b, k7c))
            append_i(nc)
            append_fi(k7c)
            naccept += 1
            if naccept > max_steps:
                raise StiffnessError(t, f"exceeded {max_steps} steps")
            if err < 1e-10:
                err = 1e-10
            fac = 0.9 * err ** -0.17 * err_old ** 0.04
            fac = fac if fac > 0.2 else 0.2
            h = h * (fac if fac < facmax else facmax)
            err_old = err
            facmax = 5.0
        else:
            if math.isnan(err):
                raise NumericalError(f"non-finite derivative at t = {t:.6g}")
            fac = 0.9 * err ** -0.2
            h = h * (fac if fac > 0.2 else 0.2)
            facmax = 1.0  # no growth right after a rejection
            nreject += 1

    t_nodes = np.array(nodes_t)
    steps = np.diff(t_nodes)
    stats = SolverStats(
        accepted=naccept,
        rejected=nreject,
        rhs_evals=1 + 6 * (naccept + nreject),
        h_min=float(steps.min(initial=math.inf)),
        h_max=float(steps.max(initial=0.0)),
        breakpoints=ibreak,
        wall_s=time.perf_counter() - wall0,
    )
    return (
        t_nodes,
        np.frombuffer(nodes_y).reshape(-1, 3),
        np.frombuffer(nodes_f).reshape(-1, 3),
        stats,
    )


def integrate(
    params: ModelParams,
    history: HistorySpec,
    t_end: float,
    control: StepControl | None = None,
) -> Trajectory:
    """Integrate the model forward from a prescribed history.

    Parameters
    ----------
    params : ModelParams
        Must have ``tau >= 0``.
    history : HistorySpec
        State on ``[-tau, 0]``; its value at 0 is the initial state.
    t_end : float
        Final time, > 0.
    control : StepControl, optional

    Returns
    -------
    Trajectory
        Dense solution on ``[0, t_end]``.

    Raises
    ------
    InvalidArgumentError
        For a ``t_end`` that is not positive and finite, ``tau < 0``, or
        a history source that does not cover the delay before ``shift``.
    StiffnessError
        If the adaptive step size underflows.
    NumericalError
        If the right-hand side evaluates to NaN.
    """
    if params.tau < 0.0:
        raise InvalidArgumentError("cannot integrate forward with a negative delay")
    control = control or StepControl()
    y0, intensity, jumps = history.realize(params)

    rates = (params.gamma_G, params.A, params.gamma_Q, params.B, params.a, params.kappa)
    t, y, yp, stats = solve_dde(rates, y0, intensity, params.tau, float(t_end), control, jumps)
    return Trajectory(t, y, yp, params, stats)
