"""Delay differential equation integration by the method of steps.

The solver marches an embedded Dormand-Prince 5(4) pair with
proportional-integral step-size control and keeps every accepted node
``(t, y, y')``.  The stages are unrolled for the model's three state
components, and the nodes are kept in flat buffers.  Cubic Hermite
interpolation through those nodes serves both as the user-facing dense
output and as the internal lookup for the delayed term, which is what
makes the method of steps work: the step is capped at ``tau / 4`` so a
delayed lookup never reads the step currently being built.  That is the
only default cap; below it the error estimate alone sets the step, so
the quiescent stretches between pulses are crossed in long steps.

Derivative discontinuities enter at ``t = 0`` (where the prescribed
history hands over to the flow) and propagate to ``t = n*tau``; the
solver places nodes exactly on those breakpoints for the first few
rounds, after which the solution is smooth enough that step control
alone handles them.
"""

from __future__ import annotations

import math
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
    smoothing_rounds : int
        Number of delay intervals whose endpoints ``n * tau`` (and
        images of history discontinuities) are forced to be step
        boundaries.  After that many rounds the propagated
        discontinuities are of high enough order to ignore.
    max_steps : int
        Safety bound on the number of accepted steps.
    """

    atol: float = 1e-9
    rtol: float = 1e-7
    max_step: float | None = None
    smoothing_rounds: int = 3
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (0.0 < self.atol < math.inf and 0.0 < self.rtol < math.inf):
            raise InvalidArgumentError("atol and rtol must be positive and finite")
        if self.max_step is not None and not self.max_step > 0.0:
            raise InvalidArgumentError("max_step must be positive")
        if self.smoothing_rounds < 0:
            raise InvalidArgumentError("smoothing_rounds must be >= 0")
        if self.max_steps < 1:
            raise InvalidArgumentError("max_steps must be >= 1")


class Trajectory:
    """Densely interpolable solution of one integration run.

    Stores the accepted nodes ``(t_i, y_i, y'_i)`` and evaluates
    anywhere in ``[t0, t1]`` by piecewise cubic Hermite interpolation,
    which matches the order of accuracy of the dense representation
    the integrator itself used for delayed lookups.  A trajectory also
    serves as the history source for a follow-up run (see
    :meth:`HistorySpec.from_tail`).
    """

    def __init__(self, t, y, yp, params: ModelParams):
        self.t = np.asarray(t, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.yp = np.asarray(yp, dtype=float)
        self.params = params
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
        if dt <= 0.0:
            raise InvalidArgumentError("sampling interval must be positive")
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
        if amplitude < 0.0:
            raise InvalidArgumentError("pulse amplitude must be nonnegative")
        if width <= 0.0:
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

    def realize(self, params: ModelParams) -> tuple[Callable[[float], tuple], tuple[float, ...]]:
        """Concrete history callable on ``[-tau, 0]`` for these parameters.

        Returns the callable and the interior times (< 0) at which the
        history has a jump, so the integrator can track their delayed
        images as breakpoints.
        """
        tau = params.tau
        if self.kind == "constant":
            st: State = self.payload["state"]
            val = (st.G, st.Q, st.I)
            return (lambda t: val), ()
        if self.kind == "off_plus_pulse":
            amp = self.payload["amplitude"]
            width = self.payload["width"]
            base = (params.A, params.B, 0.0)
            kick = (params.A, params.B, amp)

            def h(t: float) -> tuple:
                return kick if t >= -width else base

            discont = (-width,) if width < tau else ()
            return h, discont
        if self.kind == "from_tail":
            source: Trajectory = self.payload["source"]
            shift: float = self.payload["shift"]
            if shift - tau < source.t0 - 1e-9 or shift > source.t1 + 1e-9:
                raise InvalidArgumentError(
                    "source trajectory too short to supply a history of length tau"
                )

            # Convert only the source nodes that cover [shift - tau, shift].
            n = len(source.t)
            lo = int(np.searchsorted(source.t, shift - tau, side="right")) - 1
            lo = min(max(lo, 0), n - 2)
            hi = int(np.searchsorted(source.t, shift, side="right"))
            hi = min(max(hi, lo + 1), n - 1)
            ts = source.t[lo:hi + 1].tolist()
            ys = source.y[lo:hi + 1].ravel().tolist()
            fs = source.yp[lo:hi + 1].ravel().tolist()
            t1 = source.t1

            def h(t: float) -> tuple:
                return _node_lookup(ts, ys, fs, min(t + shift, t1))

            return h, ()
        raise InvalidArgumentError(f"unknown history kind {self.kind!r}")


def _node_lookup(ts: list, ys, fs, x: float) -> tuple:
    """Cubic Hermite value at ``x`` through flat three-component node buffers.

    ``ts`` holds the node times, ``ys`` and ``fs`` the states and
    derivatives three floats per node.  Same arithmetic, term for term,
    as :meth:`Trajectory.evaluate_many`.
    """
    i = bisect_right(ts, x) - 1
    if i > len(ts) - 2:
        i = len(ts) - 2
    elif i < 0:
        i = 0
    t0 = ts[i]
    dt = ts[i + 1] - t0
    s = (x - t0) / dt
    om = 1.0 - s
    h00 = (1.0 + 2.0 * s) * om * om
    h10 = dt * (s * om * om)
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = dt * (s * s * (s - 1.0))
    j = 3 * i
    return (
        h00 * ys[j] + h10 * fs[j] + h01 * ys[j + 3] + h11 * fs[j + 3],
        h00 * ys[j + 1] + h10 * fs[j + 1] + h01 * ys[j + 4] + h11 * fs[j + 4],
        h00 * ys[j + 2] + h10 * fs[j + 2] + h01 * ys[j + 5] + h11 * fs[j + 5],
    )


def solve_dde(
    f: Callable[[float, tuple, tuple], tuple],
    history: Callable[[float], tuple],
    tau: float,
    t_end: float,
    control: StepControl,
    extra_breakpoints: Sequence[float] = (),
):
    """Method-of-steps march of a three-component field; returns node arrays ``(t, y, yp)``.

    The stages are unrolled for exactly three state components, so the
    history must supply three values.

    Parameters
    ----------
    f : callable
        ``f(t, y, y_delayed) -> derivative`` on 3-tuples.  For
        ``tau == 0`` the current stage value is passed as ``y_delayed``
        and the march reduces to an ordinary Runge-Kutta integration.
    history : callable
        State on ``[-tau, 0]``; ``history(0.0)`` is the initial state.
    tau : float
        Delay, >= 0.
    t_end : float
        Final time, > 0.
    control : StepControl
    extra_breakpoints : sequence of float
        Interior history jump times (< 0) whose delayed images get
        breakpoint treatment alongside the multiples of tau.

    Raises
    ------
    InvalidArgumentError
        For ``t_end <= 0``, ``tau < 0``, or a history whose state does
        not have three components.
    """
    if t_end <= 0.0:
        raise InvalidArgumentError("t_end must be positive")
    if tau < 0.0:
        raise InvalidArgumentError("cannot integrate forward with a negative delay")

    # tau / 4 (t_end at tau = 0) is the only default cap; below it the
    # error estimate alone sets the step.
    hmax = min(t_end, tau / 4.0) if tau > 0.0 else t_end
    if control.max_step is not None:
        hmax = min(hmax, control.max_step)

    # Breakpoints: images n*tau + d of the handover (d = 0) and of any
    # history jumps, for the first smoothing_rounds delay intervals.
    breaks: list[float] = []
    if tau > 0.0:
        for n in range(1, control.smoothing_rounds + 1):
            for d in (0.0, *extra_breakpoints):
                b = n * tau + d
                if 0.0 < b < t_end:
                    breaks.append(b)
    breaks = sorted(set(breaks))
    breaks.append(t_end)

    y0 = tuple(float(v) for v in history(0.0))
    if len(y0) != 3:
        raise InvalidArgumentError(
            f"solve_dde marches three-component states, got {len(y0)} components"
        )
    # Accepted nodes: times in a list (for bisect), states and derivatives
    # flat, three floats per node.
    nodes_t = [0.0]
    nodes_y = array("d", y0)
    nodes_f = array("d")

    def eval_f(t: float, y: tuple) -> tuple:
        if tau == 0.0:
            return f(t, y, y)
        s = t - tau
        if s <= 0.0:
            return f(t, y, history(s))
        # hmax <= tau/4 guarantees s is well inside the stored nodes.
        return f(t, y, _node_lookup(nodes_t, nodes_y, nodes_f, s))

    f0 = tuple(float(v) for v in eval_f(0.0, y0))
    nodes_f.extend(f0)

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
    c2, c3, c4, c5 = _C[1:5]
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A[1:6]
    b1, _, b3, b4, b5, b6 = _A[6]
    e1, _, e3, e4, e5, e6, e7 = _E

    t = 0.0
    ya, yb, yc = y0
    fcur = f0
    err_old = 1e-4
    ibreak = 0
    naccept = 0
    facmax = 5.0

    while t < t_end - 1e-12 * max(1.0, t_end):
        while breaks[ibreak] <= t + 1e-12 * max(1.0, t):
            ibreak += 1
        stop = breaks[ibreak]
        h = min(h, hmax)
        if t + h >= stop - 1e-12 * max(1.0, stop):
            h = stop - t
        if h < 1e-13 * max(1.0, abs(t)):
            raise StiffnessError(t)

        # Stages.  k1 is the FSAL derivative carried over from the last
        # accepted step.
        k1a, k1b, k1c = fcur
        k2a, k2b, k2c = eval_f(t + c2 * h, (
            ya + h * (a21 * k1a),
            yb + h * (a21 * k1b),
            yc + h * (a21 * k1c),
        ))
        k3a, k3b, k3c = eval_f(t + c3 * h, (
            ya + h * (a31 * k1a + a32 * k2a),
            yb + h * (a31 * k1b + a32 * k2b),
            yc + h * (a31 * k1c + a32 * k2c),
        ))
        k4a, k4b, k4c = eval_f(t + c4 * h, (
            ya + h * (a41 * k1a + a42 * k2a + a43 * k3a),
            yb + h * (a41 * k1b + a42 * k2b + a43 * k3b),
            yc + h * (a41 * k1c + a42 * k2c + a43 * k3c),
        ))
        k5a, k5b, k5c = eval_f(t + c5 * h, (
            ya + h * (a51 * k1a + a52 * k2a + a53 * k3a + a54 * k4a),
            yb + h * (a51 * k1b + a52 * k2b + a53 * k3b + a54 * k4b),
            yc + h * (a51 * k1c + a52 * k2c + a53 * k3c + a54 * k4c),
        ))
        k6a, k6b, k6c = eval_f(t + h, (
            ya + h * (a61 * k1a + a62 * k2a + a63 * k3a + a64 * k4a + a65 * k5a),
            yb + h * (a61 * k1b + a62 * k2b + a63 * k3b + a64 * k4b + a65 * k5b),
            yc + h * (a61 * k1c + a62 * k2c + a63 * k3c + a64 * k4c + a65 * k5c),
        ))
        # Stage 7 is the fifth-order solution (FSAL).
        ynew = (
            ya + h * (b1 * k1a + 0.0 * k2a + b3 * k3a + b4 * k4a + b5 * k5a + b6 * k6a),
            yb + h * (b1 * k1b + 0.0 * k2b + b3 * k3b + b4 * k4b + b5 * k5b + b6 * k6b),
            yc + h * (b1 * k1c + 0.0 * k2c + b3 * k3c + b4 * k4c + b5 * k5c + b6 * k6c),
        )
        k7 = eval_f(t + h, ynew)
        k7a, k7b, k7c = k7
        na, nb, nc = ynew
        ea = h * (e1 * k1a + 0.0 * k2a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a)
        eb = h * (e1 * k1b + 0.0 * k2b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b)
        ec = h * (e1 * k1c + 0.0 * k2c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c)
        err = math.sqrt((
            (ea / (atol + rtol * max(abs(ya), abs(na)))) ** 2
            + (eb / (atol + rtol * max(abs(yb), abs(nb)))) ** 2
            + (ec / (atol + rtol * max(abs(yc), abs(nc)))) ** 2
        ) / 3)

        if err <= 1.0:
            t = t + h
            ya, yb, yc = ynew
            fcur = k7
            nodes_t.append(t)
            nodes_y.extend(ynew)
            nodes_f.extend(k7)
            naccept += 1
            if naccept > control.max_steps:
                raise StiffnessError(t, f"exceeded {control.max_steps} steps")
            err = max(err, 1e-10)
            fac = 0.9 * err ** -0.17 * err_old ** 0.04
            h = h * min(facmax, max(0.2, fac))
            err_old = err
            facmax = 5.0
        else:
            if math.isnan(err):
                raise NumericalError(f"non-finite derivative at t = {t:.6g}")
            h = h * max(0.2, 0.9 * err ** -0.2)
            facmax = 1.0  # no growth right after a rejection

    return (
        np.array(nodes_t),
        np.frombuffer(nodes_y).reshape(-1, 3),
        np.frombuffer(nodes_f).reshape(-1, 3),
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
        For ``t_end <= 0``, ``tau < 0``, or a history source shorter
        than the delay.
    StiffnessError
        If the adaptive step size underflows.
    NumericalError
        If the right-hand side evaluates to NaN.
    """
    if params.tau < 0.0:
        raise InvalidArgumentError("cannot integrate forward with a negative delay")
    control = control or StepControl()
    hist_fn, discont = history.realize(params)

    gg, gq = params.gamma_G, params.gamma_Q
    aa, bb, sat, kap = params.A, params.B, params.a, params.kappa

    def f(t: float, y: tuple, z: tuple) -> tuple:
        g, q, i = y
        return (
            gg * (aa - g * (1.0 + i)),
            gq * (bb - q * (1.0 + sat * i)),
            (g - q - 1.0) * i + kap * z[2],
        )

    t, y, yp = solve_dde(f, hist_fn, params.tau, float(t_end), control, discont)
    return Trajectory(t, y, yp, params)
