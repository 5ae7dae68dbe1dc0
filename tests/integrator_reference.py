"""Reference method-of-steps march: generic field and dimension, tuple nodes.

Test-only code: the differential test in ``test_integrator.py`` checks
that :func:`yamada_delay.integrator.solve_dde`, which writes the Yamada
rate equations inline in unrolled DP5 stages, looks up only the delayed
intensity and keeps its nodes in flat buffers, returns node arrays equal
bit for bit to :func:`solve_dde` here.  This march takes a generic
``f(t, y, z)`` (:func:`yamada_field` builds the model's from the rate
constants), sums every stage with ``sum`` over a generator and looks
up all delayed components through :func:`_hermite_tuple`.  Its history
is a state callable: :func:`state_history` builds one from a realized
initial state and intensity line, and a ``from_tail`` history is looked
up through :meth:`Trajectory.evaluate` (:func:`from_tail_history`).
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from yamada_delay.errors import InvalidArgumentError, NumericalError, StiffnessError
from yamada_delay.integrator import SMOOTHING_ROUNDS, HistorySpec, StepControl, Trajectory
from yamada_delay.model import ModelParams

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


def state_history(y0, intensity):
    """The state callable of a realized history: ``y0`` at ``t = 0``, and
    before it ``y0``'s ``G`` and ``Q`` with the delayed intensity line."""
    y0 = tuple(y0)

    def h(t: float) -> tuple:
        return y0 if t == 0.0 else (y0[0], y0[1], intensity(t))

    return h


def from_tail_history(source: Trajectory, shift: float):
    """The ``from_tail`` history callable, one ``evaluate`` call per lookup."""

    def h(t: float) -> tuple:
        g, q, i = source.evaluate(min(t + shift, source.t1))
        return (g, q, i)

    return h


def yamada_field(rates):
    """``f(t, y, z)`` of the rate equations for ``(gamma_G, A, gamma_Q, B, a, kappa)``."""
    gg, aa, gq, bb, sat, kap = rates

    def f(t: float, y: tuple, z: tuple) -> tuple:
        g, q, i = y
        return (
            gg * (aa - g * (1.0 + i)),
            gq * (bb - q * (1.0 + sat * i)),
            (g - q - 1.0) * i + kap * z[2],
        )

    return f


def _hermite_tuple(t, t0, t1, y0, y1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    om = 1.0 - s
    h00 = (1.0 + 2.0 * s) * om * om
    h10 = s * om * om
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return tuple(
        h00 * a + h * h10 * b + h01 * c + h * h11 * d
        for a, b, c, d in zip(y0, f0, y1, f1)
    )


def solve_dde(
    f: Callable[[float, tuple, tuple], tuple],
    history: Callable[[float], tuple],
    tau: float,
    t_end: float,
    control: StepControl,
    extra_breakpoints: Sequence[float] = (),
):
    """Generic method-of-steps march; returns node arrays ``(t, y, yp)``."""
    if t_end <= 0.0:
        raise InvalidArgumentError("t_end must be positive")
    if tau < 0.0:
        raise InvalidArgumentError("cannot integrate forward with a negative delay")

    if control.max_step is not None:
        hmax = control.max_step
    else:
        hmax = 1.0
    if tau > 0.0:
        hmax = min(hmax, tau / 4.0)
    hmax = min(hmax, t_end)

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

    y0 = tuple(float(v) for v in history(0.0))
    dim = len(y0)
    nodes_t: list[float] = [0.0]
    nodes_y: list[tuple] = [y0]
    nodes_f: list[tuple] = []

    def delayed(s: float) -> tuple:
        if s <= 0.0:
            return tuple(float(v) for v in history(s))
        # max_step <= tau/4 guarantees s is well inside the stored nodes.
        i = bisect_right(nodes_t, s) - 1
        if i >= len(nodes_t) - 1:
            i = len(nodes_t) - 2
        return _hermite_tuple(
            s, nodes_t[i], nodes_t[i + 1], nodes_y[i], nodes_y[i + 1],
            nodes_f[i], nodes_f[i + 1],
        )

    def eval_f(t: float, y: tuple) -> tuple:
        z = delayed(t - tau) if tau > 0.0 else y
        return tuple(float(v) for v in f(t, y, z))

    f0 = eval_f(0.0, y0)
    nodes_f.append(f0)

    atol, rtol = control.atol, control.rtol
    sc0 = [atol + rtol * abs(v) for v in y0]
    d0 = math.sqrt(sum((v / s) ** 2 for v, s in zip(y0, sc0)) / dim)
    d1 = math.sqrt(sum((v / s) ** 2 for v, s in zip(f0, sc0)) / dim)
    h = min(hmax, 0.01 * d0 / d1) if d1 > 1e-10 else min(hmax, 1e-3)
    h = max(h, 1e-8)

    t = 0.0
    y = y0
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
        k = [fcur]
        for i in range(1, 7):
            ti = t + _C[i] * h
            ai = _A[i]
            yi = tuple(
                y[c] + h * sum(ai[j] * k[j][c] for j in range(i))
                for c in range(dim)
            )
            k.append(eval_f(ti, yi))
        ynew = yi  # stage 7 value: the fifth-order solution (FSAL)
        err2 = 0.0
        for c in range(dim):
            e = h * sum(_E[j] * k[j][c] for j in range(7))
            sc = atol + rtol * max(abs(y[c]), abs(ynew[c]))
            err2 += (e / sc) ** 2
        err = math.sqrt(err2 / dim)

        if err <= 1.0:
            t = t + h
            y = ynew
            fcur = k[6]
            nodes_t.append(t)
            nodes_y.append(y)
            nodes_f.append(fcur)
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
        np.array(nodes_y),
        np.array(nodes_f),
    )


def integrate(
    params: ModelParams,
    history: HistorySpec,
    t_end: float,
    control: StepControl | None = None,
):
    """The model's node arrays ``(t, y, yp)`` from the reference march."""
    control = control or StepControl()
    if history.kind == "from_tail":
        history.realize(params)  # the same source-length check
        hist_fn = from_tail_history(history.payload["source"], history.payload["shift"])
        discont = ()
    else:
        y0, intensity, discont = history.realize(params)
        hist_fn = state_history(y0, intensity)

    f = yamada_field((params.gamma_G, params.A, params.gamma_Q, params.B, params.a,
                      params.kappa))
    return solve_dde(f, hist_fn, params.tau, float(t_end), control, discont)
