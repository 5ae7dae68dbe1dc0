"""Reference period map on the full 3N-dimensional history space.

Test-only code: the differential test in ``test_floquet.py`` compares
the (N+2)-dimensional map of :func:`yamada_delay.monodromy_multipliers`
against this function, which discretizes all three components at every
history node (column ``3j + c`` is component ``c`` at node ``j``).
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from yamada_delay.floquet import _cardinal_weights, _m1_along


def full_period_map(orbit, N: int | None = None, step: float = 0.05) -> np.ndarray:
    """Dense 3N x 3N discretized period map, same grid and march as the library."""
    params = orbit.params
    tau = params.tau
    T = orbit.period
    if N is None:
        N = min(4000, int(math.ceil(tau / 0.25)) + 1)
    spacing = tau / (N - 1)
    dim = 3 * N
    kap = params.kappa

    n_steps = max(1, int(math.ceil(T / step)))
    h = T / n_steps

    t_nodes = np.arange(n_steps + 1) * h
    m1_nodes = _m1_along(orbit, t_nodes)
    m1_mids = _m1_along(orbit, t_nodes[:-1] + 0.5 * h)

    Y = np.zeros((3, dim))
    for c in range(3):
        Y[c, 3 * (N - 1) + c] = 1.0

    def history_row(s: float) -> np.ndarray:
        j0, w = _cardinal_weights(s + tau, N, spacing)
        row = np.zeros(dim)
        for l in range(4):
            row[3 * (j0 + l) + 2] = w[l]
        return row

    store_max = max(0.0, T - tau) + 2.0 * h
    stored_i: list[np.ndarray] = []
    stored_d: list[np.ndarray] = []

    def delayed_row(s: float) -> np.ndarray:
        if s <= 0.0:
            return history_row(s)
        j = int(s / h)
        t0 = j * h
        x = (s - t0) / h
        om = 1.0 - x
        h00 = (1.0 + 2.0 * x) * om * om
        h10 = x * om * om
        h01 = x * x * (3.0 - 2.0 * x)
        h11 = x * x * (x - 1.0)
        return (
            h00 * stored_i[j]
            + (h * h10) * stored_d[j]
            + h01 * stored_i[j + 1]
            + (h * h11) * stored_d[j + 1]
        )

    theta = -tau + spacing * np.arange(N)
    out_times = T + theta
    M = np.empty((dim, dim))
    out_j = 0
    while out_j < N and out_times[out_j] < 0.0:
        s = out_times[out_j]
        j0, w = _cardinal_weights(s + tau, N, spacing)
        for c in range(3):
            row = np.zeros(dim)
            for l in range(4):
                row[3 * (j0 + l) + c] = w[l]
            M[3 * out_j + c] = row
        out_j += 1

    prev_Y = None
    prev_F = None
    for i in range(n_steps + 1):
        t = i * h
        d1 = delayed_row(t - tau)
        F = m1_nodes[i] @ Y
        F[2] += kap * d1
        if t <= store_max:
            stored_i.append(Y[2].copy())
            stored_d.append(F[2].copy())
        if prev_Y is not None:
            while out_j < N and out_times[out_j] <= t + 1e-12 * max(1.0, t):
                x = (out_times[out_j] - (t - h)) / h
                x = min(max(x, 0.0), 1.0)
                om = 1.0 - x
                h00 = (1.0 + 2.0 * x) * om * om
                h10 = x * om * om
                h01 = x * x * (3.0 - 2.0 * x)
                h11 = x * x * (x - 1.0)
                sample = h00 * prev_Y + (h * h10) * prev_F + h01 * Y + (h * h11) * F
                for c in range(3):
                    M[3 * out_j + c] = sample[c]
                out_j += 1
        elif out_j < N and abs(out_times[out_j]) <= 1e-12:
            for c in range(3):
                M[3 * out_j + c] = Y[c]
            out_j += 1
        if i == n_steps:
            break

        mid = m1_mids[i]
        d2 = delayed_row(t + 0.5 * h - tau)
        k2 = mid @ (Y + (0.5 * h) * F)
        k2[2] += kap * d2
        k3 = mid @ (Y + (0.5 * h) * k2)
        k3[2] += kap * d2
        d4 = delayed_row(t + h - tau)
        k4 = m1_nodes[i + 1] @ (Y + h * k3)
        k4[2] += kap * d4
        prev_Y = Y
        prev_F = F
        Y = Y + (h / 6.0) * (F + 2.0 * k2 + 2.0 * k3 + k4)

    if out_j != N:
        raise RuntimeError("sampling walk failed to fill the period map")
    return M
