"""Reference period maps, dense, as the library built them before.

Test-only code: the differential tests in ``test_floquet.py`` compare
:func:`yamada_delay.monodromy_multipliers` and its causal-part operator
against these functions.

* :func:`reduced_period_map` assembles the dense ``(N+2) x (N+2)`` map on
  ``I`` at every node plus ``G`` and ``Q`` at the last node, marching all
  ``N + 2`` basis histories and calling :func:`_cardinal_weights` once
  per delayed lookup.
* :func:`full_period_map` discretizes all three components at every
  history node (column ``3j + c`` is component ``c`` at node ``j``).
* :func:`arpack_reference` takes the leading eigenvalues of a map at
  machine precision, the solve that ``_leading_eigs`` stops early.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse.linalg

from yamada_delay.floquet import _m1_along


#: Points of one interpolation stencil.
WIDTH = 6


def _cardinal_weights(s: float, n_nodes: int, spacing: float):
    """Quintic Lagrange weights for interpolating node data at offset s.

    ``s`` is measured from the first node in time units; the six-point
    stencil is centred on the spacing that holds ``s`` and clamped at
    the ends of the grid.
    """
    u = s / spacing
    j0 = int(math.floor(u)) - 2
    j0 = min(max(j0, 0), n_nodes - WIDTH)
    x = u - j0
    w = []
    for l in range(WIDTH):
        num = 1.0
        for mth in range(WIDTH):
            if mth != l:
                num *= (x - mth) / (l - mth)
        w.append(num)
    return j0, w


def _steps(T: float, tau: float, step: float) -> int:
    """March steps over the period: ``T / step`` rounded up, and at least
    ``floor(T / tau) + 1``, so that each step is shorter than the delay
    and its lookups read rows already written."""
    return max(math.ceil(T / step), math.floor(T / tau) + 1)


def reduced_period_map(orbit, N: int | None = None, step: float = 0.05) -> np.ndarray:
    """Dense (N+2) x (N+2) period map: same unknowns, grid and march as the library."""
    params = orbit.params
    tau = params.tau
    T = orbit.period
    if N is None:
        N = min(4000, int(math.ceil(3.0 * tau)) + 1)
    spacing = tau / (N - 1)
    dim = N + 2
    kap = params.kappa

    n_steps = _steps(T, tau, step)
    h = T / n_steps

    # M1 along the orbit at nodes and midpoints of the march grid.
    t_nodes = np.arange(n_steps + 1) * h
    m1_nodes = _m1_along(orbit, t_nodes)
    m1_mids = _m1_along(orbit, t_nodes[:-1] + 0.5 * h)

    # Basis: column j < N is the history that is 1 in I at node j and 0
    # elsewhere; columns N and N + 1 are G and Q at the last node, where
    # the initial state lives.
    Y = np.zeros((3, dim))
    Y[0, N] = Y[1, N + 1] = Y[2, N - 1] = 1.0

    def history_row(s: float) -> np.ndarray:
        """Intensity row of the interpolated initial history at s < 0."""
        j0, w = _cardinal_weights(s + tau, N, spacing)
        row = np.zeros(dim)
        row[j0:j0 + WIDTH] = w
        return row

    # Stored intensity rows (value and derivative) at past march nodes,
    # needed only when t - tau lands in the computed part (k = 1 orbits).
    store_max = max(0.0, T - tau) + 2.0 * h
    stored_i: list[np.ndarray] = []
    stored_d: list[np.ndarray] = []

    def hermite(x: float, y0, f0, y1, f1):
        """Cubic Hermite interpolant across one march step, x in [0, 1]."""
        om = 1.0 - x
        h00 = (1.0 + 2.0 * x) * om * om
        h10 = x * om * om
        h01 = x * x * (3.0 - 2.0 * x)
        h11 = x * x * (x - 1.0)
        return h00 * y0 + (h * h10) * f0 + h01 * y1 + (h * h11) * f1

    def delayed_row(s: float) -> np.ndarray:
        if s <= 0.0:
            return history_row(s)
        j = int(s / h)
        x = (s - j * h) / h
        return hermite(x, stored_i[j], stored_d[j], stored_i[j + 1], stored_d[j + 1])

    # Output sample times: the new history nodes T + theta_j.  Row j is
    # I at node j; rows N and N + 1 are G and Q at the last node.
    theta = -tau + spacing * np.arange(N)
    out_times = T + theta
    M = np.empty((dim, dim))
    out_j = 0
    # rows for nodes that remain inside the original history
    while out_j < N and out_times[out_j] < 0.0:
        M[out_j] = history_row(out_times[out_j])
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
        # emit output samples inside (t-h, t]
        if prev_Y is not None:
            while out_j < N and out_times[out_j] <= t + 1e-12 * max(1.0, t):
                x = (out_times[out_j] - (t - h)) / h
                x = min(max(x, 0.0), 1.0)
                M[out_j] = hermite(x, prev_Y[2], prev_F[2], Y[2], F[2])
                out_j += 1
        elif out_j < N and abs(out_times[out_j]) <= 1e-12:
            M[out_j] = Y[2]
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
    M[N:] = Y[:2]  # the march ends at t = T, the last node
    return M


def full_period_map(orbit, N: int | None = None, step: float = 0.05) -> np.ndarray:
    """Dense 3N x 3N discretized period map, same grid and march as the library."""
    params = orbit.params
    tau = params.tau
    T = orbit.period
    if N is None:
        N = min(4000, int(math.ceil(3.0 * tau)) + 1)
    spacing = tau / (N - 1)
    dim = 3 * N
    kap = params.kappa

    n_steps = _steps(T, tau, step)
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
        for l in range(WIDTH):
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
            for l in range(WIDTH):
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


def arpack_reference(M, m=200):
    """The m leading eigenvalues of ``M`` (an ndarray or anything with
    ``shape`` and ``M @ x``) from ARPACK at machine precision (``tol=0``),
    ordered as ``_leading_eigs`` orders them."""
    A = scipy.sparse.linalg.LinearOperator(M.shape, matvec=lambda x: M @ x, dtype=float)
    vals = scipy.sparse.linalg.eigs(A, k=m, which="LM", v0=np.linspace(1.0, 2.0, M.shape[0]),
                                    tol=0, return_eigenvectors=False)
    return vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
