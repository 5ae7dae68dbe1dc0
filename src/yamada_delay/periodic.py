"""Periodic pulse-train orbits by collocation on one period.

A pulse train is a periodic solution ``x(t + T) = x(t)`` of the delay
equations.  In scaled time ``s = t / T`` on ``[0, 1)`` it solves the
boundary-value problem ``x'(s) = T f(x(s), I(s - tau / T mod 1))``: the
delay is read modulo the period, so a ``k``-pulse train at ``tau`` and
the one-pulse train at ``tau - (k - 1) T`` are one and the same problem
(the reappearance argument), and a delay shorter than the period (an
advanced equation after the reduction) needs no special case.

The profile is a continuous piecewise polynomial of degree 4 on ``L``
mesh intervals, stored by its values at five equidistant nodes per
interval (the last node of an interval is the first of the next, and
the node index wraps around, which makes the profile periodic).  The
equations are the differential equation at the four Gauss points of
every interval, plus one phase condition, ``I(0)`` equal to the guess's
intensity at its upward threshold crossing; the unknowns are the node
values and ``T`` (Engelborghs, Luzyanina, in 't Hout & Roose, SIAM J.
Sci. Comput. 22, 2001).  Newton's method solves them with the sparse
Jacobian: each collocation row touches the nodes of its own interval,
the ``I`` nodes of the one interval its delayed point lands in, and
the ``T`` column.  The Jacobian is factored again only when the held
factorization stops cutting the residual tenfold a step, so a solve on
one mesh factors it once or twice; the other steps evaluate the
equations alone.

The first mesh equidistributes the monitor ``sqrt(|x'|)`` of the guess,
plus a floor that keeps the quiescent stretch resolved.  Its residual is
then known interval by interval, and it is very uneven (the median
interval sits 4 orders of magnitude below the worst), so the profile is
solved once more on a mesh that equidistributes the residual's estimate
for a narrower or wider interval.  On 150 intervals that mesh leaves a
residual near 4e-7 at the working point; the first leaves 7e-6 on 250.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NumericalError
from .integrator import Trajectory
from .model import M1_ENTRIES, ModelParams, field_rates, m1_entries

__all__ = ["PeriodicOrbit", "solve_periodic"]

#: Mesh intervals of the collocation profile.
INTERVALS = 150
#: Most mesh intervals the refinement may reach.
MAX_INTERVALS = 2000
#: Largest collocation residual of a returned orbit: the defect of the
#: differential equation at the interval ends and halfway between the
#: Gauss points, relative to the largest rate of change of the component.
RESIDUAL_TOL = 1e-5
#: Newton iterations before the solve counts as failed.
NEWTON_MAX_STEPS = 40
#: Smallest fraction of a Newton step tried before the solve counts as failed.
MIN_DAMPING = 2.0 ** -10
#: Newton stops once the update is below this, relative to the
#: amplitude of each component and to the period.
NEWTON_TOL = 1e-10
#: Floor of the mesh monitors, relative to their mean, so that the
#: quiescent stretch between pulses keeps a third of the intervals.
MONITOR_FLOOR = 0.5

_DEGREE = 4
_NODES = np.linspace(0.0, 1.0, _DEGREE + 1)
# Lagrange basis through _NODES in monomial coefficients: l_j(u) = sum_p _BASIS[p, j] u^p
# (from the roots, so that importing the package calls no LAPACK or BLAS routine)
_BASIS = np.transpose([np.poly(np.delete(_NODES, j))[::-1] / np.prod(x - np.delete(_NODES, j))
                       for j, x in enumerate(_NODES)])
# Gauss-Legendre points on [0, 1], +-sqrt(3/7 -+ 2/7 sqrt(6/5)) on [-1, 1]
_GAUSS = 0.5 + 0.5 * np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    3.0 / 7.0 + np.array([2.0, -2.0, -2.0, 2.0]) / 7.0 * np.sqrt(6.0 / 5.0))
# Midpoints between consecutive Gauss points and the interval ends, where
# the residual is measured.
_PROBES = np.concatenate([[0.0], 0.5 * (_GAUSS[:-1] + _GAUSS[1:]), [1.0]])


def _basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values and u-derivatives of the five Lagrange basis polynomials at ``u``.

    Summed one power at a time, lowest first, the order in which a sum
    over a stacked power axis adds, at half its time: every collocation
    residual evaluates the basis at its delayed points.
    """
    powers = np.asarray(u, dtype=float)[..., None, None] ** np.arange(_DEGREE + 1)
    val, der = powers[..., 0] * _BASIS[0], powers[..., 0] * _BASIS[1]
    for p in range(1, _DEGREE + 1):
        val += powers[..., p] * _BASIS[p]
    for p in range(2, _DEGREE + 1):
        der += (p * powers[..., p - 1]) * _BASIS[p]
    return val, der


_LG, _DG = _basis(_GAUSS)
_LP, _DP = _basis(_PROBES)
# The D_mj delta_cc' part of the collocation Jacobian on the entries (c, c')
# of M1_ENTRIES, shape (4, 7, 5).
_PAIR_DG = (M1_ENTRIES[0] == M1_ENTRIES[1])[None, :, None] * _DG[:, None, :]
# Slots of the three Jacobian rows of one Gauss point, stored one after the
# other: the row of G holds its own-node entries for (G, G) and (G, I) and
# its T entry, that of Q likewise, that of I its own-node entries for (I, G),
# (I, Q) and (I, I), the I nodes of the delayed interval and its T entry.
_ROW_START = np.array([0, 11, 22])
_BLOCK = 43
_OWN = np.r_[0:10, 11:21, 22:37]
_DELAYED = np.r_[37:42]
_TCOL = np.array([10, 21, 42])


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic solution, stored as a trajectory over whole periods.

    Attributes
    ----------
    trajectory : Trajectory
        The orbit over whole periods from its phase origin, enough to
        reach the ``span`` of :func:`solve_periodic`; the final period
        ``[anchor - T, anchor]`` is its fundamental domain.
    period : float
    k : int
        Pulses per delay interval.
    params : ModelParams
    anchor : float
        Right edge of the fundamental domain.
    residual : float
        Largest collocation residual (see :data:`RESIDUAL_TOL`).
    diagnostics : dict
        How the orbit was computed: the Newton steps (``newton_steps``),
        the sparse LU factorizations of the Jacobian (``factorizations``),
        both over every mesh of the solve, the mesh intervals ``L``, the
        largest collocation ``residual`` and the wall seconds of the
        solve (``solve_s``).  Empty for an orbit built by hand.  Not part
        of equality or of the output.
    dT_dtau : float
        Slope ``dT / dtau`` of the branch of orbits at fixed ``k``; NaN for
        an orbit built by hand.  Not part of equality or of the output.
    """

    trajectory: Trajectory
    period: float
    k: int
    params: ModelParams
    anchor: float
    residual: float
    diagnostics: dict = field(default_factory=dict, compare=False)
    dT_dtau: float = field(default=math.nan, compare=False)

    def state_many(self, ts) -> np.ndarray:
        """Orbit states at arbitrary times, reduced modulo the period."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        phase = np.mod(ts - self.anchor, self.period)
        return self.trajectory.evaluate_many(self.anchor - self.period + phase)


class _Mesh:
    """Mesh points ``s_0 = 0 < ... < s_L = 1`` and the node layout on them."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self.h = np.diff(points)
        self.L = len(self.h)
        L = self.L
        # node j of interval i is node 4 i + j, wrapped: node 4 L is node 0
        self.nodes = (_DEGREE * np.arange(L)[:, None] + np.arange(_DEGREE + 1)) % (_DEGREE * L)
        self.s = (points[:-1, None] + self.h[:, None] * _NODES[:-1]).ravel()
        self.gauss = points[:-1, None] + self.h[:, None] * _GAUSS
        # The Jacobian's columns that do not move with T, in the row slots
        # of _BLOCK; the delayed slots are filled per evaluation.
        own = 3 * self.nodes[:, None, None, :] + M1_ENTRIES[1][:, None]  # (L, 1, 7, 5)
        self.cols = np.empty((L, _DEGREE, _BLOCK), dtype=np.int32)
        own = np.broadcast_to(own, (L, _DEGREE) + own.shape[2:])
        self.cols[..., _OWN] = own.reshape(L, _DEGREE, -1)
        self.cols[..., _TCOL] = 3 * _DEGREE * L
        starts = (_BLOCK * np.arange(_DEGREE * L)[:, None] + _ROW_START).ravel()
        end = _BLOCK * _DEGREE * L  # then the phase row, one entry
        self.indptr = np.append(starts, [end, end + 1]).astype(np.int32)

    def at(self, s: np.ndarray):
        """Where each ``s`` (mod 1) falls: the nodes of its interval, and the
        basis values and s-derivatives there."""
        s = np.mod(s, 1.0)
        i = np.clip(np.searchsorted(self.points, s, side="right") - 1, 0, self.L - 1)
        val, der = _basis((s - self.points[i]) / self.h[i])
        return self.nodes[i], val, der / self.h[i][..., None]

    def delayed(self, s: np.ndarray, T: float, tau: float):
        """:meth:`at` the delayed points ``s - tau / T``."""
        return self.at(s - tau / T)


def _residual(X: np.ndarray, T: float, mesh: _Mesh, p: ModelParams, jacobian: bool = False):
    """Collocation equations, and with ``jacobian`` also their sparse Jacobian.

    Rows are scaled by the interval width: ``sum_j D_mj X_j - h T f`` at
    the Gauss points, ``12 L`` of them, then the phase row (filled by
    the caller).  Unknowns are the ``4 L`` node states, component-fastest,
    then ``T``.  The Jacobian is assembled row by row.
    """
    n = 3 * _DEGREE * mesh.L + 1
    Xi = X[mesh.nodes]  # (L, 5, 3)
    xg = np.einsum("mj,ljc->lmc", _LG, Xi)
    d_nodes, d_val, d_der = mesh.delayed(mesh.gauss, T, p.tau)  # (L, 4, 5) each
    z = (d_val * X[d_nodes, 2]).sum(axis=-1)
    f = field_rates(xg, z, p)
    hT = (mesh.h * T)[:, None, None]
    F = np.empty(n)
    F[:-1] = (np.einsum("mj,ljc->lmc", _DG, Xi) - hT * f).ravel()
    if not jacobian:
        return F
    from scipy import sparse

    vals = np.empty((mesh.L, _DEGREE, _BLOCK))
    # d/dX on the interval's own nodes, D_mj delta_cc' - h T J_cc' L_mj,
    # for the pairs (c, c') where the field's Jacobian can be nonzero
    own = _PAIR_DG - hT[..., None] * m1_entries(xg, p)[..., None] * _LG[:, None, :]
    vals[..., _OWN] = own.reshape(mesh.L, _DEGREE, -1)
    # d/dX on the I nodes of the delayed interval
    vals[..., _DELAYED] = -(hT * p.kappa) * d_val
    # d/dT, with the delayed point moving as T changes
    vals[..., _TCOL] = -mesh.h[:, None, None] * f
    dz = (d_der * X[d_nodes, 2]).sum(axis=-1)
    vals[..., _TCOL[2]] -= mesh.h[:, None] * p.kappa * p.tau / T * dz
    cols = mesh.cols.copy()
    cols[..., _DELAYED] = 3 * d_nodes + 2
    # A row can meet a node twice, from its own and from the delayed
    # interval; products and splu sum such duplicates.
    J = sparse.csr_matrix((np.append(vals.ravel(), 1.0), np.append(cols.ravel(), 2), mesh.indptr),
                          shape=(n, n))
    return F, J


def _interval_residuals(X: np.ndarray, T: float, mesh: _Mesh, p: ModelParams) -> np.ndarray:
    """Largest defect of ``x' = T f`` at :data:`_PROBES` of each interval,
    relative to each component's peak rate."""
    Xi = X[mesh.nodes]
    x = np.einsum("mj,ljc->lmc", _LP, Xi)
    dx = np.einsum("mj,ljc->lmc", _DP, Xi) / mesh.h[:, None, None]
    d_nodes, d_val, _ = mesh.delayed(mesh.points[:-1, None] + mesh.h[:, None] * _PROBES, T, p.tau)
    defect = np.abs(dx - T * field_rates(x, (d_val * X[d_nodes, 2]).sum(axis=-1), p))
    scale = np.abs(dx).max(axis=(0, 1))
    scale[scale <= 0.0] = 1.0
    return (defect / scale).max(axis=(1, 2))


def solve_periodic(
    params: ModelParams,
    guess: Trajectory,
    start: float,
    length: float,
    level: float,
    span: float,
    period: float | None = None,
) -> PeriodicOrbit:
    """Newton's method on the collocated periodic boundary-value problem.

    The solve starts on :data:`INTERVALS` mesh intervals placed by the
    guess.  While the collocation residual of the converged profile
    exceeds :data:`RESIDUAL_TOL`, the mesh is rebuilt from the residual of
    each interval, from the second time on with twice the intervals, up
    to :data:`MAX_INTERVALS`, and Newton's method runs again from the
    profile.

    Parameters
    ----------
    params : ModelParams
        The parameters to solve at, ``tau > 0``; the guess may come from
        a run at another delay.
    guess : Trajectory
        Must cover ``[start, start + length]``; that stretch is the
        initial profile.
    start : float
        An upward crossing of ``I`` through ``level``; it becomes the
        orbit's phase origin.
    length : float
        The guess's own period.
    level : float
        Intensity of the phase condition ``I(0) = level``.
    span : float
        The returned orbit's trajectory covers the fewest whole periods
        (at least one) that reach ``span``.
    period : float, optional
        Initial estimate of the period, ``length`` by default; the
        profile is stretched to it.

    Returns
    -------
    PeriodicOrbit
        ``k = round(tau / T)``; the trajectory starts at the phase origin.

    Raises
    ------
    NumericalError
        If Newton's method does not converge within
        :data:`NEWTON_MAX_STEPS` iterations or stalls, or the collocation residual
        still exceeds :data:`RESIDUAL_TOL` on :data:`MAX_INTERVALS`
        intervals.
    """
    wall0 = time.perf_counter()
    intervals = INTERVALS
    fine = np.linspace(0.0, 1.0, 16 * intervals + 1)
    xs = guess.evaluate_many(start + length * fine)
    speed = np.sqrt((np.diff(xs, axis=0) ** 2).sum(axis=1)) / np.diff(fine)
    mesh = _Mesh(_equidistributed(fine, np.sqrt(speed), intervals))
    X, T, steps, factorizations, slope = _newton(guess.evaluate_many(start + length * mesh.s),
                                                 length if period is None else period, level,
                                                 mesh, params)
    residuals = _interval_residuals(X, T, mesh, params)
    remeshed = False
    # Written so that NaN fails the check.
    while not residuals.max() <= RESIDUAL_TOL:
        if remeshed:
            intervals *= 2
        if intervals > MAX_INTERVALS:
            raise NumericalError(
                f"periodic orbit: collocation residual {residuals.max():.2e} above "
                f"{RESIDUAL_TOL:.0e} on {mesh.L} mesh intervals"
            )
        # Where the profile leaves residual r on an interval of width h, an
        # interval of width h' there leaves about r (h' / h)^4.
        new = _Mesh(_equidistributed(mesh.points, residuals ** 0.25 / mesh.h, intervals))
        nodes, val, _ = mesh.at(new.s)
        X = (val[..., None] * X[nodes]).sum(axis=-2)
        # dropping the slope frees its factorization before the next is made
        mesh, remeshed, slope = new, True, None
        X, T, n, m, slope = _newton(X, T, level, mesh, params)
        steps, factorizations = steps + n, factorizations + m
        residuals = _interval_residuals(X, T, mesh, params)

    dT_dtau = slope()
    # Free the factorization before the trajectory's arrays are made: freed
    # after them, it left the Floquet stage's peak 2.5 MB higher.
    del slope
    traj = _tile(X, T, mesh, params, max(1, math.ceil(span / T)))
    residual = float(residuals.max())
    diagnostics = {
        "newton_steps": steps,
        "factorizations": factorizations,
        "L": mesh.L,
        "residual": residual,
        "solve_s": time.perf_counter() - wall0,
    }
    k = max(1, int(round(params.tau / T)))
    return PeriodicOrbit(traj, T, k, params, traj.t1, residual, diagnostics, dT_dtau)


def _equidistributed(edges: np.ndarray, density: np.ndarray, intervals: int) -> np.ndarray:
    """``intervals + 1`` points of [0, 1] that split the integral of a monitor equally.

    The monitor is ``density`` on the cells between ``edges``, plus
    :data:`MONITOR_FLOOR` times its mean.
    """
    widths = np.diff(edges)
    weight = (density + MONITOR_FLOOR * (density * widths).sum()) * widths
    cum = np.concatenate([[0.0], np.cumsum(weight)])
    points = np.interp(np.linspace(0.0, cum[-1], intervals + 1), cum, edges)
    points[0], points[-1] = 0.0, 1.0
    return points


def _newton(X: np.ndarray, T: float, level: float, mesh: _Mesh, p: ModelParams):
    """Newton iterations from the node states ``X`` and period ``T``.

    Simplified Newton (Deuflhard, *Newton Methods for Nonlinear Problems*,
    2004): the Jacobian is factored again only when the held factorization
    stops contracting, and the other steps evaluate the equations alone.
    A step from a factorization made at an earlier iterate is taken whole
    if it lowers the 2-norm of the equations; otherwise the Jacobian is
    factored where the iteration stands.  A step from that is halved
    while it would not lower the norm, at most down to
    :data:`MIN_DAMPING`: near the feedback onset full steps from the start
    that :func:`yamada_delay.pulses.settle_train` predicts for a
    three-pulse train lose the pulse (``kappa = 0.008``, ``tau = 400``).

    Returns the converged ``X``, ``T``, the number of steps taken, the
    number of factorizations and the branch slope (:func:`_slope`) as a
    call without arguments, so that a mesh the remesh replaces does not
    pay for it.
    """
    from scipy.sparse.linalg import splu

    def equations(X, T):
        F = _residual(X, T, mesh, p)
        F[-1] = X[0, 2] - level
        return F, np.linalg.norm(F)

    def factor(X, T):
        nonlocal factorizations
        factorizations += 1
        try:
            return splu(_residual(X, T, mesh, p, jacobian=True)[1].tocsc())
        except RuntimeError as exc:  # an exactly singular Jacobian
            raise NumericalError(f"periodic orbit: singular Newton system ({exc})") from None

    scale = np.append(np.maximum(X.max(axis=0) - X.min(axis=0), 1e-12), T)
    F, norm = equations(X, T)
    factorizations = 0
    lu, fresh = factor(X, T), True
    for steps in range(1, NEWTON_MAX_STEPS + 1):
        du = lu.solve(F)
        if not np.all(np.isfinite(du)):
            raise NumericalError("periodic orbit: Newton's method diverged")
        dX, dT = du[:-1].reshape(-1, 3), du[-1]
        size = np.append(np.abs(dX).max(axis=0), abs(dT))
        if (size / scale).max() <= NEWTON_TOL:
            return X - dX, T - dT, steps, factorizations, partial(_slope, X, T, lu, mesh, p)
        # only a step from a factorization at this iterate is halved
        damping = 1.0
        while damping >= (MIN_DAMPING if fresh else 1.0):
            X1, T1 = X - damping * dX, T - damping * dT
            if T1 > 0.0:
                F1, norm1 = equations(X1, T1)
                if norm1 < norm:  # a NaN norm fails
                    break
            damping *= 0.5
        else:
            if fresh:
                raise NumericalError("periodic orbit: Newton's method stalled")
            lu, fresh = factor(X, T), True
            continue
        # Keep the factorization while a step cuts the norm tenfold:
        # assembling and factoring the Jacobian costs about ten evaluations
        # of the equations with a solve, which a digit a step repays.
        fresh = not norm1 <= 0.1 * norm
        X, T, F, norm = X1, T1, F1, norm1
        if fresh:
            lu = factor(X, T)
    raise NumericalError(
        f"periodic orbit: Newton's method did not converge in {NEWTON_MAX_STEPS} steps"
    )


def _slope(X: np.ndarray, T: float, lu, mesh: _Mesh, p: ModelParams) -> float:
    """Branch slope ``dT / dtau`` at the last Newton iterate ``X``, ``T``.

    Only the delayed point ``s - tau / T`` moves with ``tau``, so ``dF /
    dtau`` is ``h kappa dz/ds`` on the ``I`` rows and zero elsewhere.
    ``lu`` factors the Jacobian there or at an earlier iterate, so the
    solve is refined against the Jacobian at ``X`` while the correction
    shrinks: from an LU held over the last steps the unrefined slope was
    9e-8 off at ``(k, tau) = (1, 200)``.
    """
    _, J = _residual(X, T, mesh, p, jacobian=True)
    d_nodes, _, d_der = mesh.delayed(mesh.gauss, T, p.tau)
    F_tau = np.zeros(J.shape[0])
    F_tau[2:-1:3] = (mesh.h[:, None] * p.kappa * (d_der * X[d_nodes, 2]).sum(axis=-1)).ravel()
    x, last = lu.solve(F_tau), math.inf
    for _ in range(NEWTON_MAX_STEPS):
        dx = lu.solve(F_tau - J @ x)
        size = np.abs(dx).max()
        if not size < last:
            break
        x, last = x + dx, size
    return float(-x[-1])


def _tile(X: np.ndarray, T: float, mesh: _Mesh, p: ModelParams, n_periods: int) -> Trajectory:
    """The profile as a trajectory over ``n_periods`` periods from its phase origin.

    Nodes sit at the mesh points and the interval midpoints, where the
    derivative is the field itself, ``f(x, I(t - tau))``, so the
    trajectory's cubic Hermite pieces interpolate the orbit as the
    integrator's nodes do.  At the default mesh they stay within 1e-7 of
    the profile, relative to each component's peak; the mesh points alone
    would leave 1.5e-6, which at ``(k, tau) = (1, 200)`` raises the Floquet
    trivial-multiplier defect at ``N = 3201`` from 6e-8 to 3e-7.
    """
    s, x = mesh.s[::2], X[::2]
    d_nodes, d_val, _ = mesh.delayed(s, T, p.tau)
    f = field_rates(x, (d_val * X[d_nodes, 2]).sum(axis=-1), p)
    t = np.append((np.arange(n_periods)[:, None] + s).ravel() * T, n_periods * T)
    y = np.concatenate([np.tile(x, (n_periods, 1)), x[:1]])
    yp = np.concatenate([np.tile(f, (n_periods, 1)), f[:1]])
    return Trajectory(t, y, yp, p)
