"""Floquet spectra of pulsing orbits and their large-delay limit.

The variational equation about a periodic orbit ``x(t)`` of the
feedback system is ``y'(t) = M1(x(t)) y(t) + M2 y(t-tau)``; its natural
phase space is the history segment on ``[-tau, 0]``.  The monodromy
operator advances a history by one period ``T``, and its eigenvalues --
the Floquet multipliers -- decide orbital stability: the trivial
multiplier 1 reflects time translation, every other multiplier must lie
strictly inside the unit circle.

The operator is discretized on ``N`` uniform nodes with cubic
interpolation for off-node lookups.  Only ``I(t - tau)`` feeds back
(``M2`` has a single nonzero entry), so the ``G`` and ``Q`` history
before ``t = 0`` never reaches the future: the map acts on ``N + 2``
unknowns, ``I`` at every node plus ``G`` and ``Q`` at the last node,
whose basis histories are advanced in one vectorized fixed-step
Runge-Kutta pass.

As the delay grows, most multipliers condense onto the asymptotic
continuous spectrum, the closed curve ``mu^k = kappa e^{i omega
delta0} / (i omega - A + B + 1)`` traced by the regeneration lag
``delta0``; its maximum modulus and the resulting closed-form stability
bounds are evaluated here as well.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError, SingularParameterError
from .integrator import Trajectory
from .model import ModelParams
# detect_pulses is unused here but stays importable: bench/spans.py patches it by name.
from .pulses import PERIOD_INTERVALS, detect_pulses, measure_train, refine_period  # noqa: F401

__all__ = [
    "PeriodicOrbit",
    "FloquetSet",
    "ACSCurve",
    "extract_orbit",
    "monodromy_multipliers",
    "acs",
    "acs_max_modulus",
    "min_stable_delay",
    "max_pulses",
]

#: Largest periodicity residual of an extracted orbit.
RESIDUAL_TOL = 1e-5


@dataclass(frozen=True)
class PeriodicOrbit:
    """A settled periodic solution, stored as one period of a trajectory.

    Attributes
    ----------
    trajectory : Trajectory
        Source run; the final period ``[anchor - T, anchor]`` is the
        orbit's fundamental domain (the trajectory must extend at least
        ``2 T`` back from the anchor so the periodicity residual can be
        measured).
    period : float
    k : int
        Pulses per delay interval.
    params : ModelParams
    anchor : float
        Right edge of the fundamental domain.
    residual : float
        Measured periodicity defect, relative to the orbit amplitude.
    """

    trajectory: Trajectory
    period: float
    k: int
    params: ModelParams
    anchor: float
    residual: float

    def state_many(self, ts) -> np.ndarray:
        """Orbit states at arbitrary times, reduced modulo the period."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        phase = np.mod(ts - self.anchor, self.period)
        return self.trajectory.evaluate_many(self.anchor - self.period + phase)


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


@dataclass(frozen=True)
class FloquetSet:
    """Leading Floquet multipliers of one orbit.

    Attributes
    ----------
    multipliers : ndarray of complex
        Sorted by modulus, descending; closed under conjugation.
    N : int
        Number of history nodes used by the discretization.
    trivial : complex
        The multiplier closest to 1 (time-translation symmetry); its
        distance from 1 measures the discretization error.
    period : float
    """

    multipliers: np.ndarray
    N: int
    trivial: complex
    period: float

    def __len__(self) -> int:
        return len(self.multipliers)

    def nontrivial(self) -> np.ndarray:
        """All multipliers except the single one closest to 1."""
        idx = int(np.argmin(np.abs(self.multipliers - 1.0)))
        return np.delete(self.multipliers, idx)

    def to_json_obj(self) -> dict:
        from . import _io

        return _io.floquet_json(self)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        from . import _io

        return _io.floquet_rows(self)


def _cardinal_weights(s: float, n_nodes: int, spacing: float):
    """Cubic Lagrange weights for interpolating node data at offset s.

    ``s`` is measured from the first node in units of the spacing; the
    four-point stencil is clamped at the ends of the grid.
    """
    u = s / spacing
    j0 = int(math.floor(u)) - 1
    j0 = min(max(j0, 0), n_nodes - 4)
    x = u - j0
    w = []
    for l in range(4):
        num = 1.0
        for mth in range(4):
            if mth != l:
                num *= (x - mth) / (l - mth)
        w.append(num)
    return j0, w


def monodromy_multipliers(
    orbit: PeriodicOrbit,
    N: int | None = None,
    m: int = 200,
    step: float = 0.05,
) -> FloquetSet:
    """Leading Floquet multipliers via the discretized period map.

    The map acts on ``I`` at the ``N`` nodes plus ``G`` and ``Q`` at the
    last node and takes ``(N + 2)**2 * 8`` bytes.  Leaving out interior
    ``G``/``Q`` is exact: on all ``3N`` unknowns the map is block
    lower-triangular, and its interior ``G``/``Q`` block only shifts
    values to later nodes (the period spans three or more node
    spacings), so it adds nothing but zero multipliers.

    Parameters
    ----------
    orbit : PeriodicOrbit
    N : int, optional
        History nodes on ``[-tau, 0]``.  Default: node spacing 0.25
        time units, capped at 4000 nodes.  Spacing should resolve the
        pulse profile (a few nodes per pulse width at minimum); an
        underresolved run is flagged through the trivial-multiplier
        warning.
    m : int, optional
        Number of leading multipliers to return (default 200).
    step : float, optional
        Target step of the fixed-step variational march.

    Returns
    -------
    FloquetSet

    Warns
    -----
    UserWarning
        When the trivial multiplier deviates from 1 by more than 5e-2,
        indicating that ``N`` (or the march step) is too small, or when
        the eigenvalue iteration converges for fewer than ``m`` of them.
    """
    params = orbit.params
    tau = params.tau
    if tau <= 0.0:
        raise InvalidArgumentError("Floquet computation requires tau > 0")
    T = orbit.period
    if N is None:
        N = min(4000, int(math.ceil(tau / 0.25)) + 1)
    if N < 8:
        raise InvalidArgumentError("need at least 8 history nodes")
    spacing = tau / (N - 1)
    dim = N + 2
    kap = params.kappa

    n_steps = max(1, int(math.ceil(T / step)))
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
        row[j0:j0 + 4] = w
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
        raise NumericalError("internal sampling walk failed to fill the period map")
    M[N:] = Y[:2]  # the march ends at t = T, the last node

    mults = _leading_eigs(M, m)
    trivial = complex(mults[np.argmin(np.abs(mults - 1.0))])
    if abs(trivial - 1.0) > 5e-2:
        warnings.warn(
            f"trivial multiplier {trivial:.4f} deviates from 1 by "
            f"{abs(trivial - 1.0):.3f}; increase N or reduce the march step",
            stacklevel=2,
        )
    return FloquetSet(mults, N, trivial, T)


def _m1_along(orbit: PeriodicOrbit, ts: np.ndarray) -> np.ndarray:
    """Stack of M1 Jacobians along the orbit, shape (len(ts), 3, 3)."""
    p = orbit.params
    states = orbit.state_many(ts)
    g, q, i = states[:, 0], states[:, 1], states[:, 2]
    out = np.zeros((len(ts), 3, 3))
    out[:, 0, 0] = -p.gamma_G * (1.0 + i)
    out[:, 0, 2] = -p.gamma_G * g
    out[:, 1, 1] = -p.gamma_Q * (1.0 + p.a * i)
    out[:, 1, 2] = -p.gamma_Q * p.a * q
    out[:, 2, 0] = i
    out[:, 2, 1] = -i
    out[:, 2, 2] = g - q - 1.0
    return out


def _leading_eigs(M: np.ndarray, m: int) -> np.ndarray:
    """The m largest-modulus eigenvalues, deterministically ordered."""
    n = M.shape[0]
    if n <= 1000 or m >= n - 2:
        vals = np.linalg.eigvals(M)
    else:
        from scipy.sparse.linalg import ArpackNoConvergence, eigs

        v0 = np.linspace(1.0, 2.0, n)
        try:
            vals = eigs(M, k=m, which="LM", v0=v0, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            vals = exc.eigenvalues
            if vals is None or len(vals) < max(10, m // 4):
                raise NumericalError(
                    "eigenvalue iteration failed to converge"
                ) from exc
            warnings.warn(
                f"eigenvalue iteration converged for {len(vals)} of {m} "
                "requested multipliers; only those are returned",
                stacklevel=3,
            )
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    return vals[order][:m]


@dataclass(frozen=True)
class ACSCurve:
    """Sampled asymptotic continuous spectrum for a k-pulse train.

    Attributes
    ----------
    omega : ndarray
        Sample frequencies, ascending.
    mu : ndarray, shape (len(omega), k)
        The k complex branch values at each frequency (all k-th roots).
    delta0 : float
        Regeneration lag measured from simulation.
    k : int
    params : ModelParams
    """

    omega: np.ndarray
    mu: np.ndarray
    delta0: float
    k: int
    params: ModelParams

    def max_modulus(self) -> float:
        return float(np.abs(self.mu).max())

    def residuals(self) -> np.ndarray:
        """Defect of the defining determinant at every sample.

        Evaluates ``|det(-i w I + M1(off) + z M2 e^{i w delta0})|``
        with ``z`` the advanced-form spectral parameter ``mu^{-k}``
        (the determinant advances the history by one period, the
        multiplier map runs the other way).
        """
        p = self.params
        out = np.empty(len(self.omega))
        for idx, (w, branch) in enumerate(zip(self.omega, self.mu)):
            mu = branch[0]
            z = mu ** (-self.k) * cmath.exp(1j * w * self.delta0)
            d = (
                (-1j * w + p.gamma_G)
                * (-1j * w + p.gamma_Q)
                * (-1j * w + p.A - p.B - 1.0 + z * p.kappa)
            )
            out[idx] = abs(d)
        return out

    def to_json_obj(self) -> dict:
        from . import _io

        return _io.acs_json(self)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        from . import _io

        return _io.acs_rows(self)


def acs(params: ModelParams, delta0: float, k: int, omega_values) -> ACSCurve:
    """Asymptotic continuous spectrum ``mu^k = kappa e^{i w d0}/(i w - A + B + 1)``.

    Parameters
    ----------
    params : ModelParams
    delta0 : float
        Measured regeneration lag of the k-pulse train.
    k : int
        Pulses per delay interval, >= 1.
    omega_values : array_like
        Frequencies to sample.  ``omega = 0`` is skipped (with a
        notice) when ``A = B + 1`` makes it a singular point.

    Returns
    -------
    ACSCurve
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    c = params.A - params.B - 1.0
    omegas = []
    rows = []
    roots_of_unity = [cmath.exp(2j * math.pi * mth / k) for mth in range(k)]
    for w in np.asarray(list(omega_values), dtype=float):
        if w == 0.0 and c == 0.0:
            warnings.warn("omega = 0 is singular for A = B + 1; sample skipped", stacklevel=2)
            continue
        base = params.kappa * cmath.exp(1j * w * delta0) / (1j * w - c)
        principal = base ** (1.0 / k)
        omegas.append(w)
        rows.append([principal * r for r in roots_of_unity])
    return ACSCurve(np.array(omegas), np.array(rows, dtype=complex), float(delta0), int(k), params)


def acs_max_modulus(params: ModelParams, k: int) -> float:
    """Largest modulus on the asymptotic continuous spectrum.

    ``(kappa / |A - B - 1|)^{1/k}``, attained at ``omega = 0``; the
    pulse train can only be stable when this is below 1.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    c = params.A - params.B - 1.0
    if c == 0.0:
        raise SingularParameterError("A = B + 1 makes the spectrum maximum singular")
    return float((params.kappa / abs(c)) ** (1.0 / k))


def min_stable_delay(params: ModelParams, k: int) -> float:
    """Necessary delay for a stable k-pulse train.

    ``1 / (1 - (kappa/|A-B-1|)^{1/k})``; returns ``inf`` when
    ``kappa >= |A - B - 1|`` (no delay can stabilize the train).
    """
    ratio = acs_max_modulus(params, k)
    if ratio >= 1.0:
        return math.inf
    return 1.0 / (1.0 - ratio)


def max_pulses(params: ModelParams, tau: float) -> float:
    """Upper bound on the number of pulses a delay line can carry.

    ``tau * ln|(A - B - 1) / kappa|``; returns ``inf`` for
    ``kappa = 0``.  A nonpositive value (``kappa >= |A - B - 1|``)
    means no stable pulse train fits at all.
    """
    if tau <= 0.0:
        raise InvalidArgumentError("tau must be positive")
    c = params.A - params.B - 1.0
    if c == 0.0:
        raise SingularParameterError("A = B + 1 makes the pulse bound singular")
    if params.kappa == 0.0:
        return math.inf
    return float(tau * math.log(abs(c / params.kappa)))
