"""Floquet spectra of pulsing orbits and their large-delay limit.

The orbits come from the collocation solve of :mod:`yamada_delay.periodic`:
:func:`yamada_delay.pulses.settle_train` returns one, and
:func:`extract_orbit` solves one from the tail of a simulated run.  They
are periodic to the solver's tolerance, so the trivial multiplier's
distance from 1 measures the discretization of the period map alone.

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
unknowns, ``I`` at every node plus ``G`` and ``Q`` at the last node.
Over one period the march reads the history only on ``[-tau, T - tau]``,
so one fixed-step Runge-Kutta pass advances just those basis histories
and the last node's; the new nodes that still lie in the old history are
four-point interpolation rows.  The variational field is linear, so each
Runge-Kutta step is an affine map, fixed before the march: a 3x3 matrix
on the state plus injection vectors for the three delayed lookups of the
step.  Where those lookups read the initial history, their stencils form
one short window of columns, and the step is one 3x3 product and one
windowed add across all basis histories.  ARPACK takes the leading
multipliers from products with the two blocks of the map.

As the delay grows, most multipliers condense onto the asymptotic
continuous spectrum, the closed curve ``mu^k = kappa e^{i omega
delta0} / (i omega - A + B + 1)`` traced by the regeneration lag
``delta0``; its maximum modulus and the resulting closed-form stability
bounds are evaluated here as well.
"""

from __future__ import annotations

import cmath
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericalError, SingularParameterError
from .integrator import Trajectory
from .model import M1_ENTRIES, ModelParams, m1_entries
from .periodic import PeriodicOrbit, solve_periodic
# detect_pulses and refine_period are unused here (and refine_period in pulses too),
# but both stay importable from both modules: bench/spans.py patches them there by name.
from .pulses import detect_pulses, measure_train, refine_period  # noqa: F401

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

#: March steps per batch of step maps.
_STEP_MAP_CHUNK = 256


def extract_orbit(run: Trajectory | PeriodicOrbit) -> PeriodicOrbit:
    """The periodic orbit that a simulated run has settled near.

    The last whole period of the run, from its second-to-last upward
    threshold crossing to its last, starts the collocation solve of
    :func:`yamada_delay.periodic.solve_periodic` at the run's parameters,
    which makes the orbit exactly periodic.  The orbit's trajectory covers
    the delay plus two periods; its ``residual`` is the collocation
    residual and its ``diagnostics`` say how the solve went.

    A :class:`PeriodicOrbit`, such as :func:`yamada_delay.pulses.settle_train`
    returns, is solved already and comes back unchanged.

    Raises
    ------
    InvalidArgumentError
        If ``tau <= 0``, or the run holds fewer than two pulses, or their
        spacing exceeds the delay.
    NumericalError
        If the collocation solve fails.
    """
    if isinstance(run, PeriodicOrbit):
        return run
    params = run.params
    if params.tau <= 0.0:
        raise InvalidArgumentError("orbit extraction requires tau > 0")
    train = measure_train(run, params.tau, last=1)
    if train.period is None:
        raise InvalidArgumentError(f"need at least 2 pulses, found {len(train.pulse_times)}")
    if train.k < 1:
        raise InvalidArgumentError("pulse spacing exceeds the delay (k < 1)")
    start = float(train.train_times[0])
    return solve_periodic(params, run, start, train.period, train.threshold,
                          params.tau + 2.0 * train.period)


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
    diagnostics : dict
        How the set was computed: ``N`` and the map dimension ``dim``,
        the basis histories the march advanced (``marched_columns``) and
        the new nodes taken as interpolation rows (``stencil_rows``), the
        wall seconds of the march and of the eigen-solve (``march_s``,
        ``eig_s``), the eigen method (``"arpack"`` or ``"dense"``), how
        many eigenvalues it ``converged``, and the ``trivial_defect``
        ``|trivial - 1|``.  Not part of equality or of the output.
    """

    multipliers: np.ndarray
    N: int
    trivial: complex
    period: float
    diagnostics: dict = field(default_factory=dict, compare=False)

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


def _cubic_stencils(s: np.ndarray, n_nodes: int, spacing: float):
    """Cubic Lagrange stencils for interpolating node data at offsets s.

    ``s`` is measured from the first node, in time units; each four-point
    stencil is clamped at the ends of the grid.  Returns the first node of
    every stencil and the weights, shape ``(len(s), 4)``.
    """
    u = s / spacing
    j0 = np.clip(np.floor(u).astype(int) - 1, 0, n_nodes - 4)
    x = u - j0
    w = np.ones((len(u), 4))
    for l in range(4):
        for mth in range(4):
            if mth != l:
                w[:, l] *= (x - mth) / (l - mth)
    return j0, w


@dataclass(frozen=True)
class _PeriodMap:
    """The discretized period map, stored as two blocks.

    The first ``n_shift`` rows are the new history nodes that still lie
    in the initial history (``T + theta_j < 0``, only when ``T < tau``):
    row ``j`` is the cubic stencil ``shift_w[j]`` at columns
    ``shift_idx[j]``.  The other rows come from the march, which reads
    only the columns ``cols``; ``block`` holds them on those columns.

    ``shape``, ``dtype`` and ``matvec`` make it an operator for ARPACK;
    ``np.asarray`` assembles the dense matrix.
    """

    shift_idx: np.ndarray
    shift_w: np.ndarray
    cols: np.ndarray
    block: np.ndarray
    dtype = np.dtype(float)

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.shift_w) + len(self.block)
        return n, n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        shifted = (self.shift_w * x[self.shift_idx]).sum(axis=1)
        return np.concatenate([shifted, self.block @ x[self.cols]])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        n_shift = len(self.shift_w)
        M = np.zeros(self.shape, dtype=dtype)
        np.put_along_axis(M[:n_shift], self.shift_idx, self.shift_w, axis=1)
        M[n_shift:, self.cols] = self.block
        return M


def monodromy_multipliers(
    orbit: PeriodicOrbit,
    N: int | None = None,
    m: int = 200,
    step: float = 0.05,
) -> FloquetSet:
    """Leading Floquet multipliers via the discretized period map.

    The map acts on ``I`` at the ``N`` nodes plus ``G`` and ``Q`` at the
    last node.  Leaving out interior ``G``/``Q`` is exact: on all ``3N``
    unknowns the map is block lower-triangular, and its interior
    ``G``/``Q`` block only shifts values to later nodes (the period spans
    three or more node spacings), so it adds nothing but zero
    multipliers.  The map is kept as two blocks (see the module notes),
    and ARPACK finds the multipliers from products with them.

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
        Number of leading multipliers to return (default 200), >= 1.
    step : float, optional
        Target step of the fixed-step variational march, positive and
        finite.

    Returns
    -------
    FloquetSet

    Raises
    ------
    InvalidArgumentError
        For ``tau <= 0``, fewer than 8 nodes, ``m < 1``, or a march step
        that is not positive and finite.

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
    # Written so that NaN fails both checks.
    if not 0.0 < step < math.inf:
        raise InvalidArgumentError(f"march step must be positive and finite, got {step!r}")
    if not m >= 1:
        raise InvalidArgumentError(f"need at least 1 multiplier, got m = {m!r}")
    if N is None:
        N = min(4000, int(math.ceil(tau / 0.25)) + 1)
    if N < 8:
        raise InvalidArgumentError("need at least 8 history nodes")

    t0 = time.perf_counter()
    op = _period_map(orbit, N, step)
    t1 = time.perf_counter()
    mults, method, converged = _leading_eigs(op, m)
    t2 = time.perf_counter()
    trivial = complex(mults[np.argmin(np.abs(mults - 1.0))])
    if abs(trivial - 1.0) > 5e-2:
        warnings.warn(
            f"trivial multiplier {trivial:.4f} deviates from 1 by "
            f"{abs(trivial - 1.0):.3f}; increase N or reduce the march step",
            stacklevel=2,
        )
    diagnostics = {
        "N": N,
        "dim": op.shape[0],
        "marched_columns": len(op.cols),
        "stencil_rows": len(op.shift_w),
        "march_s": t1 - t0,
        "eig_s": t2 - t1,
        "eig_method": method,
        "converged": converged,
        "trivial_defect": abs(trivial - 1.0),
    }
    return FloquetSet(mults, N, trivial, orbit.period, diagnostics)


def _period_map(orbit: PeriodicOrbit, N: int, step: float) -> _PeriodMap:
    """Period map on ``I`` at ``N`` nodes plus ``G``, ``Q`` at the last node.

    Basis column ``j < N`` is the history that is 1 in ``I`` at node
    ``j`` and 0 elsewhere; columns ``N`` and ``N + 1`` are ``G`` and
    ``Q`` at the last node, where the initial state lives.  Row ``j`` is
    ``I`` at the new node ``T + theta_j``; rows ``N`` and ``N + 1`` are
    ``G`` and ``Q`` at ``T``.

    Each RK4 step is the affine map of :func:`_step_maps`, fixed before
    the march.  A step whose three lookups ``kappa I(t - tau)`` all read
    the initial history adds its cubic stencils as one window ``D[i]``
    of ``W`` columns from column ``o[i]``, so it costs one 3x3 product
    and one windowed add.  Only steps that look up ``t - tau > 0``
    (``k = 1`` orbits) read stored march rows of ``I`` and ``I'``, which
    are Hermite-interpolated across a step.  ``I'`` is evaluated only at
    the nodes that bracket an output sample or get stored.
    """
    params = orbit.params
    tau = params.tau
    T = orbit.period
    spacing = tau / (N - 1)
    kap = params.kappa

    n_steps = max(1, int(math.ceil(T / step)))
    h = T / n_steps

    # M1 along the orbit at nodes and midpoints of the march grid, and the
    # step maps, built a chunk of steps at a time so that their stage
    # temporaries stay small.
    t_nodes = np.arange(n_steps + 1) * h
    m1_nodes = _m1_along(orbit, t_nodes)
    m1_mids = _m1_along(orbit, t_nodes[:-1] + 0.5 * h)
    P = np.empty((n_steps, 3, 3))
    inj = np.empty((n_steps, 3, 3))
    for lo in range(0, n_steps, _STEP_MAP_CHUNK):
        hi = min(lo + _STEP_MAP_CHUNK, n_steps)
        P[lo:hi], inj[lo:hi] = _step_maps(
            m1_nodes[lo:hi], m1_mids[lo:hi], m1_nodes[lo + 1:hi + 1], h
        )
    di_rows = m1_nodes[:, 2].copy()  # the I row of M1, for I' at the nodes
    del m1_nodes, m1_mids

    # The delayed lookups I(t - tau) of each step, at its start, midpoint
    # and end (the start ones cover every node).  Where t - tau <= 0 they
    # read the initial history through a cubic stencil.
    lags = (t_nodes - tau, (t_nodes[:-1] + 0.5 * h) - tau, (t_nodes[:-1] + h) - tau)
    stencils = [_cubic_stencils(s + tau, N, spacing) for s in lags]
    reach = max(int(j0[s <= 0.0].max(initial=0)) for s, (j0, _) in zip(lags, stencils))
    n_hist = int(np.count_nonzero(lags[2] <= 0.0))  # steps reading only the history

    # Only the basis histories the march reads are marched: the nodes
    # its stencils reach plus I, G and Q at the last node.  Stencil
    # columns keep their index, since cols starts with 0 .. reach + 3.
    cols = np.union1d(np.arange(reach + 4), [N - 1, N, N + 1])
    n_cols = len(cols)
    i_last, g_last, q_last = np.searchsorted(cols, [N - 1, N, N + 1])
    Y = np.zeros((3, n_cols))
    Y[0, g_last] = Y[1, q_last] = Y[2, i_last] = 1.0

    o, W, D = _history_windows(stencils, inj[:n_hist], kap, n_cols)
    inj = inj[n_hist:].copy()  # for the steps that read march rows

    # New history nodes T + theta_j that still lie in the initial
    # history are stencil rows; the march samples the others, each in
    # the step (t_{i-1}, t_i] of its node at[j], as the cubic Hermite
    # interpolant of I and I' at the two ends.
    out_times = T + (-tau + spacing * np.arange(N))
    n_shift = int(np.count_nonzero(out_times < 0.0))
    shift_j0, shift_w = _cubic_stencils(out_times[:n_shift] + tau, N, spacing)
    sampled = out_times[n_shift:]
    at = np.searchsorted(t_nodes + 1e-12 * np.maximum(1.0, t_nodes), sampled)
    if at[-1] > n_steps:
        raise NumericalError("internal sampling walk failed to fill the period map")
    sample_w = _hermite_weights(np.clip((sampled - (t_nodes[at] - h)) / h, 0.0, 1.0), h)
    first = np.searchsorted(at, np.arange(n_steps + 2))
    block = np.empty((N + 2 - n_shift, n_cols))

    # Stored I and I' rows at past march nodes, needed only when t - tau
    # lands in the computed part (k = 1 orbits).
    n_stored = int(np.count_nonzero(t_nodes <= max(0.0, T - tau) + 2.0 * h))
    stored = np.empty((n_stored, 2, n_cols))
    need = np.zeros(n_steps + 1, dtype=bool)
    need[at] = need[np.maximum(at - 1, 0)] = True
    need[:n_stored] = True

    def lookup(c: int, i: int) -> np.ndarray:
        """kappa I(t - tau) of lookup i of kind c, as a row on cols."""
        s = lags[c][i]
        if s <= 0.0:
            row = np.zeros(n_cols)
            j0 = stencils[c][0][i]
            row[j0:j0 + 4] = kap * stencils[c][1][i]
            return row
        j = int(s / h)
        w = _hermite_weights((s - j * h) / h, h)
        return kap * (w @ stored[j:j + 2].reshape(4, n_cols))

    # I, I' at the last needed node and at the current one.
    ends = np.zeros((4, n_cols))
    for i, needed in enumerate(need.tolist()):
        if needed:
            ends[:2] = ends[2:]
            ends[2] = Y[2]
            np.dot(di_rows[i], Y, out=ends[3])
            ends[3] += lookup(0, i)
            if i < n_stored:
                stored[i] = ends[2:]
            if first[i] < first[i + 1]:
                block[first[i]:first[i + 1]] = sample_w[first[i]:first[i + 1]] @ ends
        if i == n_steps:
            break
        if i < n_hist:
            Y = np.dot(P[i], Y)
            Y[:, o[i]:o[i] + W] += D[i]
        else:
            Y = np.dot(P[i], Y) + inj[i - n_hist] @ np.stack([lookup(c, i) for c in range(3)])

    block[-2:] = Y[:2]  # the march ends at t = T, the last node
    return _PeriodMap(shift_j0[:, None] + np.arange(4), shift_w, cols, block)


def _history_windows(stencils, inj: np.ndarray, kap: float, n_cols: int):
    """History injections of the first ``len(inj)`` march steps.

    Step ``i`` adds ``D[i]`` to the columns ``o[i] .. o[i] + W - 1``:
    its three lookup stencils, scaled by ``kap`` and by the step's
    injection vectors.  ``W`` is as wide as the widest step needs, which
    is more than the four columns of one stencil once a step spans a
    node spacing.  Returns ``o``, ``W`` and ``D``.
    """
    n = len(inj)
    j_first = np.stack([j0[:n] for j0, _ in stencils])
    o = j_first.min(axis=0)
    W = int((j_first.max(axis=0) - o).max(initial=0)) + 4
    o = np.minimum(o, n_cols - W)  # inside Y; the columns a step does not reach get zeros
    D = np.zeros((n, 3, W))
    rows = np.arange(n)
    for c, (j0, w) in enumerate(stencils):
        off = j0[:n] - o
        for l in range(4):
            D[rows, :, off + l] += inj[:, :, c] * (kap * w[:n, l])[:, None]
    return o, W, D


def _hermite_weights(x, h: float) -> np.ndarray:
    """Weights of ``(y0, y0', y1, y1')`` in the cubic Hermite interpolant
    across a step of length ``h``, at fractions ``x`` in [0, 1]; shape
    ``x.shape + (4,)``."""
    om = 1.0 - x
    return np.stack(
        [(1.0 + 2.0 * x) * om * om, h * x * om * om, x * x * (3.0 - 2.0 * x), h * x * x * (x - 1.0)],
        axis=-1,
    )


def _step_maps(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: float):
    """RK4 steps of ``y' = A(t) y + e_I u(t)`` as affine maps.

    ``a0``, ``am`` and ``a1`` stack ``A`` at the start, midpoint and end
    of each step.  Step ``i`` takes ``y`` to ``P[i] @ y + inj[i] @ (u(t),
    u(t + h/2), u(t + h))``, the same map as the staged step
    ``k1 = A0 y + e u(t)``, ``k2 = Am (y + h/2 k1) + e u(t + h/2)``,
    ``k3 = Am (y + h/2 k2) + e u(t + h/2)``, ``k4 = A1 (y + h k3) + e
    u(t + h)``, ``y + h/6 (k1 + 2 k2 + 2 k3 + k4)``.  Returns ``P`` and
    ``inj``, both of shape ``(n, 3, 3)``.
    """
    eye = np.eye(3)
    k1 = a0
    k2 = am @ (eye + (0.5 * h) * k1)
    k3 = am @ (eye + (0.5 * h) * k2)
    k4 = a1 @ (eye + h * k3)
    P = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # The stages of a unit input in I (the last component, e): u(t)
    # enters k1, u(t + h/2) enters k2 and k3, u(t + h) enters k4.
    def times(a, v):
        return (a @ v[..., None])[..., 0]

    e = eye[2]
    k2 = (0.5 * h) * am[:, :, 2]
    k3 = (0.5 * h) * times(am, k2)
    start = e + 2.0 * k2 + 2.0 * k3 + h * times(a1, k3)
    k3 = e + (0.5 * h) * am[:, :, 2]
    mid = 2.0 * e + 2.0 * k3 + h * times(a1, k3)
    inj = np.zeros_like(P)
    inj[:, :, 0] = (h / 6.0) * start
    inj[:, :, 1] = (h / 6.0) * mid
    inj[:, 2, 2] = h / 6.0
    return P, inj


def _m1_along(orbit: PeriodicOrbit, ts: np.ndarray) -> np.ndarray:
    """Stack of M1 Jacobians along the orbit, shape (len(ts), 3, 3)."""
    out = np.zeros((len(ts), 3, 3))
    out[:, M1_ENTRIES[0], M1_ENTRIES[1]] = m1_entries(orbit.state_many(ts), orbit.params)
    return out


def _leading_eigs(M, m: int) -> tuple[np.ndarray, str, int]:
    """The m largest-modulus eigenvalues, deterministically ordered.

    ``M`` is an ndarray or a :class:`_PeriodMap`.  ARPACK finds them from
    matrix-vector products; only where it cannot run (``m >= n - 2``)
    does ``eigvals`` take the dense matrix.  Returns the eigenvalues,
    the method (``"arpack"`` or ``"dense"``) and how many eigenvalues it
    converged.
    """
    n = M.shape[0]
    if m >= n - 2:
        method = "dense"
        vals = np.linalg.eigvals(np.asarray(M))
    else:
        method = "arpack"
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
    return vals[order][:m], method, len(vals)


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
