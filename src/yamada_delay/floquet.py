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

The operator is discretized on ``N`` uniform nodes with quintic
(six-point Lagrange) interpolation for off-node lookups.  Only ``I(t -
tau)`` feeds back (``M2`` has a single nonzero entry), so the ``G`` and
``Q`` history before ``t = 0`` never reaches the future: the map acts on
``N + 2`` unknowns, ``I`` at every node plus ``G`` and ``Q`` at the last
node.
Over one period the march reads the history only on ``[-tau, T - tau]``,
so one fixed-step Runge-Kutta pass advances just those basis histories
and the last node's; the new nodes that still lie in the old history are
six-point interpolation rows.  The variational field is linear, so each
Runge-Kutta step is an affine map, fixed before the march: a 3x3 matrix
on the state plus injection vectors for the three delayed lookups of the
step.  Where those lookups read the initial history, their stencils form
one short window of columns, so a step adds only that window to what
its 3x3 matrix makes of the state.  Those steps are split into chunks,
and all chunks march at once from the identity: over a chunk, the state
is a 3x3 matrix times the chunk's start state plus a band of the
columns the chunk injected.  A marched row is then a 3-vector times a
chunk state plus a short band row, and the operator holds the chunk
states, those rows and the few rows marched after the history steps,
a sixth of a dense block or less.  One product with a vector or a block
of columns reads these parts and gathers the interpolation rows'
stencils; ARPACK takes the leading multipliers from it, and the dense
map, where ``eigvals`` takes it instead, is its product with the
identity.

As the delay grows, most multipliers condense onto the asymptotic
continuous spectrum, the closed curve ``mu^k = kappa e^{i omega
delta0} / (i omega - A + B + 1)`` traced by the regeneration lag
``delta0``; its maximum modulus and the resulting closed-form stability
bounds are evaluated here as well.
"""

from __future__ import annotations

import cmath
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._io import columns_to_rows, jlist, jnum
from .errors import InvalidArgumentError, NumericalError, SingularParameterError
from .integrator import Trajectory
from .model import M1_ENTRIES, ModelParams, m1_entries
from .periodic import PeriodicOrbit, solve_periodic
# detect_pulses and refine_period are unused here (and refine_period in pulses too),
# but both stay importable from both modules for the benchmark: bench/spans.py
# patches them in both by name, and bench/workloads.py's warm_up calls
# pulses.refine_period.
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

#: Points of a history interpolation stencil.  Six-point (quintic)
#: Lagrange stencils at node spacing 1/3 keep the leading 50 multipliers
#: of the trains at kappa = 0.1 to 0.32 within 2e-5 of a fine map, where
#: four-point ones at spacing 1/4 reached 1.1e-4, on a quarter fewer nodes.
_WIDTH = 6

#: March steps per batch of step maps.
_STEP_MAP_CHUNK = 256
#: Most steps the march may take over one period.  A step holds about
#: 0.7 kB while the map is built (its step maps, the orbit's linearization
#: at its node and midpoint, and its lookup stencils), so the ceiling
#: keeps the build under about 0.7 GB, as the 4000-node default cap keeps
#: the map itself small.  The default step takes about 4 000 steps at tau = 200.
_MAX_MARCH_STEPS = 1_000_000

#: Relative Ritz residual at which ARPACK stops.  At the default spacing
#: the leading 50 multipliers of the discretized map lie within about
#: 2e-5 of a map on four times as many nodes, so residuals at
#: machine precision (``tol=0``) buy nothing: on a k = 2 train, whose
#: 200th multiplier lies inside the dense cluster of the asymptotic
#: continuous spectrum, they cost one implicit restart that moves the
#: multipliers by at most 1e-13.  At 1e-12 the first Arnoldi cycle of
#: ``2m + 1`` vectors ends the solve.
_EIG_TOL = 1e-12

#: Fewest Arnoldi vectors ARPACK keeps.  Its default, ``2m + 1``, is
#: far too few for a small ``m`` at a long delay, where the leading
#: multipliers sit in a tight cluster: for ``m = 8`` on the k = 1 train
#: at tau = 1600, 20 vectors take about 20 000 products and 64 about
#: 1 700.  From ``m = 32`` on the default applies.
_MIN_NCV = 64


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
        Sorted by modulus, descending, then by real and by imaginary
        part, descending.  Closed under conjugation except at the cut:
        where the conjugate of the last multiplier falls beyond the ``m``
        returned, the last one is the member with positive imaginary part.
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
        many eigenvalues it ``converged``, how many products with the
        map it made (``matvecs``) and the seconds from the last of them
        to ARPACK's return (``ritz_s``; both 0 for ``"dense"``), the
        bytes the operator holds (``map_bytes``), how many chunks the
        history steps of the march were split into (``chunks``) and how
        many columns a chunk's band holds (``band_width``), the step the
        march took (``march_step``), and the ``trivial_defect``,
        ``|trivial - 1|``.
        Not part of equality or of the output.
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
        return {
            "multipliers": jlist(self.multipliers),
            "N": int(self.N),
            "trivial": jnum(self.trivial),
            "period": jnum(self.period),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        mu = self.multipliers
        # hypot, not np.abs, which rounds differently from abs() of one complex
        return ["mu_re", "mu_im", "modulus"], columns_to_rows(mu.real, mu.imag,
                                                              np.hypot(mu.real, mu.imag))


def _lagrange_stencils(s: np.ndarray, n_nodes: int, spacing: float):
    """Quintic Lagrange stencils for interpolating node data at offsets s.

    ``s`` is measured from the first node, in time units; each
    ``_WIDTH``-point stencil is centred on the node spacing that holds
    its offset and clamped at the ends of the grid.  Returns the first
    node of every stencil and the weights, shape ``(len(s), _WIDTH)``,
    stored by column: the weights of one stencil point are contiguous,
    for the loop below and for sums over the stencil points.
    """
    u = s / spacing
    j0 = np.clip(np.floor(u).astype(int) - (_WIDTH // 2 - 1), 0, n_nodes - _WIDTH)
    x = u - j0
    w = np.ones((len(u), _WIDTH), order="F")
    for l in range(_WIDTH):
        for mth in range(_WIDTH):
            if mth != l:
                w[:, l] *= (x - mth) / (l - mth)
    return j0, w


@dataclass(frozen=True)
class _PeriodMap:
    """The discretized period map, stored by the three-component state.

    The first rows are the new history nodes that still lie in the
    initial history (``T + theta_j < 0``, only when ``T < tau``): row
    ``j`` is a Lagrange stencil with the weights ``shift_w[j]`` on the
    ``_WIDTH`` columns from ``shift_j0[j]``.  The other rows come from the
    march, which reads only the columns ``cols``: the first history nodes and
    ``I``, ``G``, ``Q`` at the last node.  Until its delayed lookups
    leave the initial history, the march splits into chunks of steps.
    Over chunk ``a`` its three-component state is a 3x3 matrix times the
    state ``Y_a`` at the chunk's start, plus what the chunk's own steps
    injected on a band of columns.  So a row sampled in the chunk is a
    3-vector times ``Y_a`` plus a band row:

    * ``states``, the ``Y_a`` on ``cols``, shape ``(n_chunks, 3, n_cols)``;
    * ``chunk_rows``, the rows of each chunk, padded to the most rows of
      a chunk: the 3-vector, then the band row on the columns
      ``window[a]`` (the ``bw`` columns its rows reach, clipped at the
      last column, where the band holds zeros), shape ``(n_chunks,
      rows per chunk, 3 + bw)``; ``rows`` places the sampled rows in
      that padded layout;
    * ``tail``, dense on ``cols``: the rows sampled after those steps
      (``k = 1`` orbits, whose lookups read marched rows) and ``G``,
      ``Q`` at ``T``.

    ``op @ x`` is the product with a vector ``(n,)`` or a block ``(n,
    r)``, the one place that reads this layout; ``np.asarray`` is the
    product with the identity, and ``nbytes`` is what the operator holds.
    """

    shift_j0: np.ndarray
    shift_w: np.ndarray
    cols: np.ndarray
    states: np.ndarray
    window: np.ndarray
    chunk_rows: np.ndarray
    rows: np.ndarray
    tail: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.shift_w) + len(self.rows) + len(self.tail)
        return n, n

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.shift_j0, self.shift_w, self.cols, self.states,
                                      self.window, self.chunk_rows, self.rows, self.tail))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n_chunks, n_cols = len(self.states), len(self.cols)
        xc = x[self.cols]
        parts = np.empty((n_chunks, self.chunk_rows.shape[2]) + x.shape[1:])
        parts[:, :3] = (self.states.reshape(-1, n_cols) @ xc).reshape(parts[:, :3].shape)
        parts[:, 3:] = xc[self.window]
        band = self.chunk_rows @ parts.reshape(n_chunks, parts.shape[1], -1)
        return np.concatenate([
            np.einsum("ij,ji...->i...", self.shift_w, x[np.arange(_WIDTH)[:, None] + self.shift_j0]),
            band.reshape((-1,) + x.shape[1:])[self.rows],
            self.tail @ xc,
        ])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self @ np.eye(self.shape[0], dtype=dtype)


def _checked_nodes(tau: float, N: int | None, m: int, step: float) -> int:
    """The node count of :func:`monodromy_multipliers` once its arguments pass its checks."""
    if tau <= 0.0:
        raise InvalidArgumentError("Floquet computation requires tau > 0")
    # Written so that NaN fails both checks.
    if not 0.0 < step < math.inf:
        raise InvalidArgumentError(f"march step must be positive and finite, got {step!r}")
    if not m >= 1:
        raise InvalidArgumentError(f"need at least 1 multiplier, got m = {m!r}")
    if N is None:
        N = min(4000, int(math.ceil(3.0 * tau)) + 1)
    if N < 8:
        raise InvalidArgumentError("need at least 8 history nodes")
    return N


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
    multipliers.  The map is kept by the three-component state of the
    march (see the module notes and ``_PeriodMap``), and ARPACK finds the
    multipliers from products with its parts, with at least 64 Arnoldi
    vectors so that a small ``m`` does not crawl on a cluster.

    Off-node lookups in the initial history use six-point Lagrange
    stencils.  On the four settled trains at ``kappa = 0.1`` (``k = 1,
    2``, ``tau = 200, 400``) the default set agrees with the same map at
    a quarter of the node spacing to within 3e-5 on the leading 50
    multipliers and 1e-3 on all 200, and the trivial multiplier lies
    within 3e-5 of 1 (measured: 2.0e-5, 7.0e-4 and 2.0e-5).  Nearer the
    upper end of the trains (``k = 1``, ``tau = 200``, ``kappa = 0.28``
    and 0.32) multipliers 51 to 100 are off by up to 1.6e-4 and all 200
    by up to 3.3e-4, with the trivial defect below 2e-5.

    Parameters
    ----------
    orbit : PeriodicOrbit
    N : int, optional
        History nodes on ``[-tau, 0]``.  Default: node spacing 1/3
        time unit, ``ceil(3 tau) + 1`` nodes, capped at 4000 (the cap
        binds from ``tau`` of about 1333).  Spacing should resolve the
        pulse profile (a few nodes per pulse width at minimum); an
        underresolved run is flagged through the trivial-multiplier
        warning.
    m : int, optional
        Number of leading multipliers to return (default 200), >= 1.
    step : float, optional
        Target step of the fixed-step variational march, positive and
        finite.  The march takes ``max(ceil(T / step), floor(T / tau) +
        1)`` equal steps over the period ``T``, so its step stays below
        the delay and every delayed lookup reads the history or rows the
        march has written.

    Returns
    -------
    FloquetSet

    Raises
    ------
    InvalidArgumentError
        For ``tau <= 0``, fewer than 8 nodes, ``m < 1``, or a march step
        that is not positive and finite or that takes more than 1 000 000
        steps over the period (checked before the map is built).

    Warns
    -----
    UserWarning
        When the trivial multiplier deviates from 1 by more than 5e-2,
        indicating that ``N`` (or the march step) is too small, or when
        the eigenvalue iteration converges for fewer than ``m`` of them.
    """
    params = orbit.params
    tau = params.tau
    N = _checked_nodes(tau, N, m, step)
    n_steps = _march_steps(orbit.period, tau, step)
    if n_steps > _MAX_MARCH_STEPS:
        raise InvalidArgumentError(
            f"march step {step!r} takes {n_steps} steps over the period {orbit.period:g}, "
            f"more than {_MAX_MARCH_STEPS}"
        )

    t0 = time.perf_counter()
    op = _period_map(orbit, N, step)
    t1 = time.perf_counter()
    mults, method, converged, matvecs, ritz_s = _leading_eigs(op, m)
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
        "matvecs": matvecs,
        "ritz_s": ritz_s,
        "map_bytes": op.nbytes,
        "chunks": len(op.states),
        "band_width": op.window.shape[1],
        "march_step": orbit.period / n_steps,
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
    the initial history (the first ``n_hist`` steps) adds its Lagrange
    stencils as one window ``D[i]`` of ``W`` columns from column
    ``o[i]``.  Those steps are split into chunks that march at once in
    batched 3x3 products, and one sweep over the chunks gives their
    start states (see ``_PeriodMap``).  Only the steps that look up
    ``t - tau > 0`` (``k = 1`` orbits) read stored march rows of ``I``
    and ``I'``, Hermite-interpolated across a step; they march one at a
    time, and their rows are stored dense.
    """
    params = orbit.params
    tau = params.tau
    T = orbit.period
    spacing = tau / (N - 1)
    kap = params.kappa

    n_steps = _march_steps(T, tau, step)
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
    # read the initial history through a Lagrange stencil.
    lags = (t_nodes - tau, (t_nodes[:-1] + 0.5 * h) - tau, (t_nodes[:-1] + h) - tau)
    stencils = [_lagrange_stencils(s + tau, N, spacing) for s in lags]
    reach = max(int(j0[s <= 0.0].max(initial=0)) for s, (j0, _) in zip(lags, stencils))
    n_hist = int(np.count_nonzero(lags[2] <= 0.0))  # steps reading only the history

    # Only the basis histories the march reads are marched: the nodes
    # its stencils reach plus I, G and Q at the last node.  Stencil
    # columns keep their index, since cols starts with 0 .. reach +
    # _WIDTH - 1 (reach <= N - _WIDTH, so only N - 1 can be in both parts).
    cols = np.concatenate([np.arange(min(reach + _WIDTH, N - 1)), [N - 1, N, N + 1]])
    n_cols = len(cols)
    i_last, g_last, q_last = np.searchsorted(cols, [N - 1, N, N + 1])
    Y = np.zeros((3, n_cols))
    Y[0, g_last] = Y[1, q_last] = Y[2, i_last] = 1.0

    # New history nodes T + theta_j that still lie in the initial
    # history are stencil rows; the march samples the others, rows
    # first[i] .. first[i + 1] - 1 in the step (t_{i-1}, t_i] of node i.
    out_times = T + (-tau + spacing * np.arange(N))
    n_shift = int(np.count_nonzero(out_times < 0.0))
    sampled = out_times[n_shift:]
    first = np.zeros(n_steps + 2, dtype=int)
    first[1:] = np.searchsorted(sampled, t_nodes + 1e-12 * np.maximum(1.0, t_nodes), side="right")
    if first[-1] < len(sampled):
        raise NumericalError("internal sampling walk failed to fill the period map")
    at = np.repeat(np.arange(n_steps + 1), np.diff(first))

    # Chunks of B steps balance the two stores: 3 n_hist / B rows of
    # chunk states against a band of about B h / spacing columns per
    # row.  The rows at nodes 1 .. n_hist go to the chunk of the node
    # before theirs, at place m = 1 .. B in it (a row at node 0 to chunk
    # 0, m = 0); the later rows and G, Q at T are the dense tail.  The
    # chunk states and the tail grow with N, so they are allocated
    # first: a size too large to hold fails here, before the history
    # windows, the bands and the sample weights are built.
    B = max(1, round(math.sqrt(3.0 * n_hist * spacing / h)))
    starts = np.arange(0, n_hist, B)
    n_chunks = len(starts)
    n_band = int(first[n_hist + 1])
    row_nodes = at[:n_band]
    chunk = np.maximum(row_nodes - 1, 0) // B
    place = row_nodes - starts[chunk]
    per_chunk = np.bincount(chunk, minlength=n_chunks)
    slot = np.arange(n_band) - np.repeat(np.cumsum(per_chunk) - per_chunk, per_chunk)
    states = np.empty((n_chunks, 3, n_cols))
    tail = np.empty((len(sampled) - n_band + 2, n_cols))
    o, W, D = _history_windows(stencils, inj[:n_hist], kap, n_cols)
    inj = inj[n_hist:].copy()  # for the steps that read march rows

    # Chunk a's band starts at its first window.  The march carries it
    # past the chunk's last window and the stencil of I' at its last
    # node (all move forward with the step), width_march columns.  A row
    # at node i reads the end stencil of step i - 1 and the stencil of
    # I' at node i, so the rows keep only the bw columns they reach.
    lo = o[starts]
    last = np.minimum(starts + B, n_hist)
    j0_nodes, w_nodes = stencils[0]
    width_march = int(max(np.maximum(o[last - 1] + W, j0_nodes[last] + _WIDTH) - lo))
    reads = np.maximum(j0_nodes[row_nodes], stencils[2][0][np.maximum(row_nodes - 1, 0)])
    reads[row_nodes == 0] = j0_nodes[0]
    bw = int((reads + _WIDTH - lo[chunk]).max(initial=0))

    # Each sampled row lies in the step (t_{i-1}, t_i] of its node at[r],
    # and is the cubic Hermite interpolant of I and I' at the two ends.
    sample_w = _hermite_weights(np.clip((sampled - (t_nodes[at] - h)) / h, 0.0, 1.0), h)

    # All chunks march at once.  After m steps, PZ[a] holds the product
    # of chunk a's step maps (3 columns) and its injections on the band,
    # so I at node s_a + m is PZ[a, 2] on (Y_a, band).  I' is di_rows
    # times PZ[a] plus the node's stencil, which is added to the rows
    # after the march.  ring[a] holds I and I' at the node before and
    # at the current one, on the columns the rows keep.
    PZ = np.zeros((n_chunks, 3, 3 + width_march))
    PZ[:, :, :3] = np.eye(3)
    ring = np.zeros((n_chunks, 4, 3 + bw))
    chunk_rows = np.zeros((n_chunks, per_chunk.max(initial=0), 3 + bw))
    by_place = np.argsort(place, kind="stable")
    bounds = np.searchsorted(place[by_place], np.arange(B + 2))
    row_chunk, row_slot, row_w = chunk[by_place], slot[by_place], sample_w[by_place][:, None, :]
    each = np.arange(n_chunks)[:, None]
    for m in range(B + 1):
        di = di_rows[m:n_hist + 1:B][:n_chunks]  # at the nodes s_a + m that exist
        k = len(di)
        ring[:k, :2] = ring[:k, 2:]
        ring[:k, 2] = PZ[:k, 2, :3 + bw]
        np.matmul(di[:, None, :], PZ[:k, :, :3 + bw], out=ring[:k, 3:])
        r = slice(bounds[m], bounds[m + 1])
        a = row_chunk[r]
        chunk_rows[a, row_slot[r]] = (row_w[r] @ ring[a])[:, 0]
        if m == B:
            break
        step_maps = P[m:n_hist:B]  # step s_a + m of the chunks that take it
        k = len(step_maps)
        PZ[:k] = step_maps @ PZ[:k]
        window = 3 + (o[m:n_hist:B] - lo[:k])[:, None] + np.arange(W)
        PZ[each[:k], :, window] += D[m:n_hist:B].transpose(0, 2, 1)

    # The stencils of I' at the nodes that bracket each row (at a row
    # of node 0 the weight of the node before is 0).
    for e, nodes in ((1, np.maximum(row_nodes - 1, 0)), (3, row_nodes)):
        window = 3 + (j0_nodes[nodes] - lo[chunk])[:, None] + np.arange(_WIDTH)
        weights = (kap * sample_w[:n_band, e, None]) * w_nodes[nodes]
        chunk_rows[chunk[:, None], slot[:, None], window] += weights

    # One sweep gives the chunk states, and the state after n_hist steps.
    # A band past the last column holds zeros there.
    Y_hist = Y
    for a in range(n_chunks):
        states[a] = Y_hist
        Y_hist = PZ[a, :, :3] @ Y_hist
        band = Y_hist[:, lo[a]:lo[a] + width_march]
        band += PZ[a, :, 3:3 + band.shape[1]]

    # Stored I and I' rows at past march nodes, needed only when t - tau
    # lands in the computed part (k = 1 orbits).  The first n_stored
    # steps are marched again one at a time to give them.
    n_stored = int(np.count_nonzero(t_nodes <= max(0.0, T - tau) + 2.0 * h))
    stored = np.empty((n_stored, 2, n_cols))
    # A lookup past the history (t - tau > 0, from step n_hist on) reads
    # the stored rows j, j + 1 of the march step it falls in.
    past_j = [np.floor(s[n_hist:] / h).astype(int) for s in lags]
    past_w = [_hermite_weights((s[n_hist:] - j * h) / h, h) for s, j in zip(lags, past_j)]

    # kappa I(t - tau) at a step's start, midpoint and end, rows on cols.
    looked = np.empty((3, n_cols))

    def lookup(c: int, i: int) -> np.ndarray:
        """Row c of looked: kappa I(t - tau) of lookup i of kind c."""
        row = looked[c]
        if lags[c][i] <= 0.0:
            row.fill(0.0)
            j0 = stencils[c][0][i]
            row[j0:j0 + _WIDTH] = kap * stencils[c][1][i]
        else:
            j = past_j[c][i - n_hist]
            np.matmul(past_w[c][i - n_hist], stored[j:j + 2].reshape(4, n_cols), out=row)
            row *= kap
        return row

    # I, I' at the node before and at the current one.
    ends = np.zeros((4, n_cols))
    for i in itertools.chain(range(min(n_stored, n_hist)), range(n_hist, n_steps + 1)):
        if i == n_hist:
            Y = Y_hist
        ends[:2] = ends[2:]
        ends[2] = Y[2]
        np.dot(di_rows[i], Y, out=ends[3])
        ends[3] += lookup(0, i)
        if i < n_stored:
            stored[i] = ends[2:]
        if i > n_hist:
            r = slice(first[i], first[i + 1])
            tail[r.start - n_band:r.stop - n_band] = sample_w[r] @ ends
        if i == n_steps:
            break
        if i < n_hist:
            Y = np.dot(P[i], Y)
            Y[:, o[i]:o[i] + W] += D[i]
        else:
            # looked[0] already holds the start lookup, from I' above
            lookup(1, i)
            lookup(2, i)
            Y = np.dot(P[i], Y) + inj[i - n_hist] @ looked

    tail[-2:] = Y[:2]  # the march ends at t = T, the last node

    shift_j0, shift_w = _lagrange_stencils(out_times[:n_shift] + tau, N, spacing)
    rows = chunk * chunk_rows.shape[1] + slot
    window = np.minimum(lo[:, None] + np.arange(bw), n_cols - 1)
    return _PeriodMap(shift_j0, shift_w, cols, states, window, chunk_rows, rows, tail)


def _march_steps(T: float, tau: float, step: float) -> int:
    """Steps of the march over the period ``T``: about ``T / step``, and
    enough that each is shorter than ``tau``, so that a step's delayed
    lookups end before the step starts."""
    return max(math.ceil(T / step), math.floor(T / tau) + 1)


def _history_windows(stencils, inj: np.ndarray, kap: float, n_cols: int):
    """History injections of the first ``len(inj)`` march steps.

    Step ``i`` adds ``D[i]`` to the columns ``o[i] .. o[i] + W - 1``:
    its three lookup stencils, scaled by ``kap`` and by the step's
    injection vectors.  ``W`` is as wide as the widest step needs, which
    is more than the ``_WIDTH`` columns of one stencil once a step spans a
    node spacing.  Returns ``o``, ``W`` and ``D``.
    """
    n = len(inj)
    j_first = np.stack([j0[:n] for j0, _ in stencils])
    o = j_first.min(axis=0)
    W = int((j_first.max(axis=0) - o).max(initial=0)) + _WIDTH
    o = np.minimum(o, n_cols - W)  # inside Y; the columns a step does not reach get zeros
    D = np.zeros((n, 3, W))
    rows = np.arange(n)
    for c, (j0, w) in enumerate(stencils):
        off = j0[:n] - o
        for l in range(_WIDTH):
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


def _leading_eigs(M, m: int) -> tuple[np.ndarray, str, int, int, float]:
    """The m largest-modulus eigenvalues, deterministically ordered.

    ``M`` is an ndarray or a :class:`_PeriodMap`.  ARPACK finds them from
    matrix-vector products, to the relative residual ``_EIG_TOL`` and
    with at least ``_MIN_NCV`` Arnoldi vectors; only where it cannot run
    (``m >= n - 2``) does ``eigvals`` take the dense matrix.  Returns
    the eigenvalues, the method (``"arpack"`` or ``"dense"``), how many
    eigenvalues it converged, how many products with ``M`` it made and
    the wall seconds from the last product to ARPACK's return, its Ritz
    work (both 0 on the dense path).
    """
    n = M.shape[0]
    matvecs = 0
    ritz_s = 0.0
    if m >= n - 2:
        method = "dense"
        vals = np.linalg.eigvals(np.asarray(M))
    else:
        method = "arpack"
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

        def product(x):
            nonlocal matvecs, last
            matvecs += 1
            y = M @ x
            last = time.perf_counter()
            return y

        op = LinearOperator(M.shape, matvec=product, dtype=float)
        v0 = np.linspace(1.0, 2.0, n)
        last = time.perf_counter()
        try:
            vals = eigs(op, k=m, which="LM", v0=v0, ncv=min(n, max(2 * m + 1, _MIN_NCV)),
                        tol=_EIG_TOL, return_eigenvectors=False)
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
        finally:
            ritz_s = time.perf_counter() - last
    converged = len(vals)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order][:m]
    # A conjugate pair cut at the m-th place keeps its +imag member, as
    # the order above does where both members were computed; ARPACK may
    # have returned the other one.
    if vals[-1].imag < 0.0 and not (len(vals) > 1 and vals[-2] == vals[-1].conjugate()):
        vals[-1] = vals[-1].conjugate()
    return vals, method, converged, matvecs, ritz_s


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
        return {
            "delta0": jnum(self.delta0),
            "k": int(self.k),
            "omega": jlist(self.omega),
            "branches": jlist(self.mu),
        }

    def csv_rows(self) -> tuple[list[str], list[list]]:
        header = ["omega", "branch", "mu_re", "mu_im", "modulus"]
        n, k = len(self.omega), self.k
        mu = self.mu.ravel()
        return header, columns_to_rows(np.repeat(self.omega, k), np.tile(np.arange(k), n),
                                       mu.real, mu.imag, np.hypot(mu.real, mu.imag))


def acs(params: ModelParams, delta0: float, k: int, omega_values) -> ACSCurve:
    """Asymptotic continuous spectrum ``mu^k = kappa e^{i w d0}/(i w - A + B + 1)``.

    Parameters
    ----------
    params : ModelParams
    delta0 : float
        Measured regeneration lag of the k-pulse train, finite.
    k : int
        Pulses per delay interval, >= 1.
    omega_values : array_like
        Finite frequencies to sample.  ``omega = 0`` is skipped (with a
        notice) when ``A = B + 1`` makes it a singular point.

    Returns
    -------
    ACSCurve
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    if not math.isfinite(delta0):
        raise InvalidArgumentError(f"delta0 must be finite, got {delta0!r}")
    omega_values = np.asarray(list(omega_values), dtype=float)
    if not np.isfinite(omega_values).all():
        raise InvalidArgumentError("frequencies must be finite")
    c = params.A - params.B - 1.0
    omegas = []
    rows = []
    roots_of_unity = [cmath.exp(2j * math.pi * mth / k) for mth in range(k)]
    for w in omega_values:
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
    # Written so that NaN fails the check.
    if not 0.0 < tau < math.inf:
        raise InvalidArgumentError(f"tau must be positive and finite, got {tau!r}")
    c = params.A - params.B - 1.0
    if c == 0.0:
        raise SingularParameterError("A = B + 1 makes the pulse bound singular")
    if params.kappa == 0.0:
        return math.inf
    return float(tau * math.log(abs(c / params.kappa)))
