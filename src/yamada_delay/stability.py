"""Linear stability of steady states.

The linearization about a steady state ``x`` of the delayed system is
``y'(t) = M1(x) y(t) + M2 y(t-tau)``, whose exponential solutions
``y = e^{lambda t} v`` exist where the transcendental characteristic
function vanishes.  For the off state the determinant factorizes::

    char_off(lambda) = (lambda + gamma_G) (lambda + gamma_Q)
                       * (-lambda + A - B - 1 + kappa * e^{-tau lambda})

so all delay-dependent structure lives in the scalar transcendental
factor, whose roots are ``c + W_j(tau kappa e^{-tau c}) / tau`` with
``c = A - B - 1`` on the Lambert-W branches ``j``; the off-state spectrum
is taken from those branches, with no search grid.  At other equilibria
the roots, on chains with imaginary spacing about ``2 pi / |tau|``, are
found by Newton's method from a grid with that spacing, all at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError, SingularParameterError
from .model import ModelParams, State, jacobians, rhs

__all__ = [
    "STABLE",
    "SADDLE_FINITE_UNSTABLE",
    "INFINITELY_MANY_UNSTABLE",
    "SpectrumSet",
    "HopfCurvePoint",
    "BTPoint",
    "char_off",
    "char_off_factor",
    "char_off_factor_deriv",
    "roots_off",
    "roots_generic",
    "hopf_curve_off",
    "bt_point",
    "classify_off",
]

STABLE = "stable"
SADDLE_FINITE_UNSTABLE = "saddle-finite-unstable"
INFINITELY_MANY_UNSTABLE = "infinitely-many-unstable"

_DEDUP_TOL = 1e-7
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumSet:
    """Deduplicated characteristic roots found inside a search window.

    Attributes
    ----------
    roots : ndarray of complex
        Sorted by real part, then imaginary part.
    residuals : ndarray of float
        ``|char(root)|``; every entry is below 1e-9.
    multiple : ndarray of bool
        True where the derivative of the characteristic function also
        vanishes (a multiple root, e.g. at a double zero).
    window : tuple of float
        ``(re_min, re_max, im_min, im_max)`` searched.
    """

    roots: np.ndarray
    residuals: np.ndarray
    multiple: np.ndarray
    window: tuple[float, float, float, float]

    def __len__(self) -> int:
        return len(self.roots)

    def max_real_part(self) -> float:
        if len(self.roots) == 0:
            return -math.inf
        return float(self.roots.real.max())

    def to_json_obj(self) -> dict:
        from . import _io

        return _io.spectrum_json(self)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        from . import _io

        return _io.spectrum_rows(self)


def char_off(lam: complex, params: ModelParams) -> complex:
    """Characteristic function of the off state at ``lambda``."""
    lam = complex(lam)
    return (lam + params.gamma_G) * (lam + params.gamma_Q) * char_off_factor(lam, params)


def char_off_factor(lam: complex, params: ModelParams) -> complex:
    """Transcendental factor ``-lambda + A - B - 1 + kappa e^{-tau lambda}``."""
    lam = complex(lam)
    return -lam + params.A - params.B - 1.0 + params.kappa * _cexp(-params.tau * lam)


def char_off_factor_deriv(lam: complex, params: ModelParams) -> complex:
    """Derivative of :func:`char_off_factor` with respect to lambda."""
    lam = complex(lam)
    return -1.0 - params.kappa * params.tau * _cexp(-params.tau * lam)


def _cexp(z: complex) -> complex:
    # exp with overflow guard: arguments beyond +/-700 are clamped to
    # values whose Newton iterates will be discarded anyway.
    if z.real > 700.0:
        return cmath.rect(math.inf, z.imag)
    return cmath.exp(z)


def _window4(window) -> tuple[float, float, float, float]:
    try:
        re_min, re_max, im_min, im_max = (float(v) for v in window)
    except (TypeError, ValueError):
        raise InvalidArgumentError(
            "window must be (re_min, re_max, im_min, im_max)"
        ) from None
    if not all(map(math.isfinite, (re_min, re_max, im_min, im_max))):
        raise InvalidArgumentError("window must be bounded")
    if re_min >= re_max or im_min >= im_max:
        raise InvalidArgumentError("window must have positive extent")
    return re_min, re_max, im_min, im_max


def _grid_starts(window, tau: float, re_step: float, im_step: float | None) -> np.ndarray:
    re_min, re_max, im_min, im_max = window
    if im_step is None:
        im_step = min(math.pi / abs(tau), 0.5) if tau != 0.0 else 0.5
    n_re = int((re_max - re_min) / re_step) + 2
    n_im = int((im_max - im_min) / im_step) + 2
    if n_re * n_im > 2_000_000:
        raise InvalidArgumentError("window too large for the grid spacing")
    res = np.linspace(re_min, re_max, n_re)
    ims = np.linspace(im_min, im_max, n_im)
    return np.add.outer(res, 1j * ims).ravel()


def _polish_multiple(f, fp, z: complex) -> complex:
    """Sharpen a near-multiple root by Newton on the derivative.

    Around a double root the residual of ``f`` is quadratically flat,
    so plain Newton stalls anywhere inside the roundoff basin; ``fp``
    has a simple root there and converges quadratically.  Falls back to
    the input if the polish drifts off the root of ``f`` itself.
    """
    w = z
    for _ in range(30):
        d = fp(w)
        h = 1e-6 * (1.0 + abs(w))
        d2 = (fp(w + h) - fp(w - h)) / (2.0 * h)
        if d2 == 0.0:
            break
        step = d / d2
        w = w - step
        if abs(step) < 1e-12 * (1.0 + abs(w)):
            break
    if math.isfinite(w.real) and math.isfinite(w.imag) and abs(f(w)) <= max(
        abs(f(z)), 1e-13
    ):
        return w
    return z


def _newton_search(f_fp, starts: np.ndarray, window) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on arrays from every start at once.

    ``f_fp(z)`` returns ``f`` and its derivative.  Per start: at most 60
    iterations; converged on ``|f| < 1e-14`` or a step below
    ``1e-13 (1 + |z|)``, failed on a non-finite ``f``, a zero derivative
    or an escape beyond ``|z0| + 20 span``.  Converged near-double roots
    go through :func:`_polish_multiple`.  Returns the final points and
    the mask of the converged ones.
    """
    re_min, re_max, im_min, im_max = window
    limit = np.abs(starts) + 20.0 * max(re_max - re_min, im_max - im_min)
    z = starts.copy()
    live = np.arange(len(z))
    ok = np.zeros(len(z), dtype=bool)
    for _ in range(60):
        fz, d = f_fp(z[live])
        small = np.abs(fz) < 1e-14
        ok[live[small]] = True
        go = np.isfinite(fz) & ~small & (d != 0.0)
        live, step = live[go], fz[go] / d[go]
        z[live] -= step
        escaped = np.abs(z[live]) > limit[live]
        stopped = ~escaped & (np.abs(step) < 1e-13 * (1.0 + np.abs(z[live])))
        ok[live[stopped]] = True
        live = live[~escaped & ~stopped]
    ok &= np.isfinite(z)
    fz, d = f_fp(z)
    for i in np.flatnonzero(ok & (np.abs(d) < 1e-6) & (np.abs(fz) < 1e-12)):
        z[i] = _polish_multiple(lambda w: f_fp(w)[0], lambda w: f_fp(w)[1], complex(z[i]))
    return z, ok


def _window_roots(found: np.ndarray, window) -> np.ndarray:
    """Roots and their conjugates inside the window, sorted by real, then
    imaginary part; of points closer than 1e-7 the first one is kept."""
    re_min, re_max, im_min, im_max = window
    z = np.concatenate([found, found.conj()])
    z = z[(re_min - 1e-9 <= z.real) & (z.real <= re_max + 1e-9)
          & (im_min - 1e-9 <= z.imag) & (z.imag <= im_max + 1e-9)]
    z = z[np.lexsort((z.imag, z.real))]
    # clusters: runs of points closer than _DEDUP_TOL in real part, split
    # where the imaginary parts within a run are not as close
    run = np.cumsum(np.diff(z.real, prepend=-np.inf) >= _DEDUP_TOL)
    order = np.lexsort((z.imag, run))
    new = np.diff(z.imag[order], prepend=-np.inf) >= _DEDUP_TOL
    new |= np.diff(run[order], prepend=-1) != 0
    first = np.full(np.count_nonzero(new), len(z))
    np.minimum.at(first, np.cumsum(new) - 1, order)
    return z[np.sort(first)]


def roots_off(params: ModelParams, window) -> SpectrumSet:
    """All characteristic roots of the off state inside a window.

    The transcendental factor has one root on every Lambert-W branch,
    ``lambda_j = c + W_j(tau kappa e^{-tau c}) / tau`` with ``c = A-B-1``
    (Corless et al., Adv. Comput. Math. 5, 1996), so there is no search:
    each branch that can reach the window is seeded from a series for
    ``W_j`` and polished by Newton steps on the factor.  The polynomial
    roots ``-gamma_G`` and ``-gamma_Q`` are added when inside the window.
    An empty result is valid.

    Raises
    ------
    NumericalError
        If a root inside the window misses the residual bound 1e-9: the
        roundoff of ``e^{-tau lambda}`` grows with ``tau |lambda|``.
    """
    win = _window4(window)
    c = params.A - params.B - 1.0
    kap = params.kappa
    tau = params.tau if kap != 0.0 else 0.0  # without feedback the delay drops out

    def f_fp(lam):
        ex = kap * np.exp(-tau * lam)
        return -lam + c + ex, -1.0 - tau * ex

    if tau == 0.0:
        lam = np.array([c + kap], dtype=complex)  # the factor is linear
    else:
        # Im W_j lies within 2 pi (|j| + 1) of the real axis, Im lambda = Im W / tau
        n = math.ceil(abs(tau) * max(abs(win[2]), abs(win[3])) / (2.0 * math.pi)) + 2
        # log z + 2 pi i j for the real z = tau kappa e^{-tau c}, kept in log
        # space because e^{-tau c} overflows for long delays
        log_z = math.log(abs(tau) * kap) - tau * c
        ell = log_z + 1j * (math.pi * (tau < 0.0) + 2.0 * math.pi * np.arange(-n, n + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            w = ell - np.log(ell) + np.log(ell) / ell  # asymptotic series
        z = math.copysign(math.exp(min(log_z, 1.0)), tau)
        if abs(z + 1.0 / math.e) < 0.3:  # branch-point series for W_0, W_-1
            p = cmath.sqrt(2.0 * (math.e * z + 1.0))
            w[n - 1 : n + 1] = [-1.0 + q - q * q / 3.0 + 11.0 * q**3 / 72.0 for q in (-p, p)]
        elif -1.0 / math.e < z < math.e:
            w[n] = math.log1p(z)
        seeds = c + w / tau
        with np.errstate(over="ignore", invalid="ignore"):
            lam, ok = _newton_search(f_fp, seeds, win)
        lam = np.where(ok, lam, seeds)  # an unconverged branch: its seed, for the check below
    roots = _window_roots(np.concatenate([[-params.gamma_G, -params.gamma_Q], lam]), win)
    p1, p2 = roots + params.gamma_G, roots + params.gamma_Q

    def times(a, b):  # 0 * b = 0 at -gamma_G, -gamma_Q, also where the factor overflows
        return np.where(a == 0.0, 0.0, a * b)

    with np.errstate(over="ignore", invalid="ignore"):
        fz, dz = f_fp(roots)
        resid = np.abs(times(p1 * p2, fz))
        # multiple if the whole characteristic function has a vanishing
        # derivative (double polynomial root or double transcendental root)
        deriv = times(p1 + p2, fz) + times(p1 * p2, dz)
    missed = np.count_nonzero(~(resid < _RESIDUAL_TOL))
    if missed:
        raise NumericalError(f"{missed} of {len(roots)} off-state roots in the window miss "
                             f"the residual bound {_RESIDUAL_TOL:g}; narrow the window")
    return SpectrumSet(roots, resid, np.abs(deriv) < 1e-6, win)


def _adj3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def roots_generic(
    steady_state: State,
    params: ModelParams,
    window,
    re_step: float = 0.1,
    im_step: float | None = None,
) -> SpectrumSet:
    """Characteristic roots of the linearization at any equilibrium.

    Works on ``det(lambda I - M1 - M2 e^{-lambda tau})`` for the
    Jacobians evaluated at the given state, so it covers the lasing
    equilibria where no closed-form factorization exists.  Newton's
    method runs from a grid of starts with the roots' chain spacing
    (imaginary step ``min(pi/|tau|, 0.5)`` by default).  At the off state
    it reproduces :func:`roots_off` (the determinant factorizes).

    Raises
    ------
    InvalidArgumentError
        If the state is not an equilibrium (RHS residual above 1e-8).
    """
    res = float(np.max(np.abs(rhs(steady_state, steady_state.I, params))))
    if res > 1e-8:
        raise InvalidArgumentError(f"state is not an equilibrium (residual {res:.2e})")
    win = _window4(window)
    m1 = jacobians(steady_state, params)[0]
    kap = params.kappa
    tau = params.tau

    def f_fp(z):
        # exponents beyond 700 count as infinite: those iterates are dropped
        ex = kap * np.where(np.real(-tau * z) > 700.0, np.inf, np.exp(-tau * z))
        m = (
            (z - m1[0][0], -m1[0][1], -m1[0][2]),
            (-m1[1][0], z - m1[1][1], -m1[1][2]),
            (-m1[2][0], -m1[2][1], z - m1[2][2] - ex),
        )
        adj = _adj3(m)
        # det F along the first row, and d det(F)/dz = trace(adj(F) F')
        # with F' = I + tau e^{-tau z} M2
        det = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
        return det, adj[0][0] + adj[1][1] + adj[2][2] * (1.0 + tau * ex)

    with np.errstate(all="ignore"):
        found, ok = _newton_search(f_fp, _grid_starts(win, tau, re_step, im_step), win)
        roots = _window_roots(found[ok], win)
        fz, dz = f_fp(roots)
    resid = np.abs(fz)
    keep = resid < _RESIDUAL_TOL
    return SpectrumSet(roots[keep], resid[keep], np.abs(dz[keep]) < 1e-6, win)


@dataclass(frozen=True)
class HopfCurvePoint:
    """One point of the off-state Hopf curve in the (kappa, tau) plane.

    The curve is parametrized by the crossing frequency: at
    ``kappa(omega) = sqrt(omega^2 + (A-B-1)^2)`` and the matching delay
    the characteristic function has a root exactly at ``i omega``.
    A separate branch exists for every integer winding index.
    """

    omega: float
    kappa: float
    tau: float
    branch_index: int
    residual: float


def hopf_curve_off(
    params: ModelParams,
    omega_values,
    branches=(-2, -1, 0, 1, 2),
) -> list[HopfCurvePoint]:
    """Hopf-curve points of the off state for sampled frequencies.

    Only the ``+`` square-root branch of ``kappa(omega)`` can meet the
    physical range, and only points with ``|A - B - 1| < kappa <= 1``
    are emitted; the ``-`` branch is never physical and is dropped by
    construction.  ``omega = 0`` samples are skipped (the curve is
    parametrized away from the zero-frequency point).

    Returns
    -------
    list of HopfCurvePoint
        Every point carries its characteristic residual, below 1e-10.
    """
    c = params.A - params.B - 1.0
    out: list[HopfCurvePoint] = []
    for omega in np.asarray(list(omega_values), dtype=float):
        if omega == 0.0:
            continue
        kap = math.hypot(omega, c)
        if kap > 1.0 or kap <= abs(c):
            continue
        base_arg = cmath.phase(complex(-c, omega))  # arg(i omega - (A-B-1))
        for k in branches:
            tau = (-base_arg + 2.0 * math.pi * k) / omega
            p = params.replace(kappa=kap, tau=tau)
            r = abs(char_off(1j * omega, p))
            out.append(
                HopfCurvePoint(
                    float(omega), kap, tau, int(k), r
                )
            )
    return out


@dataclass(frozen=True)
class BTPoint:
    """Double-zero point of the off state's transcendental factor.

    ``physical`` is False when the feedback strength falls outside
    [0, 1] (the double root then has no realizable parameter set).
    """

    tau: float
    kappa: float
    physical: bool


def bt_point(A: float, B: float) -> BTPoint:
    """Parameter point where the off state has a double zero root.

    At ``(tau, kappa) = (1/(A-B-1), -(A-B-1))`` the transcendental
    factor satisfies f(0) = f'(0) = 0.

    Raises
    ------
    SingularParameterError
        If ``A == B + 1``.
    """
    c = A - B - 1.0
    if c == 0.0:
        raise SingularParameterError("A = B + 1 makes the double-zero point singular")
    kap = -c
    return BTPoint(tau=1.0 / c, kappa=kap, physical=0.0 <= kap <= 1.0)


def classify_off(params: ModelParams) -> str:
    """Spectral class of the off state.

    Returns one of :data:`STABLE`, :data:`SADDLE_FINITE_UNSTABLE` (at
    least one but finitely many roots in the right half plane) or
    :data:`INFINITELY_MANY_UNSTABLE` (real parts accumulate at +inf,
    the generic picture for negative delay).

    The classification follows the sign of ``tau``, the position of
    ``A`` relative to ``B + 1``, and the feedback strength relative to
    ``|A - B - 1|``; marginal parameter sets (a root exactly on the
    imaginary axis) are classed with the unstable side.  ``tau = 0``
    reduces to the ordinary eigenvalue problem, and ``kappa = 0``
    removes the transcendental term entirely regardless of the delay's
    sign.
    """
    c = params.A - params.B - 1.0
    if params.tau == 0.0 or params.kappa == 0.0:
        # ODE limit: eigenvalues -gamma_G, -gamma_Q, c + kappa (at tau=0)
        # or plain c (kappa=0, any tau).
        top = c + params.kappa if params.tau == 0.0 else c
        return STABLE if top < 0.0 else SADDLE_FINITE_UNSTABLE
    if params.tau < 0.0:
        return INFINITELY_MANY_UNSTABLE
    if c < 0.0 and params.kappa < -c:
        return STABLE
    return SADDLE_FINITE_UNSTABLE
