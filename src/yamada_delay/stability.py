"""Linear stability of steady states.

The linearization about a steady state ``x`` of the delayed system is
``y'(t) = M1(x) y(t) + M2 y(t-tau)``, whose exponential solutions
``y = e^{lambda t} v`` exist where ``det(lambda I - M1 - M2 e^{-tau
lambda})`` vanishes.  Only ``I`` is delayed, ``M2 = kappa e3 e3^T``, so
this is ``p0 - kappa e^{-tau lambda} p1`` with ``p0 = det(lambda I -
M1)`` and the quadratic ``p1 = (lambda + gamma_G (1 + I))(lambda +
gamma_Q (1 + a I))``, and its roots lie on the branches of ``tau lambda
+ Log(p0 / p1) = log kappa + 2 pi i j``, which one search follows for
every steady state, with no search grid.  At the off state ``p0 / p1 =
lambda - c``, ``c = A - B - 1``, and the roots of :func:`char_off_factor`
are ``c + W_j(tau kappa e^{-tau c}) / tau`` on the Lambert-W branches.
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
_MAX_BRANCHES = 2_000_000


@dataclass(frozen=True)
class SpectrumSet:
    """Deduplicated characteristic roots found inside a search window.

    Attributes
    ----------
    roots : ndarray of complex
        Sorted by real part, then imaginary part.
    residuals : ndarray of float
        ``|char(root)|``, below 1e-9: a root that misses the bound raises.
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
    # exp with overflow guard: arguments beyond 700 give an infinite modulus
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


def _polish_multiple(f_fp, z: np.ndarray) -> np.ndarray:
    """Sharpen near-multiple roots by 5 Newton steps on the derivative.

    Around a double root the residual of ``f`` is quadratically flat,
    so plain Newton stalls anywhere inside the roundoff basin; ``f'``
    has a simple root there and converges quadratically.  A point keeps
    its input value if the polish drifts off the root of ``f`` itself.
    """
    w = z
    for _ in range(5):
        h = 1e-6 * (1.0 + np.abs(w))
        step = f_fp(w)[1] / ((f_fp(w + h)[1] - f_fp(w - h)[1]) / (2.0 * h))
        w = np.where(np.isfinite(step), w - step, w)
    return np.where(np.isfinite(w) & (np.abs(f_fp(w)[0]) <= np.maximum(np.abs(f_fp(z)[0]), 1e-13)),
                    w, z)


def _newton_search(f_fp, starts: np.ndarray, window) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on arrays from every start at once.

    ``f_fp(z)`` returns ``f`` and its derivative.  Per start: at most 60
    iterations; converged on ``|f| < 1e-14`` or a step below
    ``1e-13 (1 + |z|)``, failed on a non-finite ``f``, a zero derivative
    or an escape beyond ``|z0| + 20 span``; converged near-double roots
    with ``f != 0`` are polished.  Returns the points and the converged mask.
    """
    re_min, re_max, im_min, im_max = window
    limit = np.abs(starts) + 20.0 * max(re_max - re_min, im_max - im_min)
    z = starts.copy()
    live = np.arange(len(z))
    ok = np.zeros(len(z), dtype=bool)
    for _ in range(60):
        if not len(live):
            break
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
    near = np.flatnonzero(ok & (np.abs(d) < 1e-6) & (np.abs(fz) < 1e-12) & (fz != 0.0))
    z[near] = _polish_multiple(f_fp, z[near])
    return z, ok


def _window_roots(found: np.ndarray, window, f_fp):
    """Roots and their conjugates inside the window, sorted by real, then
    imaginary part, with ``f`` and ``f'`` there; of points closer than
    1e-7 the one of least ``|f|`` is kept."""
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
    cluster = np.empty(len(z), dtype=int)
    cluster[order] = np.cumsum(new) - 1
    fz, dz = f_fp(z)
    best = np.lexsort((np.abs(fz), cluster))
    keep = np.sort(best[np.diff(cluster[best], prepend=-1) != 0])
    return z[keep], fz[keep], dz[keep]


def _times(a, b):
    # a * b with 0 * b = 0: exact at the zeros of p1, also where e^{-tau lambda} overflows
    return np.where(a == 0.0, 0.0, a * b)


def _real_roots(p0, p1, kappa: float, tau: float, lo: float, hi: float) -> np.ndarray:
    """Real roots of ``p0 - kappa e^{-tau x} p1`` on ``[lo, hi]`` and the
    zeros of the derivatives of ``F = e^{tau x} p0 - kappa p1``.  Its third
    derivative is ``e^{tau x}`` times a cubic, so between the zeros of
    ``F^(k+1)`` each ``F^(k)`` is monotone; its zero there is bisected on
    the sign of ``(d/dx + tau)^k p0 - kappa e^{-tau x} p1^(k)``.
    """
    polys = [(p0, p1)]
    for _ in range(3):
        p, q = polys[-1]
        polys.append((np.polyadd(tau * p, np.polyder(p)), np.polyder(q)))
    cuts = np.roots(polys[3][0]).real  # extra cuts do no harm
    for p, q in polys[2::-1]:
        def sign(x):
            return np.sign(np.polyval(p, x) - _times(np.polyval(q, x), kappa * np.exp(-tau * x)))

        x = np.sort(np.clip(np.concatenate([[lo, hi], cuts]), lo, hi))
        sx = sign(x)
        brackets = sx[:-1] * sx[1:] < 0.0
        a, b, sa = x[:-1][brackets], x[1:][brackets], sx[:-1][brackets]
        for _ in range(20):
            mid = 0.5 * (a + b)
            left = sign(mid) == sa
            a, b = np.where(left, mid, a), np.where(left, b, mid)
        cuts = np.concatenate([x[sx == 0.0], 0.5 * (a + b), cuts])
    return cuts


def _spectrum(m1, kappa: float, tau: float, window) -> SpectrumSet:
    """Characteristic roots of ``y' = M1 y + kappa e3 e3^T y(t - tau)``.

    Every state of the model has ``M1[0][1] = M1[1][0] = 0``, so ``char =
    p1 (lambda - a33 - kappa e^{-tau lambda}) - s`` with ``p1 = (lambda -
    a11)(lambda - a22)`` and ``s = a13 a31 (lambda - a22) + a23 a32
    (lambda - a11)``; off the poles of ``g = lambda - a33 - s / p1`` the
    roots solve ``tau (lambda - a33) + Log g = log kappa - tau a33 + 2 pi
    i j`` (Lichtner, Wolfrum & Yanchuk, SIAM J. Math. Anal. 43, 2011).
    Newton on ``g - kappa e^{-tau lambda}`` starts twice on each branch
    that can reach the window: at the Lambert-W root of ``g = lambda -
    a33`` (exact at the off state, ``s = 0``), and after 30 Newton steps
    on the log form, ``Log g`` summed over the factors of ``g``.  Where
    branches meet, Newton on ``char`` starts at the poles, the zeros of
    ``g`` (eigenvalues of ``M1``), the critical points of the log form,
    the roots at ``tau = 0`` and the real roots (:func:`_real_roots`),
    each also shifted by ``i pi k / tau``, ``|k| <= 4``.  Errors as in
    :func:`roots_generic`.
    """
    win = _window4(window)
    (a11, _, a13), (_, a22, a23), (a31, a32, a33) = m1
    b1, b2 = a13 * a31, a23 * a32
    tau = tau if kappa != 0.0 else 0.0  # without feedback the delay drops out
    # Im W_j lies within 2 pi (|j| + 1) of the real axis, Im lambda = Im W / tau
    n = math.ceil(abs(tau) * max(abs(win[2]), abs(win[3])) / (2.0 * math.pi)) + 2
    if 2 * n + 1 > _MAX_BRANCHES:
        raise InvalidArgumentError(f"the window reaches {2 * n + 1} delay branches, more "
                                   f"than {_MAX_BRANCHES}; narrow the window")
    zeros, poles = np.linalg.eigvals(m1), np.array([a11, a22])
    p0, p1 = np.poly(zeros).real, np.poly(poles)

    def branch_fp(lam):  # g - kappa e^{-tau lambda}
        ex = kappa * np.exp(-tau * lam)
        u, v = lam - a11, lam - a22
        uv, s = u * v, b1 * v + b2 * u
        return lam - a33 - s / uv - ex, 1.0 + (s * (u + v) - (b1 + b2) * uv) / (uv * uv) + tau * ex

    def char_fp(lam):
        ex = kappa * np.exp(-tau * lam)
        u, v = lam - a11, lam - a22
        uv, h = u * v, lam - a33 - ex
        return (_times(uv, h) - b1 * v - b2 * u,
                _times(u + v, h) + _times(uv, 1.0 + tau * ex) - (b1 + b2))

    with np.errstate(all="ignore"):
        # zeros of tau + g'/g: where the branches of the log form meet
        crit = np.polyadd(tau * np.polymul(p0, p1), np.polysub(
            np.polymul(np.polyder(p0), p1), np.polymul(p0, np.polyder(p1))))
        starts = np.concatenate([
            poles, zeros, np.roots(crit), np.linalg.eigvals(m1 + np.diag([0.0, 0.0, kappa])),
            _real_roots(p0, p1, kappa, tau, win[0], win[1])])
        found = []
        if tau != 0.0:
            # the log form on branch j is tau (lambda - a33) + Log g = ell_j, and big_l
            # is log z + 2 pi i j for the real z = tau kappa e^{-tau a33}, which overflows
            ell = math.log(kappa) - tau * a33 + 2j * math.pi * np.arange(-n, n + 1)
            big_l = ell + math.log(abs(tau)) + 1j * math.pi * (tau < 0.0)
            w = big_l - np.log(big_l) + np.log(big_l) / big_l  # asymptotic series
            seeds = refined = a33 + w / tau
            for _ in range(30):
                u, v = refined[:, None] - zeros, refined[:, None] - poles
                log_g = np.log(u).sum(1) - np.log(v).sum(1)
                step = (tau * (refined - a33) + log_g - ell) / (
                    tau + (1.0 / u).sum(1) - (1.0 / v).sum(1))
                refined = np.where(np.isfinite(step), refined - step, refined)
            lam, ok = _newton_search(branch_fp, np.concatenate([seeds, refined]), win)
            found = [lam[ok]]
            stuck = ~ok[len(seeds):]
            starts = (starts[:, None] + 1j * math.pi / tau * np.arange(-4, 5)).ravel()
        lam, ok = _newton_search(char_fp, starts.astype(complex), win)
        found = np.concatenate(found + [lam[ok]])
        if tau != 0.0 and stuck.any():
            # An unconverged branch keeps its refined seed, for the residual
            # check below, unless another start found that branch's root:
            # then the seed only got stuck next to a pole of g.
            def branch(z):  # j with tau (z - a33) + Log g(z) = ell_j
                log_g = np.log(z[:, None] - zeros).sum(1) - np.log(z[:, None] - poles).sum(1)
                return np.round((tau * (z - a33) + log_g - ell[n]).imag / (2.0 * math.pi))

            keep = stuck & ~np.isin(np.arange(-n, n + 1), branch(found))
            found = np.concatenate([found, refined[keep]])
        roots, fz, dz = _window_roots(found, win, char_fp)
    resid = np.abs(fz)
    missed = np.count_nonzero(~(resid < _RESIDUAL_TOL))
    if missed:
        state = "off-state" if a31 == 0.0 else "lasing-state"  # a31 = I
        raise NumericalError(f"{missed} of {len(roots)} {state} roots in the window miss "
                             f"the residual bound {_RESIDUAL_TOL:g}; narrow the window")
    return SpectrumSet(roots, resid, np.abs(dz) < 1e-6, win)


def roots_off(params: ModelParams, window) -> SpectrumSet:
    """All characteristic roots of the off state inside a window.

    :func:`roots_generic` at ``(A, B, 0)``, where the factor has one root
    ``c + W_j(tau kappa e^{-tau c}) / tau`` on each Lambert-W branch
    (Corless et al., Adv. Comput. Math. 5, 1996).
    """
    m1 = jacobians(State(params.A, params.B, 0.0), params)[0]
    return _spectrum(m1, params.kappa, params.tau, window)


def roots_generic(steady_state: State, params: ModelParams, window) -> SpectrumSet:
    """Characteristic roots of the linearization at any equilibrium.

    The roots of ``det(lambda I - M1 - M2 e^{-lambda tau})`` in the window,
    found along the delay branches of its exact factorization (no search
    grid; see ``_spectrum``).  An empty result is valid.

    Raises
    ------
    InvalidArgumentError
        If the state is not an equilibrium (RHS residual above 1e-8), or
        the window reaches more than 2 000 000 delay branches.
    NumericalError
        If a root inside the window misses the residual bound 1e-9, as on
        wide windows at delays of a few thousand, or next to ``-gamma_G (1
        + I)`` and ``-gamma_Q (1 + a I)`` for lasing states at long delays;
        a window that leaves those out can succeed.
    """
    res = float(np.max(np.abs(rhs(steady_state, steady_state.I, params))))
    if res > 1e-8:
        raise InvalidArgumentError(f"state is not an equilibrium (residual {res:.2e})")
    return _spectrum(jacobians(steady_state, params)[0], params.kappa, params.tau, window)


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
