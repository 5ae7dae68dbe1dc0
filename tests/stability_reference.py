"""Reference characteristic-root searches: Newton from a rectangular grid,
and a root count by the argument principle; and the earlier forms of two
stages of the branch search.

Test-only code: the differential tests in ``test_stability.py`` compare
:func:`yamada_delay.roots_off` and :func:`yamada_delay.roots_generic`
(one search along the delay branches) against these scalar,
start-by-start searches, which seed Newton's method from a rectangular
grid with the asymptotic chain spacing of the roots, and check that
they find as many roots as :func:`winding_count` counts.  They also run
the branch search with :func:`refine_seeds_fixed`, the log-form
refinement that takes 30 steps on every branch, in place of the one that
stops each branch once it converges, and with :func:`newton_search_unleashed`,
the Newton search that lets every start run as far as it goes, and
compare the real-root cuts with :func:`real_roots_polyval`.  Nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from yamada_delay.errors import InvalidArgumentError
from yamada_delay.model import ModelParams, State, jacobians, rhs
from yamada_delay.stability import (
    _DEDUP_TOL,
    _RESIDUAL_TOL,
    SpectrumSet,
    _cexp,
    _times,
    _window4,
    char_off,
    char_off_factor,
    char_off_factor_deriv,
)
from yamada_delay.stability import _polish_multiple as _polish_multiple_arrays


def _det3(m) -> complex:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adj3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


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
    if math.isfinite(w.real) and math.isfinite(w.imag) and abs(f(w)) <= max(abs(f(z)), 1e-13):
        return w
    return z


def _grid_starts(window, tau: float, re_step: float, im_step: float | None):
    re_min, re_max, im_min, im_max = window
    if im_step is None:
        im_step = min(math.pi / abs(tau), 0.5) if tau != 0.0 else 0.5
    n_re = int((re_max - re_min) / re_step) + 2
    n_im = int((im_max - im_min) / im_step) + 2
    if n_re * n_im > 2_000_000:
        raise InvalidArgumentError("window too large for the grid spacing")
    res = np.linspace(re_min, re_max, n_re)
    ims = np.linspace(im_min, im_max, n_im)
    return [complex(r, i) for r in res for i in ims]


def _newton_roots(f, fp, starts, window, extra_roots=()):
    """Newton iteration from each start; dedup, filter, sort.

    ``extra_roots`` are known exact roots appended before filtering
    (e.g. the explicit polynomial factors of char_off).
    """
    re_min, re_max, im_min, im_max = window
    span = max(re_max - re_min, im_max - im_min)
    found: list[complex] = [complex(z) for z in extra_roots]
    for z0 in starts:
        z = z0
        ok = False
        for _ in range(60):
            fz = f(z)
            if not (math.isfinite(fz.real) and math.isfinite(fz.imag)):
                break
            if abs(fz) < 1e-14:
                ok = True
                break
            d = fp(z)
            if d == 0.0:
                break
            step = fz / d
            z = z - step
            if abs(z) > abs(z0) + 20.0 * span:
                break
            if abs(step) < 1e-13 * (1.0 + abs(z)):
                ok = True
                break
        if ok and math.isfinite(z.real) and math.isfinite(z.imag):
            if abs(fp(z)) < 1e-6 and abs(f(z)) < 1e-12:
                z = _polish_multiple(f, fp, z)
            found.append(z)

    # keep window, conjugate-complete, dedup
    inside = [
        z
        for z in found
        if re_min - 1e-9 <= z.real <= re_max + 1e-9
        and im_min - 1e-9 <= z.imag <= im_max + 1e-9
    ]
    conj = [z.conjugate() for z in inside if im_min - 1e-9 <= -z.imag <= im_max + 1e-9]
    merged: list[complex] = []
    for z in sorted(inside + conj, key=lambda w: (w.real, w.imag)):
        if not any(abs(z - w) < _DEDUP_TOL for w in merged):
            merged.append(z)
    return merged


def roots_off(
    params: ModelParams,
    window,
    re_step: float = 0.1,
    im_step: float | None = None,
) -> SpectrumSet:
    """All characteristic roots of the off state inside a window.

    Newton's method on the transcendental factor is started from a
    rectangular grid (imaginary spacing ``min(pi/|tau|, 0.5)`` by
    default, matching the asymptotic chain spacing of the roots); the
    explicit polynomial roots ``-gamma_G`` and ``-gamma_Q`` are added
    directly when they fall inside the window.  Non-converged starts
    are discarded silently; an empty result is valid.
    """
    win = _window4(window)
    starts = _grid_starts(win, params.tau, re_step, im_step)

    def f(z):
        return char_off_factor(z, params)

    def fp(z):
        return char_off_factor_deriv(z, params)

    poly = [
        complex(-g, 0.0)
        for g in (params.gamma_G, params.gamma_Q)
        if win[0] <= -g <= win[1] and win[2] <= 0.0 <= win[3]
    ]
    roots = _newton_roots(f, fp, starts, win, extra_roots=poly)

    kept, resid, mult = [], [], []
    for z in roots:
        r = abs(char_off(z, params))
        if r < _RESIDUAL_TOL:
            kept.append(z)
            resid.append(r)
            # multiple if the whole characteristic function has a
            # vanishing derivative (double polynomial root or double
            # transcendental root).
            mult.append(abs(_char_off_deriv(z, params)) < 1e-6)
    return SpectrumSet(
        np.array(kept, dtype=complex),
        np.array(resid),
        np.array(mult, dtype=bool),
        win,
    )


def _char_off_deriv(z: complex, params: ModelParams) -> complex:
    p1 = z + params.gamma_G
    p2 = z + params.gamma_Q
    f = char_off_factor(z, params)
    fp = char_off_factor_deriv(z, params)
    return p2 * f + p1 * f + p1 * p2 * fp


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
    equilibria where no closed-form factorization exists.  At the off
    state it reproduces :func:`roots_off` (the determinant factorizes).

    Raises
    ------
    InvalidArgumentError
        If the state is not an equilibrium (RHS residual above 1e-8).
    """
    res = float(np.max(np.abs(rhs(steady_state, steady_state.I, params))))
    if res > 1e-8:
        raise InvalidArgumentError(f"state is not an equilibrium (residual {res:.2e})")
    win = _window4(window)
    m1, m2 = jacobians(steady_state, params)
    m1 = tuple(tuple(row) for row in m1)
    kap = params.kappa
    tau = params.tau

    def fmat(z):
        ex = kap * _cexp(-tau * z)
        return (
            (z - m1[0][0], -m1[0][1], -m1[0][2]),
            (-m1[1][0], z - m1[1][1], -m1[1][2]),
            (-m1[2][0], -m1[2][1], z - m1[2][2] - ex),
        )

    def f(z):
        return _det3(fmat(z))

    def fp(z):
        # d det(F)/dz = trace(adj(F) F') with F' = I + tau e^{-tau z} M2
        ex = kap * _cexp(-tau * z)
        adj = _adj3(fmat(z))
        return adj[0][0] + adj[1][1] + adj[2][2] * (1.0 + tau * ex)

    starts = _grid_starts(win, tau, re_step, im_step)
    roots = _newton_roots(f, fp, starts, win)
    kept, resid, mult = [], [], []
    for z in roots:
        r = abs(f(z))
        if r < _RESIDUAL_TOL:
            kept.append(z)
            resid.append(r)
            mult.append(abs(fp(z)) < 1e-6)
    return SpectrumSet(
        np.array(kept, dtype=complex),
        np.array(resid),
        np.array(mult, dtype=bool),
        win,
    )


def winding_count(state: State, params: ModelParams, window) -> int:
    """Zeros of ``det(lambda I - M1 - M2 e^{-lambda tau})`` inside a
    rectangle, counted with multiplicity by the winding of the phase
    along its boundary.

    Independent of any start scheme: the determinant comes from
    ``numpy.linalg.det`` on the matrices, evaluated on the boundary at a
    spacing of ``min(pi / (8 |tau|), 0.01)``; every step whose phase
    turns by more than ``pi / 8`` or whose modulus changes by more than a
    factor ``e^0.5`` is halved until none does.  A root on the boundary
    fails the assertion; two roots closer to it than the spacing can
    still go uncounted.
    """
    m1, m2 = (np.asarray(m) for m in jacobians(state, params))
    re_min, re_max, im_min, im_max = window
    corners = [complex(re_min, im_min), complex(re_max, im_min),
               complex(re_max, im_max), complex(re_min, im_max)]

    def det(z):
        e = np.exp(-params.tau * z)[:, None, None]
        return np.linalg.det(z[:, None, None] * np.eye(3) - m1 - m2 * e)

    sides = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = math.ceil(abs(b - a) / min(math.pi / (8.0 * max(abs(params.tau), 1.0)), 0.01))
        sides.append(a + (b - a) * np.arange(n) / n)
    z = np.concatenate(sides + [corners[:1]])
    f = det(z)
    for _ in range(60):
        turn = np.angle(f[1:] / f[:-1])
        coarse = np.flatnonzero((np.abs(turn) > math.pi / 8.0)
                                | (np.abs(np.log(np.abs(f[1:] / f[:-1]))) > 0.5))
        if len(coarse) == 0:
            break
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        z, f = np.insert(z, coarse + 1, mid), np.insert(f, coarse + 1, det(mid))
    assert len(coarse) == 0, "a root on the boundary"
    total = turn.sum() / (2.0 * math.pi)
    assert abs(total - round(total)) < 1e-6
    return round(total)


def refine_seeds_fixed(seeds: np.ndarray, ell: np.ndarray, tau: float, a33: float, zeros,
                       poles) -> tuple[np.ndarray, int]:
    """``stability._refine_seeds`` as it was: 30 Newton steps on the log
    form of every branch, converged or not; a non-finite step leaves the
    point where it is."""
    refined = seeds
    for _ in range(30):
        u, v = refined[:, None] - zeros, refined[:, None] - poles
        log_g = np.log(u).sum(1) - np.log(v).sum(1)
        step = (tau * (refined - a33) + log_g - ell) / (
            tau + (1.0 / u).sum(1) - (1.0 / v).sum(1))
        refined = np.where(np.isfinite(step), refined - step, refined)
    return refined, 30


def real_roots_polyval(p0, p1, kappa: float, tau: float, lo: float, hi: float) -> np.ndarray:
    """``stability._real_roots`` as it was, with ``np.polyval``."""
    polys = [(p0, p1)]
    for _ in range(3):
        p, q = polys[-1]
        polys.append((np.polyadd(tau * p, np.polyder(p)), np.polyder(q)))
    cuts = np.roots(polys[3][0]).real
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


def newton_search_unleashed(f_fp, starts: np.ndarray, window,
                            leash: float = math.inf) -> tuple[np.ndarray, np.ndarray, int]:
    """``stability._newton_search`` as it was, with no leash: a start runs
    until it converges, fails or escapes beyond ``|z0| + 20 span``, for at
    most 60 iterations.  ``leash`` is accepted and ignored."""
    re_min, re_max, im_min, im_max = window
    limit = np.abs(starts) + 20.0 * max(re_max - re_min, im_max - im_min)
    z = starts.copy()
    live = np.arange(len(z))
    ok = np.zeros(len(z), dtype=bool)
    iterations = 0
    while len(live) and iterations < 60:
        iterations += 1
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
    z[near] = _polish_multiple_arrays(f_fp, z[near])
    return z, ok, iterations
