"""Output checks for the benchmark workloads.

Every check reads the JSON an item wrote, so it verifies what a user
of the CLI would receive.  References are built here, independently of
the library's search code, and always outside the timed region:

* off-state roots come from the closed form
  ``lambda_j = c + W_j(tau kappa e^{-tau c}) / tau`` over every
  Lambert-W branch that can reach the window, plus ``-gamma_G`` and
  ``-gamma_Q``;
* Floquet spectra are checked against the trivial multiplier, the
  number of near-neutral multipliers of a k-pulse train and the
  large-delay limit ``(kappa / |A - B - 1|)^(1/k)``;
* onset scans are checked against the band of acceptance criterion 7.

:func:`check_outputs` returns the problems found per item; an item
with any problem, or one that raised, counts as failed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lambertw

from workloads import WINDOW, item_params
from yamada_delay import model

# Floquet spectra of settled trains
TRIVIAL_TOL = 5e-2
UNIT_BAND = 5e-2
LIMIT_TOL = 0.1
RADIUS_MAX = 0.9
# onset scans
KAPPA_MIN_BAND = (0.004, 0.009)
KAPPA_MIN_SLACK = 5e-4
# steady-state spectra
RESIDUAL_MAX = 1e-9
REFERENCE_TOL = 1e-7  # the library's own deduplication distance
DUAL_ROUTE_TOL = 1e-9


def as_complex(v) -> complex:
    if isinstance(v, dict):
        return complex(float(v["re"]), float(v["im"]))
    return complex(float(v))


def off_roots_reference(params, window) -> np.ndarray:
    """All off-state characteristic roots in ``window``, from Lambert W."""
    re_min, re_max, im_min, im_max = window
    tau, kap = params.tau, params.kappa
    c = params.A - params.B - 1.0
    z = tau * kap * math.exp(-tau * c)
    # Im W_j lies within 2 pi (|j| + 1) of the real axis.
    n_branch = int(math.ceil(tau * max(abs(im_min), abs(im_max)) / (2.0 * math.pi))) + 2
    lam = np.array([c + complex(lambertw(z, j)) / tau for j in range(-n_branch, n_branch + 1)])
    for _ in range(3):  # Newton polish on -lam + c + kappa e^{-tau lam}
        ex = kap * np.exp(-tau * lam)
        lam = lam - (-lam + c + ex) / (-1.0 - tau * ex)
    cands = list(lam) + [complex(-params.gamma_G), complex(-params.gamma_Q)]
    slack = 1e-9
    out: list[complex] = []
    for r in cands:
        inside = (re_min - slack <= r.real <= re_max + slack
                  and im_min - slack <= r.imag <= im_max + slack)
        if inside and all(abs(r - w) >= REFERENCE_TOL for w in out):
            out.append(r)
    return np.array(sorted(out, key=lambda w: (w.real, w.imag)), dtype=complex)


def match_roots(found, expected, tol: float) -> tuple[int, int]:
    """(missed, extra): expected roots with no found root within ``tol`` and vice versa."""
    found = np.asarray(found, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    if len(found) == 0 or len(expected) == 0:
        return len(expected), len(found)
    dist = np.abs(found[:, None] - expected[None, :])
    missed = int(np.sum(dist.min(axis=0) > tol))
    extra = int(np.sum(dist.min(axis=1) > tol))
    return missed, extra


def char_det(lam: complex, state, params) -> complex:
    """det(lam I - M1 - M2 e^{-lam tau}) from the rate equations, written out here."""
    g, q, i = state.G, state.Q, state.I
    gg, gq, a = params.gamma_G, params.gamma_Q, params.a
    m1 = np.array([
        [-gg * (1.0 + i), 0.0, -gg * g],
        [0.0, -gq * (1.0 + a * i), -gq * a * q],
        [i, -i, g - q - 1.0],
    ], dtype=complex)
    m = lam * np.eye(3) - m1
    m[2, 2] -= params.kappa * np.exp(-lam * params.tau)
    return complex(np.linalg.det(m))


def _check_floquet(item, obj, params) -> list[str]:
    k = item.params["k"]
    problems = []
    mults = np.array([as_complex(v) for v in obj["multipliers"]])
    defect = abs(as_complex(obj["trivial"]) - 1.0)
    if not defect < TRIVIAL_TOL:
        problems.append(f"trivial multiplier off 1 by {defect:.3g}")
    mods = np.abs(mults)
    near = np.abs(mods - 1.0) < UNIT_BAND
    if int(near.sum()) != k:
        problems.append(f"{int(near.sum())} multipliers near the unit circle, expected {k}")
    rest = mods[~near]
    limit = (params.kappa / abs(params.A - params.B - 1.0)) ** (1.0 / k)
    if len(rest) == 0:
        problems.append("no nontrivial multipliers")
    else:
        top = float(rest.max())
        if not (abs(top - limit) <= LIMIT_TOL and top < RADIUS_MAX):
            problems.append(f"largest nontrivial modulus {top:.4f}, limit {limit:.4f}")
    return problems


def _check_scan(item, obj, params) -> list[str]:
    problems = []
    kmin = float(obj["kappa_min"])
    lo, hi = KAPPA_MIN_BAND
    if not lo <= kmin <= hi:
        problems.append(f"kappa_min {kmin:.6g} outside [{lo}, {hi}]")
    if float(obj["tau"]) != params.tau:
        problems.append("tau echoed wrongly")
    return problems


def _roots_of(obj) -> np.ndarray:
    return np.array([as_complex(v) for v in obj["roots"]], dtype=complex)


def _check_residuals(obj, state, params) -> list[str]:
    problems = []
    resid = [float(r) for r in obj["residuals"]]
    if len(resid) != len(obj["roots"]):
        problems.append("residual list does not match the roots")
    if resid and not max(resid) < RESIDUAL_MAX:
        problems.append(f"reported residual {max(resid):.3g} >= {RESIDUAL_MAX:g}")
    own = max((abs(char_det(z, state, params)) for z in _roots_of(obj)), default=0.0)
    if not own < 10.0 * RESIDUAL_MAX:
        problems.append(f"recomputed residual {own:.3g}")
    return problems


def _check_spectrum(item, obj, params, reference) -> list[str]:
    state_name = item.params.get("state", "off")
    problems = []
    if obj["state"] != state_name:
        problems.append(f"state {obj['state']!r}, expected {state_name!r}")
    state = getattr(model.steady_states(params), state_name)
    problems += _check_residuals(obj, state, params)
    roots = _roots_of(obj)
    if state_name == "off":
        missed, extra = match_roots(roots, reference, REFERENCE_TOL)
        if missed or extra:
            problems.append(f"{missed} roots missed and {extra} extra against Lambert W "
                            f"({len(reference)} expected)")
    if item.kind == "roots_off":
        top = roots.real.max() if len(roots) else -math.inf
        expected = "stable" if top < 0.0 else "saddle-finite-unstable"
        if obj.get("classification") != expected:
            problems.append(f"classification {obj.get('classification')!r}, "
                            f"largest real part {top:.3g}")
    return problems


def references(items) -> dict[str, np.ndarray]:
    """Reference root sets of the off-state items (keyed by item id)."""
    return {
        item.id: off_roots_reference(item_params(item), WINDOW)
        for item in items
        if item.kind.startswith("roots") and item.params.get("state", "off") == "off"
    }


def check_outputs(items, outputs: dict, refs: dict) -> dict[str, list[str]]:
    """Problems per item id for one pass.

    ``outputs`` maps item ids to parsed JSON results; a missing entry
    (the item raised) is reported as a problem.  Cross-item checks:
    the onset at the longer delay is not above the shorter one's by
    more than ``KAPPA_MIN_SLACK``, and the generic off-state roots equal
    the ``roots_off`` roots at the same point to ``DUAL_ROUTE_TOL``.
    """
    problems: dict[str, list[str]] = {}
    for item in items:
        obj = outputs.get(item.id)
        if obj is None:
            problems[item.id] = ["no output"]
            continue
        params = item_params(item)
        try:
            if item.kind == "floquet":
                found = _check_floquet(item, obj, params)
            elif item.kind == "scan":
                found = _check_scan(item, obj, params)
            else:
                found = _check_spectrum(item, obj, params, refs.get(item.id))
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"malformed output: {exc!r}"]
        problems[item.id] = found

    by_id = {item.id: item for item in items}
    if "tau200" in by_id and "tau400" in by_id:
        a, b = outputs.get("tau200"), outputs.get("tau400")
        if a is not None and b is not None:
            if float(b["kappa_min"]) > float(a["kappa_min"]) + KAPPA_MIN_SLACK:
                problems["tau400"].append("kappa_min grows with the delay")
    if "generic-off-tau50" in by_id and "off-tau50" in by_id:
        a, b = outputs.get("generic-off-tau50"), outputs.get("off-tau50")
        if a is not None and b is not None:
            ra, rb = _roots_of(a), _roots_of(b)
            missed, extra = match_roots(ra, rb, DUAL_ROUTE_TOL)
            if len(ra) != len(rb) or missed or extra:
                problems["generic-off-tau50"].append(
                    f"generic route differs from roots_off: {missed} missed, {extra} extra")
    return problems
