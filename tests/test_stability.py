"""Stability: characteristic roots, Hopf curve, double-zero point, classes."""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import stability_reference as grid
import yamada_delay
from yamada_delay import (
    InvalidArgumentError,
    ModelParams,
    NumericalError,
    SingularParameterError,
    State,
    bt_point,
    char_off,
    classify_off,
    hopf_curve_off,
    jacobians,
    preset,
    roots_generic,
    roots_off,
    stability,
    steady_states,
)
from yamada_delay.stability import (
    INFINITELY_MANY_UNSTABLE,
    SADDLE_FINITE_UNSTABLE,
    STABLE,
    char_off_factor,
    char_off_factor_deriv,
)

from conftest import random_params

WINDOW = (-1.0, 0.5, -10.0, 10.0)
# the windows of the differential tests: the classification window, the
# default one and a square around the origin
DIFF_WINDOWS = [(-0.5, 8.0, -8.0, 8.0), WINDOW, (-3.0, 3.0, -3.0, 3.0)]
_rng = np.random.default_rng(406)
DRAWS = [random_params(_rng) for _ in range(100)]
# the same draws, run on to 110 for the stuck-seed cases
_rng = np.random.default_rng(406)
STUCK_DRAWS = [random_params(_rng) for _ in range(110)]
# the four points of the steady-spectra benchmark (figure1, kappa = 0.2, on
# WINDOW): roots_off at tau = 50 and 200, roots_generic at off and q, tau = 50
BENCH_POINTS = [(50.0, "off", roots_off), (200.0, "off", roots_off),
                (50.0, "off", roots_generic), (50.0, "q", roots_generic)]


def pairing(found, expected, tol):
    """Index of the nearest expected root for each found root.

    Asserts equal counts and a one-to-one match within ``tol``.
    """
    found, expected = np.asarray(found), np.asarray(expected)
    assert len(found) == len(expected)
    if len(found) == 0:
        return np.zeros(0, dtype=int)
    dist = np.abs(found[:, None] - expected[None, :])
    nearest = dist.argmin(axis=1)
    assert dist.min(axis=1).max() <= tol
    assert len(np.unique(nearest)) == len(expected)
    return nearest


def lambert_w_roots(p, window):
    """Off-state roots in ``window`` from scipy's Lambert W, deduplicated at 1e-7."""
    from scipy.special import lambertw

    re_min, re_max, im_min, im_max = window
    c = p.A - p.B - 1.0
    z = p.tau * p.kappa * math.exp(-p.tau * c)
    n = math.ceil(p.tau * max(abs(im_min), abs(im_max)) / (2.0 * math.pi)) + 2
    cands = np.concatenate([
        [-p.gamma_G, -p.gamma_Q], c + lambertw(z, np.arange(-n, n + 1)) / p.tau
    ])
    out = []
    for r in cands:
        inside = (re_min - 1e-9 <= r.real <= re_max + 1e-9
                  and im_min - 1e-9 <= r.imag <= im_max + 1e-9)
        if inside and all(abs(r - w) >= 1e-7 for w in out):
            out.append(r)
    return np.array(out, dtype=complex)


class TestCharacteristicFunction:
    def test_matches_jacobian_determinant(self):
        # factorized closed form vs det(lambda I - M1 - M2 e^{-lambda tau})
        rng = np.random.default_rng(404)
        for _ in range(100):
            p = random_params(rng)
            lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-5.0, 5.0))
            m1, m2 = jacobians(State(p.A, p.B, 0.0), p)
            fm = lam * np.eye(3) - np.asarray(m1) - np.asarray(m2) * cmath.exp(-lam * p.tau)
            det = np.linalg.det(fm)
            scale = max(1.0, abs(det))
            assert abs(det + char_off(lam, p)) < 1e-9 * scale

    def test_factor_derivative(self):
        p = preset("figure1", kappa=0.2, tau=7.0)
        h = 1e-7
        for lam in (0.1 + 0.3j, -0.5 - 2.0j, 0.0j):
            fd = (char_off_factor(lam + h, p) - char_off_factor(lam - h, p)) / (2 * h)
            assert abs(fd - char_off_factor_deriv(lam, p)) < 1e-6


class TestRootsOff:
    def test_ode_limit_roots(self):
        # kappa = 0 removes the delay term: three explicit eigenvalues
        p = ModelParams(A=6.5, B=5.8, a=1.8, gamma_G=0.04, gamma_Q=0.07,
                        kappa=0.0, tau=5.0)
        spec = roots_off(p, WINDOW)
        expected = sorted([-0.3, -0.07, -0.04])
        assert len(spec) == 3
        got = np.sort(spec.roots.real)
        assert np.abs(spec.roots.imag).max() < 1e-12
        assert np.abs(got - expected).max() < 1e-12

    def test_roots_satisfy_char_and_window(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        spec = roots_off(p, WINDOW)
        assert len(spec) > 10
        assert np.all(spec.residuals < 1e-9)
        re, im = spec.roots.real, spec.roots.imag
        assert re.min() >= WINDOW[0] - 1e-9 and re.max() <= WINDOW[1] + 1e-9
        assert im.min() >= WINDOW[2] - 1e-9 and im.max() <= WINDOW[3] + 1e-9

    def test_conjugate_symmetry(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        spec = roots_off(p, WINDOW)
        for z in spec.roots:
            if z.imag > 1e-8:
                assert np.abs(spec.roots - z.conjugate()).min() < 1e-9

    def test_chain_spacing(self):
        # root chains stack with imaginary spacing about 2 pi / tau
        p = preset("figure1", kappa=0.1, tau=20.0)
        spec = roots_off(p, WINDOW)
        chain = np.sort(spec.roots.imag[(spec.roots.imag > 0.1) & (spec.roots.real < -0.1)])
        gaps = np.diff(chain)
        assert np.abs(gaps - 2 * math.pi / 20.0).max() < 0.05

    def test_max_real_part_sign_tracks_class(self):
        stable = preset("figure1", kappa=0.2, tau=50.0)
        unstable = preset("figure1", kappa=0.5, tau=50.0)
        assert roots_off(stable, WINDOW).max_real_part() < 0.0
        assert roots_off(unstable, WINDOW).max_real_part() > 0.0

    def test_window_validation(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        with pytest.raises(InvalidArgumentError):
            roots_off(p, (0.5, -1.0, -10.0, 10.0))
        with pytest.raises(InvalidArgumentError):
            roots_off(p, (-1.0, 0.5, -10.0, math.inf))


class TestReferenceSearch:
    """The closed-form and array paths against the scalar grid search."""

    def test_roots_off_matches_grid_search(self):
        # the grid reference runs with a real spacing of 2 instead of 0.1:
        # Newton from the chain-spaced columns still reaches every root of
        # these windows, and the 100 x 3 comparison takes 8 s instead of 85 s.
        # Negative delays make z = tau kappa e^{-tau c} < 0, six of them
        # around the double-zero point z = -1/e where W_0 and W_-1 meet.
        bt = bt_point(6.5, 5.8)
        negative = [preset("figure1", kappa=bt.kappa * (1.0 + d), tau=bt.tau)
                    for d in (-0.5, -0.05, -1e-4, 1e-4, 0.05, 0.5)]
        negative += [p.replace(tau=-p.tau) for p in DRAWS[:20]]
        cases = [(p, w) for p in DRAWS for w in DIFF_WINDOWS]
        cases += [(p, DIFF_WINDOWS[2]) for p in negative]
        for p, window in cases:
            a = roots_off(p, window)
            b = grid.roots_off(p, window, re_step=2.0)
            nearest = pairing(a.roots, b.roots, 1e-9)
            assert np.array_equal(a.multiple, b.multiple[nearest])

    def test_roots_off_matches_scipy_lambert_w(self):
        for p in DRAWS:
            for window in DIFF_WINDOWS:
                pairing(roots_off(p, window).roots, lambert_w_roots(p, window), 1e-9)

    def test_roots_generic_matches_scalar_newton(self):
        # every root of the grid search is found, and the argument principle
        # counts as many roots as are returned (a double root twice).  Draw 9's
        # q state has a root next to the pole a11 of g that no double reaches
        # within the residual bound: it raises, and is compared on the window
        # to the right of both poles.
        window = (-1.0, 0.5, -3.0, 3.0)
        checked, raised = 0, []
        for i, p in enumerate(DRAWS):
            ss = steady_states(p)
            for name in ("off", "p", "q"):
                state = getattr(ss, name)
                if state is None:
                    continue
                win = window
                try:
                    a = roots_generic(state, p, win)
                except NumericalError:
                    raised.append((i, name))
                    m1 = jacobians(state, p)[0]
                    win = (max(m1[0][0], m1[1][1]) + 0.01,) + window[1:]
                    a = roots_generic(state, p, win)
                b = grid.roots_generic(state, p, win, re_step=1.0)
                dist = np.abs(b.roots[:, None] - a.roots[None, :])
                if len(b):
                    assert dist.min(axis=1).max() <= 1e-9
                    assert np.array_equal(a.multiple[dist.argmin(axis=1)], b.multiple)
                assert np.all(a.residuals < 1e-9)
                assert len(a) + a.multiple.sum() == grid.winding_count(state, p, win)
                checked += 1
        assert raised == [(9, "q")]
        assert checked >= 250

    @pytest.mark.parametrize("tau", [20.0, 50.0])
    @pytest.mark.parametrize("name", ["off", "p", "q"])
    def test_figure1_counts_match_the_winding(self, tau, name):
        # the figure-1 preset's -gamma_G = -gamma_Q is a double root of the
        # off state, flagged as multiple and counted twice
        p = preset("figure1", kappa=0.2, tau=tau)
        state = getattr(steady_states(p), name)
        window = (-0.5, 0.5, -2.95, 2.95)
        spec = roots_generic(state, p, window)
        assert spec.multiple.sum() == (name == "off")
        assert len(spec) + spec.multiple.sum() == grid.winding_count(state, p, window)


def spectrum_or_error(search, p, name, window=WINDOW):
    """The search's spectrum at ``p``, or the error it raises."""
    try:
        if search is roots_off:
            return roots_off(p, window)
        return roots_generic(getattr(steady_states(p), name), p, window)
    except (InvalidArgumentError, NumericalError) as exc:
        return exc


SEARCH_CASES = [
    (0.2, tau, name, search) for tau, name, search in BENCH_POINTS
] + [
    (kappa, tau, name, roots_generic)
    for tau in (-5.0, 2.0, 10.0, 400.0, 800.0)
    for kappa in (0.01, 0.2, 0.9)
    for name in ("off", "q", "p")
]


class TestSearchStages:
    """Three stages of the branch search against their earlier forms."""

    @staticmethod
    def against_earlier(monkeypatch, stage, earlier, kappa, tau, name, search):
        """The search with ``stability.<stage>`` and with ``earlier`` in its
        place: the same error, or the same count and ``multiple`` flags
        and roots within 1e-14.  Returns both spectra (None on an error)."""
        p = preset("figure1", kappa=kappa, tau=tau)
        new = spectrum_or_error(search, p, name)
        monkeypatch.setattr(stability, stage, earlier)
        old = spectrum_or_error(search, p, name)
        if isinstance(old, Exception):
            assert type(new) is type(old) and str(new) == str(old)
            return None, None
        assert not isinstance(new, Exception)
        assert len(new) == len(old)
        assert np.array_equal(new.multiple, old.multiple)
        assert np.abs(new.roots - old.roots).max(initial=0.0) <= 1e-14
        return new, old

    @pytest.mark.parametrize("kappa, tau, name, search", SEARCH_CASES)
    def test_refinement_matches_thirty_fixed_steps(self, monkeypatch, kappa, tau, name, search):
        # a branch that stops once its step meets the rule ends within
        # roundoff of where 30 steps take it: the largest move on this grid
        # was 1.8e-15, and every count, flag and error is the same
        new, old = self.against_earlier(monkeypatch, "_refine_seeds", grid.refine_seeds_fixed,
                                        kappa, tau, name, search)
        if new is not None:
            assert new.diagnostics["refine_steps"] <= old.diagnostics["refine_steps"] == 30

    @pytest.mark.parametrize("kappa, tau, name, search", SEARCH_CASES)
    def test_leash_matches_unleashed_search(self, monkeypatch, kappa, tau, name, search):
        # a char start that strays two branch spacings from where it began
        # was crawling toward roots the branch starts hold: stopping it
        # keeps every count, flag, error and root
        new, old = self.against_earlier(monkeypatch, "_newton_search",
                                        grid.newton_search_unleashed, kappa, tau, name, search)
        if new is not None:
            assert new.diagnostics["newton_steps"] <= old.diagnostics["newton_steps"]

    @pytest.mark.parametrize("tau, name", [(50.0, "off"), (200.0, "off"), (50.0, "q")])
    def test_real_root_cuts_match_polyval(self, tau, name):
        p = preset("figure1", kappa=0.2, tau=tau)
        m1 = np.array(jacobians(getattr(steady_states(p), name), p)[0])
        p0 = np.poly(np.linalg.eigvals(m1)).real
        p1 = np.poly([m1[0, 0], m1[1, 1]])
        args = (p0, p1, p.kappa, p.tau, WINDOW[0], WINDOW[1])
        cuts = stability._real_roots(*args)
        assert len(cuts) > 0
        assert np.array_equal(cuts, grid.real_roots_polyval(*args))


class TestLongDelays:
    def test_narrow_window_keeps_every_branch_root(self):
        p = preset("figure1", kappa=0.2, tau=2e4)
        window = (-1.0, 0.5, -0.5, 0.5)
        spec = roots_off(p, window)
        # 3183 branch roots plus the double polynomial root -gamma_G = -gamma_Q
        assert len(spec) == 3184
        assert spec.multiple.sum() == 1 and spec.roots[spec.multiple][0] == -0.04
        assert np.all(spec.residuals < 1e-9)
        assert (spec.max_real_part() < 0.0) == (classify_off(p) == STABLE)
        # the grid search cannot even start on the default window here
        with pytest.raises(InvalidArgumentError, match="window too large"):
            grid.roots_off(p, WINDOW)

    def test_wide_window_reports_missed_roots(self):
        # e^{-tau c} overflows a float here; the roundoff of e^{-tau lambda}
        # puts many genuine roots above the residual bound
        p = preset("figure1", kappa=0.2, tau=3000.0)
        with pytest.raises(NumericalError, match=r"\d+ of \d+ off-state roots .* miss"):
            roots_off(p, WINDOW)

    def test_generic_route_keeps_every_branch_root(self):
        # the grid search returned 417 of these 956 roots and raised nothing
        p = preset("figure1", kappa=0.2, tau=3000.0)
        window = (-1.0, 0.5, -1.0, 1.0)
        spec = roots_generic(steady_states(p).off, p, window)
        assert len(spec) == 956
        assert np.all(spec.residuals < 1e-9)
        pairing(spec.roots, roots_off(p, window).roots, 1e-9)

    def test_lasing_roots_next_to_the_poles_raise(self):
        # two genuine roots sit next to a22 = -0.2210 and a11 = -0.1406, where
        # |char'| is 1e10 to 1e17: no double reaches the residual bound there
        p = preset("figure1", kappa=0.2, tau=200.0)
        q = steady_states(p).q
        with pytest.raises(NumericalError, match=r"2 of 639 lasing-state roots .* miss"):
            roots_generic(q, p, WINDOW)
        window = (-0.13, 0.5, -10.0, 10.0)
        spec = roots_generic(q, p, window)
        assert len(spec) == 637
        pairing(spec.roots, grid.roots_generic(q, p, window, re_step=0.7).roots, 1e-9)

    @pytest.mark.parametrize("draw, name, tau, count",
                             [(102, "q", 20.15, 21), (57, "q", 73.87, 73)])
    def test_seed_stuck_at_a_pole_is_not_a_missed_root(self, draw, name, tau, count):
        # the refined seed of branch 0 stalls on the real axis next to a
        # pole of g, while other starts find that branch's complex pair; it
        # used to fail the residual check ("1 of 22", "1 of 74")
        p = STUCK_DRAWS[draw].replace(tau=tau)
        state = getattr(steady_states(p), name)
        window = (-1.0, 0.5, -3.0, 3.0)
        spec = roots_generic(state, p, window)
        assert len(spec) == count == grid.winding_count(state, p, window)
        assert np.all(spec.residuals < 1e-9)

    def test_stuck_seed_dropped_but_near_pole_root_still_raises(self):
        # draw 109's p state raised "2 of 516": a stuck branch-0 seed and a
        # genuine root 4e-12 from the pole a11 = -0.0458, where |char'| is
        # 9e8.  Only the genuine root is left to miss the bound.
        p = STUCK_DRAWS[109].replace(tau=536.81)
        state = steady_states(p).p
        with pytest.raises(NumericalError, match=r"1 of 515 lasing-state roots .* miss"):
            roots_generic(state, p, (-1.0, 0.5, -3.0, 3.0))
        window = (-0.04, 0.5, -3.0, 3.0)
        spec = roots_generic(state, p, window)
        assert len(spec) == 514 == grid.winding_count(state, p, window)

    def test_branch_count_is_checked_before_allocating(self):
        # 1.6e8 branches: refused before any array of that length exists
        p = preset("figure1", kappa=0.2, tau=50.0)
        window = (-1.0, 0.5, -1e7, 1e7)
        for call in (lambda: roots_off(p, window),
                     lambda: roots_generic(steady_states(p).q, p, window)):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidArgumentError, match="branches"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    def test_root_finders_do_not_import_scipy_special(self):
        # importing scipy.special costs 0.3-0.5 s of every spectrum cold start
        code = textwrap.dedent("""
            import sys
            from yamada_delay import preset, roots_generic, roots_off, steady_states
            p = preset("figure1", kappa=0.2, tau=50.0)
            roots_off(p, (-1.0, 0.5, -10.0, 10.0))
            roots_generic(steady_states(p).q, p, (-1.0, 0.5, -1.0, 1.0))
            print("scipy.special" in sys.modules)
        """)
        src = os.path.dirname(os.path.dirname(yamada_delay.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"


class TestRootsGeneric:
    def test_off_state_dual_route(self):
        # determinant route must reproduce the factorized route root-for-root
        p = preset("figure1", kappa=0.1, tau=20.0)
        a = roots_off(p, WINDOW)
        b = roots_generic(State(p.A, p.B, 0.0), p, WINDOW)
        assert len(a) == len(b)
        assert np.abs(np.sort_complex(a.roots) - np.sort_complex(b.roots)).max() < 1e-9

    def test_lasing_state_spectrum(self):
        p = preset("figure1", kappa=0.05, tau=20.0)
        ss = steady_states(p)
        spec = roots_generic(ss.q, p, WINDOW)
        assert len(spec) > 0
        assert np.all(spec.residuals < 1e-9)

    def test_rejects_non_equilibrium(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        with pytest.raises(InvalidArgumentError):
            roots_generic(State(3.0, 2.0, 1.0), p, WINDOW)

    def test_diagnostics(self):
        p = preset("figure1", kappa=0.05, tau=20.0)
        for spec in (roots_off(p, WINDOW), roots_generic(steady_states(p).q, p, WINDOW)):
            d = spec.diagnostics
            assert d["roots"] == len(spec) > 0
            assert len(spec) <= d["converged"] <= d["starts"]
            assert d["residual_max"] == spec.residuals.max()
            assert 1 <= d["refine_steps"] <= 30 and 1 <= d["newton_steps"] <= 60
            # the default output carries none of it
            assert set(spec.to_json_obj()) == {"roots", "residuals", "multiple", "window"}
        # every branch of the benchmark points meets the step rule within 5
        # log-form steps (3, 3, 3 and 5), and no char start crawls to the
        # 60-step cap (27, 39, 27 and 22 steps; 41, 60, 41, 60 unleashed)
        for tau, name, search in BENCH_POINTS:
            spec = spectrum_or_error(search, preset("figure1", kappa=0.2, tau=tau), name)
            assert spec.diagnostics["refine_steps"] <= 5
            assert spec.diagnostics["newton_steps"] <= 40


class TestHopfCurve:
    def test_points_are_roots(self):
        p = preset("figure1")
        pts = hopf_curve_off(p, np.linspace(0.05, 3.0, 50))
        assert len(pts) > 50
        for pt in pts:
            assert pt.residual < 1e-10
            q = p.replace(kappa=pt.kappa, tau=pt.tau)
            assert abs(char_off(1j * pt.omega, q)) < 1e-10

    def test_kappa_bounds(self):
        p = preset("figure1")
        c = abs(p.A - p.B - 1.0)
        pts = hopf_curve_off(p, np.linspace(0.05, 3.0, 50))
        for pt in pts:
            assert c < pt.kappa <= 1.0
            assert pt.kappa == pytest.approx(math.hypot(pt.omega, c))

    def test_branch_spacing(self):
        # branches at one frequency differ by a full winding of the delay
        p = preset("figure1")
        pts = hopf_curve_off(p, [0.3], branches=(0, 1, 2))
        taus = {pt.branch_index: pt.tau for pt in pts}
        assert taus[1] - taus[0] == pytest.approx(2 * math.pi / 0.3)
        assert taus[2] - taus[1] == pytest.approx(2 * math.pi / 0.3)

    def test_confirmed_by_root_finder(self):
        # drop a Hopf point back into the generic finder: a root sits on
        # the imaginary axis at the advertised frequency
        p = preset("figure1")
        (pt,) = hopf_curve_off(p, [0.3], branches=(1,))
        q = p.replace(kappa=pt.kappa, tau=pt.tau)
        spec = roots_off(q, (-0.3, 0.3, 0.05, 0.6))
        d = np.abs(spec.roots - 1j * pt.omega)
        assert d.min() < 1e-9

    def test_high_frequencies_filtered(self):
        p = preset("figure1")
        pts = hopf_curve_off(p, [5.0])
        assert pts == []

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, omega):
        # NaN once reached ModelParams as kappa = nan; inf was skipped as
        # a high frequency
        with pytest.raises(InvalidArgumentError, match="frequencies must be finite"):
            hopf_curve_off(preset("figure1"), [0.3, omega])


class TestDoubleZeroPoint:
    def test_working_point_location(self):
        bt = bt_point(6.5, 5.8)
        assert bt.tau == pytest.approx(-10.0 / 3.0, abs=1e-12)
        assert bt.kappa == pytest.approx(0.3, abs=1e-15)
        assert bt.physical

    def test_double_root_conditions(self):
        bt = bt_point(6.5, 5.8)
        p = preset("figure1", kappa=bt.kappa, tau=bt.tau)
        assert abs(char_off_factor(0.0, p)) < 1e-12
        assert abs(char_off_factor_deriv(0.0, p)) < 1e-12

    def test_root_finder_flags_multiplicity(self):
        bt = bt_point(6.5, 5.8)
        p = preset("figure1", kappa=bt.kappa, tau=bt.tau)
        spec = roots_off(p, (-0.2, 0.2, -0.2, 0.2))
        near0 = np.abs(spec.roots) < 1e-6
        assert near0.any()
        assert spec.multiple[near0].all()

    def test_nonphysical_branch(self):
        assert not bt_point(8.0, 5.8).physical

    def test_singular_pump(self):
        with pytest.raises(SingularParameterError):
            bt_point(6.8, 5.8)


class TestClassifyOff:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            (dict(kappa=0.0, tau=0.0), STABLE),
            (dict(kappa=0.0, tau=100.0), STABLE),
            (dict(kappa=0.2, tau=0.0), STABLE),
            (dict(kappa=0.3, tau=0.0), SADDLE_FINITE_UNSTABLE),  # marginal
            (dict(kappa=0.4, tau=0.0), SADDLE_FINITE_UNSTABLE),
            (dict(kappa=0.2, tau=100.0), STABLE),
            (dict(kappa=0.3, tau=100.0), SADDLE_FINITE_UNSTABLE),  # marginal
            (dict(kappa=0.5, tau=100.0), SADDLE_FINITE_UNSTABLE),
            (dict(kappa=0.1, tau=-5.0), INFINITELY_MANY_UNSTABLE),
        ],
    )
    def test_working_point_table(self, kwargs, expected):
        assert classify_off(preset("figure1", **kwargs)) == expected

    def test_pumped_above_threshold(self):
        # A > B + 1: the off state is unstable however weak the feedback
        p = preset("figure1", A=8.0, kappa=0.05, tau=30.0)
        assert classify_off(p) == SADDLE_FINITE_UNSTABLE

    def test_agrees_with_root_finder(self):
        rng = np.random.default_rng(405)
        checked = 0
        for _ in range(400):
            p = random_params(rng)
            if p.tau < 1.0 or abs(p.kappa - abs(p.A - p.B - 1.0)) < 0.05:
                continue
            label = classify_off(p)
            # real part up to c + kappa <= 7.4 for the draw box
            m = roots_off(p, (-0.5, 8.0, -8.0, 8.0)).max_real_part()
            if label == STABLE:
                assert m < 0.0
            else:
                assert m > 0.0
            checked += 1
        assert checked > 150
