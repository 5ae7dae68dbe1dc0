"""Integrator: scalar-DDE oracle, ODE reduction, convergence, invariants."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from yamada_delay import (
    HistorySpec,
    State,
    InvalidArgumentError,
    ModelParams,
    NumericalError,
    StepControl,
    StiffnessError,
    integrate,
    monodromy_multipliers,
    preset,
    rhs,
)
from yamada_delay.integrator import _intensity_lookup, solve_dde
from yamada_delay.pulses import (
    classify_response, measure_train, scan_kappa_min, single_pulse_seed,
)

import integrator_reference as reference
import pulses_reference
from conftest import random_params


def piecewise_exact(t: float) -> float:
    """Solution of x' = -x(t-1), x = 1 on [-1, 0], by repeated integration."""
    if t <= 0.0:
        return 1.0
    if t <= 1.0:
        return 1.0 - t
    if t <= 2.0:
        return 0.5 * t * t - 2.0 * t + 1.5
    if t <= 3.0:
        return -t ** 3 / 6.0 + 1.5 * t * t - 4.0 * t + 17.0 / 6.0
    raise ValueError("extend the table first")


#: Rate constants (gamma_G, A, gamma_Q, B, a, kappa) that, from the
#: initial state (G, Q, I) = (1, 0, 1) and the intensity history I = 1,
#: leave G = 1 and Q = 0 fixed and give exactly I' = -I(t - tau).
SCALAR_RATES = (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)
SCALAR_Y0 = (1.0, 0.0, 1.0)


def scalar_history(s: float) -> float:
    return 1.0


def nan_history(s: float) -> float:
    """``scalar_history`` turned NaN on [-0.5, 0) (the state at 0 stays finite)."""
    return math.nan if -0.5 <= s < 0.0 else 1.0


class TestScalarDelayOracle:
    """x' = -x(t-1): polynomial pieces an order-5 pair must nail exactly."""

    def setup_method(self):
        ctl = StepControl(atol=1e-12, rtol=1e-10)
        self.t, self.y, self.yp, _ = solve_dde(
            SCALAR_RATES,
            SCALAR_Y0,
            scalar_history,
            tau=1.0,
            t_end=3.0,
            control=ctl,
        )

    def test_node_values_exact(self):
        x = np.asarray(self.y)[:, 2]
        for tn, xn in zip(self.t, x):
            assert xn == pytest.approx(piecewise_exact(float(tn)), abs=1e-13)

    def test_known_landmarks(self):
        x = np.asarray(self.y)[:, 2]
        t = np.asarray(self.t)
        for target, value in [(1.0, 0.0), (2.0, -0.5), (3.0, -1.0 / 6.0)]:
            i = int(np.argmin(np.abs(t - target)))
            # the breakpoint itself must be a node
            assert abs(t[i] - target) < 1e-12
            assert x[i] == pytest.approx(value, abs=1e-13)


def _scalar_oracle_args(history=scalar_history, tau=1.0):
    """(rates, y0, history, tau, t_end, control) of the scalar oracle."""
    return SCALAR_RATES, SCALAR_Y0, history, tau, 3.0, StepControl(atol=1e-12, rtol=1e-10)


def _reference_args(rates, y0, history, *rest):
    """The same run for the reference march, which takes the field ``f``
    and a state history."""
    return (reference.yamada_field(rates), reference.state_history(y0, history), *rest)


def _model_case(name):
    """(params, history, t_end, control) of one differential-test run."""
    if name == "tau-zero":
        p = preset("figure1", kappa=0.2)
        return p, HistorySpec.constant(State(6.0, 5.0, 0.3)), 40.0, StepControl(atol=1e-12, rtol=1e-10)
    p = preset("figure1", kappa=0.1, tau=7.3)
    if name == "off-plus-pulse":
        return p, HistorySpec.off_plus_pulse(1.0, 1.0), 60.0, StepControl()
    if name == "from-tail":
        source = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 80.0)
        return p.replace(tau=11.9), HistorySpec.from_tail(source), 50.0, StepControl()
    if name == "from-tail-shifted":
        source = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 80.0)
        return p.replace(tau=5.0), HistorySpec.from_tail(source, 37.2), 50.0, StepControl()
    rng = np.random.default_rng(int(name.split("-")[1]))
    q = random_params(rng)
    y0 = (rng.uniform(0.0, q.A), rng.uniform(0.0, q.B), rng.uniform(0.0, 2.0))
    return q, HistorySpec.constant(State(*y0)), 50.0, StepControl()


_MODEL_CASES = [
    "tau-zero", "off-plus-pulse", "from-tail", "from-tail-shifted",
    *(f"random-{seed}" for seed in range(5)),
]


class TestReferenceMarch:
    """The unrolled three-component march equals the generic reference bit for bit.

    The reference still applies an absolute cap of 1.0 when
    ``max_step`` is None, so the capped runs set that cap explicitly on
    both sides, and the default (uncapped) runs meet a reference whose
    ``max_step`` is too large to bind: both reduce to
    ``min(tau / 4, t_end)``.
    """

    @staticmethod
    def assert_same_nodes(new, ref):
        assert len(new) == len(ref) == 3
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)

    def test_scalar_oracle(self):
        args = _scalar_oracle_args()
        self.assert_same_nodes(solve_dde(*args)[:3],
                               reference.solve_dde(*_reference_args(*args)))

    @pytest.mark.parametrize("name", _MODEL_CASES)
    def test_model_runs(self, name):
        params, history, t_end, control = _model_case(name)
        capped = replace(control, max_step=1.0)
        traj = integrate(params, history, t_end, capped)
        self.assert_same_nodes((traj.t, traj.y, traj.yp),
                               reference.integrate(params, history, t_end, capped))

    @pytest.mark.parametrize("name", _MODEL_CASES)
    def test_model_runs_uncapped(self, name):
        params, history, t_end, control = _model_case(name)
        traj = integrate(params, history, t_end, control)
        self.assert_same_nodes((traj.t, traj.y, traj.yp),
                               reference.integrate(params, history, t_end,
                                                   replace(control, max_step=1e9)))

    @pytest.mark.parametrize("name", ["onset-oracle", "reappearance-k2"])
    def test_bench_shaped_runs(self, name):
        # the long runs of the onset scan and of a k = 2 train
        if name == "onset-oracle":
            params = preset("figure1", kappa=0.0065, tau=400.0)
            history, t_end = single_pulse_seed(params), 20.0 * 400.0
        else:
            p0 = preset("figure1", kappa=0.1, tau=198.6)
            source = integrate(p0, single_pulse_seed(p0), 600.0)
            params = p0.replace(tau=400.0)
            history, t_end = HistorySpec.from_tail(source, 400.0), 1200.0
        traj = integrate(params, history, t_end)
        self.assert_same_nodes((traj.t, traj.y, traj.yp),
                               reference.integrate(params, history, t_end,
                                                   StepControl(max_step=1e9)))

    def test_delay_cap_binds(self):
        # At tau = 0.4 the quiescent steps sit at the cap tau / 4, and a
        # step's lookups walk across the shorter steps of a delayed pulse.
        params = preset("figure1", kappa=0.1, tau=0.4)
        history = HistorySpec.off_plus_pulse(1.0, 0.2)
        traj = integrate(params, history, 80.0)
        t, h = traj.t[:-1], np.diff(traj.t)
        assert np.count_nonzero(np.isclose(h, params.tau / 4.0, rtol=1e-12, atol=0.0)) > len(h) // 2
        late = t + 0.2 * h > params.tau
        first, last = (np.searchsorted(traj.t, s - params.tau, side="right")
                       for s in (t[late] + 0.2 * h[late], t[late] + h[late]))
        assert (last - first).max() >= 3
        self.assert_same_nodes((traj.t, traj.y, traj.yp),
                               reference.integrate(params, history, 80.0,
                                                   StepControl(max_step=1e9)))

    def test_nan_derivative_message(self):
        args = _scalar_oracle_args(nan_history, tau=2.0)
        with pytest.raises(NumericalError) as new:
            solve_dde(*args)
        with pytest.raises(NumericalError) as ref:
            reference.solve_dde(*_reference_args(*args))
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("y0", [(1.0,), (0.0, 0.0, 1.0, 2.0)])
    def test_three_components_required(self, y0):
        with pytest.raises(InvalidArgumentError, match="three-component"):
            solve_dde(SCALAR_RATES, y0, scalar_history, 1.0, 3.0, StepControl())


def _phase_case(name):
    """(params, history, t_end) of one run checked for the march's two phases."""
    if name in _MODEL_CASES:
        return _model_case(name)[:3]
    p = preset("figure1", kappa=0.1)
    if name == "tau-0.1+0.2":
        return p.replace(tau=0.1 + 0.2), HistorySpec.off_plus_pulse(1.0, 0.1), 20.0
    if name == "tau-1/3":
        return p.replace(tau=1.0 / 3.0), HistorySpec.off_plus_pulse(1.0, 0.1), 20.0
    # a history kick so short that its delayed image lies within 1e-12 tau of tau
    tau, width = {"kick-1e-13": (7.3, 1e-13), "kick-1e-10": (200.0, 1e-10)}[name]
    return p.replace(tau=tau), HistorySpec.off_plus_pulse(1.0, width), 2.5 * tau


class TestMarchPhases:
    """No step reads both the history and the stored nodes.

    ``tau`` is the first breakpoint, so the steps up to it read only the
    prescribed history and the later ones only the stored nodes.
    """

    @pytest.mark.parametrize("name", [
        *(name for name in _MODEL_CASES if name != "tau-zero"),
        "tau-0.1+0.2", "tau-1/3", "kick-1e-13", "kick-1e-10",
    ])
    def test_no_step_mixes_its_lookups(self, name, monkeypatch):
        params, history, t_end = _phase_case(name)
        tau = params.tau
        read = []
        realize = HistorySpec.realize

        def recording_realize(spec, p):
            y0, intensity, jumps = realize(spec, p)

            def recorded(s):
                read.append(s)
                return intensity(s)

            return y0, recorded, jumps

        monkeypatch.setattr(HistorySpec, "realize", recording_realize)
        traj = integrate(params, history, t_end)
        _, _, jumps = realize(history, params)

        t, t_next = traj.t[:-1], traj.t[1:]
        h = t_next - t
        assert not np.any((t + 0.2 * h - tau <= 0.0) & (t_next - tau > 0.0))
        if tau < t_end and all(abs(d) > 1e-12 * tau for d in jumps):
            assert tau in traj.t
        assert read and max(read) <= 0.0


class TestInlinedField:
    """The march's inlined rate equations are the model's :func:`rhs`."""

    @pytest.mark.parametrize("name", ["tau-zero", "off-plus-pulse", "from-tail", "random-0"])
    def test_node_derivatives_are_model_rhs(self, name):
        params, history, t_end, control = _model_case(name)
        traj = integrate(params, history, t_end, control)
        _, intensity, _ = history.realize(params)
        s = traj.t - params.tau
        past = s <= 0.0
        lagged = np.empty_like(s)
        lagged[past] = [intensity(x) for x in s[past]]
        lagged[~past] = traj.evaluate_many(s[~past])[:, 2]
        for y, z, yp in zip(traj.y, lagged, traj.yp):
            assert np.array_equal(rhs(y, z, params), yp)


class TestHistoryContract:
    """A realized history is the initial state plus the delayed intensity line."""

    @pytest.fixture(scope="class")
    def source(self):
        p = preset("figure1", kappa=0.1, tau=7.3)
        return integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 80.0)

    def test_intensity_lookup_is_trajectory_evaluate(self, source):
        rng = np.random.default_rng(16)
        span = source.t1 - source.t0
        xs = np.concatenate([
            rng.uniform(source.t0, source.t1, 500),
            source.t,
            # the clamped ends, inside evaluate_many's slack
            [source.t0 - 1e-10 * span, source.t1 + 1e-10 * span],
        ])
        ts, col_i, col_fi = source.t.tolist(), source.y[:, 2].tolist(), source.yp[:, 2].tolist()
        got = np.array([_intensity_lookup(ts, col_i, col_fi, float(x)) for x in xs])
        assert np.array_equal(got, source.evaluate_many(xs)[:, 2])

    def test_constant(self):
        p = preset("figure1", kappa=0.1, tau=7.3)
        y0, intensity, jumps = HistorySpec.constant(State(6.0, 5.0, 0.3)).realize(p)
        assert y0 == (6.0, 5.0, 0.3) and jumps == ()
        assert [intensity(s) for s in (-7.3, -1.0, 0.0)] == [0.3, 0.3, 0.3]

    @pytest.mark.parametrize("width, jumps", [(2.0, (-2.0,)), (9.0, ())])
    def test_off_plus_pulse(self, width, jumps):
        p = preset("figure1", kappa=0.1, tau=7.3)
        y0, intensity, got = HistorySpec.off_plus_pulse(0.7, width).realize(p)
        assert y0 == (p.A, p.B, 0.7) and got == jumps
        assert intensity(-2.5) == (0.7 if width > 2.5 else 0.0)
        assert intensity(-2.0) == intensity(0.0) == 0.7

    @pytest.mark.parametrize("shift", [None, 37.2])
    def test_from_tail(self, source, shift):
        p = source.params.replace(tau=5.0)
        spec = HistorySpec.from_tail(source, shift)
        end = source.t1 if shift is None else shift
        y0, intensity, jumps = spec.realize(p)
        assert jumps == ()
        assert y0 == tuple(source.evaluate(end))
        if shift is None:
            assert y0 == tuple(source.y[-1])
        rng = np.random.default_rng(3)
        s = np.concatenate([rng.uniform(-5.0, 0.0, 200), [-5.0, 0.0]])
        got = np.array([intensity(float(x)) for x in s])
        assert np.array_equal(got, source.evaluate_many(s + end)[:, 2])


class TestSolverStats:
    """The counts a run reports about itself."""

    def test_counts_of_a_run_inside_the_first_delay(self):
        # t_end < tau: every delayed lookup reads the history, once for
        # f(0) and five times per attempted step (stages 6 and 7 share
        # one), which counts the attempts
        p = preset("figure1", kappa=0.1, tau=100.0)
        y0, intensity, _ = HistorySpec.off_plus_pulse(1.0, 1.0).realize(p)
        calls = []

        def history(s):
            calls.append(s)
            return intensity(s)

        rates = (p.gamma_G, p.A, p.gamma_Q, p.B, p.a, p.kappa)
        loose = StepControl(atol=1e-6, rtol=1e-4)  # rejects a few steps at the pulse
        t, _, _, stats = solve_dde(rates, y0, history, p.tau, 90.0, loose)
        attempts = (len(calls) - 1) / 5
        assert stats.accepted == len(t) - 1
        assert stats.rejected == attempts - stats.accepted > 0
        assert stats.rhs_evals == 1 + 6 * attempts
        assert stats.h_min == np.diff(t).min() and stats.h_max == np.diff(t).max()
        assert stats.breakpoints == 0
        assert stats.wall_s > 0.0

    def test_breakpoints_and_trajectory_record(self):
        # images n * tau and n * tau - width of the handover and the kick
        # edge for n = 1, 2, 3, all before t_end
        p = preset("figure1", kappa=0.1, tau=7.3)
        traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 40.0)
        stats = traj.stats
        assert stats.breakpoints == 6
        assert stats.accepted == len(traj.t) - 1
        assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)
        assert stats.h_min == np.diff(traj.t).min() and stats.h_max == np.diff(traj.t).max()


class TestOdeReduction:
    def test_matches_scipy_without_feedback(self):
        # kappa = 0 is a plain ODE; cross-check against an independent solver
        p = preset("figure1")
        y0 = (5.0, 4.0, 0.5)
        traj = integrate(p, HistorySpec.constant(State(*y0)), 60.0,
                         StepControl(atol=1e-12, rtol=1e-10))
        ref = solve_ivp(
            lambda t, y: rhs(y, y[2], p),
            (0.0, 60.0),
            y0,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        for t in np.linspace(0.5, 60.0, 24):
            err = np.abs(traj.evaluate(t) - ref.sol(t)).max()
            assert err < 1e-7

    def test_tau_zero_instantaneous_feedback(self):
        # tau = 0 feeds the current intensity back: still an ODE
        p = preset("figure1", kappa=0.2)
        y0 = (6.0, 5.0, 0.3)
        traj = integrate(p, HistorySpec.constant(State(*y0)), 40.0,
                         StepControl(atol=1e-12, rtol=1e-10))
        ref = solve_ivp(
            lambda t, y: rhs(y, y[2], p),
            (0.0, 40.0),
            y0,
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        err = np.abs(traj.final_state().as_array() - ref.sol(40.0)).max()
        assert err < 1e-7


class TestAccuracy:
    def test_self_convergence_with_tolerance(self):
        # default-tolerance run vs a much tighter reference
        p = preset("figure1", kappa=0.1, tau=20.0)
        hist = HistorySpec.off_plus_pulse(amplitude=1.0, width=1.0)
        coarse = integrate(p, hist, 150.0)
        fine = integrate(p, hist, 150.0, StepControl(atol=1e-13, rtol=1e-11))
        ts = np.linspace(1.0, 150.0, 120)
        err = np.abs(coarse.evaluate_many(ts) - fine.evaluate_many(ts)).max()
        # pulse fronts dominate the global error at default tolerances
        assert err < 2e-4

    def test_fifth_order_at_fixed_step(self):
        # loose tolerances accept every step, so max_step sets the step;
        # a mistyped tableau entry drops the order well below 4.5
        p = preset("figure1")
        y0 = (5.0, 4.0, 0.5)
        ref = solve_ivp(lambda t, y: rhs(y, y[2], p), (0.0, 20.0), y0,
                        method="DOP853", rtol=1e-12, atol=1e-14)
        errs = []
        for max_step in (0.4, 0.2):
            traj = integrate(p, HistorySpec.constant(State(*y0)), 20.0,
                             StepControl(atol=1.0, rtol=1.0, max_step=max_step))
            errs.append(np.abs(traj.y[-1] - ref.y[:, -1]).max())
        assert errs[0] / errs[1] >= 2.0 ** 4.5

    def test_tolerance_ladder_monotone(self):
        p = preset("figure1", kappa=0.1, tau=15.0)
        hist = HistorySpec.off_plus_pulse(amplitude=1.0, width=1.0)
        ref = integrate(p, hist, 80.0, StepControl(atol=1e-13, rtol=1e-11))
        ts = np.linspace(1.0, 80.0, 60)
        ref_vals = ref.evaluate_many(ts)
        errs = []
        for rtol in (1e-5, 1e-7, 1e-9):
            t = integrate(p, hist, 80.0, StepControl(atol=rtol * 1e-2, rtol=rtol))
            errs.append(np.abs(t.evaluate_many(ts) - ref_vals).max())
        assert errs[0] > errs[2]
        assert errs[2] < 1e-5

    def test_delay_breakpoints_are_nodes(self):
        p = preset("figure1", kappa=0.1, tau=7.3)
        traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 40.0)
        nodes = np.asarray(traj.t)
        for m in (1, 2, 3):
            assert np.abs(nodes - m * 7.3).min() < 1e-12


class TestUncappedSteps:
    """Below tau / 4 the error estimate alone sets the step.

    A pulse that comes back one delay later after a long quiescent
    stretch must still fire: the default run and a run capped at 1.0
    find the same pulses.
    """

    @pytest.mark.parametrize("kappa, tau", [(0.1, 3000.0), (0.007, 400.0)])
    def test_delayed_pulses_are_reinjected(self, kappa, tau):
        p = preset("figure1", kappa=kappa, tau=tau)
        hist = HistorySpec.off_plus_pulse(amplitude=1.0, width=0.5)
        free = integrate(p, hist, 3.5 * tau)
        capped = integrate(p, hist, 3.5 * tau, StepControl(max_step=1.0))
        assert np.diff(free.t).max() > 1.0
        got = measure_train(free, tau).pulse_times
        want = measure_train(capped, tau).pulse_times
        # the kicked pulse and one re-injection per delay interval
        assert len(got) == len(want) == 4
        assert np.abs(got - want).max() < 1e-2


class TestUncappedMatchesCapped:
    """The session results of the default step control equal those of a 1.0 cap."""

    CAPPED = StepControl(max_step=1.0)

    def test_excitation_classes(self, fig1_runs):
        for kappa, stats in fig1_runs.items():
            p = preset("figure1", kappa=kappa, tau=100.0)
            capped = classify_response(p, single_pulse_seed(p), 2000.0, self.CAPPED)
            assert stats.classification == capped.classification
            assert stats.k == capped.k

    @pytest.mark.parametrize("tau", [200.0, 400.0])
    def test_kappa_onset(self, kappa_onsets, tau):
        # The session scan returns the midpoint of one of bisection's
        # final cells of (0.004, 0.02) at tol 2.5e-4, so replaying the
        # bisection against that midpoint recovers the cell.  Handed that
        # bracket, the scan checks both ends with the capped oracle (the
        # lower must decay, the upper sustain) and returns the same
        # midpoint: the capped onset lies in the same bracket.
        kappa = kappa_onsets[tau]
        lo, hi = pulses_reference.bisect_kappa_min(lambda k: k > kappa, (0.004, 0.02), 2.5e-4)
        p = preset("figure1", tau=tau)
        assert scan_kappa_min(p, tau, (lo, hi), 2.5e-4, self.CAPPED) == kappa

    @pytest.fixture(scope="class")
    def simulated_orbits(self):
        """Orbits of the simulated settling path, with default and capped steps.

        The library's orbits come from the collocation solve, where the
        step control reaches only the guess run; the integrator's own
        results are the settled runs of ``pulses_reference``.
        """
        out = {}
        for k, tau in ((1, 200.0), (2, 400.0)):
            p = preset("figure1", kappa=0.1, tau=tau)
            for name, control in (("free", None), ("capped", self.CAPPED)):
                traj = pulses_reference.settle_train(p, k=k, control=control)
                out[(k, tau, name)] = pulses_reference.extract_orbit(traj)
        return out

    def test_periods(self, simulated_orbits):
        for k, tau in ((1, 200.0), (2, 400.0)):
            free = simulated_orbits[(k, tau, "free")]
            capped = simulated_orbits[(k, tau, "capped")]
            assert abs(free.period - capped.period) < 1e-6

    def test_multipliers(self, simulated_orbits):
        # nearest-neighbour match both ways, so that two multipliers of
        # nearly equal modulus may trade places in the sorted lists
        free = monodromy_multipliers(simulated_orbits[(1, 200.0, "free")]).multipliers
        capped = monodromy_multipliers(simulated_orbits[(1, 200.0, "capped")]).multipliers
        for a, b in ((free, capped), (capped, free)):
            assert max(np.abs(b - mu).min() for mu in a[:20]) < 1e-5


class TestTrajectory:
    def setup_method(self):
        p = preset("figure1", kappa=0.05, tau=10.0)
        self.traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 50.0)

    def test_evaluate_at_nodes_reproduces_nodes(self):
        t = np.asarray(self.traj.t)
        y = np.asarray(self.traj.y)
        for i in range(0, len(t), 7):
            assert np.abs(self.traj.evaluate(float(t[i])) - y[i]).max() < 1e-14

    def test_evaluate_many_matches_evaluate(self):
        ts = np.linspace(0.0, 50.0, 101)
        block = self.traj.evaluate_many(ts)
        for i, t in enumerate(ts):
            assert np.abs(block[i] - self.traj.evaluate(float(t))).max() == 0.0

    def test_final_state(self):
        assert np.all(self.traj.final_state().as_array() == self.traj.evaluate(self.traj.t1))

    def test_sample_spacing(self):
        ts, ys = self.traj.sample(0.25)
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(50.0)
        assert np.allclose(np.diff(ts), 0.25, atol=1e-9)
        assert ys.shape == (len(ts), 3)


class TestValidation:
    def test_negative_tau_rejected(self):
        p = preset("figure1", kappa=0.1, tau=-5.0)
        with pytest.raises(InvalidArgumentError):
            integrate(p, HistorySpec.constant(State(6.5, 5.8, 0.0)), 10.0)

    def test_nonpositive_horizon_rejected(self):
        p = preset("figure1")
        with pytest.raises(InvalidArgumentError):
            integrate(p, HistorySpec.constant(State(6.5, 5.8, 0.0)), 0.0)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, t_end):
        p = preset("figure1")
        with pytest.raises(InvalidArgumentError, match=f"t_end .*got {t_end!r}"):
            integrate(p, HistorySpec.constant(State(6.5, 5.8, 0.0)), t_end)

    def test_nan_tail_shift_rejected(self):
        p = preset("figure1", kappa=0.1, tau=10.0)
        traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 30.0)
        with pytest.raises(InvalidArgumentError, match="shift = nan"):
            integrate(p, HistorySpec.from_tail(traj, shift=math.nan), 10.0)

    def test_short_tail_window_rejected(self):
        p = preset("figure1", kappa=0.1, tau=5.0)
        traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 30.0)
        with pytest.raises(InvalidArgumentError):
            HistorySpec.from_tail(traj).realize(p.replace(tau=100.0))

    @pytest.mark.parametrize("kwargs", [
        {"atol": math.nan}, {"atol": math.inf}, {"rtol": math.nan}, {"rtol": math.inf},
        {"max_step": math.nan}, {"max_step": 0.0}, {"max_steps": 0},
    ])
    def test_step_control_rejects(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            StepControl(**kwargs)

    def test_infinite_max_step_is_no_cap(self):
        p = preset("figure1", kappa=0.1, tau=7.3)
        hist = HistorySpec.off_plus_pulse(1.0, 1.0)
        free = integrate(p, hist, 60.0)
        unbounded = integrate(p, hist, 60.0, StepControl(max_step=math.inf))
        assert np.array_equal(free.t, unbounded.t) and np.array_equal(free.y, unbounded.y)

    def test_step_budget_raises_stiffness(self):
        p = preset("figure1", kappa=0.1, tau=10.0)
        with pytest.raises(StiffnessError):
            integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 200.0,
                      StepControl(max_steps=20))

    def test_nan_derivative_is_not_step_underflow(self):
        # a NaN error estimate fails every step test; shrinking the step
        # cannot help, so the march must name the NaN, not a stiffness.
        # The history's NaN stretch [-0.5, 0) is read from t = 1.5 on.
        with pytest.raises(NumericalError, match="non-finite derivative at t = 1.") as info:
            solve_dde(SCALAR_RATES, SCALAR_Y0, nan_history, tau=2.0, t_end=3.0,
                      control=StepControl())
        assert not isinstance(info.value, StiffnessError)


class TestStateInvariants:
    def test_quasi_positivity_and_boundedness(self):
        # acceptance: 100 random parameter draws, nonnegative initial data
        rng = np.random.default_rng(915)
        for _ in range(100):
            p = random_params(rng)
            y0 = (rng.uniform(0.0, p.A), rng.uniform(0.0, p.B), rng.uniform(0.0, 2.0))
            traj = integrate(p, HistorySpec.constant(State(*y0)), 50.0)
            ts, ys = traj.sample(0.2)
            assert np.all(np.isfinite(ys))
            # intensity stays nonnegative; G and Q respect their caps
            assert ys[:, 2].min() > -1e-9
            assert ys[:, 0].max() <= max(y0[0], p.A) + 1e-6
            assert ys[:, 1].max() <= max(y0[1], p.B) + 1e-6

    def test_off_state_invariant_plane(self):
        # I = 0 is invariant: the laser stays off without a kick
        rng = np.random.default_rng(916)
        for _ in range(20):
            p = random_params(rng)
            y0 = (rng.uniform(0.0, p.A), rng.uniform(0.0, p.B), 0.0)
            traj = integrate(p, HistorySpec.constant(State(*y0)), 40.0)
            ts, ys = traj.sample(0.5)
            assert np.abs(ys[:, 2]).max() == 0.0
            # G and Q relax monotonically toward the off state
            assert abs(traj.final_state().G - p.A) < abs(y0[0] - p.A) + 1e-12
            assert abs(traj.final_state().Q - p.B) < abs(y0[1] - p.B) + 1e-12
