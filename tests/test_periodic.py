"""Periodic collocation orbits: against the simulated path, the integrator and Floquet."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from yamada_delay import (
    HistorySpec,
    InvalidArgumentError,
    NoBranchError,
    NumericalError,
    StepControl,
    extract_orbit,
    integrate,
    monodromy_multipliers,
    preset,
    settle_train,
)
from yamada_delay import floquet, periodic, pulses
from yamada_delay.cli import main

import periodic_reference
import pulses_reference


class TestAgainstSimulatedPath:
    @pytest.mark.parametrize("tau", [200.0, 400.0])
    def test_one_pulse_periods(self, orbits, tau):
        # The reference settles for 34 delays and polishes the mean pulse
        # interval.  It runs at rtol 1e-9: at the default 1e-7 its own
        # period is 1.0e-6 short at tau = 400 (2e-7 at tau = 200), while
        # the collocated period is within 5e-9 of a solve on 1600 intervals.
        p = preset("figure1", kappa=0.1, tau=tau)
        control = StepControl(rtol=1e-9, atol=1e-11)
        ref = pulses_reference.extract_orbit(pulses_reference.settle_train(p, control=control))
        assert abs(orbits[(1, tau)].period - ref.period) < 1e-6

    def test_reappearance(self, orbits):
        # the two-pulse train at tau is the one-pulse train at tau - T: the
        # simulated one (whose pulses cannot drift apart) has the same period
        two = orbits[(2, 400.0)]
        p = preset("figure1", kappa=0.1, tau=400.0 - two.period)
        control = StepControl(rtol=1e-9, atol=1e-11)
        one = pulses_reference.extract_orbit(pulses_reference.settle_train(p, control=control))
        assert one.k == 1
        assert abs(one.period - two.period) < 1e-6


class TestNearOnset:
    """Close to the feedback onset (about 0.0065 at tau = 200).

    The regeneration lag there is 19 to 28 instead of 3, and it changes
    along the one-pulse branch between the guess's delay tau0 and the
    reappearance delay.  Started at the guess's own period (7 % off at
    kappa = 0.01), or at the period the guess's lag gives (1 % off at
    kappa = 0.008), Newton's method lost the two-pulse train.
    """

    # At rtol 1e-9 the reference's gap to the collocated period at
    # (0.008, 200, 2) moved between 1.9e-7 and 1.3e-6 as the reappearance
    # delay moved by 1e-12 to 1e-9; at 1e-10 it holds at 6e-8.
    CONTROL = StepControl(rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kappa", [0.01, 0.008])
    def test_one_pulse_period(self, kappa):
        p = preset("figure1", kappa=kappa, tau=200.0)
        orbit = settle_train(p)
        ref = pulses_reference.extract_orbit(pulses_reference.settle_train(p, control=self.CONTROL))
        assert orbit.k == ref.k == 1
        assert abs(orbit.period - ref.period) < 1e-6

    @pytest.mark.parametrize("kappa, tau, k", [(0.01, 200.0, 2), (0.008, 200.0, 2),
                                               (0.008, 400.0, 3)])
    def test_multi_pulse_period(self, kappa, tau, k):
        # (0.008, 400, 3) needs the halved Newton steps: full ones diverge
        p = preset("figure1", kappa=kappa, tau=tau)
        orbit = settle_train(p, k=k)
        assert orbit.k == k
        # the simulated one-pulse train at the reappearance delay
        p1 = p.replace(tau=tau - (k - 1) * orbit.period)
        one = pulses_reference.extract_orbit(pulses_reference.settle_train(p1, control=self.CONTROL))
        assert abs(orbit.period - one.period) < 1e-6
        # the simulated k-pulse train, over whole round trips: its pulse
        # intervals are still unequal after 34 delays (their spacing is
        # nearly neutral), so only their mean is the period, and the train
        # is still settling (2.5e-6 off at k = 2, 4.3e-5 at k = 3)
        run = pulses_reference.settle_train(p, k=k, control=self.CONTROL)
        loops = pulses.measure_train(run, tau, last=k * (pulses_reference.PERIOD_INTERVALS // k))
        assert abs(orbit.period - loops.period) < 1e-4

    @pytest.mark.parametrize("kappa, k", [(0.01, 3), (0.007, 2)])
    def test_missing_multi_pulse_train_is_no_branch(self, capsys, kappa, k):
        # Newton's method stalls at the full delay; the simulated path
        # found no such train there either
        p = preset("figure1", kappa=kappa, tau=200.0)
        with pytest.raises(NoBranchError, match=rf"no {k}-pulse train .* reappearance delay \d"):
            settle_train(p, k=k)
        assert main(["floquet", "--kappa", str(kappa), "--tau", "200", "--k", str(k)]) == 3
        assert f"no {k}-pulse train" in capsys.readouterr().err


class TestOrbit:
    @pytest.mark.parametrize("key", [(1, 200.0), (2, 400.0)])
    def test_integration_stays_on_the_orbit(self, orbits, key):
        # ten periods from the orbit's own history: the run stays within
        # 4e-6 of each component's range (the integrator's tolerance is
        # 1e-7) and does not drift away
        orbit = orbits[key]
        traj = integrate(orbit.params, HistorySpec.from_tail(orbit.trajectory), 10.0 * orbit.period)
        ts = np.linspace(0.0, traj.t1, 100001)
        run, ref = traj.evaluate_many(ts), orbit.state_many(orbit.anchor + ts)
        dev = np.abs(run - ref) / (ref.max(axis=0) - ref.min(axis=0))
        assert dev.max() < 1e-5
        assert dev[ts > 9.0 * orbit.period].max() < 1e-5

    def test_trivial_multiplier_converges_with_n(self, orbits, floquet_sets):
        # on the settled runs the two-pulse defect stalled at 5.9e-4 for
        # every N: the orbit, not the discretization, was off
        orbit = orbits[(2, 400.0)]
        defects = [abs(monodromy_multipliers(orbit, N=601).trivial - 1.0),
                   abs(floquet_sets[(2, 400.0)].trivial - 1.0),
                   abs(monodromy_multipliers(orbit, N=2401).trivial - 1.0)]
        assert floquet_sets[(2, 400.0)].N == 1201
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 2e-6

    def test_near_unit_pair_inside_the_circle(self, floquet_sets):
        mods = np.sort(np.abs(floquet_sets[(2, 400.0)].multipliers))[-2:]
        assert np.all(mods < 1.0) and np.all(mods > 0.9999)

    def test_diagnostics(self, orbits):
        for orbit in orbits.values():
            d = orbit.diagnostics
            assert set(d) == {"newton_steps", "factorizations", "L", "residual", "solve_s"}
            assert 1 <= d["newton_steps"] <= periodic.NEWTON_MAX_STEPS
            assert 1 <= d["factorizations"] <= d["newton_steps"]
            assert d["L"] == periodic.INTERVALS
            assert d["residual"] == orbit.residual <= periodic.RESIDUAL_TOL
            assert d["solve_s"] > 0.0
            # not part of equality
            assert dataclasses.replace(orbit, diagnostics={}) == orbit

    def test_trajectory_is_periodic(self, orbits):
        for (k, tau), orbit in orbits.items():
            traj = orbit.trajectory
            assert traj.t0 == 0.0 and orbit.anchor == traj.t1
            n = round(traj.t1 / orbit.period)
            assert traj.t1 == pytest.approx(n * orbit.period, rel=1e-12)
            assert n * orbit.period >= tau + 2.0 * orbit.period
            assert np.array_equal(traj.y[0], traj.y[-1])


def central_slope(orbit, rel=1e-3):
    """``dT / dtau`` of the orbit's branch from two solves at ``tau (1 +- rel)``."""
    p, level = orbit.params, orbit.trajectory.y[0, 2]
    periods = [periodic.solve_periodic(q, orbit.trajectory, 0.0, orbit.period, level, q.tau).period
               for q in (p.replace(tau=p.tau * (1.0 + rel)), p.replace(tau=p.tau * (1.0 - rel)))]
    return (periods[0] - periods[1]) / (2.0 * rel * p.tau)


class TestBranchSlope:
    """``PeriodicOrbit.dT_dtau`` from the factored Newton system."""

    @pytest.mark.parametrize("key", [(1, 200.0), (2, 400.0)])
    def test_session_orbits_match_central_difference(self, orbits, key):
        orbit = orbits[key]
        assert abs(orbit.dT_dtau - central_slope(orbit)) < 1e-7

    def test_near_onset_matches_central_difference(self):
        orbit = settle_train(preset("figure1", kappa=0.008, tau=200.0))
        assert abs(orbit.dT_dtau - central_slope(orbit)) < 1e-7

    @pytest.mark.parametrize("kappa, tau, k", [(0.1, 400.0, 2), (0.008, 200.0, 2)])
    def test_follows_reappearance(self, kappa, tau, k):
        # T_k(tau) = T_1(d) at d = tau - (k - 1) T, so
        # T_k' = T_1'(d) / (1 + (k - 1) T_1'(d))
        orbit = settle_train(preset("figure1", kappa=kappa, tau=tau), k=k)
        d = tau - (k - 1) * orbit.period
        one = periodic.solve_periodic(orbit.params.replace(tau=d), orbit.trajectory, 0.0,
                                      orbit.period, orbit.trajectory.y[0, 2], d)
        assert one.k == 1
        slope = one.dT_dtau
        assert abs(orbit.dT_dtau - slope / (1.0 + (k - 1) * slope)) < 1e-6

    def test_hand_built_orbit_has_no_slope(self, orbits):
        orbit = orbits[(1, 200.0)]
        bare = periodic.PeriodicOrbit(orbit.trajectory, orbit.period, orbit.k, orbit.params,
                                      orbit.anchor, orbit.residual)
        assert np.isnan(bare.dT_dtau) and np.isfinite(orbit.dT_dtau)
        # not part of equality
        assert bare == orbit
        assert dataclasses.replace(orbit, dT_dtau=0.0) == orbit


def recorded_settle_train(monkeypatch, p, k):
    """Each collocation solve of ``settle_train(p, k=k)``: the inputs and
    results of its Newton calls, and its orbit."""
    calls, solves = [], []
    newton, solve = periodic._newton, pulses.solve_periodic

    def recorded_newton(*args):
        calls.append((args, newton(*args)))
        return calls[-1][1]

    def recorded_solve(*args, **kwargs):
        first = len(calls)
        orbit = solve(*args, **kwargs)
        solves.append((calls[first:], orbit))
        return orbit

    monkeypatch.setattr(periodic, "_newton", recorded_newton)
    monkeypatch.setattr(pulses, "solve_periodic", recorded_solve)
    settle_train(p, k=k)
    return solves


class TestHeldFactorization:
    """Newton keeps its factorization while it contracts.

    Against full Newton, one factorization a step, as the library ran it
    before (``periodic_reference.newton``), on the same start and mesh.
    """

    @pytest.mark.parametrize("kappa, tau, k", [
        (0.1, 200.0, 1), (0.1, 400.0, 1), (0.1, 200.0, 2), (0.1, 400.0, 2),
        (0.01, 200.0, 1), (0.008, 200.0, 1), (0.01, 200.0, 2), (0.008, 200.0, 2),
        (0.008, 400.0, 3)])
    def test_matches_full_newton(self, monkeypatch, kappa, tau, k):
        solves = recorded_settle_train(monkeypatch, preset("figure1", kappa=kappa, tau=tau), k)
        for calls, orbit in solves:
            for args, (X, T, *_, slope) in calls:
                X_ref, T_ref, _, slope_ref = periodic_reference.newton(*args)
                assert abs(T - T_ref) <= 1e-12 * T_ref
                amplitude = X_ref.max(axis=0) - X_ref.min(axis=0)
                assert np.all(np.abs(X - X_ref) <= 1e-10 * amplitude)
            # the orbit's slope is solved on its last mesh only
            assert orbit.dT_dtau == slope()
            assert abs(orbit.dT_dtau - slope_ref) <= 1e-12

    @pytest.mark.parametrize("tau, k, most", [(200.0, 1, 2), (400.0, 2, 4)])
    def test_factorizations_per_train(self, monkeypatch, tau, k, most):
        # full Newton factors 6 times at (1, 200) and 11 times at (2, 400)
        factored = []
        splu = scipy.sparse.linalg.splu

        def counted(A):
            factored.append(A.shape)
            return splu(A)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
        solves = recorded_settle_train(monkeypatch, preset("figure1", kappa=0.1, tau=tau), k)
        counts = [orbit.diagnostics["factorizations"] for _, orbit in solves]
        assert counts == [sum(out[3] for _, out in calls) for calls, _ in solves]
        assert sum(counts) == len(factored) <= most


class TestSettleTrain:
    @pytest.mark.parametrize("k", [1, 2])
    def test_two_runs_and_no_trial_loop(self, monkeypatch, k):
        calls = []
        integrate_ = pulses.integrate

        def counted(params, history, t_end, control=None):
            calls.append((params.tau, t_end))
            return integrate_(params, history, t_end, control)

        monkeypatch.setattr(pulses, "integrate", counted)
        p = preset("figure1", kappa=0.1, tau=100.0)
        orbit = settle_train(p, k=k, periods=6.0)
        # the solitary seed pulse and the guess, both at tau0
        tau0 = (100.0 - (k - 1) * 3.0) / k
        assert [tau for tau, _ in calls] == [0.0, tau0]
        assert calls[1][1] == pulses.GUESS_DELAYS * (tau0 + 3.0)
        # the returned train covers the periods asked for, at the full delay
        assert orbit.params == orbit.trajectory.params == p
        assert orbit.trajectory.t1 >= 600.0 and orbit.k == k

    @pytest.mark.parametrize("periods", [0.0, -1.0, float("nan"), float("inf")])
    def test_periods_must_be_positive_and_finite(self, periods):
        p = preset("figure1", kappa=0.1, tau=100.0)
        with pytest.raises(InvalidArgumentError, match="periods must be positive and finite"):
            settle_train(p, periods=periods)


def leading_distance(a, b, m=50):
    """Largest distance from one of the ``m`` leading multipliers of one
    set to the other set, both ways (the other set is taken whole, so a
    cluster of equal modulus cut at ``m`` in another order still pairs)."""
    return max(np.abs(x[:m, None] - y[None, :]).min(axis=1).max() for x, y in ((a, b), (b, a)))


class TestOneSolvePerOrbit:
    """``settle_train`` hands its orbit straight to Floquet.

    Solving the orbit once more from its own trajectory, by the path
    :func:`extract_orbit` takes for simulated runs, moves neither its
    period nor its leading multipliers beyond the solver's tolerance.
    """

    @pytest.mark.parametrize("key", [(1, 200.0), (2, 400.0)])
    def test_polished_orbit_agrees(self, orbits, floquet_sets, key):
        orbit = orbits[key]
        polished = extract_orbit(orbit.trajectory)
        assert polished is not orbit and polished.k == orbit.k
        assert abs(polished.period - orbit.period) < 1e-8
        ref = monodromy_multipliers(polished)
        assert ref.N == floquet_sets[key].N
        assert leading_distance(floquet_sets[key].multipliers, ref.multipliers) < 1e-7

    @pytest.mark.parametrize("k, solves", [(1, 1), (2, 2)])
    def test_floquet_chain_solves_once(self, monkeypatch, capsys, k, solves):
        calls = []
        solve = periodic.solve_periodic

        def counted(*args, **kwargs):
            calls.append(args[0].tau)
            return solve(*args, **kwargs)

        # extract_orbit would solve through floquet's name, settle_train through pulses'
        monkeypatch.setattr(pulses, "solve_periodic", counted)
        monkeypatch.setattr(floquet, "solve_periodic", counted)
        p = preset("figure1", kappa=0.1, tau=100.0)
        orbit = pulses.settle_train(p, k=k, periods=34.0)
        assert floquet.extract_orbit(orbit) is orbit
        floquet.monodromy_multipliers(orbit, m=20)
        assert len(calls) == solves and calls[-1] == 100.0
        calls.clear()
        assert main(["floquet", "--kappa", "0.1", "--tau", "100", "--k", str(k),
                     "--n-multipliers", "20"]) == 0
        capsys.readouterr()
        assert len(calls) == solves


class TestFailures:
    def test_newton_failure_raises(self, monkeypatch):
        monkeypatch.setattr(periodic, "NEWTON_MAX_STEPS", 1)
        p = preset("figure1", kappa=0.1, tau=30.0)
        with pytest.raises(NumericalError, match="did not converge in 1 steps"):
            settle_train(p)

    def test_newton_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(periodic, "NEWTON_MAX_STEPS", 1)
        assert main(["floquet", "--kappa", "0.1", "--tau", "30"]) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_residual_above_bound_raises(self, monkeypatch):
        monkeypatch.setattr(periodic, "RESIDUAL_TOL", 1e-12)
        monkeypatch.setattr(periodic, "MAX_INTERVALS", 2 * periodic.INTERVALS)
        p = preset("figure1", kappa=0.1, tau=30.0)
        match = f"collocation residual .* on {2 * periodic.INTERVALS} mesh intervals"
        with pytest.raises(NumericalError, match=match):
            settle_train(p)

    def test_coarse_mesh_is_refined(self, monkeypatch):
        # 20 intervals miss the residual bound at tau = 200 on any mesh; the
        # solve doubles them until it holds and lands on the same period
        ref = settle_train(preset("figure1", kappa=0.1, tau=200.0), periods=10.0)
        monkeypatch.setattr(periodic, "INTERVALS", 20)
        orbit = settle_train(preset("figure1", kappa=0.1, tau=200.0), periods=10.0)
        assert orbit.diagnostics["L"] > 20
        assert orbit.residual <= periodic.RESIDUAL_TOL
        assert abs(orbit.period - ref.period) < 1e-6
