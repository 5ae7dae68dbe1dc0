"""Pulse trains: detection, response classes, branch tracing, onsets."""

from __future__ import annotations

import numpy as np
import pytest

from yamada_delay import (
    BranchSample,
    HistorySpec,
    InvalidArgumentError,
    NoBranchError,
    classify_response,
    detect_pulses,
    fold_estimate,
    integrate,
    preset,
    reappearance_shift,
    refine_period,
    scan_kappa_min,
    single_pulse_seed,
    sweep_tau,
)
from yamada_delay.pulses import (
    INTERVAL_CV_TOL,
    MIN_THRESHOLD,
    THRESHOLD_FRAC,
    _pulse_heights,
    measure_train,
)

from pulses_reference import bisection_pulses


@pytest.fixture(scope="module")
def train_run():
    """A settled kappa = 0.01 train at tau = 100, shared by detector tests."""
    p = preset("figure1", kappa=0.01, tau=100.0)
    return p, integrate(p, single_pulse_seed(p), 1400.0)


class TestDetectPulses:
    def test_crossings_rise_through_threshold(self, train_run):
        p, traj = train_run
        times = detect_pulses(traj, 1.0)
        assert len(times) >= 8
        assert np.all(np.diff(times) > 0.0)
        for t in times:
            lo = traj.evaluate(t - 0.01)[2]
            hi = traj.evaluate(min(t + 0.01, traj.t1))[2]
            assert lo < 1.0 < hi + 0.05

    def test_refractory_merges(self, train_run):
        p, traj = train_run
        base = detect_pulses(traj, 1.0)
        merged = detect_pulses(traj, 1.0, refractory=250.0)
        assert len(merged) < len(base)
        assert merged[0] == base[0]
        assert np.all(np.diff(merged) >= 250.0)

    def test_threshold_validation(self, train_run):
        p, traj = train_run
        with pytest.raises(InvalidArgumentError):
            detect_pulses(traj, 0.0)
        with pytest.raises(InvalidArgumentError):
            detect_pulses(traj, -1.0)

    def test_empty_for_quiet_run(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        traj = integrate(p, HistorySpec.off_plus_pulse(0.0, 1.0), 100.0)
        assert len(detect_pulses(traj, 0.5)) == 0


class TestHermiteCrossings:
    """Differential test against the sampled-bisection detector."""

    @staticmethod
    def check_against_bisection(traj, threshold):
        times = detect_pulses(traj, threshold)
        ref = bisection_pulses(traj, threshold)
        assert len(times) == len(ref) > 0
        # the bisection stops at a 1e-3 bracket and reports its midpoint
        assert np.abs(times - ref).max() <= 5e-4
        levels = traj.evaluate_many(times)[:, 2]
        assert np.abs(levels - threshold).max() <= 1e-10 * threshold

    def test_train_run(self, train_run):
        p, traj = train_run
        for threshold in (1.0, measure_train(traj, p.tau).threshold):
            self.check_against_bisection(traj, threshold)

    def test_session_orbits(self, orbits):
        for orbit in orbits.values():
            traj = orbit.trajectory
            self.check_against_bisection(traj, measure_train(traj, orbit.params.tau).threshold)

    def test_heights_match_per_pulse_windows(self, train_run):
        p, traj = train_run
        times = detect_pulses(traj, 1.0)
        loop = [traj.evaluate_many(np.linspace(t, min(t + 5.0, traj.t1), 80))[:, 2].max()
                for t in times]
        assert np.array_equal(_pulse_heights(traj, times, 5.0), loop)
        assert len(_pulse_heights(traj, times[:0], 5.0)) == 0


class TestMeasureTrain:
    def test_statistics_of_settled_train(self, train_run):
        p, traj = train_run
        m = measure_train(traj, p.tau, since=0.5 * traj.t1)
        peak = traj.sample(0.1)[1][:, 2].max()
        assert m.threshold == pytest.approx(THRESHOLD_FRAC * peak, rel=1e-12)
        assert np.array_equal(m.pulse_times, detect_pulses(traj, m.threshold))
        assert np.array_equal(m.train_times, m.pulse_times[m.pulse_times >= 0.5 * traj.t1])
        assert m.period == pytest.approx(np.diff(m.train_times).mean())
        assert m.cv < INTERVAL_CV_TOL
        assert m.k == 1

    def test_last_intervals(self, train_run):
        p, traj = train_run
        m = measure_train(traj, p.tau, last=3)
        assert np.array_equal(m.train_times, m.pulse_times[-4:])
        # k counts pulses against the delay it is given
        assert measure_train(traj, 2.0 * m.period, last=3).k == 2

    def test_quiet_run(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        traj = integrate(p, HistorySpec.off_plus_pulse(0.0, 1.0), 100.0)
        m = measure_train(traj, p.tau)
        assert m.threshold == MIN_THRESHOLD
        assert len(m.pulse_times) == 0
        assert m.period is None and m.cv is None and m.k is None


class TestClassification:
    def test_decay_below_onset(self, fig1_runs):
        stats = fig1_runs[0.005]
        assert stats.classification == "decay"
        assert stats.k is None and stats.period is None and stats.delta is None

    def test_sustained_above_onset(self, fig1_runs):
        stats = fig1_runs[0.01]
        assert stats.classification == "sustained-train"
        assert stats.k == 1
        assert stats.interval_cv < 0.01
        # regeneration lag: each pulse fires a fixed time after its
        # delayed image arrives, so the period exceeds the delay
        assert 0.0 < stats.delta < 20.0
        assert stats.period == pytest.approx(100.0 + stats.delta)

    def test_heights_and_times_consistent(self, fig1_runs):
        stats = fig1_runs[0.01]
        assert len(stats.heights) == len(stats.pulse_times)
        assert np.all(np.diff(stats.pulse_times) > 0.0)
        tail = stats.heights[len(stats.heights) // 2:]
        assert tail.std() / tail.mean() < 0.01

    def test_single_pulse_without_feedback(self):
        # a super-threshold kick without feedback: one pulse, then quiet
        p = preset("figure1", kappa=0.0, tau=100.0)
        stats = classify_response(p, HistorySpec.off_plus_pulse(1.0, 1.0), 2000.0)
        assert stats.classification == "single-pulse"
        assert len(stats.pulse_times) == 1

    def test_cw_like_at_strong_feedback(self):
        p = preset("figure1", kappa=0.5, tau=100.0)
        stats = classify_response(p, single_pulse_seed(p), 2000.0)
        assert stats.classification == "cw-like"

    def test_horizon_floor_enforced(self):
        p = preset("figure1", kappa=0.01, tau=100.0)
        with pytest.raises(InvalidArgumentError):
            classify_response(p, single_pulse_seed(p), 500.0)


class TestExcitability:
    def test_threshold_bracket(self):
        # the working point fires for kicks above ~0.4, relaxes below
        p = preset("figure1", kappa=0.0, tau=20.0)
        low = classify_response(p, HistorySpec.off_plus_pulse(0.3, 1.0), 600.0)
        high = classify_response(p, HistorySpec.off_plus_pulse(0.5, 1.0), 600.0)
        assert low.classification == "decay"
        assert len(low.pulse_times) == 0
        assert high.classification == "single-pulse"
        assert high.heights[0] > 2.0

    def test_seed_stores_one_pulse(self):
        # history = kick at the far end, the fired pulse just after it,
        # and a quiet field at the reinjection edge t = 0
        p = preset("figure1", kappa=0.01, tau=100.0)
        h, _ = single_pulse_seed(p).realize(p)
        vals = np.array([h(t) for t in np.linspace(-100.0, 0.0, 1001)])
        assert vals[0, 2] == pytest.approx(1.0)
        assert vals[:, 2].max() > 2.0
        assert vals[-1, 2] < 1e-3
        assert np.argmax(vals[:, 2]) < 500

    def test_seed_needs_positive_delay(self):
        with pytest.raises(InvalidArgumentError):
            single_pulse_seed(preset("figure1", kappa=0.1, tau=0.0))


class TestReappearance:
    def test_shift_arithmetic(self):
        assert reappearance_shift(98.5, 101.4, 0) == 98.5
        assert reappearance_shift(98.5, 101.4, 1) == pytest.approx(199.9)
        assert reappearance_shift(10.0, 50.0, 3) == pytest.approx(160.0)

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidArgumentError):
            reappearance_shift(98.5, 0.0, 1)


class TestRefinePeriod:
    def test_recovers_perturbed_period(self, orbits):
        orbit = orbits[(1, 200)]
        refined = refine_period(orbit.trajectory, orbit.period + 0.003)
        assert refined == pytest.approx(orbit.period, abs=1e-5)


@pytest.fixture(scope="module")
def branch():
    # continuation tolerates moderate delay jumps; much larger ones
    # kick the train off the branch, so step by 40 at most
    p = preset("figure1", kappa=0.01)
    return sweep_tau(p, [80.0, 120.0, 160.0, 200.0, 240.0, 280.0, 300.0])


class TestBranchSweep:
    def test_single_pulse_branch(self, branch):
        assert branch.aborted_at is None
        assert len(branch) == 7
        assert np.all(branch.k == 1)
        # weak feedback: long regeneration lag, roughly delay-independent
        assert np.all((branch.delta > 10.0) & (branch.delta < 25.0))

    def test_period_tracks_delay(self, branch):
        slope = np.polyfit(branch.tau, branch.period, 1)[0]
        assert 0.9 < slope < 1.1
        assert np.all(np.diff(branch.period) > 0.0)

    def test_min_period_and_coexistence_count(self, branch):
        assert branch.t_min == branch.period[0]
        assert 95.0 < branch.t_min < 105.0
        # reappearance: by tau = 300 the delay line has room for two
        # independently seeded trains
        assert int(300.0 // branch.t_min) == 2

    def test_interp_period(self, branch):
        mid = branch.interp_period(100.0)
        assert branch.period[0] < mid < branch.period[1]

    def test_no_fold_on_monotone_branch(self, branch):
        assert fold_estimate(branch, 1) is None

    def test_validation(self):
        p = preset("figure1", kappa=0.01)
        with pytest.raises(InvalidArgumentError):
            sweep_tau(p, [])
        with pytest.raises(InvalidArgumentError):
            sweep_tau(p, [100.0, 90.0])
        with pytest.raises(NoBranchError):
            sweep_tau(preset("figure1", kappa=0.001), [100.0])


class TestFoldEstimate:
    @staticmethod
    def synthetic(period_fn, taus):
        taus = np.asarray(taus, dtype=float)
        T = period_fn(taus)
        return BranchSample(taus, T, np.ones(len(taus), dtype=int), T - taus)

    def test_locates_sign_change(self):
        # T = 2 - tau^2/2 gives 1 + T' = 1 - tau: fold exactly at 1
        branch = self.synthetic(lambda t: 2.0 - 0.5 * t * t, np.linspace(0.5, 1.5, 9))
        assert fold_estimate(branch, 1) == pytest.approx(1.0, abs=1e-9)

    def test_interpolates_between_samples(self):
        branch = self.synthetic(lambda t: 2.0 - 0.5 * t * t, np.linspace(0.47, 1.53, 9))
        assert fold_estimate(branch, 1) == pytest.approx(1.0, abs=0.02)

    def test_none_without_fold(self):
        branch = self.synthetic(lambda t: t + 3.0, np.linspace(1.0, 2.0, 9))
        assert fold_estimate(branch, 1) is None

    def test_needs_five_samples(self):
        branch = self.synthetic(lambda t: t + 3.0, np.linspace(1.0, 2.0, 4))
        with pytest.raises(InvalidArgumentError):
            fold_estimate(branch, 1)


class TestFeedbackOnset:
    def test_onset_range(self, kappa_onsets):
        for tau, onset in kappa_onsets.items():
            assert 0.004 < onset < 0.009, tau

    def test_longer_delay_does_not_raise_onset(self, kappa_onsets):
        assert kappa_onsets[400.0] <= kappa_onsets[200.0] + 5e-4

    def test_bracket_validation(self):
        p = preset("figure1")
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (0.02, 0.01), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (-0.1, 0.01), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (0.004, 0.02), 0.0)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, -5.0, (0.004, 0.02), 1e-3)

    def test_bad_bracket_endpoints(self):
        p = preset("figure1")
        # both endpoints on the same side of the onset
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 50.0, (0.02, 0.05), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 50.0, (0.0005, 0.002), 1e-3)
