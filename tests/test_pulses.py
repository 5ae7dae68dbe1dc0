"""Pulse trains: detection, response classes, branch tracing, onsets."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from yamada_delay import (
    BranchSample,
    HistorySpec,
    Trajectory,
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
from yamada_delay import pulses
from yamada_delay.pulses import (
    CW_LIKE,
    DECAY,
    INTERVAL_CV_TOL,
    MIN_THRESHOLD,
    SAMPLE_DT,
    SUSTAINED_TRAIN,
    THRESHOLD_FRAC,
    _peak_intensity,
    _pulse_heights,
    measure_train,
)

import pulses_reference
from pulses_reference import (
    bisect_kappa_min,
    bisection_pulses,
    sampled_peak_intensity,
    screened_scan,
    sweep_tau as simulated_sweep,
)


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
        with pytest.raises(InvalidArgumentError):
            detect_pulses(traj, math.nan)

    @pytest.mark.parametrize("refractory", [math.nan, -1.0, math.inf])
    def test_refractory_validation(self, train_run, refractory):
        p, traj = train_run
        with pytest.raises(InvalidArgumentError, match="refractory"):
            detect_pulses(traj, 1.0, refractory=refractory)

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


def _node_trajectory(t0, gaps, intensity, slope):
    """A trajectory on given ``I`` and ``I'`` node data (``G = Q = 0``)."""
    t = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
    y, yp = np.zeros((len(t), 3)), np.zeros((len(t), 3))
    y[:, 2], yp[:, 2] = intensity, slope
    return Trajectory(t, y, yp, preset("figure1"))


@st.composite
def _node_data(draw):
    n = draw(st.integers(2, 30))
    values = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
    slopes = st.one_of(st.just(0.0), st.floats(-50.0, 50.0))
    return (draw(st.floats(-100.0, 100.0)),
            draw(st.lists(st.floats(1e-3, 3.0), min_size=n - 1, max_size=n - 1)),
            draw(st.lists(values, min_size=n, max_size=n)),
            draw(st.lists(slopes, min_size=n, max_size=n)))


class TestPeakSearch:
    """The bounded peak search equals the full-sample peak, bit for bit."""

    def test_fig1_runs(self, fig1_runs):
        for stats in fig1_runs.values():
            p = stats.params
            traj = integrate(p, single_pulse_seed(p), stats.horizon)
            peak = sampled_peak_intensity(traj)
            assert _peak_intensity(traj) == peak
            assert stats.threshold == max(THRESHOLD_FRAC * peak, MIN_THRESHOLD)

    def test_scan_oracle_runs(self, kappa_scans):
        # the 2 classification runs of each onset scan, as in the benchmark:
        # the screened final cell's two ends
        _, peaks, _ = kappa_scans
        assert len(peaks) == 4
        for peak, reference in peaks:
            assert peak == reference

    def test_scan_screen_runs(self, kappa_scans):
        # the 6 screening runs of each onset scan, read from two delays on
        _, _, screens = kappa_scans
        assert len(screens) == 12
        for peak, reference in screens:
            assert peak == reference

    @pytest.mark.parametrize("t0, gaps, intensity, slope", [
        (-3.7, [0.25], [-2.0, -1.0], [0.0, 3.0]),  # peak on the appended t1 sample
        (12.0, [0.05], [0.0, 0.0], [0.0, 0.0]),  # one grid sample plus t1
        (0.0, [1.0], [1.0, 1.0], [4.0, -4.0]),  # peak inside the interval
        (5.0, [0.3, 0.3], [-1.0, -3.0, -1.0], [-9.0, 0.0, 9.0]),  # two tops, I < 0
    ])
    def test_small_trajectories(self, t0, gaps, intensity, slope):
        traj = _node_trajectory(t0, gaps, intensity, slope)
        assert _peak_intensity(traj) == sampled_peak_intensity(traj)

    @settings(max_examples=200, deadline=None)
    @given(_node_data())
    def test_random_node_data(self, data):
        traj = _node_trajectory(*data)
        assert _peak_intensity(traj) == sampled_peak_intensity(traj)


class TestMeasureTrain:
    def test_statistics_of_settled_train(self, train_run):
        p, traj = train_run
        m = measure_train(traj, p.tau, since=0.5 * traj.t1)
        peak = float(traj.sample(SAMPLE_DT)[1][:, 2].max())
        assert m.threshold == THRESHOLD_FRAC * peak
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
        _, intensity, _ = single_pulse_seed(p).realize(p)
        vals = np.array([intensity(t) for t in np.linspace(-100.0, 0.0, 1001)])
        assert vals[0] == pytest.approx(1.0)
        assert vals.max() > 2.0
        assert vals[-1] < 1e-3
        assert np.argmax(vals) < 500

    def test_seed_needs_positive_delay(self):
        with pytest.raises(InvalidArgumentError):
            single_pulse_seed(preset("figure1", kappa=0.1, tau=0.0))


class TestReappearance:
    def test_shift_arithmetic(self):
        assert reappearance_shift(98.5, 101.4, 0) == 98.5
        assert reappearance_shift(98.5, 101.4, 1) == pytest.approx(199.9)
        assert reappearance_shift(98.5, 101.4, np.int64(1)) == reappearance_shift(98.5, 101.4, 1)
        assert reappearance_shift(10.0, 50.0, 3) == pytest.approx(160.0)

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidArgumentError):
            reappearance_shift(98.5, 0.0, 1)
        for T0 in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="period"):
                reappearance_shift(98.5, T0, 1)

    def test_rejects_non_finite_delay(self):
        for tau0 in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="tau0"):
                reappearance_shift(tau0, 101.4, 1)

    @pytest.mark.parametrize("k", [-1, 0.5, 2.0, math.nan, True, "1"])
    def test_rejects_bad_k(self, k):
        with pytest.raises(InvalidArgumentError, match=f"k must be an integer >= 0, got {k!r}"):
            reappearance_shift(98.5, 101.4, k)


class TestRefinePeriod:
    def test_recovers_perturbed_period(self, orbits):
        orbit = orbits[(1, 200)]
        refined = refine_period(orbit.trajectory, orbit.period + 0.003)
        assert refined == pytest.approx(orbit.period, abs=1e-5)


FIXTURE_TAUS = [80.0, 120.0, 160.0, 200.0, 240.0, 280.0, 300.0]


@pytest.fixture(scope="module")
def branch():
    # each delay is solved on its own, so the grid may be as coarse as wanted
    p = preset("figure1", kappa=0.01)
    return sweep_tau(p, FIXTURE_TAUS)


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


class TestOrbitSweep:
    """The per-delay orbits against the simulated sweep they replaced
    and against fresh simulations."""

    def test_matches_simulated_sweep(self, branch):
        taus, periods, k, aborted_at = simulated_sweep(preset("figure1", kappa=0.01),
                                                       FIXTURE_TAUS)
        assert branch.aborted_at is None and aborted_at is None
        assert np.array_equal(branch.tau, taus)
        assert np.array_equal(branch.k, k)
        assert np.abs(branch.period - periods).max() <= 1e-4

    def test_no_branch_jump_on_a_coarse_grid(self):
        # the simulated sweep continued from a 150-long tail holding two
        # pulses, landed on a k = 2 transient and stopped after one row
        p = preset("figure1", kappa=0.1)
        branch = sweep_tau(p, np.arange(100.0, 401.0, 50.0))
        assert branch.aborted_at is None
        assert len(branch) == 7
        assert np.all(branch.k == 1)
        for tau, period in zip(branch.tau, branch.period):
            q = p.replace(tau=float(tau))
            stats = classify_response(q, single_pulse_seed(q), 20.0 * tau)
            assert stats.classification == SUSTAINED_TRAIN
            assert abs(period - stats.period) <= 1e-4, tau


class TestFoldEstimate:
    @staticmethod
    def synthetic(period_fn, slope_fn, taus):
        taus = np.asarray(taus, dtype=float)
        T = period_fn(taus)
        return BranchSample(taus, T, np.ones(len(taus), dtype=int), T - taus, slope_fn(taus))

    def test_locates_sign_change(self):
        # T = 2 - tau^2/2 gives 1 + T' = 1 - tau: fold exactly at 1
        branch = self.synthetic(lambda t: 2.0 - 0.5 * t * t, lambda t: -t,
                                np.linspace(0.5, 1.5, 9))
        assert fold_estimate(branch, 1) == pytest.approx(1.0, abs=1e-9)

    def test_interpolates_between_samples(self):
        branch = self.synthetic(lambda t: 2.0 - 0.5 * t * t, lambda t: -t,
                                np.linspace(0.47, 1.53, 9))
        assert fold_estimate(branch, 1) == pytest.approx(1.0, abs=0.02)

    def test_none_without_fold(self):
        branch = self.synthetic(lambda t: t + 3.0, np.ones_like, np.linspace(1.0, 2.0, 9))
        assert fold_estimate(branch, 1) is None

    def test_zero_at_the_last_sample(self):
        branch = self.synthetic(lambda t: 2.0 - 0.5 * t * t, lambda t: -t, [0.5, 0.75, 1.0])
        assert fold_estimate(branch, 1) == 1.0

    def test_needs_two_samples(self):
        fold = self.synthetic(lambda t: 2.0 - 0.5 * t * t, lambda t: -t, [0.5, 1.5])
        assert fold_estimate(fold, 1) == pytest.approx(1.0, abs=1e-12)
        single = self.synthetic(lambda t: 2.0 - 0.5 * t * t, lambda t: -t, [0.5])
        with pytest.raises(InvalidArgumentError, match="at least 2"):
            fold_estimate(single, 1)


class TestFeedbackOnset:
    def test_onset_range(self, kappa_onsets):
        for tau, onset in kappa_onsets.items():
            assert 0.004 < onset < 0.009, tau

    def test_longer_delay_does_not_raise_onset(self, kappa_onsets):
        assert kappa_onsets[400.0] <= kappa_onsets[200.0] + 5e-4

    @staticmethod
    def stub_oracle(monkeypatch, cw_above=math.inf, screened=None):
        """Replace the integrating oracle by one that sustains above 0.0061
        (up to ``cw_above``, where it reports cw-like output) and records
        the kappa of every call, and the screen by one that agrees with it
        (recording its kappas in ``screened``, if given)."""
        seen, screened = [], [] if screened is None else screened

        def oracle(p, history, t_end, control=None):
            seen.append(p.kappa)
            if p.kappa > cw_above:
                return SimpleNamespace(classification=CW_LIKE)
            sustained = p.kappa > 0.0061
            return SimpleNamespace(classification=SUSTAINED_TRAIN if sustained else DECAY)

        def screen(p, history, level):
            screened.append(p.kappa)
            return 0.0061 < p.kappa <= cw_above

        monkeypatch.setattr(pulses, "classify_response", oracle)
        monkeypatch.setattr(pulses, "_regenerates", screen)
        return seen

    @pytest.mark.parametrize(
        "bracket, tol, calls, onset",
        [
            # bisection's six halvings leave hi - lo = 2.500000000000002e-4
            # > tol; the screen walks them to the cell [0.006, 0.00625],
            # whose decaying lower end settles the bracket's
            ((0.004, 0.02), 2.5e-4, 2, 0.006125),
            # the final cell [0, b] has the bracket's lower end as its own
            ((0.0, 1.0), 0.125, 2, 0.0625),
            ((0.0, 1.0), 0.1, 2, 0.03125),
        ],
    )
    def test_oracle_calls(self, monkeypatch, bracket, tol, calls, onset):
        # the final cell's ends; a decaying run settles the lower end, and
        # a sustained run inside the bracket the upper end
        seen = self.stub_oracle(monkeypatch)
        assert scan_kappa_min(preset("figure1"), 10.0, bracket, tol) == onset
        assert len(seen) == calls

    def test_screen_predicts_the_final_cell(self, monkeypatch):
        # bisection tests 0.012, 0.008, 0.006, 0.007, 0.0065, 0.00625 after
        # the endpoints; the screen walks the same points, and the full
        # runs certify the cell's lower end 0.006 (decays) and its upper
        # end 0.00625 (sustains), which decide every point of bisection's
        # path and both ends, so neither 0.004 nor 0.02 is run
        screened = []
        seen = self.stub_oracle(monkeypatch, screened=screened)
        scan_kappa_min(preset("figure1"), 10.0, (0.004, 0.02), 2.5e-4)
        want = [0.012, 0.008, 0.006, 0.007, 0.0065, 0.00625]
        assert screened == pytest.approx(want, rel=1e-12)
        assert seen == pytest.approx([0.006, 0.00625], rel=1e-12)

    def test_sustaining_lower_end_fails_at_once(self, monkeypatch):
        seen = self.stub_oracle(monkeypatch)
        with pytest.raises(InvalidArgumentError, match="lower bracket endpoint"):
            scan_kappa_min(preset("figure1"), 10.0, (0.007, 0.02), 1e-3)
        assert seen == [0.007]

    def test_decaying_upper_end_fails_after_the_search(self, monkeypatch):
        # nothing inside the bracket sustains, so the upper end is run last;
        # the decaying cell end 0.004 decides bisection's points 0.003, 0.004
        # and the lower end 0.001
        seen = self.stub_oracle(monkeypatch)
        with pytest.raises(InvalidArgumentError, match="upper bracket endpoint"):
            scan_kappa_min(preset("figure1"), 10.0, (0.001, 0.005), 1e-3)
        assert seen == pytest.approx([0.004, 0.005], rel=1e-12)

    @pytest.mark.parametrize("bracket, tol", [((0.004, 0.02), 2.5e-4), ((0.0, 1.0), 1e-3),
                                              ((0.006, 0.0062), 1e-5)])
    def test_upper_end_not_run_once_a_kappa_sustains(self, monkeypatch, bracket, tol):
        seen = self.stub_oracle(monkeypatch)
        scan_kappa_min(preset("figure1"), 10.0, bracket, tol)
        assert bracket[1] not in seen and max(seen) > 0.0061

    def test_upper_end_beyond_the_train_range(self, monkeypatch):
        # documented: a monotone oracle is assumed, and the upper end is
        # classified only when nothing inside the bracket sustains, so a
        # cw-like upper end (above the transcritical kappa = 0.3) does not
        # abort a scan that finds the onset inside the bracket
        seen = self.stub_oracle(monkeypatch, cw_above=0.3)
        onset = scan_kappa_min(preset("figure1"), 10.0, (0.004, 0.5), 1e-4)
        assert abs(onset - 0.0061) <= 1e-4
        assert 0.5 not in seen and max(seen) <= 0.3

    @staticmethod
    def scan_against_bisection(data, screen):
        """Scan a drawn bracket with a drawn monotone oracle and the screen
        ``screen(verdict)`` of the oracle's verdict on the screened kappa.

        Checks the onset against bisection's, bit for bit, and the order of
        the full runs; returns the full runs' verdicts, the number of
        upper-end runs and bisection's verdicts.
        """
        lo, hi = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2,
                                           unique=True)))
        assume(hi - lo >= 1e-20)
        tol = min(hi - lo, 10.0 ** data.draw(st.floats(-20.0, math.log10(hi - lo))))
        onset = data.draw(st.floats(lo, hi, exclude_max=True))

        seen, kappas, ref = [], [], []

        def oracle(p, history, t_end, control=None):
            kappas.append(p.kappa)
            seen.append(p.kappa > onset)
            return SimpleNamespace(classification=SUSTAINED_TRAIN if seen[-1] else DECAY)

        def reference(kappa):
            ref.append(kappa > onset)
            return ref[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pulses, "classify_response", oracle)
            mp.setattr(pulses, "_regenerates",
                       lambda p, history, level: screen(p.kappa > onset))
            mp.setattr(pulses, "single_pulse_seed", lambda p, control=None: None)
            mp.setattr(pulses, "_history_peak_intensity", lambda p, history: 1.0)
            got = scan_kappa_min(preset("figure1"), 10.0, (lo, hi), tol)
        want_lo, want_hi = bisect_kappa_min(reference, (lo, hi), tol)
        assert got == 0.5 * (want_lo + want_hi)
        # the upper end is run last, and only when nothing inside sustained;
        # the lower end only first, as the final cell's lower end (the
        # first full run), or last, when no full run decayed
        hi_runs = kappas.count(hi)
        assert hi_runs == (not any(seen[:len(seen) - hi_runs]))
        assert hi not in kappas[:-1]
        if lo in kappas:
            i = kappas.index(lo)
            assert kappas.count(lo) == 1
            assert i == 0 or (i == len(kappas) - 1 and all(seen[:i]))
        return seen, hi_runs, ref

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_bisection(self, data):
        # a screen that agrees with the oracle predicts bisection's final
        # cell: bisection's runs plus the lower end where it is the cell's,
        # plus the upper end where it was run, and no extra sustained run
        seen, hi_runs, ref = self.scan_against_bisection(data, lambda verdict: verdict)
        assert len(seen) <= len(ref) + 1 + 1 + hi_runs
        assert sum(seen) <= sum(ref) + hi_runs

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_adversarial_screen_matches_bisection(self, data):
        # arbitrary screening verdicts: at most two of the final cell's
        # ends and a late lower end, and the upper end, beyond bisection's
        # runs, and one sustained run beyond bisection's
        seen, hi_runs, ref = self.scan_against_bisection(
            data, lambda verdict: data.draw(st.booleans()))
        assert len(seen) <= len(ref) + 3 + hi_runs
        assert sum(seen) <= sum(ref) + 1
        # the bound scan_kappa_min's docstring gives
        assert len(seen) <= len(ref) + 2 + hi_runs

    def test_tolerance_below_float_spacing_ends(self, monkeypatch):
        # the bracket stops shrinking at adjacent floats; the scan must
        # still stop there
        seen = self.stub_oracle(monkeypatch)
        onset = scan_kappa_min(preset("figure1"), 10.0, (0.004, 0.02), 1e-20)
        assert abs(onset - 0.0061) < 1e-17
        assert len(seen) < 60

    def test_bracket_validation(self):
        p = preset("figure1")
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (0.02, 0.01), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (-0.1, 0.01), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 100.0, (0.004, 0.02), 0.0)
        with pytest.raises(InvalidArgumentError, match="got nan"):
            scan_kappa_min(p, 100.0, (0.004, 0.02), float("nan"))
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, -5.0, (0.004, 0.02), 1e-3)

    def test_bad_bracket_endpoints(self):
        p = preset("figure1")
        # both endpoints on the same side of the onset
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 50.0, (0.02, 0.05), 1e-3)
        with pytest.raises(InvalidArgumentError):
            scan_kappa_min(p, 50.0, (0.0005, 0.002), 1e-3)


class TestScreenControl:
    """The screen at its own loose step control, reading the sampled peak,
    changes no full run.

    Each scan of the CI configurations and of the benchmark bracket runs
    as ``scan_kappa_min`` and as ``pulses_reference.screened_scan``, the
    lower-end-first scan whose screen integrates at the caller's control.
    """

    SCANS = [
        (30.0, (0.004, 0.05), 1e-3),
        (50.0, (0.004, 0.02), 2.5e-4),
        (200.0, (0.004, 0.02), 1e-3),
        (200.0, (0.004, 0.02), 2.5e-4),
        (400.0, (0.004, 0.02), 2.5e-4),
    ]

    @pytest.fixture(scope="class")
    def scans(self):
        """For each scan and each of the two: the onset, the kappas of the
        full runs in call order and the nodes of all screening runs."""
        classify, integrate_ = pulses.classify_response, pulses.integrate
        verdicts, results = {}, {}

        def oracle(p, history, horizon, control=None):
            # both scans classify the same runs; each is integrated once
            full.append(p.kappa)
            if (p.tau, p.kappa) not in verdicts:
                verdicts[p.tau, p.kappa] = classify(p, history, horizon, control)
            return verdicts[p.tau, p.kappa]

        def counted(p, history, t_end, control=None):
            traj = integrate_(p, history, t_end, control)
            if t_end == pulses._SCREEN_DELAYS * p.tau:
                nodes.append(len(traj.t))
            return traj

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pulses, "classify_response", oracle)
            mp.setattr(pulses, "integrate", counted)
            mp.setattr(pulses_reference, "integrate", counted)
            for scan in self.SCANS:
                tau, bracket, tol = scan
                for name, run in (("reference", screened_scan), ("scan", scan_kappa_min)):
                    full, nodes = [], []
                    onset = run(preset("figure1", tau=tau), tau, bracket, tol)
                    results[scan, name] = onset, full, sum(nodes)
        return results

    @pytest.mark.parametrize("scan", SCANS)
    def test_same_onset_and_full_runs(self, scans, scan):
        onset, full, _ = scans[scan, "scan"]
        ref_onset, ref_full, _ = scans[scan, "reference"]
        assert onset == ref_onset
        # the reference classifies the lower end first; here a decaying
        # run of the search settles it
        assert ref_full[0] == scan[1][0]
        assert full == ref_full[1:]

    def test_screen_takes_half_the_nodes(self, scans):
        for scan in self.SCANS:
            if scan[0] == 200.0:
                assert scans[scan, "scan"][2] <= 0.5 * scans[scan, "reference"][2]
