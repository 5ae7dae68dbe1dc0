"""Floquet machinery: period map vs known spectra, multiplier structure."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse.linalg

from yamada_delay import (
    HistorySpec,
    InvalidArgumentError,
    NumericalError,
    PeriodicOrbit,
    SingularParameterError,
    State,
    acs,
    acs_max_modulus,
    extract_orbit,
    integrate,
    max_pulses,
    min_stable_delay,
    monodromy_multipliers,
    preset,
    roots_off,
    settle_train,
    single_pulse_seed,
)
from yamada_delay.floquet import _leading_eigs, _period_map, _step_maps

from floquet_reference import full_period_map, reduced_period_map


class TestConstantOrbitOracle:
    """A constant 'orbit' turns the period map into the linear semigroup.

    Its eigenvalues are exp(lambda T) over the characteristic roots
    lambda of the steady state, which the root finder supplies
    independently — a full cross-check of the discretization.
    """

    def test_semigroup_eigenvalues(self):
        p = preset("figure1", kappa=0.2, tau=5.0)
        T = 3.0
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
        orbit = PeriodicOrbit(traj, T, 1, p, traj.t1, 0.0)
        with pytest.warns(UserWarning):
            # a constant orbit has no translation symmetry, so the
            # "trivial multiplier far from 1" warning must fire
            fs = monodromy_multipliers(orbit, m=40)
        roots = roots_off(p, (-1.0, 0.5, -10.0, 10.0)).roots
        expected = np.exp(roots * T)
        expected = expected[np.argsort(-np.abs(expected))]
        for mu in expected[:6]:
            assert np.abs(fs.multipliers - mu).min() < 1e-3

    def test_semigroup_with_stencil_rows_reading_stencil_rows(self):
        # T < tau/2: a new node that still lies in the initial history
        # reads nodes that are themselves stencil rows; m < n - 2 takes
        # the ARPACK route through the two blocks
        p = preset("figure1", kappa=0.2, tau=10.0)
        T = 3.0
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
        orbit = PeriodicOrbit(traj, T, 1, p, traj.t1, 0.0)
        op = _period_map(orbit, 41, 0.05)
        n_shift = len(op.shift_w)
        assert n_shift > 0 and (op.shift_idx[:, 0] < n_shift).any()
        with pytest.warns(UserWarning):
            fs = monodromy_multipliers(orbit, m=12)
        assert fs.N == 41 and len(fs) == 12
        roots = roots_off(p, (-1.0, 0.5, -10.0, 10.0)).roots
        expected = np.exp(roots * T)
        expected = expected[np.argsort(-np.abs(expected))]
        for mu in expected[:6]:
            assert np.abs(fs.multipliers - mu).min() < 1e-3

    @staticmethod
    def constant_orbit():
        p = preset("figure1", kappa=0.2, tau=5.0)
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
        return PeriodicOrbit(traj, 3.0, 1, p, traj.t1, 0.0)

    def test_node_count_floor(self):
        with pytest.raises(InvalidArgumentError):
            monodromy_multipliers(self.constant_orbit(), N=4)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_march_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidArgumentError, match=f"step .*got {step!r}"):
            monodromy_multipliers(self.constant_orbit(), step=step)

    @pytest.mark.parametrize("m", [0, -3])
    def test_needs_at_least_one_multiplier(self, m):
        with pytest.raises(InvalidArgumentError, match=f"m = {m}"):
            monodromy_multipliers(self.constant_orbit(), m=m)

    def test_diagnostics(self):
        orbit = self.constant_orbit()
        with pytest.warns(UserWarning):
            fs = monodromy_multipliers(orbit, m=12)
        op = _period_map(orbit, fs.N, 0.05)
        d = fs.diagnostics
        assert d["N"] == fs.N == 21 and d["dim"] == fs.N + 2
        assert d["marched_columns"] == len(op.cols)
        assert d["stencil_rows"] == len(op.shift_w) > 0
        assert d["march_s"] > 0.0 and d["eig_s"] > 0.0
        assert d["eig_method"] == "arpack" and d["converged"] == 12
        assert d["trivial_defect"] == abs(fs.trivial - 1.0)
        # the default output carries none of it
        assert set(fs.to_json_obj()) == {"multipliers", "N", "trivial", "period"}
        with pytest.warns(UserWarning):
            dense = monodromy_multipliers(orbit, m=40)
        assert dense.diagnostics["eig_method"] == "dense"
        assert dense.diagnostics["converged"] == dense.N + 2


class TestPulseTrainMultipliers:
    def test_trivial_multiplier(self, floquet_sets):
        for (k, tau), fs in floquet_sets.items():
            assert abs(fs.trivial - 1.0) < 5e-3, (k, tau)

    def test_sorted_and_conjugate_closed(self, floquet_sets):
        for fs in floquet_sets.values():
            mods = np.abs(fs.multipliers)
            assert np.all(np.diff(mods) <= 1e-12)
            # near the m-th modulus the set is truncated mid-cluster, so
            # a conjugate partner may fall just outside the leading m
            for mu in fs.multipliers[mods > mods[-1] + 0.01]:
                if abs(mu.imag) > 1e-10:
                    assert np.abs(fs.multipliers - mu.conjugate()).min() < 1e-8

    def test_nontrivial_drops_closest_to_one(self, floquet_sets):
        for fs in floquet_sets.values():
            rest = fs.nontrivial()
            assert len(rest) == len(fs) - 1
            assert np.abs(rest - 1.0).min() >= abs(fs.trivial - 1.0) - 1e-15

    def test_near_unit_group_size(self, floquet_sets):
        # a k-pulse train carries exactly k almost-neutral modes: the
        # translation mode plus k-1 relative-phase modes
        for (k, tau), fs in floquet_sets.items():
            near = np.abs(np.abs(fs.multipliers) - 1.0) < 5e-2
            assert int(near.sum()) == k, (k, tau)

    def test_rest_strictly_inside(self, floquet_sets):
        for (k, tau), fs in floquet_sets.items():
            mods = np.abs(fs.multipliers)
            rest = mods[np.abs(mods - 1.0) >= 5e-2]
            assert rest.max() < 0.9, (k, tau)

    def test_interface_modulus(self, floquet_sets):
        # the largest genuinely contracting multiplier sits at the
        # spectrum edge (kappa/|A-B-1|)^(1/k)
        for (k, tau), fs in floquet_sets.items():
            mods = np.abs(fs.multipliers)
            rest = mods[np.abs(mods - 1.0) >= 5e-2]
            target = (0.1 / 0.3) ** (1.0 / k)
            assert abs(rest.max() - target) < 0.1, (k, tau)

    def test_multipliers_approach_acs(self, orbits, floquet_sets):
        # distance from the pseudo-continuous multipliers to the
        # limiting curve shrinks like C/tau; C calibrated once at 12
        for (k, tau), fs in floquet_sets.items():
            orbit = orbits[(k, tau)]
            delta0 = k * orbit.period - tau
            assert 0.0 < delta0 < 20.0
            curve = acs(orbit.params, delta0, k, np.linspace(-40.0, 40.0, 40001))
            curve_pts = curve.mu.ravel()
            mods = np.abs(fs.multipliers)
            bulk = fs.multipliers[(np.abs(mods - 1.0) >= 5e-2) & (mods >= 0.05)]
            assert len(bulk) > 10
            dists = np.abs(bulk[:, None] - curve_pts[None, :]).min(axis=1)
            assert dists.max() <= 12.0 / tau, (k, tau, dists.max())


class TestReducedPeriodMap:
    """The (N+2)-unknown map against the full 3N-unknown reference map."""

    def test_matches_full_history_map(self):
        p = preset("figure1", kappa=0.1, tau=30.0)
        orbit = settle_train(p, k=1)
        fs = monodromy_multipliers(orbit)
        assert fs.N == 121 and len(fs) == fs.N + 2
        full = _leading_eigs(full_period_map(orbit), 200)[0]
        # compare as sets: at the truncation modulus, clusters of equal
        # modulus are cut in a different order
        cut = max(abs(fs.multipliers[-1]), abs(full[-1])) + 1e-3
        for a, b in ((fs.multipliers, full), (full, fs.multipliers)):
            kept = a[np.abs(a) > cut]
            assert len(kept) > 100
            assert np.abs(kept[:, None] - b[None, :]).min(axis=1).max() <= 1e-10


def set_distance(a, b):
    """Largest distance from a multiplier of one set to the other set,
    over the multipliers above the truncation modulus (where clusters of
    equal modulus are cut in a different order)."""
    cut = max(abs(a[-1]), abs(b[-1])) + 1e-3
    dist = 0.0
    for x, y in ((a, b), (b, a)):
        kept = x[np.abs(x) > cut]
        assert len(kept) > 100
        dist = max(dist, np.abs(kept[:, None] - y[None, :]).min(axis=1).max())
    return dist


class TestStepMaps:
    def test_step_map_is_one_staged_rk4_step(self):
        rng = np.random.default_rng(11)
        h = 0.37
        a0, am, a1 = rng.standard_normal((3, 5, 3, 3))
        P, inj = _step_maps(a0, am, a1, h)
        e = np.array([0.0, 0.0, 1.0])
        for i in range(5):
            y = rng.standard_normal(3)
            u0, um, u1 = rng.standard_normal(3)
            k1 = a0[i] @ y + e * u0
            k2 = am[i] @ (y + 0.5 * h * k1) + e * um
            k3 = am[i] @ (y + 0.5 * h * k2) + e * um
            k4 = a1[i] @ (y + h * k3) + e * u1
            want = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            got = P[i] @ y + inj[i] @ np.array([u0, um, u1])
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestTwoBlockPeriodMap:
    """The two-block operator against the dense (N+2)-unknown reference map."""

    @pytest.fixture(scope="class")
    def orbit30(self):
        p = preset("figure1", kappa=0.1, tau=30.0)
        return settle_train(p, k=1)

    @pytest.fixture(scope="class")
    def cases(self, orbit30, orbits, floquet_sets):
        """(k, tau) -> (multipliers, two-block operator, dense reference map)."""
        sets = {(1, 30.0): (orbit30, monodromy_multipliers(orbit30))}
        sets.update({key: (orbit, floquet_sets[key]) for key, orbit in orbits.items()})
        return {
            key: (fs, _period_map(orbit, fs.N, 0.05), reduced_period_map(orbit))
            for key, (orbit, fs) in sets.items()
        }

    def test_matvec_and_dense_assembly(self, cases):
        rng = np.random.default_rng(5)
        for key, (fs, op, M) in cases.items():
            assert op.shape == M.shape
            assert np.abs(np.asarray(op) - M).max() <= 1e-13 * np.abs(M).max(), key
            for x in rng.standard_normal((3, len(M))):
                want = M @ x
                assert np.abs(op.matvec(x) - want).max() <= 1e-13 * np.abs(want).max(), key

    def test_step_coarser_than_node_spacing(self, orbit30):
        # step 0.6 against node spacing 0.5: the three lookups of one
        # step span more than one spacing, so the history window of a
        # step is wider than the four columns of one stencil
        op = _period_map(orbit30, 61, 0.6)
        M = reduced_period_map(orbit30, 61, 0.6)
        assert np.abs(np.asarray(op) - M).max() <= 1e-13 * np.abs(M).max()

    def test_stencil_rows_and_marched_columns(self, cases):
        # k = 2 (T < tau): about half the rows are stencils and the march
        # advances about half the basis histories; k = 1 marches them all
        for (k, tau), (fs, op, M) in cases.items():
            n = len(M)
            if k == 1:
                assert len(op.shift_w) == 0 and len(op.cols) == n
            else:
                assert 0.45 * n < len(op.shift_w) < 0.55 * n
                assert len(op.cols) < 0.55 * n

    def test_multipliers_match_dense_map_route(self, cases):
        # the eigen route of the dense map: eigvals up to 1000 unknowns,
        # ARPACK on the dense array above
        for key, (fs, op, M) in cases.items():
            if len(M) > 1000:
                ref = _leading_eigs(M, 200)[0]
            else:
                vals = np.linalg.eigvals(M)
                ref = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))][:200]
            assert set_distance(fs.multipliers, ref) <= 1e-10, key
            ref_trivial = ref[np.argmin(np.abs(ref - 1.0))]
            assert abs(abs(fs.trivial - 1.0) - abs(ref_trivial - 1.0)) <= 1e-10, key


class TestLeadingEigs:
    """Partial ARPACK convergence is reported, never silently truncated."""

    @staticmethod
    def stall_arpack(monkeypatch, n_converged):
        def eigs(M, k, **kwargs):
            vals = np.linspace(0.9, 0.1, n_converged).astype(complex)
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", vals, None)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", eigs)

    def test_partial_convergence_warns(self, monkeypatch):
        self.stall_arpack(monkeypatch, 60)
        with pytest.warns(UserWarning, match="converged for 60 of 200"):
            vals, method, converged = _leading_eigs(np.zeros((1001, 1001)), 200)
        assert len(vals) == converged == 60 and method == "arpack"

    def test_too_few_converged_raises(self, monkeypatch):
        self.stall_arpack(monkeypatch, 5)
        with pytest.raises(NumericalError):
            _leading_eigs(np.zeros((1001, 1001)), 200)


class TestOrbitExtraction:
    def test_period_and_pulse_count(self, orbits):
        for (k, tau), orbit in orbits.items():
            assert orbit.k == k
            assert orbit.residual < 1e-5
            # k pulses per delay: spacing near tau/k, plus regeneration lag
            assert tau / k < orbit.period < tau / k + 20.0

    def test_two_pulses_are_enough(self):
        # six pulses in the run: the last whole period starts the solve
        p = preset("figure1", kappa=0.1, tau=100.0)
        orbit = extract_orbit(integrate(p, single_pulse_seed(p), 600.0))
        assert orbit.k == 1
        assert abs(orbit.period - settle_train(p).period) < 1e-8

    def test_requires_positive_delay(self):
        p = preset("figure1", kappa=0.1, tau=0.0)
        traj = integrate(p, HistorySpec.off_plus_pulse(1.0, 1.0), 50.0)
        with pytest.raises(InvalidArgumentError):
            extract_orbit(traj)

    def test_rejects_pulse_free_tail(self):
        p = preset("figure1", kappa=0.1, tau=20.0)
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 100.0)
        with pytest.raises(InvalidArgumentError):
            extract_orbit(traj)

    def test_rejects_single_transient_pulse(self):
        # without feedback the kick fires once and the field dies
        p = preset("figure1", kappa=0.0, tau=20.0)
        traj = integrate(p, single_pulse_seed(p), 400.0)
        with pytest.raises(InvalidArgumentError):
            extract_orbit(traj)


class TestAsymptoticSpectrum:
    def test_defining_relation(self):
        p = preset("figure1", kappa=0.1, tau=200.0)
        for k in (1, 2, 3):
            curve = acs(p, 2.85, k, np.linspace(-10.0, 10.0, 201))
            assert curve.mu.shape == (201, k)
            assert curve.residuals().max() < 1e-12

    def test_conjugate_symmetry(self):
        p = preset("figure1", kappa=0.1, tau=200.0)
        for k in (1, 2):
            curve = acs(p, 2.85, k, np.linspace(-5.0, 5.0, 101))
            for i, w in enumerate(curve.omega):
                j = np.argmin(np.abs(curve.omega + w))
                mirrored = np.sort_complex(np.conj(curve.mu[j]))
                assert np.abs(np.sort_complex(curve.mu[i]) - mirrored).max() < 1e-12

    def test_max_modulus_at_zero_frequency(self):
        p = preset("figure1", kappa=0.1, tau=200.0)
        for k in (1, 2, 3):
            curve = acs(p, 2.85, k, np.linspace(-5.0, 5.0, 101))
            assert curve.max_modulus() == pytest.approx(acs_max_modulus(p, k), abs=1e-12)

    def test_max_modulus_monotone_in_k(self):
        p = preset("figure1", kappa=0.1)
        vals = [acs_max_modulus(p, k) for k in (1, 2, 3, 4)]
        assert vals[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert all(u < v < 1.0 for u, v in zip(vals, vals[1:]))

    def test_rejects_bad_k(self):
        p = preset("figure1", kappa=0.1)
        with pytest.raises(InvalidArgumentError):
            acs(p, 2.85, 0, [1.0])
        with pytest.raises(InvalidArgumentError):
            acs_max_modulus(p, 0)


class TestDelayBounds:
    def test_min_stable_delay_formula(self):
        p = preset("figure1", kappa=0.1)
        assert min_stable_delay(p, 1) == pytest.approx(1.5, abs=1e-12)
        r3 = (0.1 / 0.3) ** (1.0 / 3.0)
        assert min_stable_delay(p, 3) == pytest.approx(1.0 / (1.0 - r3), abs=1e-12)

    def test_min_stable_delay_unbounded(self):
        # feedback at or above the pump deficit: no delay stabilizes
        assert min_stable_delay(preset("figure1", kappa=0.3), 1) == math.inf
        assert min_stable_delay(preset("figure1", kappa=0.5), 2) == math.inf

    def test_max_pulses_working_point(self):
        p = preset("figure1", kappa=0.1)
        assert max_pulses(p, 100.0) == pytest.approx(100.0 * math.log(3.0), abs=1e-9)
        assert max_pulses(p, 200.0) == pytest.approx(2.0 * max_pulses(p, 100.0))

    def test_max_pulses_edge_cases(self):
        assert max_pulses(preset("figure1", kappa=0.0), 100.0) == math.inf
        assert max_pulses(preset("figure1", kappa=0.5), 100.0) < 0.0
        with pytest.raises(InvalidArgumentError):
            max_pulses(preset("figure1", kappa=0.1), 0.0)
        with pytest.raises(SingularParameterError):
            max_pulses(preset("figure1", B=5.5, kappa=0.1), 100.0)
