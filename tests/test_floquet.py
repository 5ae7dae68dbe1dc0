"""Floquet machinery: period map vs known spectra, multiplier structure."""

from __future__ import annotations

import math
import operator

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
from yamada_delay import floquet
from yamada_delay.floquet import _leading_eigs, _period_map, _step_maps

from floquet_reference import arpack_reference, full_period_map, reduced_period_map


def lifted(op):
    """How many block rows the lift takes to each row of a period map:
    0 for an interpolation row, 3 for a row sampled in a chunk, 1 for a
    row of the dense tail."""
    return np.diff(op.lift.indptr)


def stencil_rows(op):
    return int(np.count_nonzero(lifted(op) == 0))


def chunk_count(op):
    """The chunks of the march: each holds three block rows, which all of
    its rows read."""
    chunk_rows = np.repeat(lifted(op) == 3, lifted(op))
    return len(np.unique(op.lift.indices[chunk_rows])) // 3


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
        # the ARPACK route through the stored parts of the map
        p = preset("figure1", kappa=0.2, tau=10.0)
        T = 3.0
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
        orbit = PeriodicOrbit(traj, T, 1, p, traj.t1, 0.0)
        op = _period_map(orbit, 41, 0.05)
        n_shift = stencil_rows(op)
        assert n_shift > 0 and np.asarray(op)[:n_shift, :n_shift].any()
        with pytest.warns(UserWarning):
            fs = monodromy_multipliers(orbit, m=12)
        assert fs.N == 31 and len(fs) == 12
        roots = roots_off(p, (-1.0, 0.5, -10.0, 10.0)).roots
        expected = np.exp(roots * T)
        expected = expected[np.argsort(-np.abs(expected))]
        for mu in expected[:6]:
            assert np.abs(fs.multipliers - mu).min() < 1e-3

    def test_delay_shorter_than_the_step(self, monkeypatch):
        # tau = 0.04 < step = 0.05: the march takes steps shorter than the
        # delay, so no lookup reads a row it has not written.  Fresh
        # arrays are filled with NaN to show any such read, and the map
        # matches the reference march, which caps its step the same way.
        p = preset("figure1", kappa=0.2, tau=0.04)
        T = 3.0
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
        orbit = PeriodicOrbit(traj, T, 1, p, traj.t1, 0.0)
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind in "fc":
                out.fill(np.nan)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", nan_empty)
            M = np.asarray(_period_map(orbit, 8, 0.05))
        assert np.isfinite(M).all()
        ref = reduced_period_map(orbit, 8, 0.05)
        assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()
        with pytest.warns(UserWarning):
            fs = monodromy_multipliers(orbit, N=8, m=3)
        assert fs.diagnostics["march_step"] == T / 76 < p.tau
        # exp(lambda T) of the off state: its one real root and -gamma_G = -gamma_Q
        roots = roots_off(p, (-1.0, 0.5, -10.0, 10.0)).roots
        expected = sorted([math.exp(-p.gamma_G * T), *np.exp(roots.real * T)], reverse=True)
        assert fs.multipliers.real == pytest.approx(expected, abs=1e-9)
        assert np.abs(np.linalg.eigvals(M)).max() == pytest.approx(expected[0], abs=1e-9)

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

    def test_march_step_count_is_checked_before_allocating(self, monkeypatch):
        # 3e6 steps over T = 3: refused before the map's arrays exist
        def no_map(*args):
            raise RuntimeError("the period map was built")

        monkeypatch.setattr(floquet, "_period_map", no_map)
        orbit = self.constant_orbit()
        with pytest.raises(InvalidArgumentError, match=r"march step 1e-06 takes 3000000 steps"):
            monodromy_multipliers(orbit, step=1e-6)
        # the ceiling itself is allowed
        monkeypatch.setattr(floquet, "_MAX_MARCH_STEPS", 60)
        with pytest.raises(InvalidArgumentError, match="takes 62 steps .* more than 60"):
            monodromy_multipliers(orbit, step=0.049)
        with pytest.raises(RuntimeError, match="was built"):
            monodromy_multipliers(orbit, step=0.05)

    @pytest.mark.parametrize("kwargs, name", [({"N": 121.5}, "N"), ({"N": np.True_}, "N"),
                                              ({"m": 8.0}, "m"), ({"m": True}, "m")])
    def test_counts_must_be_integers(self, kwargs, name):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer, got"):
            monodromy_multipliers(self.constant_orbit(), **kwargs)

    def test_numpy_integer_counts(self):
        with pytest.warns(UserWarning):
            fs = monodromy_multipliers(self.constant_orbit(), N=np.int64(16), m=np.int32(12))
        assert fs.N == 16 and len(fs) == 12

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
        assert d["N"] == fs.N == 16 and d["dim"] == fs.N + 2
        assert d["marched_columns"] == len(op.cols)
        assert d["stencil_rows"] == stencil_rows(op) > 0
        assert d["march_s"] > 0.0 and d["eig_s"] > 0.0
        assert d["eig_method"] == "arpack" and d["converged"] == 12
        assert 0 < d["matvecs"] <= 2 * 12 + 2
        assert 0.0 < d["ritz_s"] < d["eig_s"]
        assert d["trivial_defect"] == abs(fs.trivial - 1.0)
        assert d["map_bytes"] == op.nbytes
        assert d["march_step"] == 3.0 / 60
        assert d["chunks"] == chunk_count(op) > 0
        assert d["band_nnz"] == op.band.nnz > 0
        # the default output carries none of it
        assert set(fs.to_json_obj()) == {"multipliers", "N", "trivial", "period"}
        with pytest.warns(UserWarning):
            dense = monodromy_multipliers(orbit, m=40)
        assert dense.diagnostics["eig_method"] == "dense"
        assert dense.diagnostics["converged"] == dense.N + 2
        assert dense.diagnostics["matvecs"] == 0
        assert dense.diagnostics["ritz_s"] == 0.0


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


class TestGridConvergence:
    """The default grid against the same map at a quarter of its spacing."""

    @pytest.fixture(scope="class")
    def quarter_spacing(self, orbits, floquet_sets):
        """(k, tau) -> 220 leading multipliers on 4 (N - 1) + 1 nodes, so
        that a multiplier cut at the 200th place of the default set still
        finds its match."""
        return {key: monodromy_multipliers(orbit, N=4 * (floquet_sets[key].N - 1) + 1,
                                           m=220).multipliers
                for key, orbit in orbits.items()}

    def test_default_grid_error(self, floquet_sets, quarter_spacing):
        # the bounds stated in monodromy_multipliers' docstring; measured
        # at most 2.0e-5 (leading 50), 7.0e-4 (all 200) and 2.0e-5 (trivial)
        for key, fs in floquet_sets.items():
            assert fs.N == math.ceil(3.0 * key[1]) + 1, key
            fine = quarter_spacing[key]
            dist = np.abs(fs.multipliers[:, None] - fine[None, :]).min(axis=1)
            assert len(dist) == 200 and dist[:50].max() <= 3e-5, key
            assert dist.max() <= 1e-3, key
            assert fs.diagnostics["trivial_defect"] < 3e-5, key


class TestReducedPeriodMap:
    """The (N+2)-unknown map against the full 3N-unknown reference map."""

    def test_matches_full_history_map(self):
        p = preset("figure1", kappa=0.1, tau=30.0)
        orbit = settle_train(p, k=1)
        fs = monodromy_multipliers(orbit, N=121)
        assert len(fs) == fs.N + 2
        full = _leading_eigs(full_period_map(orbit, 121), 200)[0]
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


class TestStencils:
    def test_reproduce_quintics(self):
        # six-point Lagrange stencils are exact on every polynomial of
        # degree <= 5, also where they are clamped at the ends of the grid
        n_nodes, spacing = 13, 0.5
        nodes = spacing * np.arange(n_nodes)
        s = np.concatenate([np.linspace(0.0, nodes[-1], 97), nodes, [1e-13, nodes[-1] - 1e-13]])
        j0, w = floquet._lagrange_stencils(s, n_nodes, spacing)
        assert w.shape == (len(s), 6)
        assert {0, n_nodes - 6} <= set(j0.tolist())
        assert (j0 >= 0).all() and (j0 <= n_nodes - 6).all()
        assert (nodes[j0] <= s).all() and (s <= nodes[j0 + 5]).all()
        # centred: away from the ends, s lies between the middle two nodes
        inner = (s >= 2.0 * spacing) & (s < nodes[-1] - 2.0 * spacing)
        assert ((nodes[j0 + 2] <= s) & (s <= nodes[j0 + 3]))[inner].all()
        stencil_nodes = nodes[j0[:, None] + np.arange(6)]
        for degree in range(6):
            def poly(x):
                return ((x - 2.9) / 3.0) ** degree
            got = (w * poly(stencil_nodes)).sum(axis=1)
            assert np.abs(got - poly(s)).max() <= 1e-12, degree


class TestTwoBlockPeriodMap:
    """The operator (interpolation rows plus the causal parts of the
    marched rows) against the dense (N+2)-unknown reference map."""

    @pytest.fixture(scope="class")
    def orbit30(self):
        p = preset("figure1", kappa=0.1, tau=30.0)
        return settle_train(p, k=1)

    @pytest.fixture(scope="class")
    def cases(self, orbit30, orbits, floquet_sets, period_maps):
        """(k, tau) -> (multipliers, operator, dense reference map)."""
        # 121 nodes, so that more than 100 multipliers lie above the cut
        fs30 = monodromy_multipliers(orbit30, N=121)
        out = {(1, 30.0): (fs30, _period_map(orbit30, 121, 0.05), reduced_period_map(orbit30, 121))}
        out.update({key: (floquet_sets[key], period_maps[key][0], reduced_period_map(orbit))
                    for key, orbit in orbits.items()})
        return out

    def test_matvec_and_dense_assembly(self, cases):
        rng = np.random.default_rng(5)
        for key, (fs, op, M) in cases.items():
            assert op.shape == M.shape
            assert np.abs(np.asarray(op) - M).max() <= 1e-13 * np.abs(M).max(), key
            for x in rng.standard_normal((3, len(M))):
                want = M @ x
                assert np.abs(op @ x - want).max() <= 1e-13 * np.abs(want).max(), key

    def test_step_coarser_than_node_spacing(self, orbit30):
        # step 0.6 against node spacing 0.5: the three lookups of one
        # step span more than one spacing, so the history window of a
        # step is wider than the six columns of one stencil
        op = _period_map(orbit30, 61, 0.6)
        M = reduced_period_map(orbit30, 61, 0.6)
        assert np.abs(np.asarray(op) - M).max() <= 1e-13 * np.abs(M).max()

    def test_impossible_size_fails_before_the_march(self, orbits, monkeypatch):
        # the block of chunk states (2000 chunks of 3 x 10^7 here, 480 TB)
        # is allocated as soon as its shape is known, before the history
        # windows, the bands and the sample weights
        def built(*args):
            raise AssertionError("history windows built before the block was allocated")

        monkeypatch.setattr(floquet, "_history_windows", built)
        with pytest.raises(MemoryError):
            _period_map(orbits[(1, 200.0)], 10_000_000, 0.05)

    def test_matvec_matches_assembled_map(self, cases):
        # a block product with the stored parts against the reference
        # map's, column by column
        rng = np.random.default_rng(8)
        for key, (fs, op, M) in cases.items():
            X = rng.standard_normal((len(M), 5))
            want = M @ X
            got = op @ X
            assert got.shape == want.shape, key
            assert (np.abs(got - want).max(axis=0) <= 1e-13 * np.abs(want).max(axis=0)).all(), key

    def test_zero_right_of_front(self, cases):
        # the reference march knows nothing of the layout: each marched row
        # of it and of the assembled map is exactly zero right of the same
        # front, save the last-node columns.  Past what the lift makes of
        # the block, a marched row is its band row, which reads marched
        # columns only and stores no zeros; a chunk's band rows read a
        # window of columns that moves forward with the chunks.
        for key, (fs, op, M) in cases.items():
            n_shift = stencil_rows(op)
            last = [np.array([np.flatnonzero(row).max() for row in A[n_shift:, :-3]])
                    for A in (M, np.asarray(op))]
            assert np.array_equal(last[0], last[1]), key
            assert (last[0] <= len(op.cols) - 4).all(), key
            scale = np.abs(M).max()
            band = op.band.toarray()[n_shift:]
            rest = M[n_shift:][:, op.cols] - (op.lift @ op.block)[n_shift:]
            assert np.abs(rest - band[:, op.cols]).max() <= 1e-13 * scale, key
            assert not np.delete(band, op.cols, axis=1).any(), key
            assert (op.band.data != 0.0).all() and op.band.has_canonical_format, key
            in_chunk = lifted(op)[n_shift:] == 3
            assert not band[~in_chunk].any(), key  # the dense tail lies in the block
            chunk = op.lift.indices[op.lift.indptr[n_shift:-1][in_chunk]] // 3
            reach = [np.flatnonzero(band[in_chunk][chunk == a].any(axis=0)) for a in np.unique(chunk)]
            reach = [r for r in reach if len(r)]
            assert np.all(np.diff([r[0] for r in reach]) >= 0), key
            assert np.all(np.diff([r[-1] for r in reach]) >= 0), key
            assert max(r[-1] - r[0] for r in reach) < len(op.cols) // 2, key

    def test_chunk_boundaries(self):
        # against the reference march on constant orbits whose chunks
        # (length B from the rule sqrt(3 n_hist spacing / h)) split the
        # march unevenly: a row sampled exactly at a chunk start and at
        # t = 0, a last chunk shorter than B, and fewer history steps
        # than B with stencil rows clamped at both ends of the grid
        for tau, N, step in ((10.0, 41, 0.05), (10.0, 41, 0.04), (30.0, 8, 0.05)):
            p = preset("figure1", kappa=0.2, tau=tau)
            traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 20.0)
            orbit = PeriodicOrbit(traj, 3.0, 1, p, traj.t1, 0.0)
            n_hist = math.ceil(3.0 / step)  # T < tau: every step reads the history
            h, spacing = 3.0 / n_hist, tau / (N - 1)
            B = round(math.sqrt(3.0 * n_hist * spacing / h))
            op = _period_map(orbit, N, step)
            assert chunk_count(op) == math.ceil(n_hist / B)
            if step == 0.05 and tau == 10.0:
                sampled = 3.0 - tau + spacing * np.arange(N)
                assert n_hist % B == 0 and np.isclose(sampled, B * h, rtol=0, atol=1e-12).any()
                assert np.isclose(sampled, 0.0, rtol=0, atol=1e-12).any()
            elif tau == 10.0:
                assert 0 < n_hist % B
            else:
                # the first stencil column of each interpolation row
                n_shift = stencil_rows(op)
                assert (np.diff(op.band.indptr[:n_shift + 1]) == 6).all()
                j0 = op.band.indices[op.band.indptr[:n_shift]]
                assert n_hist < B and 3.0 < spacing and {0, N - 6} <= set(j0.tolist())
            M = reduced_period_map(orbit, N, step)
            assert np.abs(np.asarray(op) - M).max() <= 1e-13 * np.abs(M).max(), (tau, N, step)
            for x in np.random.default_rng(3).standard_normal((3, len(M))):
                want = M @ x
                assert np.abs(op @ x - want).max() <= 1e-13 * np.abs(want).max(), (tau, N, step)

    def test_build_reads_only_written_entries(self, orbits, period_maps, monkeypatch):
        # every buffer the build takes from np.empty (the step maps, the
        # chunk states, the stored rows, the three lookup rows a step
        # reuses, ...) is written before it is read: built from buffers
        # that start as NaN, the map is the session map, bit for bit
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *args, **kw: np.full_like(empty(*args, **kw), np.nan))
        for key, (op, _) in period_maps.items():
            dirty = _period_map(orbits[key], op.shape[0] - 2, 0.05)
            for name in ("band.data", "band.indices", "band.indptr", "lift.data", "lift.indices",
                         "lift.indptr", "block", "cols"):
                got, want = (operator.attrgetter(name)(o) for o in (dirty, op))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (key, name)

    def test_stored_bytes(self, period_maps, floquet_sets):
        # about half of the dense block of marched rows on marched columns
        for key, (op, _) in period_maps.items():
            block = (op.shape[0] - stencil_rows(op)) * len(op.cols) * 8
            assert op.nbytes <= 0.55 * block, key
            assert floquet_sets[key].diagnostics["map_bytes"] == op.nbytes, key

    def test_map_at_node_cap(self):
        # N = 4000 with T > tau, so every row is marched: the dense map
        # would take 128 MB, its causal lower triangle about 64 MB
        p = preset("figure1", kappa=0.1, tau=1000.0)
        traj = integrate(p, HistorySpec.constant(State(p.A, p.B, 0.0)), 1010.0)
        op = _period_map(PeriodicOrbit(traj, 1003.0, 1, p, traj.t1, 0.0), 4000, 0.05)
        assert op.shape == (4002, 4002) and stencil_rows(op) == 0
        assert op.nbytes <= 16e6

    def test_stencil_rows_and_marched_columns(self, cases):
        # k = 2 (T < tau): about half the rows are stencils and the march
        # advances about half the basis histories; k = 1 marches them all
        for (k, tau), (fs, op, M) in cases.items():
            n = len(M)
            if k == 1:
                assert stencil_rows(op) == 0 and len(op.cols) == n
            else:
                assert 0.45 * n < stencil_rows(op) < 0.55 * n
                assert len(op.cols) < 0.55 * n

    @pytest.fixture(scope="class")
    def dense_route(self, cases):
        """(k, tau) -> the 200 leading eigenvalues of the dense reference
        map, in the documented order: eigvals up to 1000 unknowns, ARPACK
        at machine precision above.  ARPACK computes 201, so that a
        conjugate pair cut at the 200th place is computed whole."""
        out = {}
        for key, (fs, op, M) in cases.items():
            if len(M) > 1000:
                vals = arpack_reference(M, m=201)
            else:
                vals = np.linalg.eigvals(M)
            out[key] = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))][:200]
        return out

    def test_multipliers_match_dense_map_route(self, cases, dense_route):
        for key, (fs, op, M) in cases.items():
            ref = dense_route[key]
            assert set_distance(fs.multipliers, ref) <= 1e-10, key
            ref_trivial = ref[np.argmin(np.abs(ref - 1.0))]
            assert abs(abs(fs.trivial - 1.0) - abs(ref_trivial - 1.0)) <= 1e-10, key

    def test_cut_keeps_positive_member_of_split_pair(self, cases, dense_route):
        # on the session orbits the 200th and 201st multipliers form one
        # conjugate pair; the documented order keeps its +imag member,
        # whichever member ARPACK returned
        for key, (fs, op, M) in cases.items():
            assert abs(fs.multipliers[-1] - dense_route[key][-1]) <= 1e-10, key
            if key[1] >= 200.0:
                assert fs.multipliers[-1].imag > 0.0, key


class TestEigenStoppingRule:
    """ARPACK stopped at the accuracy of the map against the solve at
    machine precision."""

    def test_matches_machine_precision_solve(self, floquet_sets, period_maps):
        # the member of a near-equal-modulus cluster kept at the m-th
        # place may differ, so compare as sets
        for key, (op, ref) in period_maps.items():
            fs = floquet_sets[key]
            assert set_distance(fs.multipliers, ref) <= 1e-12, key
            ref_trivial = ref[np.argmin(np.abs(ref - 1.0))]
            assert abs(fs.trivial - ref_trivial) <= 1e-13, key

    def test_ill_conditioned_cluster_against_dense(self, floquet_sets, period_maps):
        # The leading multipliers of (1, 400) near 1/3 form an ill-conditioned
        # cluster: the summation order of the products moves them by 1e-11,
        # and the machine-precision solve above follows ARPACK's own Krylov
        # sequence.  Dense eigvals of the same operator is a reference
        # outside ARPACK; it lies 2.1e-10 away.
        op, _ = period_maps[(1, 400.0)]
        dense = np.linalg.eigvals(np.asarray(op))
        dense = dense[np.argsort(-np.abs(dense))]
        arpack = floquet_sets[(1, 400.0)].multipliers
        for x, y in ((arpack[:30], dense), (dense[:30], arpack)):
            assert np.abs(x[:, None] - y[None, :]).min(axis=1).max() <= 1e-9

    @pytest.mark.parametrize("key", [(1, 200.0), (2, 400.0)])
    def test_few_multipliers(self, orbits, floquet_sets, key):
        # ARPACK keeps at least 64 Arnoldi vectors, so a small m costs a
        # few hundred products and finds the leading multipliers of the
        # default set.  The (1, 400) orbit is left out: its leading
        # multipliers near 1/3 form the ill-conditioned cluster, which
        # moves by 2e-10 with the Krylov sequence.
        fs = monodromy_multipliers(orbits[key], m=8)
        assert len(fs) == 8 and fs.diagnostics["converged"] >= 8
        assert np.abs(fs.multipliers - floquet_sets[key].multipliers[:8]).max() <= 1e-12
        assert 0 < fs.diagnostics["matvecs"] <= 5 * 64

    @pytest.mark.parametrize("tau", [200.0, 400.0])
    def test_one_arnoldi_cycle(self, floquet_sets, tau):
        # k = 2 puts the 200th multiplier inside the dense cluster of the
        # asymptotic continuous spectrum, where a restart is most likely
        d = floquet_sets[(2, tau)].diagnostics
        m = len(floquet_sets[(2, tau)])
        assert d["eig_method"] == "arpack" and m == 200
        assert 0 < d["matvecs"] <= 2 * m + 2


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
            vals, method, converged, matvecs, ritz_s = _leading_eigs(np.zeros((1001, 1001)), 200)
        assert len(vals) == converged == 60 and method == "arpack"
        assert matvecs == 0 and ritz_s >= 0.0  # the stand-in made no product

    @pytest.mark.parametrize("found, want", [
        ([0.9, 0.5 - 0.1j], [0.9, 0.5 + 0.1j]),  # the pair cut: +imag kept
        ([0.5 - 0.1j, 0.5 + 0.1j], [0.5 + 0.1j, 0.5 - 0.1j]),  # both kept
        ([0.9, 0.5 + 0.1j], [0.9, 0.5 + 0.1j]),
        ([0.9, -0.5], [0.9, -0.5]),
    ])
    def test_split_pair_at_the_cut(self, monkeypatch, found, want):
        monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                            lambda M, k, **kwargs: np.array(found, dtype=complex))
        vals, method, converged, *_ = _leading_eigs(np.zeros((50, 50)), 2)
        assert method == "arpack" and converged == 2
        assert vals.tolist() == want

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
        for tau in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError):
                max_pulses(preset("figure1", kappa=0.1), tau)
        with pytest.raises(SingularParameterError):
            max_pulses(preset("figure1", B=5.5, kappa=0.1), 100.0)
