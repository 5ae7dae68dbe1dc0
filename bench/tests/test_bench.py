"""Tests of the benchmark itself: checks, span analysis, inputs, tracing.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from yamada_delay import stability  # noqa: E402


def _check(items, outputs):
    return checks.check_outputs(items, outputs, checks.references(items))


def _scans():
    return [i for i in workloads.make_items("pulse-trains", 0) if i.kind == "scan"]


# ------------------------------------------------------------ inputs

def test_seed_zero_gives_the_named_points():
    assert [(i.id, i.kind, i.params) for i in workloads.make_items("pulse-trains", 0)] == [
        ("k1-tau200", "floquet", {"k": 1, "tau": 200.0, "kappa": 0.1}),
        ("k2-tau400", "floquet", {"k": 2, "tau": 400.0, "kappa": 0.1}),
        ("tau200", "scan", {"tau": 200.0}),
        ("tau400", "scan", {"tau": 400.0}),
    ]
    spectra = {i.id: (i.kind, i.params) for i in workloads.make_items("steady-spectra", 0)}
    assert spectra == {
        "off-tau50": ("roots_off", {"tau": 50.0, "kappa": 0.2}),
        "off-tau200": ("roots_off", {"tau": 200.0, "kappa": 0.2}),
        "generic-off-tau50": ("roots_generic", {"tau": 50.0, "kappa": 0.2, "state": "off"}),
        "generic-q-tau50": ("roots_generic", {"tau": 50.0, "kappa": 0.2, "state": "q"}),
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_jitter_inside_the_box(workload):
    named = workloads.make_items(workload, 0)
    assert workloads.make_items(workload, 7) == workloads.make_items(workload, 7)
    assert workloads.make_items(workload, 7) != workloads.make_items(workload, 8)
    for seed in range(1, 20):
        for base, item in zip(named, workloads.make_items(workload, seed)):
            assert item.id == base.id and item.kind == base.kind
            for key, value in base.params.items():
                if isinstance(value, float):
                    assert abs(item.params[key] / value - 1.0) <= workloads.JITTER
                else:
                    assert item.params[key] == value


# ------------------------------------------------------------ checks

def _floquet_output(mults):
    return {
        "multipliers": [{"re": float(m.real), "im": float(m.imag)} for m in mults],
        "N": 801,
        "trivial": {"re": float(mults[0].real), "im": float(mults[0].imag)},
        "period": 203.0,
    }


def test_checker_flags_a_multiplier_off_the_limit_curve():
    items = workloads.make_items("pulse-trains", 0)[:1]  # k = 1, limit 1/3
    good = [1.0 - 4e-6, 0.327, 0.32 + 0.05j, 0.32 - 0.05j, 0.2]
    assert _check(items, {"k1-tau200": _floquet_output(good)}) == {"k1-tau200": []}
    shifted = [1.0 - 4e-6, 0.6, 0.32 + 0.05j, 0.32 - 0.05j, 0.2]
    assert _check(items, {"k1-tau200": _floquet_output(shifted)})["k1-tau200"]
    extra_neutral = [1.0 - 4e-6, 0.99, 0.327, 0.2]
    assert _check(items, {"k1-tau200": _floquet_output(extra_neutral)})["k1-tau200"]


def test_checker_flags_kappa_min_out_of_band():
    items = _scans()

    def out(kmin, tau):
        return {"kappa_min": kmin, "tau": tau, "kappa_lo": 0.004, "kappa_hi": 0.02,
                "tol": 2.5e-4}

    ok = {"tau200": out(0.0061875, 200.0), "tau400": out(0.0061875, 400.0)}
    assert _check(items, ok) == {"tau200": [], "tau400": []}
    high = {"tau200": out(0.012, 200.0), "tau400": out(0.0061875, 400.0)}
    assert _check(items, high)["tau200"]
    growing = {"tau200": out(0.0050, 200.0), "tau400": out(0.0060, 400.0)}
    assert _check(items, growing)["tau400"] and not _check(items, growing)["tau200"]


def test_checker_flags_a_dropped_root(tmp_path):
    item = workloads.make_items("steady-spectra", 0)[0]  # roots_off at tau = 50
    workloads.run_item(item, tmp_path / "out.json")
    obj = json.loads((tmp_path / "out.json").read_text())
    assert _check([item], {item.id: obj}) == {item.id: []}
    assert len(obj["roots"]) == 160
    for key in ("roots", "residuals", "multiple"):
        del obj[key][5]
    problems = _check([item], {item.id: obj})[item.id]
    assert any("1 roots missed" in p for p in problems)


def test_lambert_reference_matches_the_root_finder():
    p = workloads.item_params(workloads.make_items("steady-spectra", 0)[0])
    ref = checks.off_roots_reference(p, workloads.WINDOW)
    found = stability.roots_off(p, workloads.WINDOW).roots
    assert checks.match_roots(found, ref, checks.REFERENCE_TOL) == (0, 0)
    assert checks.match_roots(found[1:], ref, checks.REFERENCE_TOL) == (1, 0)


def test_missing_output_is_a_failure():
    items = _scans()
    assert _check(items, {}) == {"tau200": ["no output"], "tau400": ["no output"]}


# ------------------------------------------------------------ spans

def _span(name, start, end, parent=None, **counts):
    return spans.Span(name, "item", parent, start, end, counts)


def test_self_time_subtracts_the_covered_part():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.5, 4.0, parent=0),  # overlaps a: covered once
        _span("c", 5.0, 6.0, parent=0),
        _span("d", 5.2, 5.7, parent=3),  # grandchild: not subtracted from root
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.5, 0.5, 0.5])


def test_layer_metrics_on_a_synthetic_settle():
    tree = [
        _span("pulses.settle_train", 0.0, 10.0),
        _span("pulses.single_pulse_seed", 0.0, 1.0, parent=0),
        _span("integrator.integrate", 0.0, 1.0, parent=1, steps=10, sim_time=100.0),
        _span("integrator.integrate", 1.0, 4.0, parent=0, steps=30, sim_time=300.0),
        _span("integrator.integrate", 5.0, 9.0, parent=0, steps=60, sim_time=600.0),
    ]
    m = spans.layer_metrics(tree)
    assert m["integrator.integrate.calls"] == 3
    assert m["integrator.integrate.busy_s"] == pytest.approx(8.0)
    assert m["integrator.integrate.steps"] == 100
    assert m["integrator.integrate.steps_per_s"] == pytest.approx(12.5)
    assert m["pulses.settle_train.self_s"] == pytest.approx(2.0)
    assert m["pulses.settle_train.trial_runs"] == 3
    assert m["pulses.settle_train.useful_sim_frac"] == pytest.approx(0.6)
    assert m["pulses.single_pulse_seed.busy_s"] == pytest.approx(1.0)
    assert m["floquet.monodromy_multipliers.N"] == 0


def test_traced_output_is_byte_identical(tmp_path):
    item = workloads.make_items("steady-spectra", 0)[0]
    workloads.run_item(item, tmp_path / "plain.json")
    recorder = spans.Recorder()
    recorder.item = item.id
    with spans.installed(recorder):
        workloads.run_item(item, tmp_path / "traced.json")
    assert not hasattr(stability.roots_off, "__wrapped__")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    names = [s.name for s in recorder.spans]
    assert names == ["stability.roots_off", "stability.classify_off", "_io.dump"]
    assert recorder.spans[0].counts["roots"] == 160
    assert recorder.spans[2].counts["bytes"] == (tmp_path / "traced.json").stat().st_size
    assert all(s.item == item.id and s.parent is None for s in recorder.spans)


# ------------------------------------------------------------ harness

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady-spectra", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ------------------------------------------------------------ probe

def test_probe_scales_wall_time_by_the_sampled_speed(monkeypatch):
    import time

    import probe

    # the loop takes twice its reference time: the CPU runs at half speed
    monkeypatch.setattr(probe, "loop_s", lambda: 2.0 * probe.PROBE_REF_S)
    with probe.Probe() as clock:
        deadline = time.perf_counter() + 2.5 * probe.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(clock.samples) >= 3  # entry, at least two alarms, exit
    assert clock.wall_s == pytest.approx(2.5 * probe.INTERVAL_S, rel=0.2)
    assert clock.scaled_s == pytest.approx(clock.wall_s / 2.0)
