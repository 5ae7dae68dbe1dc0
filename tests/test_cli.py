"""Command-line contract: payloads, config merging, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import yamada_delay
from yamada_delay import cli
from yamada_delay.cli import main


def run_ok(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    return out.out


def run_json(capsys, argv):
    return json.loads(run_ok(capsys, argv))


def run_csv(capsys, argv):
    rows = list(csv.reader(io.StringIO(run_ok(capsys, argv + ["--format", "csv"]))))
    return rows[0], rows[1:]


def run_fail(capsys, argv, code):
    assert main(argv) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err != ""
    return out.err


class TestPreset:
    def test_working_point(self, capsys):
        d = run_json(capsys, ["preset"])
        assert d == {
            "name": "figure1", "A": 6.5, "B": 5.8, "a": 1.8,
            "gamma_G": 0.04, "gamma_Q": 0.04, "kappa": 0.0, "tau": 0.0,
        }

    def test_unknown_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "--name", "bogus"])
        assert exc.value.code == 2


class TestBounds:
    def test_formula_values(self, capsys):
        # (kappa/|A-B-1|)^{1/k} at kappa=0.1, k=3, and the delay-line
        # pulse capacity tau ln 3 at tau=100
        d = run_json(capsys, ["bounds", "--kappa", "0.1", "--k", "3", "--tau", "100"])
        assert d["acs_max_modulus"] == pytest.approx((1.0 / 3.0) ** (1.0 / 3.0), abs=1e-12)
        assert d["min_stable_delay"] == pytest.approx(
            1.0 / (1.0 - (1.0 / 3.0) ** (1.0 / 3.0)), abs=1e-9)
        assert d["max_pulses"] == pytest.approx(100.0 * math.log(3.0), abs=1e-9)
        assert d["kappa_transcritical"] == pytest.approx(0.3, abs=1e-12)

    def test_unbounded_delay_serialized(self, capsys):
        d = run_json(capsys, ["bounds", "--kappa", "0.5", "--tau", "100"])
        assert d["min_stable_delay"] == "inf"


class TestExcite:
    def test_sustained_train(self, capsys):
        d = run_json(capsys, ["excite", "--kappa", "0.01", "--tau", "100"])
        assert d["classification"] == "sustained-train"
        assert d["k"] == 1
        assert 0.0 < d["delta"] < 20.0
        assert d["n_pulses"] == len(d["pulse_times"]) == len(d["heights"])

    def test_csv_one_row_per_pulse(self, capsys):
        argv = ["excite", "--kappa", "0.01", "--tau", "100", "--horizon", "2000"]
        d = run_json(capsys, argv)
        header, rows = run_csv(capsys, argv)
        assert header == ["pulse_index", "pulse_time", "height", "classification",
                          "k", "period", "delta"]
        assert len(rows) == d["n_pulses"] > 2
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert [float(r[1]) for r in rows] == d["pulse_times"]
        assert {r[3] for r in rows} == {"sustained-train"}
        assert {(int(r[4]), float(r[5]), float(r[6])) for r in rows} == {
            (d["k"], d["period"], d["delta"])}

    def test_decay_below_onset(self, capsys):
        d = run_json(capsys, ["excite", "--kappa", "0.005", "--tau", "100"])
        assert d["classification"] == "decay"
        assert d["k"] is None

    def test_short_horizon_rejected(self, capsys):
        err = run_fail(capsys, ["excite", "--kappa", "0.01", "--tau", "100",
                                "--horizon", "100"], 2)
        assert "horizon" in err

    def test_nan_horizon_rejected(self, capsys):
        err = run_fail(capsys, ["excite", "--kappa", "0.01", "--tau", "100",
                                "--horizon", "nan"], 2)
        assert "horizon must be at least 20 * max(tau, 1) = 2000, got nan" in err

    @pytest.mark.parametrize("option", ["--atol", "--rtol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, capsys, option, value):
        err = run_fail(capsys, ["excite", "--kappa", "0.1", "--tau", "50",
                                option, value], 2)
        assert "finite" in err

    @pytest.mark.parametrize("option, value, word", [
        ("--width", "nan", "width"), ("--amplitude", "nan", "amplitude"),
        ("--amplitude", "inf", "amplitude"),
    ])
    def test_non_finite_kick_rejected(self, capsys, option, value, word):
        err = run_fail(capsys, ["excite", "--kappa", "0.1", "--tau", "50",
                                "--horizon", "1000", option, value], 2)
        assert word in err


class TestSimulate:
    def test_negative_delay_rejected(self, capsys):
        err = run_fail(capsys, ["simulate", "--tau", "-5", "--t-end", "50"], 2)
        assert "delay" in err

    def test_missing_horizon_rejected(self, capsys):
        err = run_fail(capsys, ["simulate", "--tau", "10"], 2)
        assert "t_end" in err

    def test_nan_horizon_rejected(self, capsys):
        err = run_fail(capsys, ["simulate", "--tau", "10", "--t-end", "nan"], 2)
        assert "t_end must be positive and finite, got nan" in err

    def test_off_history_stays_off(self, capsys):
        d = run_json(capsys, ["simulate", "--kappa", "0.1", "--tau", "10",
                              "--history", "off", "--t-end", "20"])
        assert max(abs(v) for v in d["I"]) == 0.0

    def test_sample_grid(self, capsys):
        d = run_json(capsys, ["simulate", "--kappa", "0.1", "--tau", "10",
                              "--t-end", "20", "--dt", "2"])
        assert d["t"] == pytest.approx(np.arange(0.0, 20.1, 2.0))
        assert len(d["G"]) == len(d["t"])

    def test_nan_sample_spacing_rejected(self, capsys):
        err = run_fail(capsys, ["simulate", "--tau", "10", "--t-end", "20", "--dt", "nan"], 2)
        assert "sampling interval must be positive, got nan" in err

    def test_csv_matches_json_exactly(self, capsys):
        argv = ["simulate", "--kappa", "0.1", "--tau", "10", "--t-end", "20",
                "--dt", "2"]
        d = run_json(capsys, argv)
        header, rows = run_csv(capsys, argv)
        assert header == ["t", "G", "Q", "I"]
        assert len(rows) == len(d["t"])
        for row, t, g, q, i in zip(rows, d["t"], d["G"], d["Q"], d["I"]):
            # full round-trip precision: CSV text parses back bit-equal
            assert [float(v) for v in row] == [t, g, q, i]


class TestSpectrum:
    def test_off_state_payload(self, capsys):
        d = run_json(capsys, ["spectrum", "--kappa", "0.2", "--tau", "50"])
        assert d["state"] == "off"
        assert d["classification"] == "stable"
        assert len(d["roots"]) == len(d["residuals"]) == len(d["multiple"])
        assert max(r["re"] for r in d["roots"]) < 0.0

    def test_lasing_state_payload(self, capsys):
        d = run_json(capsys, ["spectrum", "--kappa", "0.05", "--tau", "20",
                              "--state", "q"])
        assert d["state"] == "q"
        assert "classification" not in d

    def test_missing_state_is_numerical_failure(self, capsys):
        # below the fold the lasing pair does not exist
        err = run_fail(capsys, ["spectrum", "--A", "5.9", "--kappa", "0.08",
                                "--state", "p"], 3)
        assert "does not exist" in err

    def test_long_delay_missed_roots_are_numerical_failure(self, capsys):
        err = run_fail(capsys, ["spectrum", "--kappa", "0.2", "--tau", "3000"], 3)
        assert "miss the residual bound" in err

    def test_lasing_roots_next_to_the_poles_are_numerical_failure(self, capsys):
        err = run_fail(capsys, ["spectrum", "--state", "q", "--kappa", "0.2",
                                "--tau", "200"], 3)
        assert "2 of 639 lasing-state roots" in err
        assert "narrow the window" in err

    @pytest.mark.parametrize("state", ["off", "q"])
    def test_too_many_branches_rejected(self, capsys, state):
        # 1.6e8 delay branches: refused before their seeds are allocated
        err = run_fail(capsys, ["spectrum", "--state", state, "--kappa", "0.2", "--tau", "50",
                                "--im-min=-1e7", "--im-max=1e7"], 2)
        assert "narrow the window" in err

    def test_csv_header(self, capsys):
        header, rows = run_csv(capsys, ["spectrum", "--kappa", "0.2", "--tau", "50"])
        assert header == ["re", "im", "residual", "multiple"]
        assert len(rows) > 5


class TestHopf:
    def test_csv_shape(self, capsys):
        header, rows = run_csv(capsys, ["hopf", "--omega-count", "40"])
        assert header == ["omega", "kappa", "tau", "branch_index", "residual"]
        assert len(rows) > 40
        for row in rows:
            assert float(row[4]) < 1e-10
            assert int(row[3]) in (-2, -1, 0, 1, 2)

    def test_negative_count_rejected(self, capsys):
        err = run_fail(capsys, ["hopf", "--omega-count", "-1"], 2)
        assert "--omega-count must not be negative, got -1" in err

    def test_json_points(self, capsys):
        d = run_json(capsys, ["hopf", "--omega-count", "40"])
        c = 0.3
        for pt in d["points"]:
            assert pt["kappa"] == pytest.approx(math.hypot(pt["omega"], c), abs=1e-12)


class TestFloquet:
    def test_short_delay_train(self, capsys):
        header, rows = run_csv(capsys, ["floquet", "--kappa", "0.1", "--tau", "30"])
        assert header == ["mu_re", "mu_im", "modulus"]
        mods = np.array([float(r[2]) for r in rows])
        mu0 = complex(float(rows[0][0]), float(rows[0][1]))
        assert abs(mu0 - 1.0) < 1e-3
        assert np.all(np.diff(mods) <= 1e-12)
        assert np.all(mods[1:] < 0.9)

    def test_needs_positive_delay(self, capsys):
        run_fail(capsys, ["floquet", "--kappa", "0.1"], 2)

    def test_no_periods_option(self, capsys):
        # the orbit is exactly periodic: its length changes no output
        with pytest.raises(SystemExit) as exc:
            main(["floquet", "--kappa", "0.1", "--tau", "30", "--periods", "6"])
        assert exc.value.code == 2
        assert "--periods" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, named", [
        ("--step", "0", "step must be positive and finite, got 0.0"),
        ("--step", "-1", "got -1.0"),
        ("--step", "nan", "got nan"),
        ("--step", "inf", "got inf"),
        ("--n-multipliers", "0", "need at least 1 multiplier, got m = 0"),
        ("--n-multipliers", "-3", "got m = -3"),
    ])
    def test_bad_march_arguments_rejected(self, capsys, option, value, named):
        err = run_fail(capsys, ["floquet", "--kappa", "0.1", "--tau", "30", option, value], 2)
        assert named in err

    @pytest.mark.parametrize("option, value, named", [
        ("--n-multipliers", "0", "need at least 1 multiplier, got m = 0"),
        ("--n-nodes", "7", "need at least 8 history nodes"),
        ("--step", "nan", "march step must be positive and finite, got nan"),
    ])
    def test_bad_arguments_rejected_before_the_orbit_solve(self, monkeypatch, capsys, option,
                                                           value, named):
        def no_solve(*args, **kwargs):
            raise AssertionError("the orbit was solved")

        monkeypatch.setattr(cli, "settle_train", no_solve)
        argv = ["floquet", "--kappa", "0.1", "--tau", "400", "--k", "2", option, value]
        assert named in run_fail(capsys, argv, 2)


class TestAcs:
    def test_branch_count_and_interface(self, capsys):
        d = run_json(capsys, ["acs", "--kappa", "0.1", "--delta0", "2.85",
                              "--k", "2", "--omega-count", "41"])
        assert d["k"] == 2
        assert len(d["branches"]) == len(d["omega"]) == 41
        assert all(len(row) == 2 for row in d["branches"])
        top = max(
            math.hypot(pt["re"], pt["im"]) for b in d["branches"] for pt in b
        )
        assert top == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)

    def test_requires_delta0(self, capsys):
        err = run_fail(capsys, ["acs", "--kappa", "0.1"], 2)
        assert "delta0" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--delta0", "nan", "delta0 must be finite, got nan"),
        ("--omega-min", "nan", "frequencies must be finite"),
        ("--omega-count", "-3", "--omega-count must not be negative, got -3"),
    ])
    def test_bad_grid_rejected(self, capsys, option, value, message):
        err = run_fail(capsys, ["acs", "--kappa", "0.1", "--delta0", "2.85", option, value], 2)
        assert message in err

    def test_csv_header(self, capsys):
        header, rows = run_csv(capsys, ["acs", "--kappa", "0.1", "--delta0",
                                        "2.85", "--omega-count", "11"])
        assert header == ["omega", "branch", "mu_re", "mu_im", "modulus"]
        assert len(rows) == 11


class TestSweep:
    def test_two_point_branch(self, capsys):
        header, rows = run_csv(capsys, ["sweep", "--kappa", "0.01",
                                        "--tau-start", "80", "--tau-stop", "100",
                                        "--tau-count", "2"])
        assert header == ["tau", "period", "k", "delta", "dT_dtau"]
        assert len(rows) == 2
        assert [float(r[0]) for r in rows] == [80.0, 100.0]
        assert all(int(r[2]) == 1 for r in rows)

    def test_json_samples(self, capsys):
        d = run_json(capsys, ["sweep", "--kappa", "0.01", "--tau-start", "80",
                              "--tau-stop", "100", "--tau-count", "2"])
        assert set(d) == {"samples", "t_min", "aborted_at"}
        assert [s["tau"] for s in d["samples"]] == [80.0, 100.0]
        assert all(set(s) == {"tau", "period", "k", "delta", "dT_dtau"} for s in d["samples"])
        assert all(s["k"] == 1 and s["delta"] == s["period"] - s["tau"] for s in d["samples"])
        assert d["t_min"] == min(s["period"] for s in d["samples"])
        assert d["aborted_at"] is None

    def test_no_periods_option(self, capsys):
        # each delay is a collocated orbit, not a run of some length
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kappa", "0.01", "--tau-start", "80", "--tau-stop", "100",
                  "--periods", "16"])
        assert exc.value.code == 2
        assert "--periods" in capsys.readouterr().err

    def test_no_branch_is_numerical_failure(self, capsys):
        run_fail(capsys, ["sweep", "--kappa", "0.001", "--tau-start", "100",
                          "--tau-stop", "100", "--tau-count", "1"], 3)

    def test_negative_count_rejected(self, capsys):
        err = run_fail(capsys, ["sweep", "--kappa", "0.01", "--tau-start", "80",
                                "--tau-stop", "100", "--tau-count", "-2"], 2)
        assert "--tau-count must not be negative, got -2" in err


class TestNonFiniteGrid:
    """A non-finite end of a frequency or delay grid exits 2 naming its
    flag, before ``np.linspace`` can warn about it."""

    @pytest.mark.parametrize("argv, named", [
        (["hopf", "--omega-max", "inf"], "frequencies must be finite, got --omega-max inf"),
        (["hopf", "--omega-min", "nan"], "frequencies must be finite, got --omega-min nan"),
        (["acs", "--kappa", "0.1", "--delta0", "2.85", "--omega-max", "inf"],
         "frequencies must be finite, got --omega-max inf"),
        (["acs", "--kappa", "0.1", "--delta0", "2.85", "--omega-min=-inf"],
         "frequencies must be finite, got --omega-min -inf"),
        (["sweep", "--kappa", "0.01", "--tau-start", "80", "--tau-stop", "inf"],
         "delays must be finite, got --tau-stop inf"),
        (["sweep", "--kappa", "0.01", "--tau-start", "nan", "--tau-stop", "100"],
         "delays must be finite, got --tau-start nan"),
    ])
    def test_rejected_with_flag_named(self, capsys, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = run_fail(capsys, argv, 2)
        assert named in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestMemoryCeiling:
    """A request beyond the address space exits 2 with a one-line message."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-end", "100", "--dt", "1e-12"],
        ["hopf", "--omega-count", "100000000000000"],
    ])
    def test_allocation_failure_exits_2(self, capsys, argv):
        err = run_fail(capsys, argv, 2)
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestScanKappa:
    def test_nan_tolerance_rejected(self, capsys):
        # NaN passed a ``tol <= 0`` check and ended the search at once
        err = run_fail(capsys, ["scan-kappa", "--tau", "100", "--kappa-lo", "0.004",
                                "--kappa-hi", "0.02", "--tol", "nan"], 2)
        assert "tol must be positive, got nan" in err

    def test_bad_bracket_order(self, capsys):
        run_fail(capsys, ["scan-kappa", "--tau", "100", "--kappa-lo", "0.02",
                          "--kappa-hi", "0.01"], 2)

    def test_requires_bracket(self, capsys):
        err = run_fail(capsys, ["scan-kappa", "--tau", "100"], 2)
        assert "kappa_lo" in err and "kappa_hi" in err


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa": 0.02, "tau": 50.0}))
        d = run_json(capsys, ["bounds", "--config", str(cfg), "--kappa", "0.1"])
        # kappa from the flag, tau from the file
        assert d["acs_max_modulus"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert d["max_pulses"] == pytest.approx(50.0 * math.log(3.0), abs=1e-9)

    def test_config_satisfies_required(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delta0": 2.85, "kappa": 0.1, "omega_count": 5}))
        d = run_json(capsys, ["acs", "--config", str(cfg)])
        assert len(d["omega"]) == 5

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"taus": 100.0}))
        err = run_fail(capsys, ["bounds", "--config", str(cfg), "--tau", "100"], 2)
        assert "unknown config keys: taus" in err

    @pytest.mark.parametrize("payload", ['{"tau": "100"}', '{"tau": true}'])
    def test_wrong_value_type(self, capsys, tmp_path, payload):
        cfg = tmp_path / "run.json"
        cfg.write_text(payload)
        err = run_fail(capsys, ["bounds", "--config", str(cfg)], 2)
        assert "must be a number" in err

    def test_int_option_rejects_float(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega_count": 7.5}))
        err = run_fail(capsys, ["hopf", "--config", str(cfg)], 2)
        assert "must be an integer" in err

    def test_config_not_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        run_fail(capsys, ["bounds", "--config", str(cfg), "--tau", "100"], 2)

    def test_config_malformed(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        err = run_fail(capsys, ["bounds", "--config", str(cfg), "--tau", "100"], 2)
        assert "JSON" in err

    def test_config_missing_file(self, capsys, tmp_path):
        run_fail(capsys, ["bounds", "--config", str(tmp_path / "nope.json"),
                          "--tau", "100"], 2)

    def test_format_via_config_validated(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        run_fail(capsys, ["preset", "--config", str(cfg)], 2)

    @pytest.mark.parametrize("argv, payload, choices", [
        (["spectrum", "--kappa", "0.2", "--tau", "50"], {"state": "z"}, "off, p, q"),
        (["simulate", "--tau", "10", "--t-end", "20"], {"history": "bogus"}, "off, kick, seed"),
    ])
    def test_value_outside_choices(self, capsys, tmp_path, argv, payload, choices):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        err = run_fail(capsys, argv + ["--config", str(cfg)], 2)
        key = next(iter(payload))
        assert f"config key {key!r} must be one of {choices}" in err


class TestOutputFile:
    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        assert main(["spectrum", "--kappa", "0.2", "--tau", "50",
                     "--format", "csv", "--out", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["re", "im", "residual", "multiple"]

    def test_repeated_runs_bit_identical(self, capsys, tmp_path):
        argv = ["spectrum", "--kappa", "0.2", "--tau", "50", "--format", "csv"]
        first = main(argv + ["--out", str(tmp_path / "a.csv")])
        second = main(argv + ["--out", str(tmp_path / "b.csv")])
        assert first == second == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestBrokenPipe:
    def test_reader_closing_early_is_quiet(self):
        # the reader is gone before the CLI writes, so its first write or
        # the flush meets a broken pipe
        src = os.path.dirname(os.path.dirname(yamada_delay.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["spectrum", "--kappa", "0.2", "--tau", "50", "--format", "csv"]
        proc = subprocess.Popen([sys.executable, "-m", "yamada_delay", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode == 1


class TestImportCost:
    def test_import_loads_no_scipy(self):
        # scipy is imported where it is used (sparse maps, ARPACK, LU, the
        # period refinement), so a cold start that needs none of it, such
        # as a spectrum, pays none of its import time
        code = "\n".join([
            "import sys",
            "import yamada_delay",
            "import yamada_delay.cli",
            "yamada_delay.cli.build_parser()",
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        ])
        src = os.path.dirname(os.path.dirname(yamada_delay.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "[]"
