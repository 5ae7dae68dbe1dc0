"""Command-line front end.

Every experiment in the package is reachable as a subcommand with
machine-readable output: JSON (default) or CSV with a header row and
full round-trip precision, written to stdout or ``--out``.  Diagnostics
go to stderr only.  Exit codes: 0 success, 2 invalid arguments or
configuration, 3 numerical failure (blow-up, missing branch).

Options may also be supplied through ``--config FILE`` (a flat JSON
object keyed by option destination names, e.g. ``{"kappa": 0.01}``);
explicit flags override the file, and unknown keys are rejected.  Model
parameters default to the ``figure1`` working point; individual flags
override preset values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import _io, floquet
from .errors import InvalidArgumentError, NumericalError
from .floquet import acs, acs_max_modulus, max_pulses, min_stable_delay, monodromy_multipliers
from .integrator import HistorySpec, StepControl, integrate
from .model import PRESETS, ModelParams, State, kappa_fold, kappa_transcritical, preset, steady_states
from .pulses import classify_response, scan_kappa_min, settle_train, single_pulse_seed, sweep_tau
from .stability import classify_off, hopf_curve_off, roots_generic, roots_off

__all__ = ["main"]

_PARAM_FIELDS = ("A", "B", "a", "gamma_G", "gamma_Q", "kappa", "tau")


# ------------------------------------------------------------ plumbing

class _Command:
    """Subcommand wrapper tracking option types and choices for config merging."""

    def __init__(self, subparsers, name: str, help_text: str):
        self.parser = subparsers.add_parser(name, help=help_text, description=help_text)
        self.types: dict[str, type] = {}
        self.choices: dict[str, tuple] = {}
        self.defaults: dict[str, object] = {}
        self.required: list[str] = []
        self.handler = None
        self.parser.add_argument(
            "--config", default=None, metavar="FILE",
            help="JSON file of option values (flags take precedence)",
        )
        self.parser.set_defaults(_command=self)
        self.opt("--out", dest="out", type=str, help="output file (default: stdout)")
        self.opt("--format", dest="format", type=str, default="json",
                 choices=("csv", "json"), help="output format")

    def opt(self, *flags, dest: str, type: type = str, default=None,
            help: str = "", choices=None, required: bool = False):
        kwargs = {"dest": dest, "type": type, "default": argparse.SUPPRESS, "help": help}
        if choices is not None:
            kwargs["choices"] = choices
            self.choices[dest] = tuple(choices)
        self.parser.add_argument(*flags, **kwargs)
        self.types[dest] = type
        self.defaults[dest] = default
        if required:
            self.required.append(dest)

    def model_opts(self):
        self.opt("--preset", dest="preset", type=str, default="figure1",
                 choices=sorted(PRESETS), help="named parameter set to start from")
        self.opt("--A", dest="A", type=float, help="gain pump rate")
        self.opt("--B", dest="B", type=float, help="absorber bias")
        self.opt("--a", dest="a", type=float, help="saturation-intensity ratio")
        self.opt("--gamma-g", dest="gamma_G", type=float, help="gain relaxation rate")
        self.opt("--gamma-q", dest="gamma_Q", type=float, help="absorber relaxation rate")
        self.opt("--kappa", dest="kappa", type=float, help="feedback strength")
        self.opt("--tau", dest="tau", type=float, help="feedback delay")

    def tol_opts(self):
        self.opt("--atol", dest="atol", type=float, help="absolute error tolerance")
        self.opt("--rtol", dest="rtol", type=float, help="relative error tolerance")


def _coerce(value, target: type, key: str):
    """Config value coerced to the option's registered type."""
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidArgumentError(f"config key {key!r} must be a number")
        return float(value)
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidArgumentError(f"config key {key!r} must be an integer")
        return int(value)
    if not isinstance(value, str):
        raise InvalidArgumentError(f"config key {key!r} must be a string")
    return value


def _resolve(args: argparse.Namespace) -> SimpleNamespace:
    """Merge defaults, config file, and explicit flags (in that order)."""
    cmd: _Command = args._command
    given = {k: v for k, v in vars(args).items()
             if k not in ("_command", "config")}
    merged = dict(cmd.defaults)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidArgumentError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(cmd.types))
        if unknown:
            raise InvalidArgumentError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in raw.items():
            merged[key] = _coerce(value, cmd.types[key], key)
            if key in cmd.choices and merged[key] not in cmd.choices[key]:
                raise InvalidArgumentError(
                    f"config key {key!r} must be one of {', '.join(cmd.choices[key])}")
    merged.update(given)
    missing = [d for d in cmd.required if merged.get(d) is None]
    if missing:
        raise InvalidArgumentError(f"missing required options: {', '.join(missing)}")
    return SimpleNamespace(**merged)


def _params_from(ns: SimpleNamespace) -> ModelParams:
    base = preset(ns.preset)
    overrides = {f: getattr(ns, f) for f in _PARAM_FIELDS if getattr(ns, f) is not None}
    return base.replace(**overrides) if overrides else base


def _control_from(ns: SimpleNamespace) -> StepControl | None:
    atol = getattr(ns, "atol", None)
    rtol = getattr(ns, "rtol", None)
    if atol is None and rtol is None:
        return None
    kwargs = {}
    if atol is not None:
        kwargs["atol"] = atol
    if rtol is not None:
        kwargs["rtol"] = rtol
    return StepControl(**kwargs)


def _grid(ns: SimpleNamespace, start: str, stop: str, count: str, what: str) -> np.ndarray:
    """``np.linspace`` over the options with dests ``start``, ``stop`` and
    ``count``; errors name the flag and call the values ``what``."""
    for dest in (start, stop):
        value = getattr(ns, dest)
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{what} must be finite, got {_flag(dest)} {value}")
    n = getattr(ns, count)
    if n < 0:
        raise InvalidArgumentError(f"{_flag(count)} must not be negative, got {n}")
    return np.linspace(getattr(ns, start), getattr(ns, stop), n)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _emit(payload, ns: SimpleNamespace) -> None:
    if ns.out is None:
        _io.dump(payload, sys.stdout, ns.format)
    else:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            _io.dump(payload, fh, ns.format)


class _TrajectoryPayload:
    def __init__(self, traj, dt: float):
        self.traj, self.dt = traj, dt

    def to_json_obj(self):
        ts, ys = self.traj.sample(self.dt)
        return {
            "t": _io.jlist(ts),
            "G": _io.jlist(ys[:, 0]),
            "Q": _io.jlist(ys[:, 1]),
            "I": _io.jlist(ys[:, 2]),
            "params": _io.params_json(self.traj.params),
        }

    def csv_rows(self):
        ts, ys = self.traj.sample(self.dt)
        return ["t", "G", "Q", "I"], _io.columns_to_rows(ts, ys[:, 0], ys[:, 1], ys[:, 2])


class _HopfPayload:
    FIELDS = ("omega", "kappa", "tau", "branch_index", "residual")

    def __init__(self, points):
        self.points = points

    def columns(self) -> list[np.ndarray]:
        return [np.array([getattr(p, f) for p in self.points]) for f in self.FIELDS]

    def to_json_obj(self):
        columns = [_io.jlist(c) for c in self.columns()]
        return {"points": [dict(zip(self.FIELDS, row)) for row in zip(*columns)]}

    def csv_rows(self):
        return list(self.FIELDS), _io.columns_to_rows(*self.columns())


class _SpectrumPayload:
    def __init__(self, spectrum, state: str, classification: str | None):
        self.spectrum, self.state, self.classification = spectrum, state, classification

    def to_json_obj(self):
        obj = {"state": self.state}
        if self.classification is not None:
            obj["classification"] = self.classification
        obj.update(self.spectrum.to_json_obj())
        return obj

    def csv_rows(self):
        return self.spectrum.csv_rows()


# ------------------------------------------------------------ handlers

def _run_preset(ns):
    p = preset(ns.name)
    return {"name": ns.name, **_io.params_json(p)}


def _run_simulate(ns):
    p = _params_from(ns)
    control = _control_from(ns)
    if ns.history == "off":
        history = HistorySpec.constant(State(p.A, p.B, 0.0))
    elif ns.history == "kick":
        history = HistorySpec.off_plus_pulse(amplitude=ns.amplitude, width=ns.width)
    else:
        history = single_pulse_seed(p, amplitude=ns.amplitude, width=ns.width,
                                    control=control)
    traj = integrate(p, history, ns.t_end, control)
    return _TrajectoryPayload(traj, ns.dt)


def _run_excite(ns):
    p = _params_from(ns)
    control = _control_from(ns)
    horizon = ns.horizon if ns.horizon is not None else max(1500.0, 25.0 * (p.tau + 30.0))
    history = single_pulse_seed(p, amplitude=ns.amplitude, width=ns.width, control=control)
    return classify_response(p, history, horizon, control)


def _run_sweep(ns):
    p = _params_from(ns)
    taus = _grid(ns, "tau_start", "tau_stop", "tau_count", "delays")
    return sweep_tau(p, taus, _control_from(ns))


def _run_spectrum(ns):
    p = _params_from(ns)
    window = (ns.re_min, ns.re_max, ns.im_min, ns.im_max)
    if ns.state == "off":
        return _SpectrumPayload(roots_off(p, window), "off", classify_off(p))
    states = steady_states(p)
    target = getattr(states, ns.state)
    if target is None:
        raise NumericalError(f"steady state {ns.state!r} does not exist here")
    return _SpectrumPayload(roots_generic(target, p, window), ns.state, None)


def _run_hopf(ns):
    p = _params_from(ns)
    omegas = _grid(ns, "omega_min", "omega_max", "omega_count", "frequencies")
    return _HopfPayload(hopf_curve_off(p, omegas))


def _run_floquet(ns):
    p = _params_from(ns)
    # The same checks monodromy_multipliers makes, before the orbit solve.
    floquet._checked_nodes(p.tau, ns.n_nodes, ns.n_multipliers, ns.step)
    orbit = settle_train(p, k=ns.k, control=_control_from(ns))
    return monodromy_multipliers(orbit, N=ns.n_nodes, m=ns.n_multipliers, step=ns.step)


def _run_acs(ns):
    p = _params_from(ns)
    omegas = _grid(ns, "omega_min", "omega_max", "omega_count", "frequencies")
    return acs(p, ns.delta0, ns.k, omegas)


def _run_bounds(ns):
    p = _params_from(ns)
    return {
        "acs_max_modulus": acs_max_modulus(p, ns.k),
        "min_stable_delay": min_stable_delay(p, ns.k),
        "max_pulses": max_pulses(p, p.tau),
        "kappa_transcritical": kappa_transcritical(p.A, p.B),
        "kappa_fold": kappa_fold(p.A, p.B, p.a),
    }


def _run_scan_kappa(ns):
    p = _params_from(ns)
    onset = scan_kappa_min(p, p.tau, (ns.kappa_lo, ns.kappa_hi), ns.tol,
                           _control_from(ns))
    return {
        "kappa_min": onset,
        "tau": p.tau,
        "kappa_lo": ns.kappa_lo,
        "kappa_hi": ns.kappa_hi,
        "tol": ns.tol,
    }


# ------------------------------------------------------------ assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamada-delay",
        description="Pulsing-laser delay-feedback experiments with machine-readable output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = _Command(sub, "preset", "print a named parameter set")
    c.opt("--name", dest="name", type=str, default="figure1",
          choices=sorted(PRESETS), help="preset to print")
    c.handler = _run_preset

    c = _Command(sub, "simulate", "integrate the model and dump the trajectory")
    c.model_opts()
    c.tol_opts()
    c.opt("--t-end", dest="t_end", type=float, required=True, help="integration horizon")
    c.opt("--history", dest="history", type=str, default="kick",
          choices=("off", "kick", "seed"),
          help="initial history: off state, off plus a rectangular intensity "
               "kick, or a stored solitary pulse filling the delay line")
    c.opt("--amplitude", dest="amplitude", type=float, default=1.0,
          help="kick/seed intensity amplitude")
    c.opt("--width", dest="width", type=float, default=1.0, help="kick width")
    c.opt("--dt", dest="dt", type=float, default=0.5, help="output sample spacing")
    c.handler = _run_simulate

    c = _Command(sub, "excite", "kick the laser once and classify the response")
    c.model_opts()
    c.tol_opts()
    c.opt("--amplitude", dest="amplitude", type=float, default=1.0,
          help="seed intensity amplitude")
    c.opt("--width", dest="width", type=float, default=1.0, help="seed kick width")
    c.opt("--horizon", dest="horizon", type=float,
          help="run length (default scales with the delay)")
    c.handler = _run_excite

    c = _Command(sub, "sweep", "the one-pulse orbit at each of a range of delays")
    c.model_opts()
    c.tol_opts()
    c.opt("--tau-start", dest="tau_start", type=float, required=True, help="first delay")
    c.opt("--tau-stop", dest="tau_stop", type=float, required=True, help="last delay")
    c.opt("--tau-count", dest="tau_count", type=int, default=21, help="number of delays")
    c.handler = _run_sweep

    c = _Command(sub, "spectrum", "characteristic roots of a steady state in a window")
    c.model_opts()
    c.opt("--state", dest="state", type=str, default="off",
          choices=("off", "p", "q"), help="steady state to linearize about")
    c.opt("--re-min", dest="re_min", type=float, default=-1.0, help="window: min real part")
    c.opt("--re-max", dest="re_max", type=float, default=0.5, help="window: max real part")
    c.opt("--im-min", dest="im_min", type=float, default=-10.0,
          help="window: min imaginary part")
    c.opt("--im-max", dest="im_max", type=float, default=10.0,
          help="window: max imaginary part")
    c.handler = _run_spectrum

    c = _Command(sub, "hopf", "Hopf bifurcation curve of the off state")
    c.model_opts()
    c.opt("--omega-min", dest="omega_min", type=float, default=0.05,
          help="smallest sampled frequency")
    c.opt("--omega-max", dest="omega_max", type=float, default=3.0,
          help="largest sampled frequency")
    c.opt("--omega-count", dest="omega_count", type=int, default=60,
          help="number of frequency samples")
    c.handler = _run_hopf

    c = _Command(sub, "floquet", "Floquet multipliers of a periodic pulse train")
    c.model_opts()
    c.tol_opts()
    c.opt("--k", dest="k", type=int, default=1, help="pulses per delay interval")
    c.opt("--n-nodes", dest="n_nodes", type=int,
          help="history discretization nodes (default: spacing 1/3, at most 4000)")
    c.opt("--n-multipliers", dest="n_multipliers", type=int, default=200,
          help="leading multipliers to return")
    c.opt("--step", dest="step", type=float, default=0.05,
          help="variational march step")
    c.handler = _run_floquet

    c = _Command(sub, "acs", "asymptotic continuous spectrum of a k-pulse train")
    c.model_opts()
    c.opt("--delta0", dest="delta0", type=float, required=True,
          help="measured regeneration lag of the train")
    c.opt("--k", dest="k", type=int, default=1, help="pulses per delay interval")
    c.opt("--omega-min", dest="omega_min", type=float, default=-40.0,
          help="smallest sampled frequency")
    c.opt("--omega-max", dest="omega_max", type=float, default=40.0,
          help="largest sampled frequency")
    c.opt("--omega-count", dest="omega_count", type=int, default=2001,
          help="number of frequency samples")
    c.handler = _run_acs

    c = _Command(sub, "bounds", "closed-form stability bounds and limits")
    c.model_opts()
    c.opt("--k", dest="k", type=int, default=1, help="pulses per delay interval")
    c.handler = _run_bounds

    c = _Command(sub, "scan-kappa", "search for the smallest train-sustaining feedback")
    c.model_opts()
    c.tol_opts()
    c.opt("--kappa-lo", dest="kappa_lo", type=float, required=True,
          help="bracket lower endpoint (must decay)")
    c.opt("--kappa-hi", dest="kappa_hi", type=float, required=True,
          help="bracket upper endpoint (must sustain)")
    c.opt("--tol", dest="tol", type=float, default=2.5e-4, help="width of the final bracket")
    c.handler = _run_scan_kappa

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ns = _resolve(args)
        payload = args._command.handler(ns)
        _emit(payload, ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # devnull so that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A request too large to allocate is a bad argument, not a crash.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
