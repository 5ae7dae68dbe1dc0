"""Reference output path: scalar conversion one element at a time and the
stdlib's indent-2 JSON writer.

Every result type's JSON object and CSV rows are rebuilt here from its
attributes with a per-element :func:`jnum` and ``float``/``int``/``bool``
casts, and :func:`dump` writes them with ``json.dump(payload, stream,
indent=2)``.  The package's array-level conversion and its own JSON
writer must reproduce these bytes exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict

import numpy as np

from yamada_delay import cli
from yamada_delay.floquet import ACSCurve, FloquetSet
from yamada_delay.pulses import BranchSample, PulseTrainStats
from yamada_delay.stability import SpectrumSet


def fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def jnum(x):
    if isinstance(x, (complex, np.complexfloating)):
        return {"re": jnum(float(x.real)), "im": jnum(float(x.imag))}
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        if np.isnan(v):
            return "nan"
        return v
    return x


def params_json(params) -> dict:
    return {k: jnum(v) for k, v in asdict(params).items()}


def _spectrum_json(s: SpectrumSet) -> dict:
    re_min, re_max, im_min, im_max = s.window
    return {
        "roots": [jnum(z) for z in s.roots],
        "residuals": [jnum(r) for r in s.residuals],
        "multiple": [bool(b) for b in s.multiple],
        "window": {"re_min": jnum(re_min), "re_max": jnum(re_max),
                   "im_min": jnum(im_min), "im_max": jnum(im_max)},
    }


def to_json_obj(obj) -> dict:
    if isinstance(obj, SpectrumSet):
        return _spectrum_json(obj)
    if isinstance(obj, cli._SpectrumPayload):
        out = {"state": obj.state}
        if obj.classification is not None:
            out["classification"] = obj.classification
        out.update(_spectrum_json(obj.spectrum))
        return out
    if isinstance(obj, FloquetSet):
        return {"multipliers": [jnum(m) for m in obj.multipliers], "N": int(obj.N),
                "trivial": jnum(obj.trivial), "period": jnum(obj.period)}
    if isinstance(obj, ACSCurve):
        return {"delta0": jnum(obj.delta0), "k": int(obj.k),
                "omega": [jnum(w) for w in obj.omega],
                "branches": [[jnum(m) for m in row] for row in obj.mu]}
    if isinstance(obj, PulseTrainStats):
        def opt(x):
            return None if x is None else jnum(x)

        return {
            "classification": obj.classification,
            "k": opt(obj.k),
            "period": opt(obj.period),
            "delta": opt(obj.delta),
            "interval_cv": opt(obj.interval_cv),
            "n_pulses": len(obj.pulse_times),
            "threshold": jnum(obj.threshold),
            "horizon": jnum(obj.horizon),
            "pulse_times": [jnum(t) for t in obj.pulse_times],
            "heights": [jnum(h) for h in obj.heights],
            "params": params_json(obj.params),
        }
    if isinstance(obj, BranchSample):
        return {
            "samples": [{"tau": jnum(t), "period": jnum(p), "k": int(k), "delta": jnum(d),
                         "dT_dtau": jnum(s)}
                        for t, p, k, d, s in zip(obj.tau, obj.period, obj.k, obj.delta,
                                                 obj.dT_dtau)],
            "t_min": jnum(obj.t_min),
            "aborted_at": None if obj.aborted_at is None else jnum(obj.aborted_at),
        }
    if isinstance(obj, cli._TrajectoryPayload):
        ts, ys = obj.traj.sample(obj.dt)
        return {"t": [jnum(v) for v in ts], "G": [jnum(v) for v in ys[:, 0]],
                "Q": [jnum(v) for v in ys[:, 1]], "I": [jnum(v) for v in ys[:, 2]],
                "params": params_json(obj.traj.params)}
    if isinstance(obj, cli._HopfPayload):
        return {"points": [
            {"omega": jnum(p.omega), "kappa": jnum(p.kappa), "tau": jnum(p.tau),
             "branch_index": int(p.branch_index), "residual": jnum(p.residual)}
            for p in obj.points]}
    raise TypeError(f"no reference for {type(obj).__name__}")


def csv_rows(obj) -> tuple[list[str], list[list]]:
    if isinstance(obj, cli._SpectrumPayload):
        obj = obj.spectrum
    if isinstance(obj, SpectrumSet):
        return ["re", "im", "residual", "multiple"], [
            [float(z.real), float(z.imag), float(r), bool(b)]
            for z, r, b in zip(obj.roots, obj.residuals, obj.multiple)]
    if isinstance(obj, FloquetSet):
        return ["mu_re", "mu_im", "modulus"], [
            [float(m.real), float(m.imag), float(abs(m))] for m in obj.multipliers]
    if isinstance(obj, ACSCurve):
        return ["omega", "branch", "mu_re", "mu_im", "modulus"], [
            [float(w), b, float(m.real), float(m.imag), float(abs(m))]
            for w, branch in zip(obj.omega, obj.mu) for b, m in enumerate(branch)]
    if isinstance(obj, PulseTrainStats):
        header = ["pulse_index", "pulse_time", "height", "classification", "k", "period", "delta"]
        train = ["" if x is None else x for x in (obj.k, obj.period, obj.delta)]
        rows = [[i, float(t), float(h), obj.classification, *train]
                for i, (t, h) in enumerate(zip(obj.pulse_times, obj.heights))]
        return header, rows or [[0, "", "", obj.classification, "", "", ""]]
    if isinstance(obj, BranchSample):
        return ["tau", "period", "k", "delta", "dT_dtau"], [
            [float(t), float(p), int(k), float(d), float(s)]
            for t, p, k, d, s in zip(obj.tau, obj.period, obj.k, obj.delta, obj.dT_dtau)]
    if isinstance(obj, cli._TrajectoryPayload):
        ts, ys = obj.traj.sample(obj.dt)
        return ["t", "G", "Q", "I"], [
            [float(t), float(g), float(q), float(i)] for t, (g, q, i) in zip(ts, ys)]
    if isinstance(obj, cli._HopfPayload):
        return ["omega", "kappa", "tau", "branch_index", "residual"], [
            [float(p.omega), float(p.kappa), float(p.tau), int(p.branch_index),
             float(p.residual)] for p in obj.points]
    raise TypeError(f"no reference for {type(obj).__name__}")


def dump(obj, stream, fmt_name: str) -> None:
    if fmt_name == "json":
        if isinstance(obj, dict):
            payload = {k: jnum(v) for k, v in obj.items()}
        else:
            payload = to_json_obj(obj)
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif fmt_name == "csv":
        if isinstance(obj, dict):
            header = list(obj.keys())
            rows = [[obj[k] for k in header]]
        else:
            header, rows = csv_rows(obj)
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(c) for c in row])
    else:
        raise ValueError(f"unknown format {fmt_name!r}")
