"""Span recorder for the traced benchmark run.

Each span wraps one call into a public library function, installed on
the module attribute through which the caller looks the function up:
``yamada_delay.pulses.integrate`` is the integrator as ``pulses`` sees
it, ``yamada_delay.floquet.detect_pulses`` is pulse detection as
``floquet`` sees it.  Calls the benchmark makes itself go through the
same module attributes.  The library source is not modified.

Spans stay in memory while the run goes on and are written out when it
ends.  Counts (integrator steps, roots found, bytes written) are taken
from the arguments and result at the same call boundary.  Per-layer
metrics are derived from the span list afterwards by
:func:`layer_metrics`.

Only the traced run imports this module.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    item: str | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _integrate_counts(args, result):
    return {"steps": len(result.t) - 1, "sim_time": float(args["t_end"])}


def _detect_counts(args, result):
    return {"pulses": len(result)}


def _orbit_counts(args, result):
    return {"residual": float(result.residual)}


def _monodromy_counts(args, result):
    return {
        "N": int(result.N),
        "returned": len(result.multipliers),
        "requested": int(args["m"]),
        "trivial_defect": abs(complex(result.trivial) - 1.0),
    }


def _roots_counts(args, result):
    return {
        "roots": len(result),
        "residual_max": float(max(result.residuals, default=0.0)),
    }


def _dump_counts(args, result):
    return {"bytes": args["stream"].tell()}


#: (module the caller resolves the name in, attribute, span name, counter).
#: The span name is the defining module and function, so a function
#: reached through two modules (``detect_pulses`` from ``pulses`` and
#: from ``floquet``) records under one name.
PATCH_POINTS = [
    ("yamada_delay.pulses", "integrate", "integrator.integrate", _integrate_counts),
    ("yamada_delay.pulses", "single_pulse_seed", "pulses.single_pulse_seed", None),
    ("yamada_delay.pulses", "detect_pulses", "pulses.detect_pulses", _detect_counts),
    ("yamada_delay.pulses", "refine_period", "pulses.refine_period", None),
    ("yamada_delay.pulses", "classify_response", "pulses.classify_response", None),
    ("yamada_delay.pulses", "settle_train", "pulses.settle_train", None),
    ("yamada_delay.pulses", "scan_kappa_min", "pulses.scan_kappa_min", None),
    ("yamada_delay.floquet", "detect_pulses", "pulses.detect_pulses", _detect_counts),
    ("yamada_delay.floquet", "refine_period", "pulses.refine_period", None),
    ("yamada_delay.floquet", "extract_orbit", "floquet.extract_orbit", _orbit_counts),
    ("yamada_delay.floquet", "monodromy_multipliers", "floquet.monodromy_multipliers",
     _monodromy_counts),
    ("yamada_delay.stability", "roots_off", "stability.roots_off", _roots_counts),
    ("yamada_delay.stability", "roots_generic", "stability.roots_generic", _roots_counts),
    ("yamada_delay.stability", "classify_off", "stability.classify_off", None),
    ("yamada_delay._io", "dump", "_io.dump", _dump_counts),
]


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, self.item, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


@contextmanager
def installed(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name, counter in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original, counter))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------- analysis

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(idx, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _ancestors(spans: list[Span], idx: int):
    p = spans[idx].parent
    while p is not None:
        yield p
        p = spans[p].parent


def _beneath(spans: list[Span], root: int, name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s.name == name and root in _ancestors(spans, i)]


def _outermost(spans: list[Span], name: str) -> list[int]:
    """Spans of ``name`` not nested in another span of the same name."""
    return [
        i
        for i, s in enumerate(spans)
        if s.name == name and not any(spans[a].name == name for a in _ancestors(spans, i))
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; absent layers read 0."""
    selfs = self_times(spans)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def busy(name):
        return sum(spans[i].duration for i in _outermost(spans, name))

    def self_s(name):
        return sum(selfs[i] for i, s in enumerate(spans) if s.name == name)

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in spans if s.name == name), default=0)

    m: dict[str, float] = {}
    integ = "integrator.integrate"
    m[f"{integ}.calls"] = calls(integ)
    m[f"{integ}.busy_s"] = busy(integ)
    m[f"{integ}.steps"] = total(integ, "steps")
    m[f"{integ}.sim_time"] = total(integ, "sim_time")
    m[f"{integ}.steps_per_s"] = _ratio(m[f"{integ}.steps"], m[f"{integ}.busy_s"])

    m["pulses.classify_response.calls"] = calls("pulses.classify_response")
    m["pulses.classify_response.self_s"] = self_s("pulses.classify_response")
    m["pulses.detect_pulses.calls"] = calls("pulses.detect_pulses")
    m["pulses.detect_pulses.busy_s"] = busy("pulses.detect_pulses")
    m["pulses.detect_pulses.pulses"] = total("pulses.detect_pulses", "pulses")
    m["pulses.refine_period.calls"] = calls("pulses.refine_period")
    m["pulses.refine_period.busy_s"] = busy("pulses.refine_period")
    m["pulses.single_pulse_seed.busy_s"] = busy("pulses.single_pulse_seed")
    m["pulses.settle_train.self_s"] = self_s("pulses.settle_train")
    trial_runs = 0
    final_sim = all_sim = 0.0
    for root in _outermost(spans, "pulses.settle_train"):
        runs = _beneath(spans, root, integ)
        trial_runs += len(runs)
        if runs:
            final = max(runs, key=lambda i: spans[i].start)
            final_sim += spans[final].counts.get("sim_time", 0.0)
            all_sim += sum(spans[i].counts.get("sim_time", 0.0) for i in runs)
    m["pulses.settle_train.trial_runs"] = trial_runs
    m["pulses.settle_train.useful_sim_frac"] = _ratio(final_sim, all_sim)
    m["pulses.scan_kappa_min.oracle_calls"] = sum(
        len(_beneath(spans, root, "pulses.classify_response"))
        for root in _outermost(spans, "pulses.scan_kappa_min")
    )

    m["floquet.extract_orbit.self_s"] = self_s("floquet.extract_orbit")
    m["floquet.extract_orbit.residual"] = largest("floquet.extract_orbit", "residual")
    mono = "floquet.monodromy_multipliers"
    m[f"{mono}.busy_s"] = busy(mono)
    n_max = largest(mono, "N")
    m[f"{mono}.N"] = n_max
    # computed, not measured: the dense period map is (3N)^2 doubles
    m[f"{mono}.matrix_mb"] = (3 * n_max) ** 2 * 8 / 1e6
    m[f"{mono}.returned_frac"] = _ratio(total(mono, "returned"), total(mono, "requested"))
    m[f"{mono}.trivial_defect"] = largest(mono, "trivial_defect")

    m["stability.roots_off.busy_s"] = busy("stability.roots_off")
    m["stability.roots_off.roots"] = total("stability.roots_off", "roots")
    m["stability.roots_generic.busy_s"] = busy("stability.roots_generic")
    m["stability.roots_generic.roots"] = total("stability.roots_generic", "roots")
    m["stability.residual_max"] = max(
        largest("stability.roots_off", "residual_max"),
        largest("stability.roots_generic", "residual_max"),
    )

    m["_io.dump.busy_s"] = busy("_io.dump")
    m["_io.dump.bytes"] = total("_io.dump", "bytes")
    return m
