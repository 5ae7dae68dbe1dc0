"""Benchmark workloads: generated inputs and the library chains they run.

A workload is a list of items.  Each item runs the library chain behind
one CLI subcommand and ends by writing its JSON result with
``_io.dump``, as ``--out FILE`` would.  Every call goes through the
library's module attributes (``pulses.settle_train``, not the package
re-export), so the traced run can wrap it where it is looked up.

Seed 0 gives the named working points exactly.  Any other seed scales
each item's ``tau`` and ``kappa`` by independent factors drawn from
``1 +- JITTER``, a box small enough that every output check still holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from yamada_delay import _io, floquet, model, pulses, stability
from yamada_delay.integrator import HistorySpec

WORKLOADS = ("pulse-trains", "steady-spectra")

#: Half-width of the relative jitter applied to tau and kappa for seeds != 0.
JITTER = 0.005

#: Characteristic-root search window (re_min, re_max, im_min, im_max).
WINDOW = (-1.0, 0.5, -10.0, 10.0)

#: Bisection bracket and tolerance of the onset scan (acceptance criterion 7).
KAPPA_BRACKET = (0.004, 0.02)
KAPPA_TOL = 2.5e-4

#: Library modules each workload calls into besides ``_io``, for the set-up warm-up.
MODULES = {
    "pulse-trains": ("integrator", "pulses", "floquet"),
    "steady-spectra": ("stability",),
}


@dataclass(frozen=True)
class Item:
    """One unit of work; ``id`` names the nominal point, ``params`` the generated one."""

    id: str
    kind: str
    params: dict = field(default_factory=dict)


def _jitter(rng: random.Random | None, value: float) -> float:
    if rng is None:
        return value
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def make_items(workload: str, seed: int) -> list[Item]:
    """The items of ``workload`` for ``seed`` (seed 0: the named points)."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    if workload == "pulse-trains":
        trains = [
            Item(f"k{k}-tau{tau}", "floquet",
                 {"k": k, "tau": _jitter(rng, float(tau)), "kappa": _jitter(rng, 0.1)})
            for k, tau in ((1, 200), (2, 400))
        ]
        scans = [
            Item(f"tau{tau}", "scan", {"tau": _jitter(rng, float(tau))})
            for tau in (200, 400)
        ]
        return trains + scans
    if workload == "steady-spectra":
        p50 = {"tau": _jitter(rng, 50.0), "kappa": _jitter(rng, 0.2)}
        p200 = {"tau": _jitter(rng, 200.0), "kappa": _jitter(rng, 0.2)}
        return [
            Item("off-tau50", "roots_off", p50),
            Item("off-tau200", "roots_off", p200),
            Item("generic-off-tau50", "roots_generic", {**p50, "state": "off"}),
            Item("generic-q-tau50", "roots_generic", {**p50, "state": "q"}),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def item_params(item: Item) -> model.ModelParams:
    """Model parameters of an item (figure1 preset plus its tau and kappa)."""
    return model.preset("figure1", **{k: item.params[k] for k in ("tau", "kappa") if k in item.params})


def _result(item: Item):
    """Run the item's library chain; returns what the CLI would dump."""
    p = item_params(item)
    if item.kind == "floquet":
        # yamada-delay floquet (default periods, N, m and step)
        traj = pulses.settle_train(p, k=item.params["k"], periods=34.0)
        orbit = floquet.extract_orbit(traj)
        return floquet.monodromy_multipliers(orbit, N=None, m=200, step=0.05)
    if item.kind == "scan":
        # yamada-delay scan-kappa
        onset = pulses.scan_kappa_min(p, p.tau, KAPPA_BRACKET, KAPPA_TOL)
        return {"kappa_min": onset, "tau": p.tau, "kappa_lo": KAPPA_BRACKET[0],
                "kappa_hi": KAPPA_BRACKET[1], "tol": KAPPA_TOL}
    if item.kind == "roots_off":
        # yamada-delay spectrum --state off
        spec = stability.roots_off(p, WINDOW)
        return {"state": "off", "classification": stability.classify_off(p),
                **spec.to_json_obj()}
    if item.kind == "roots_generic":
        # yamada-delay spectrum --state q; the off state through the generic path
        state = item.params["state"]
        target = getattr(model.steady_states(p), state)
        return {"state": state, **stability.roots_generic(target, p, WINDOW).to_json_obj()}
    raise ValueError(f"unknown item kind {item.kind!r}")


def run_item(item: Item, out_path: Path) -> None:
    """Compute one item and write its JSON result to ``out_path``."""
    result = _result(item)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        _io.dump(result, fh, "json")


def warm_up(workload: str) -> None:
    """One tiny call into each library module the workload uses.

    Pulls in the lazy scipy imports (``scipy.optimize`` for period
    refinement, ``scipy.sparse.linalg`` for the large-matrix eigen-solve)
    so that timed passes start warm.
    """
    import io
    import warnings

    mods = MODULES[workload]
    p = model.preset("figure1", kappa=0.1, tau=2.0)
    traj = None
    if "integrator" in mods:
        traj = pulses.integrate(p, HistorySpec.off_plus_pulse(amplitude=1.0), 6.0)
    if "pulses" in mods:
        pulses.detect_pulses(traj, 1e-3)
        pulses.refine_period(traj, 1.0)
    if "floquet" in mods:
        import scipy.sparse.linalg  # noqa: F401  (imported lazily by the eigen-solve)

        orbit = floquet.PeriodicOrbit(traj, 1.0, 1, p, traj.t1, 0.0)
        with warnings.catch_warnings():  # not a real orbit: its trivial multiplier is off
            warnings.simplefilter("ignore")
            floquet.monodromy_multipliers(orbit, N=8, m=4, step=0.25)
    if "stability" in mods:
        stability.roots_off(p, (-0.1, 0.1, -0.1, 0.1))
        stability.roots_generic(model.steady_states(p).off, p, (-0.1, 0.1, -0.1, 0.1))
        stability.classify_off(p)
    _io.dump({"x": 1.0}, io.StringIO(), "json")
