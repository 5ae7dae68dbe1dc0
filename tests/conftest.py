"""Shared fixtures.

The expensive artifacts (settled pulse trains, their Floquet spectra,
feedback-onset scans) are computed once per session and shared between
the module tests and the acceptance gate.
"""

from __future__ import annotations

import numpy as np
import pytest

from yamada_delay import (
    HistorySpec,
    ModelParams,
    integrate,
    monodromy_multipliers,
    preset,
)
from yamada_delay import pulses
from yamada_delay.floquet import _period_map
from yamada_delay.pulses import classify_response, scan_kappa_min, settle_train, single_pulse_seed

import pulses_reference
from floquet_reference import arpack_reference


def random_params(rng, with_feedback=True):
    """Random parameter draw over the physically sensible box."""
    kwargs = dict(
        A=rng.uniform(0.5, 8.0),
        B=rng.uniform(0.5, 7.0),
        a=rng.uniform(0.3, 3.0),
        gamma_G=rng.uniform(0.01, 0.1),
        gamma_Q=rng.uniform(0.01, 0.1),
    )
    if with_feedback:
        kwargs["kappa"] = rng.uniform(0.0, 0.9)
        kwargs["tau"] = rng.uniform(0.5, 30.0)
    return ModelParams(**kwargs)


@pytest.fixture(scope="session")
def work_params():
    """The standard working point, no feedback."""
    return preset("figure1")


@pytest.fixture(scope="session")
def fig1_runs():
    """Excitation experiments at tau=100 for the two reference kappas."""
    out = {}
    for kappa in (0.005, 0.01):
        p = preset("figure1", kappa=kappa, tau=100.0)
        out[kappa] = classify_response(p, single_pulse_seed(p), 2000.0)
    return out


@pytest.fixture(scope="session")
def orbits():
    """Settled k-pulse orbits at kappa=0.1 for k in {1,2}, tau in {200,400}."""
    out = {}
    for k in (1, 2):
        for tau in (200.0, 400.0):
            p = preset("figure1", kappa=0.1, tau=tau)
            out[(k, tau)] = settle_train(p, k=k)
    return out


@pytest.fixture(scope="session")
def floquet_sets(orbits):
    """Leading multipliers of each session orbit."""
    return {key: monodromy_multipliers(orbit) for key, orbit in orbits.items()}


@pytest.fixture(scope="session")
def period_maps(orbits, floquet_sets):
    """Period map of each session orbit, at the node count of its
    multipliers, and the map's leading eigenvalues at machine precision."""
    out = {}
    for key, orbit in orbits.items():
        op = _period_map(orbit, floquet_sets[key].N, 0.05)
        out[key] = (op, arpack_reference(op))
    return out


@pytest.fixture(scope="session")
def roundtrip_orbits():
    """A 1-pulse orbit and its reappearance at tau0 + T0, simulated.

    The collocation solve would return the 1-pulse orbit itself at tau1
    (read modulo the period, the two delays pose one problem), so the
    reappearance is measured on the integrator's run from the orbit's tail
    by the simulated path of ``pulses_reference``.
    """
    tau0 = 98.5
    p0 = preset("figure1", kappa=0.1, tau=tau0)
    orb0 = settle_train(p0)
    tau1 = tau0 + orb0.period
    p1 = preset("figure1", kappa=0.1, tau=tau1)
    # the orbit's tail is an exact history for tau1
    traj1 = integrate(p1, HistorySpec.from_tail(orb0.trajectory), 34.0 * orb0.period)
    return orb0, pulses_reference.extract_orbit(traj1)


@pytest.fixture(scope="session")
def kappa_scans():
    """Feedback-onset scans at tau = 200 and 400, as in the benchmark.

    Returns the onsets and, for each oracle run in call order, the run's
    peak intensity next to the full-sample peak of ``pulses_reference``.
    """
    onsets, peaks = {}, []
    peak_intensity = pulses._peak_intensity

    def recorded(trajectory):
        peak = peak_intensity(trajectory)
        peaks.append((peak, pulses_reference.sampled_peak_intensity(trajectory)))
        return peak

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pulses, "_peak_intensity", recorded)
        for tau in (200.0, 400.0):
            p = preset("figure1", tau=tau)
            onsets[tau] = scan_kappa_min(p, tau, (0.004, 0.02), 2.5e-4)
    return onsets, peaks


@pytest.fixture(scope="session")
def kappa_onsets(kappa_scans):
    """Feedback-onset scans at tau = 200 and 400."""
    return kappa_scans[0]


def orbit_peak_time(orbit) -> float:
    """Time of the intensity maximum over the orbit's final period."""
    t = np.linspace(orbit.anchor - orbit.period, orbit.anchor, 4097)
    i = orbit.trajectory.evaluate_many(t)[:, 2]
    return float(t[np.argmax(i)])
