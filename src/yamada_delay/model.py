"""Yamada rate equations with delayed optical self-feedback.

The state is ``(G, Q, I)``: gain, saturable absorption, and field
intensity.  With pump ``A``, absorber bias ``B``, saturation ratio ``a``,
relaxation rates ``gamma_G`` and ``gamma_Q``, feedback strength ``kappa``
and delay ``tau``, the equations read::

    G'(t) = gamma_G * (A - G(t) * (1 + I(t)))
    Q'(t) = gamma_Q * (B - Q(t) * (1 + a * I(t)))
    I'(t) = (G(t) - Q(t) - 1) * I(t) + kappa * I(t - tau)

This module holds the parameter and state containers, the right-hand
side and its Jacobians with respect to the current and the delayed
state, the steady states in closed form, and the two closed-form
bifurcation loci of the non-lasing state (fold and transcritical
feedback strengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, SingularParameterError

__all__ = [
    "ModelParams",
    "State",
    "SteadyStateSet",
    "PRESETS",
    "preset",
    "rhs",
    "jacobians",
    "steady_states",
    "kappa_fold",
    "kappa_transcritical",
]


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set.

    Parameters
    ----------
    A : float
        Pump rate of the gain section, > 0.
    B : float
        Bias of the absorber section, > 0.
    a : float
        Ratio of absorber to gain saturation intensity, > 0.
    gamma_G, gamma_Q : float
        Relaxation rates of gain and absorber, > 0.
    kappa : float, optional
        Feedback strength, in [0, 1].  Default 0 (no feedback).
    tau : float, optional
        Feedback delay.  Default 0.  Negative values are legal for
        spectral computations but cannot be integrated forward.
    """

    A: float
    B: float
    a: float
    gamma_G: float
    gamma_Q: float
    kappa: float = 0.0
    tau: float = 0.0

    def __post_init__(self) -> None:
        for name in ("A", "B", "a", "gamma_G", "gamma_Q"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidArgumentError(f"{name} must be finite and > 0, got {v!r}")
        if not math.isfinite(self.kappa) or not 0.0 <= self.kappa <= 1.0:
            raise InvalidArgumentError(f"kappa must lie in [0, 1], got {self.kappa!r}")
        if not math.isfinite(self.tau):
            raise InvalidArgumentError(f"tau must be finite, got {self.tau!r}")

    def replace(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class State:
    """A point (G, Q, I) in state space.

    ``I >= 0`` is the physically meaningful region; negative intensities
    are representable because spectral routines linearize around
    arbitrary points.
    """

    G: float
    Q: float
    I: float

    def __post_init__(self) -> None:
        for name in ("G", "Q", "I"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.G, self.Q, self.I], dtype=float)

    @classmethod
    def from_array(cls, y) -> "State":
        g, q, i = (float(v) for v in y)
        return cls(g, q, i)


#: Working-point parameters used throughout the bifurcation study:
#: slow gain and absorber (gamma = 0.04), pump just above the lasing
#: threshold of the solitary laser.
PRESETS: dict[str, dict[str, float]] = {
    "figure1": {"A": 6.5, "B": 5.8, "a": 1.8, "gamma_G": 0.04, "gamma_Q": 0.04},
}


def preset(name: str, **overrides) -> ModelParams:
    """Build a :class:`ModelParams` from a named preset.

    Parameters
    ----------
    name : str
        Key into :data:`PRESETS`.
    **overrides
        Any field of :class:`ModelParams`, e.g. ``kappa=0.01, tau=100``.
    """
    try:
        base = dict(PRESETS[name])
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise InvalidArgumentError(f"unknown preset {name!r}; known presets: {known}") from None
    base.update(overrides)
    return ModelParams(**base)


def _state_vector(state: State | np.ndarray) -> np.ndarray:
    """``(G, Q, I)`` of a :class:`State` or of a sequence of three numbers."""
    if isinstance(state, State):
        return state.as_array()
    g, q, i = (float(v) for v in state)
    return np.array([g, q, i])


def rhs(state: State | np.ndarray, delayed_intensity: float, params: ModelParams) -> np.ndarray:
    """Right-hand side of the rate equations.

    Parameters
    ----------
    state : State or array_like of shape (3,)
        Current state (G, Q, I).
    delayed_intensity : float
        The intensity I(t - tau) re-injected by the feedback loop.
    params : ModelParams

    Returns
    -------
    ndarray of shape (3,)
        Time derivative (G', Q', I').
    """
    x = _state_vector(state)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("state components must be finite")
    di = float(delayed_intensity)
    if not math.isfinite(di):
        raise InvalidArgumentError("delayed_intensity must be finite")
    return field_rates(x, di, params)


def jacobians(state: State | np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Jacobians of :func:`rhs` at a state.

    Returns
    -------
    (M1, M2) : tuple of ndarray, each 3 x 3
        ``M1`` is the derivative with respect to the current state,
        ``M2`` with respect to the delayed state.  ``M2`` has a single
        nonzero entry, ``M2[2, 2] = kappa``.
    """
    m1 = np.zeros((3, 3))
    m1[M1_ENTRIES] = m1_entries(_state_vector(state), params)
    m2 = np.zeros((3, 3))
    m2[2, 2] = params.kappa
    return m1, m2


#: The entries ``(row, column)`` of ``M1`` that are not identically zero
#: (``G`` and ``Q`` do not drive each other), in the order of :func:`m1_entries`.
M1_ENTRIES = (np.array([0, 0, 1, 1, 2, 2, 2]), np.array([0, 2, 1, 2, 0, 1, 2]))


def field_rates(x: np.ndarray, delayed_intensity: np.ndarray, params: ModelParams) -> np.ndarray:
    """:func:`rhs` over arrays, without the input checks.

    ``x`` holds states with ``(G, Q, I)`` on its last axis, and
    ``delayed_intensity`` the matching ``I(t - tau)``; the rates come back
    in the shape of ``x``.
    """
    g, q, i = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([
        params.gamma_G * (params.A - g * (1.0 + i)),
        params.gamma_Q * (params.B - q * (1.0 + params.a * i)),
        (g - q - 1.0) * i + params.kappa * delayed_intensity,
    ], axis=-1)


def m1_entries(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """The entries :data:`M1_ENTRIES` of :func:`jacobians`' ``M1`` over arrays.

    ``x`` holds states with ``(G, Q, I)`` on its last axis, which the seven
    entries ``dG'/dG, dG'/dI, dQ'/dQ, dQ'/dI, dI'/dG, dI'/dQ, dI'/dI``
    replace.
    """
    g, q, i = x[..., 0], x[..., 1], x[..., 2]
    return np.stack([
        -params.gamma_G * (1.0 + i), -params.gamma_G * g,
        -params.gamma_Q * (1.0 + params.a * i), -params.gamma_Q * params.a * q,
        i, -i, g - q - 1.0,
    ], axis=-1)


@dataclass(frozen=True)
class SteadyStateSet:
    """The steady states of the model for one parameter set.

    Attributes
    ----------
    off : State
        The non-lasing state (A, B, 0).  Always present.
    p, q : State or None
        The lasing equilibria, present if and only if the discriminant
        is nonnegative.  ``p`` carries the smaller intensity, ``q`` the
        larger; they collide at the fold where the discriminant
        vanishes.
    discriminant : float
        Discriminant of the intensity quadratic; the p/q pair exists for
        ``discriminant >= 0``.
    residuals : dict
        Infinity-norm of the right-hand side at each present state
        (with the delayed intensity equal to the state intensity).
    """

    off: State
    p: State | None
    q: State | None
    discriminant: float
    residuals: dict[str, float]

    def present(self) -> dict[str, State]:
        """Labelled states actually present at these parameters."""
        out: dict[str, State] = {"off": self.off}
        if self.p is not None:
            out["p"] = self.p
        if self.q is not None:
            out["q"] = self.q
        return out


def _equilibrium_residual(state: State, params: ModelParams) -> float:
    return float(np.max(np.abs(rhs(state, state.I, params))))


def discriminant(params: ModelParams) -> float:
    """Discriminant of the steady-intensity quadratic.

    The nontrivial steady intensities solve

        a*(1-kappa)*I**2 - L*I - (A - B - (1-kappa)) = 0,
        L = a*A - B - (1+a)*(1-kappa),

    so the pair exists iff ``L**2 + 4*a*(1-kappa)*(A-B-(1-kappa)) >= 0``.
    """
    u = 1.0 - params.kappa
    lin = params.a * params.A - params.B - (1.0 + params.a) * u
    return lin * lin + 4.0 * params.a * u * (params.A - params.B - u)


def steady_states(params: ModelParams) -> SteadyStateSet:
    """All steady states at the given parameters.

    A steady state satisfies the rate equations with the delayed
    intensity equal to the current one, so the delay drops out and the
    feedback only rescales the loss term by ``1 - kappa``.

    Raises
    ------
    SingularParameterError
        If ``kappa == 1`` (the effective loss vanishes and the lasing
        branch escapes to infinite intensity).
    """
    if params.kappa == 1.0:
        raise SingularParameterError("kappa = 1 makes the lasing equilibria singular")
    off = State(params.A, params.B, 0.0)
    residuals = {"off": _equilibrium_residual(off, params)}

    u = 1.0 - params.kappa
    disc = discriminant(params)
    p = q = None
    if disc >= 0.0:
        lin = params.a * params.A - params.B - (1.0 + params.a) * u
        root = math.sqrt(disc)
        denom = 2.0 * params.a * u
        intensities = [(lin - root) / denom, (lin + root) / denom]
        states = []
        for i_val in intensities:
            g = params.A / (1.0 + i_val)
            qv = params.B / (1.0 + params.a * i_val)
            states.append(State(g, qv, i_val))
        p, q = states
        residuals["p"] = _equilibrium_residual(p, params)
        residuals["q"] = _equilibrium_residual(q, params)
    return SteadyStateSet(off=off, p=p, q=q, discriminant=disc, residuals=residuals)


def kappa_fold(A: float, B: float, a: float) -> float:
    """Feedback strength at which the lasing equilibria p and q collide.

    This is the root of the discriminant of the steady-intensity
    quadratic, viewed as a function of kappa:

        kappa_F = ((1 - A)*a - B - 1 + 2*sqrt(a*A*B)) / (a - 1)

    Raises
    ------
    SingularParameterError
        If ``a == 1`` (the discriminant degenerates to a linear
        function of kappa and the fold formula loses its meaning).
    InvalidArgumentError
        If ``a*A*B < 0``.
    """
    if a == 1.0:
        raise SingularParameterError("a = 1 is a singular point of the fold formula")
    prod = a * A * B
    if prod < 0.0:
        raise InvalidArgumentError("a*A*B must be nonnegative")
    return ((1.0 - A) * a - B - 1.0 + 2.0 * math.sqrt(prod)) / (a - 1.0)


def kappa_transcritical(A: float, B: float) -> float:
    """Feedback strength at which the lasing branch crosses the off state.

    At ``kappa_T = -(A - B - 1)`` the off state exchanges stability with
    the p equilibrium (the intensity root passes through zero).
    """
    return -(A - B - 1.0)
