"""Pulsing laser dynamics with delayed optical self-feedback.

Tools for the Yamada gain/absorber/intensity model coupled to a delayed
replica of its own intensity: forward integration of the delay
differential equations, detection and classification of pulse trains,
linear stability of the steady states (transcendental characteristic
roots, Hopf curves, closed-form bifurcation loci), and Floquet spectra
of pulsing orbits together with their analytic large-delay limit.
"""

from .errors import (
    InvalidArgumentError,
    NoBranchError,
    NumericalError,
    OutOfDomainError,
    SingularParameterError,
    StiffnessError,
)
from .model import (
    PRESETS,
    ModelParams,
    State,
    SteadyStateSet,
    jacobians,
    kappa_fold,
    kappa_transcritical,
    preset,
    rhs,
    steady_states,
)
from .integrator import HistorySpec, SolverStats, StepControl, Trajectory, integrate
from .stability import (
    BTPoint,
    HopfCurvePoint,
    SpectrumSet,
    bt_point,
    char_off,
    classify_off,
    hopf_curve_off,
    roots_generic,
    roots_off,
)
from .floquet import (
    ACSCurve,
    FloquetSet,
    PeriodicOrbit,
    acs,
    acs_max_modulus,
    extract_orbit,
    max_pulses,
    min_stable_delay,
    monodromy_multipliers,
)
from .pulses import (
    BranchSample,
    PulseTrainStats,
    classify_response,
    detect_pulses,
    fold_estimate,
    reappearance_shift,
    refine_period,
    scan_kappa_min,
    settle_train,
    single_pulse_seed,
    sweep_tau,
)

__version__ = "0.1.0"
