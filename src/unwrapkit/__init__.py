"""Multi-frequency phase-unwrapping toolkit.

Closed-form range estimation from wrapped phases measured at several
frequencies: a three-stage estimator ("concerto"), the classical
beat-wavelength chain ("bw"), an excess-fractions search ("ef"), the
matching frequency-pattern design, closed-form error statistics with the
Cramer-Rao bound, and a deterministic Monte-Carlo harness with a CLI.
"""

from .core import (
    C_VACUUM_M_S,
    FrequencyPlan,
    NoiseSpec,
    PhaseObservation,
    wrap_phase,
)
from .errors import (
    ConfigError,
    DegeneratePlanError,
    InfeasibleDesignError,
    InvalidArgumentError,
    UndefinedBoundError,
    UnknownEstimatorError,
    UnwrapKitError,
)
from .estimators import (
    EstimateTrace,
    beat_wavelengths,
    bw_estimate,
    coarse_estimate,
    compensate_phases,
    concerto_estimate,
    ef_estimate,
    fold_integers,
    lookup_estimator,
    ls_refine,
    residual_estimate,
)
from .freqdesign import (
    design_bw_plan,
    design_concerto_plan,
    plan_from_csv,
    plan_to_csv,
    validate_plan,
)
from .simkit import (
    SimReport,
    SimRow,
    ThresholdResult,
    TrialConfig,
    mix_seed,
    run_trials,
    snr_threshold,
    sweep_range,
    sweep_snr,
    synthesize_observation,
    true_phases,
)
from .theory import crb, sigma_e

__version__ = "0.1.0"

__all__ = [
    "C_VACUUM_M_S",
    "ConfigError",
    "DegeneratePlanError",
    "EstimateTrace",
    "FrequencyPlan",
    "InfeasibleDesignError",
    "InvalidArgumentError",
    "NoiseSpec",
    "PhaseObservation",
    "SimReport",
    "SimRow",
    "ThresholdResult",
    "TrialConfig",
    "UndefinedBoundError",
    "UnknownEstimatorError",
    "UnwrapKitError",
    "beat_wavelengths",
    "bw_estimate",
    "coarse_estimate",
    "compensate_phases",
    "concerto_estimate",
    "crb",
    "design_bw_plan",
    "design_concerto_plan",
    "ef_estimate",
    "fold_integers",
    "lookup_estimator",
    "ls_refine",
    "mix_seed",
    "plan_from_csv",
    "plan_to_csv",
    "residual_estimate",
    "run_trials",
    "sigma_e",
    "snr_threshold",
    "sweep_range",
    "sweep_snr",
    "synthesize_observation",
    "true_phases",
    "validate_plan",
    "wrap_phase",
]
