"""Spectral toolkit for stratified transport near Couette flow in sheared coordinates."""

__version__ = "0.1.0"

# numpy loads these at their first use; every run command uses them, so they
# load with the package rather than inside a command
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .config import ConfigError, SimConfig, default_config_text
from .diagnostics import DiagnosticRow, compute_row
from .lattice import Lattice, SpectralField, iota, l1_norm
from .simulate import (
    NumericalAbort,
    SimState,
    init_field,
    nonlinear_rhs,
    run_simulation,
    step_linear,
    step_nonlinear,
)
from .storage import (
    CheckpointError,
    RunManifest,
    load_checkpoint,
    save_checkpoint,
)
from .symbols import (
    damping_antiderivative,
    damping_coeff,
    damping_integral,
    nonzero_mode_decay_bound_check,
    orr_amplification,
    semigroup,
    transport_symbol,
    velocity_symbol,
    zero_mode_rate,
)
from .toymodels import (
    FitError,
    GrowthFit,
    fit_loglog_slope,
    liftup_growth,
    orr_toy_integrate,
    semigroup_bound_check,
    zero_mode_decay_bound,
)
from .weights import (
    WeightParams,
    a_multiplier,
    b_multiplier,
    critical_times,
    gevrey_log_norm,
    gevrey_norm,
    lambda_t,
    ratio_lemma_sweep,
    total_growth_check,
    w_k,
    w_nr,
    w_r,
)

__all__ = [
    "__version__",
    "ConfigError",
    "SimConfig",
    "default_config_text",
    "DiagnosticRow",
    "compute_row",
    "Lattice",
    "SpectralField",
    "iota",
    "l1_norm",
    "NumericalAbort",
    "SimState",
    "init_field",
    "nonlinear_rhs",
    "run_simulation",
    "step_linear",
    "step_nonlinear",
    "CheckpointError",
    "RunManifest",
    "load_checkpoint",
    "save_checkpoint",
    "damping_antiderivative",
    "damping_coeff",
    "damping_integral",
    "nonzero_mode_decay_bound_check",
    "orr_amplification",
    "semigroup",
    "transport_symbol",
    "velocity_symbol",
    "zero_mode_rate",
    "FitError",
    "GrowthFit",
    "fit_loglog_slope",
    "liftup_growth",
    "orr_toy_integrate",
    "semigroup_bound_check",
    "zero_mode_decay_bound",
    "WeightParams",
    "a_multiplier",
    "b_multiplier",
    "critical_times",
    "gevrey_log_norm",
    "gevrey_norm",
    "lambda_t",
    "ratio_lemma_sweep",
    "total_growth_check",
    "w_k",
    "w_nr",
    "w_r",
]
