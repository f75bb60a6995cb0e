"""AR(1) with intercept: simulation, least squares, and limit-theory checks."""

from .estimator import (
    LsEstimate,
    SingularDesignError,
    error_rates,
    ls_estimate,
)
from .innovations import (
    InnovationModel,
    compute_bn,
    custom,
    ell_at_bn,
    eval_l,
    gaussian,
    model_from_config,
    pareto_tail2,
    rademacher,
    sample_innovations,
    uniform_sym,
)
from .limits import (
    default_truncation,
    growth_dispersion,
    growth_mean,
    growth_mean_sq,
    sample_limit,
)
from .montecarlo import (
    ConfigError,
    ExperimentConfig,
    McReport,
    ks_two_sample,
    rate_slope,
    run_experiment,
    summarize,
)
from .process import Ar1Path, Regime, resolve_rho, simulate_path
from .rng import DEFAULT_SEED, derive_seed, generator

__version__ = "0.1.0"
