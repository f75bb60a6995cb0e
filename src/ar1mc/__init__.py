"""AR(1) with intercept: simulation, least squares, and limit-theory checks."""

from .estimator import ls_estimate
from .innovations import InnovationModel
from .montecarlo import ExperimentConfig, run_experiment
from .process import Regime, simulate_path

__version__ = "0.1.0"
