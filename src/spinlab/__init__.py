"""Production and analysis of spin-squeezed states of one or two collective
spins under continuous QND measurement with real-time feedback.

Everything is computed in scaled units: time is measured in units of the
inverse measurement rate and the feedback gain is quoted relative to the
measurement rate, so the physical rate drops out of the dynamics entirely.
"""

from .algebra import (
    SpinQuantum,
    spin_matrices,
    coherent_spin_state,
    two_mode_coherent_state,
    MeasurementFrame,
    single_mode_frame,
    two_mode_frame,
)
from .dynamics import EvolutionSpec, evolve, dissipator
from .feedback import FeedbackScheme, GainError
from .metrics import MetricsRow, compute_metrics, min_squeezing_sweep
from .optimal_states import optimal_curve, min_xi2_on_curve
from .stochastic import WienerStream, trajectory_run, ensemble_average
from .harness import SimConfig, ConfigError, run_scenario, gamma_from_experiment

__all__ = [
    "SpinQuantum",
    "spin_matrices",
    "coherent_spin_state",
    "two_mode_coherent_state",
    "MeasurementFrame",
    "single_mode_frame",
    "two_mode_frame",
    "EvolutionSpec",
    "evolve",
    "dissipator",
    "FeedbackScheme",
    "GainError",
    "MetricsRow",
    "compute_metrics",
    "min_squeezing_sweep",
    "optimal_curve",
    "min_xi2_on_curve",
    "WienerStream",
    "trajectory_run",
    "ensemble_average",
    "SimConfig",
    "ConfigError",
    "run_scenario",
    "gamma_from_experiment",
]

__version__ = "0.1.0"
