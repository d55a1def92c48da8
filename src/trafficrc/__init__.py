"""Road traffic simulation with signal phases as a computing reservoir."""

from .io import VERSION as __version__
from .io import ExperimentConfig, Series, load_config, read_series_csv, synth_series
from .lattice import Network, TurnTable, assign_turn_table, build_lattice
from .signals import PhaseBank, reservoir_observables
from .density import DensitySim, Trajectory, init_density
from .agents import AgentSim, AgentState, OVParams, init_agents
from .readout import (FeatureDef, ReadoutModel, assemble_matrix, log_nrmse,
                      predict, ridge_fit)
from .tasks import (TrialResult, average_prediction, lag_diagnostic,
                    run_experiment, run_task1_agents, run_task1_density,
                    run_task2_external, select_reservoir_fraction, sweep)

__all__ = [
    "__version__", "ExperimentConfig", "Series", "load_config",
    "read_series_csv", "synth_series", "Network", "TurnTable",
    "assign_turn_table", "build_lattice", "PhaseBank",
    "reservoir_observables", "DensitySim", "Trajectory",
    "init_density", "AgentSim", "AgentState", "OVParams", "init_agents",
    "FeatureDef", "ReadoutModel", "assemble_matrix",
    "log_nrmse", "predict", "ridge_fit", "TrialResult",
    "average_prediction", "lag_diagnostic", "run_experiment",
    "run_task1_agents", "run_task1_density", "run_task2_external",
    "select_reservoir_fraction", "sweep",
]
