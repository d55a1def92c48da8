"""Road traffic simulation with signal phases as a computing reservoir."""

from .io import VERSION as __version__
from .io import (ExperimentConfig, OVParams, load_config, read_series_csv,
                 synth_series)
from .lattice import Network, TurnTable, assign_turn_table, build_lattice
from .signals import PhaseBank, reservoir_observables
from .density import DensitySim, Trajectory, init_density
from .agents import AgentSim, AgentState, init_agents
from .readout import assemble_matrix, log_nrmse, predict, ridge_fit
from .tasks import (TrialResult, average_prediction, lag_diagnostic,
                    run_experiment, select_reservoir_fraction, sweep)

__all__ = [
    "__version__", "ExperimentConfig", "load_config",
    "read_series_csv", "synth_series", "Network", "TurnTable",
    "assign_turn_table", "build_lattice", "PhaseBank",
    "reservoir_observables", "DensitySim", "Trajectory",
    "init_density", "AgentSim", "AgentState", "OVParams", "init_agents",
    "assemble_matrix", "log_nrmse", "predict", "ridge_fit", "TrialResult",
    "average_prediction", "lag_diagnostic", "run_experiment",
    "select_reservoir_fraction", "sweep",
]
