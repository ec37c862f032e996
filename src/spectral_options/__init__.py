"""Option discovery for tabular MDPs via spectral clustering of estimated models."""

from spectral_options.env import (
    Draws,
    GridWorld,
    MapError,
    Trajectory,
    Transitions,
    bundled_map_text,
    load_gridworld,
    sample_trajectory,
    step,
)
from spectral_options.model import EstimatedModel, adjacency, exhaustive_model
from spectral_options.spectral import (
    MembershipMatrix,
    build_laplacian,
    cluster,
    connectivity,
    select_k,
)
from spectral_options.options import Option, compose_options
from spectral_options.agents import (
    QTable,
    epsilon_greedy,
    intra_option_update,
    run_option,
    smdp_q_update,
)
from spectral_options.pipeline import aggregate_model, kmeans_microstates, run_odstc

__version__ = "0.1.0"

__all__ = [
    "Draws", "GridWorld", "MapError", "Trajectory", "Transitions", "bundled_map_text",
    "load_gridworld", "sample_trajectory", "step",
    "EstimatedModel", "adjacency", "exhaustive_model",
    "MembershipMatrix", "build_laplacian", "cluster", "connectivity", "select_k",
    "Option", "compose_options",
    "QTable", "epsilon_greedy", "intra_option_update", "run_option", "smdp_q_update",
    "aggregate_model", "kmeans_microstates", "run_odstc",
    "__version__",
]
