"""Deterministic single-process simulator for federated recommendation with
parameter-efficient item embeddings."""

from .config import ExperimentConfig, load_config
from .federation import Simulation
from .rng import RngStream

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "RngStream", "Simulation", "load_config", "__version__"]
