"""dyner: simulation and exact analytics for the dynamic Erdos-Renyi graph.

Edges on n fixed vertices appear and disappear as independent Markov on-off
processes (death rate alpha per present edge, birth rate beta/(n-1) per
absent pair).  The package computes the closed-form quantities of this
model, simulates it exactly, and cross-checks the two against each other.
"""

from .logspace import LogNonNegative
from .model import DerivedParams, ModelParams, birth_rate, closest_integer, death_rate, derive
from .stats import EstimateCI, ks_distance, mean_ci

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LogNonNegative",
    "ModelParams",
    "DerivedParams",
    "derive",
    "birth_rate",
    "death_rate",
    "closest_integer",
    "EstimateCI",
    "mean_ci",
    "ks_distance",
]
