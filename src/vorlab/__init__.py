"""Stochastic-geometry lab for typical Voronoi-cell measures.

Exact d-ball geometry, Monte Carlo estimators for the limiting cell-measure
moments, empirical cell experiments under arbitrary densities, and
diameter-scaling experiments; usable as a library or through the batch CLI
(``vorlab``).  The package root holds the names of the README's library
quick start; everything else is imported from its module.
"""

from .cellsim import CellExperimentConfig, run_cell_experiment
from .moments import estimate_alpha_parallel
from .sampling import uniform_ball

__version__ = "0.1.0"

__all__ = [
    "estimate_alpha_parallel",
    "CellExperimentConfig",
    "run_cell_experiment",
    "uniform_ball",
    "__version__",
]
