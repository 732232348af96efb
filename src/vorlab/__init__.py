"""Stochastic-geometry lab for typical Voronoi-cell measures.

Exact d-ball geometry, Monte Carlo estimators for the limiting cell-measure
moments, empirical cell experiments under arbitrary densities, and
diameter-scaling experiments; usable as a library or through the batch CLI
(``vorlab``).
"""

from .geometry import (
    Ball,
    Estimate,
    ball_intersection_volume,
    interval_union_length,
    two_ball_union_volume,
    union_volume_mc,
    unit_ball_volume,
)
from .sampling import (
    DensityModel,
    RandomStream,
    gaussian,
    parse_density,
    uniform_ball,
    uniform_cube,
)
from .moments import (
    MomentBounds,
    alpha_bounds,
    estimate_alpha,
    estimate_z_moment,
    z_cdf_d1,
    z_moment_bounds,
    z_moment_closed_form_d1,
)
from .cellsim import (
    CellExperimentConfig,
    CellExperimentResult,
    DiameterExperimentConfig,
    DiameterResult,
    NNIndex,
    cone_directions,
    cone_nn_radii,
    estimate_cell_diameter,
    run_cell_experiment,
    run_diameter_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Estimate",
    "ball_intersection_volume",
    "interval_union_length",
    "two_ball_union_volume",
    "union_volume_mc",
    "unit_ball_volume",
    "DensityModel",
    "RandomStream",
    "gaussian",
    "parse_density",
    "uniform_ball",
    "uniform_cube",
    "MomentBounds",
    "alpha_bounds",
    "estimate_alpha",
    "estimate_z_moment",
    "z_cdf_d1",
    "z_moment_bounds",
    "z_moment_closed_form_d1",
    "CellExperimentConfig",
    "CellExperimentResult",
    "DiameterExperimentConfig",
    "DiameterResult",
    "NNIndex",
    "cone_directions",
    "cone_nn_radii",
    "estimate_cell_diameter",
    "run_cell_experiment",
    "run_diameter_experiment",
    "__version__",
]
