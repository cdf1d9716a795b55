"""Multi-objective gradient descent toolkit.

Descent directions that treat several losses at once: the equiangular
direction (min-norm combination of *normalized* gradients, rescaled back
onto the gradients' scale) and the classic min-norm hull direction, both
driven by an exact simplex solver (Wolfe's min-norm-point method; its
public names keep their Frank-Wolfe-era spelling for compatibility).
Includes analytic benchmarks, small hand-backpropagated networks, dataset
utilities for imbalanced and two-task experiments, and a config-driven
experiment CLI.

Diagnostics go to the ``mograd`` logger (stdlib ``logging``), which is
silent unless the application configures logging.
"""

import logging

from .direction import (
    DirectionResult,
    GradientSet,
    bisector_two,
    edm_direction,
    mgda_direction,
    stationarity_residual,
)
from .exceptions import DataError, NumericalError
from .minnorm import (
    FwConfig,
    FwResult,
    combination_norm_sq,
    frank_wolfe_min_norm,
    fw_line_search,
    gram_matrix,
)
from .optimize import (
    IterationTrace,
    OptimizerConfig,
    RunResult,
    run_edm,
    run_mgda,
    run_multitask,
    run_weighted_sum,
)
from .problems import (
    QuadraticPair,
    ScaledProblem,
    finite_diff_gradient,
    pareto_set_distance,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "DataError",
    "DirectionResult",
    "FwConfig",
    "FwResult",
    "GradientSet",
    "IterationTrace",
    "NumericalError",
    "OptimizerConfig",
    "QuadraticPair",
    "RunResult",
    "ScaledProblem",
    "bisector_two",
    "combination_norm_sq",
    "edm_direction",
    "finite_diff_gradient",
    "frank_wolfe_min_norm",
    "fw_line_search",
    "gram_matrix",
    "mgda_direction",
    "pareto_set_distance",
    "run_edm",
    "run_mgda",
    "run_multitask",
    "run_weighted_sum",
    "stationarity_residual",
]
