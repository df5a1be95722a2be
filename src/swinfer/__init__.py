"""Sliced transport-cost estimation with two-sample asymptotic inference.

The package estimates the p-sliced Wasserstein distance between two
multivariate samples by averaging exact one-dimensional transport costs
over random projection directions, estimates the asymptotic variance of
that estimator from optimal-transport potentials, and turns both into
studentized tests and confidence intervals. A replication harness and a
command-line front end sit on top of the library API.
"""

from __future__ import annotations

from .distributions import (GaussianSpec, JAlphaResult, gaussian_quantile_density,
                            gaussian_sw2_meanshift, j_alpha, sample_gaussian,
                            uniform_quantile_density)
from .estimators import (SlicedEstimate, VarianceComponents, combined_variance,
                         sliced_estimate, v_hat_sq, w_hat_sq)
from .geometry import (DirectionSet, SampleMatrix, as_sample_matrix,
                       sample_directions)
from .inference import (DegenerateVarianceError, InferenceReport, analyze,
                        confidence_interval, effective_rate, test_statistic,
                        two_sided_pvalue)
from .ot1d import (SortedProjection, c_conjugate, duality_gap, potential_values,
                   sort_projection, wasserstein_pp)
from .sim import CellResult, SimulationPlan, SimulationResult, run_plan

__version__ = "0.1.0"

__all__ = [
    "CellResult", "DegenerateVarianceError", "DirectionSet", "GaussianSpec",
    "InferenceReport", "JAlphaResult", "SampleMatrix", "SimulationPlan",
    "SimulationResult", "SlicedEstimate", "SortedProjection",
    "VarianceComponents", "analyze", "as_sample_matrix", "c_conjugate",
    "combined_variance", "confidence_interval", "duality_gap",
    "effective_rate", "gaussian_quantile_density", "gaussian_sw2_meanshift",
    "j_alpha", "potential_values", "run_plan",
    "sample_directions", "sample_gaussian", "sliced_estimate",
    "sort_projection", "test_statistic", "two_sided_pvalue", "v_hat_sq",
    "w_hat_sq", "wasserstein_pp",
]
