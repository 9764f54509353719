"""Streaming empirical Bayes estimation of Poisson means on a fixed grid."""

from .engine import (
    LearningRate,
    NewtonState,
    deserialize_state,
    init,
    serialize_state,
    update,
    update_stream,
)
from .gridding import GridSpec, build_equispaced_grid, kl_grid_size
from .inference import (
    EstimateReport,
    asymptotic_variance,
    clt_scale,
    credible_interval,
    credible_intervals,
    ratio_estimate,
)
from .model import (
    CountHistogram,
    DegenerateLikelihoodError,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    mixture_pmf,
)
from .priors import PriorSpec, parse_prior

__all__ = [
    "CountHistogram",
    "DegenerateLikelihoodError",
    "EstimateReport",
    "Grid",
    "GridSpec",
    "KernelMatrixCache",
    "LearningRate",
    "MixingWeights",
    "NewtonState",
    "PriorSpec",
    "asymptotic_variance",
    "build_equispaced_grid",
    "clt_scale",
    "credible_interval",
    "credible_intervals",
    "deserialize_state",
    "init",
    "kl_grid_size",
    "mixture_pmf",
    "parse_prior",
    "ratio_estimate",
    "serialize_state",
    "update",
    "update_stream",
]
