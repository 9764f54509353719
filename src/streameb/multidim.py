"""Inference for vectors of independent Poisson counts over a product grid.

A :class:`ProductGrid` raises a base grid of d rates to k coordinates, a
lattice of D = d^k candidate rate vectors.  The recursion runs in
``engine`` for both grid kinds (``multi_init`` and ``multi_update_stream``
are the engine's ``init`` and ``update_stream``), and the pmf, estimates
and covariance run in ``model`` and ``inference`` for both grid kinds too:
``model.log_kernel_rows`` builds a lattice row as the outer sum of its
per-coordinate rows, and ``inference`` treats each coordinate estimate as a
(count vector, coordinate) pair.  The functions here validate the count
vector and call those.
"""

from __future__ import annotations

import numpy as np

from .engine import _counts, init, update_stream
from .inference import _estimates, _pair_estimates
from .model import KernelMatrixCache, MixingWeights, ProductGrid, log_kernel_rows, log_mixture

_COVARIANCE_MAX_D = 10**4

# The lattice recursion is the engine's own; these names are the same objects.
multi_init = init
multi_update_stream = update_stream


def _validate_yvec(grid: ProductGrid, yvec) -> tuple:
    return tuple(_counts(grid, [yvec])[0].tolist())


def multi_mixture_pmf(g: MixingWeights, yvec, cache: KernelMatrixCache | None = None) -> float:
    """p_g(y) for a count vector y; underflow yields 0.0."""
    rows = log_kernel_rows(g.grid, [_validate_yvec(g.grid, yvec)], cache)
    return float(np.exp(log_mixture(rows, g.weights)[0][0]))


def multi_estimate(
    g: MixingWeights, yvec, coord: int, cache: KernelMatrixCache | None = None
) -> float:
    """Coordinate estimate (y_j + 1) p_g(y + e_j) / p_g(y)."""
    yvec = _validate_yvec(g.grid, yvec)
    if not 0 <= coord < g.grid.k:
        raise ValueError("coordinate out of range")
    return float(_pair_estimates(g, [(yvec, coord)], cache)[0][0])


def multi_asymptotic_variance(g: MixingWeights, yvec, y_max: int | None = None) -> np.ndarray:
    """k-by-k covariance of the coordinate estimates' fluctuation.

    Entry (j, j') pairs the count contrasts toward y+e_j and y+e_j', summed
    against the predictive pmf over the count lattice with every coordinate
    up to ``y_max``, or up to the certified truncation point when ``y_max``
    is None (see ``inference``).  Symmetric positive semidefinite; reduces
    to the scalar variance at k = 1.
    """
    grid = g.grid
    yvec = _validate_yvec(grid, yvec)
    if grid.size > _COVARIANCE_MAX_D:
        raise ValueError(f"covariance refused for lattice size {grid.size}")
    return _estimates(g, [(yvec, j) for j in range(grid.k)], y_max, None)[1]
