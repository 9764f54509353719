"""Inference for vectors of independent Poisson counts over a product grid.

A :class:`ProductGrid` raises a base grid of d rates to k coordinates, a
lattice of D = d^k candidate rate vectors.  The recursion runs in
``engine`` for both grid kinds (``multi_init`` and ``multi_update_stream``
are the engine's ``init`` and ``update_stream``); this module holds what
is lattice-only: the mixture pmf of a count vector, the per-coordinate
estimates and their covariance.  The kernel factorizes across coordinates,
so lattice log-kernel rows are outer sums of per-coordinate rows.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import _counts, init, update_stream
from .inference import default_y_max
from .model import DegenerateLikelihoodError, KernelMatrixCache, MixingWeights, ProductGrid

_COVARIANCE_MAX_D = 10**4

# The lattice recursion is the engine's own; these names are the same objects.
multi_init = init
multi_update_stream = update_stream


def _validate_yvec(grid: ProductGrid, yvec) -> tuple:
    return tuple(_counts(grid, [yvec])[0].tolist())


def _log_lattice_row(cache: KernelMatrixCache, yvec) -> np.ndarray:
    row = np.zeros(1)
    for y in yvec:
        row = (row[:, None] + cache.log_row(int(y))[None, :]).ravel()
    return row


def multi_mixture_pmf(g: MixingWeights, yvec, cache: KernelMatrixCache | None = None) -> float:
    yvec = _validate_yvec(g.grid, yvec)
    if cache is None:
        cache = KernelMatrixCache(g.grid.base)
    log_row = _log_lattice_row(cache, yvec)
    live = g.weights > 0
    if not live.any():
        return 0.0
    m = log_row[live].max()
    return float(math.exp(m) * np.dot(np.exp(log_row[live] - m), g.weights[live]))


def multi_estimate(
    g: MixingWeights, yvec, coord: int, cache: KernelMatrixCache | None = None
) -> float:
    """Coordinate estimate (y_j + 1) p_g(y + e_j) / p_g(y)."""
    yvec = _validate_yvec(g.grid, yvec)
    if not 0 <= coord < g.grid.k:
        raise ValueError("coordinate out of range")
    if cache is None:
        cache = KernelMatrixCache(g.grid.base)
    p_y = multi_mixture_pmf(g, yvec, cache)
    if p_y <= 0:
        raise DegenerateLikelihoodError(yvec)
    bumped = tuple(y + 1 if j == coord else y for j, y in enumerate(yvec))
    p_up = multi_mixture_pmf(g, bumped, cache)
    return float((yvec[coord] + 1) * p_up / p_y)


def multi_asymptotic_variance(g: MixingWeights, yvec, y_max: int | None = None) -> np.ndarray:
    """k-by-k covariance of the coordinate estimates' fluctuation.

    Entry (j, j') pairs the count contrasts toward y+e_j and y+e_j', summed
    against the predictive pmf over the truncated count lattice (each
    coordinate up to ``y_max``, by default ``default_y_max`` of the base
    grid).  Symmetric positive semidefinite; reduces to the scalar variance
    at k = 1.
    """
    grid = g.grid
    yvec = _validate_yvec(grid, yvec)
    if grid.size > _COVARIANCE_MAX_D:
        raise ValueError(f"covariance refused for lattice size {grid.size}")
    if y_max is None:
        y_max = default_y_max(grid.base)
    cache = KernelMatrixCache(grid.base)
    p_y = multi_mixture_pmf(g, yvec, cache)
    if p_y <= 0:
        raise DegenerateLikelihoodError(yvec)
    k_y = np.exp(_log_lattice_row(cache, yvec))
    contrasts = np.empty((grid.k, grid.size))
    theta_hat = np.empty(grid.k)
    for j in range(grid.k):
        bumped = tuple(y + 1 if jj == j else y for jj, y in enumerate(yvec))
        p_up = multi_mixture_pmf(g, bumped, cache)
        if p_up <= 0:
            raise DegenerateLikelihoodError(bumped)
        k_up = np.exp(_log_lattice_row(cache, bumped))
        contrasts[j] = k_up / p_up - k_y / p_y
        theta_hat[j] = (yvec[j] + 1) * p_up / p_y
    zs = np.indices((y_max + 1,) * grid.k).reshape(grid.k, -1).T  # count vectors, lexicographic
    log_base = cache.log_table(y_max + 1)
    digit = np.indices((len(grid.base),) * grid.k).reshape(grid.k, -1)  # base index per coordinate
    cov = np.zeros((grid.k, grid.k))
    chunk = max(1, 2_000_000 // grid.size)
    for lo in range(0, zs.shape[0], chunk):
        block = zs[lo : lo + chunk]
        log_kernel = np.zeros((block.shape[0], grid.size))
        for j in range(grid.k):
            log_kernel += log_base[block[:, j]][:, digit[j]]
        kernel = np.exp(log_kernel)
        p_z = kernel @ g.weights
        live = p_z > 0
        post = kernel[live] * g.weights[None, :] / p_z[live][:, None]
        b = post @ contrasts.T  # (nz, k)
        cov += (b * p_z[live][:, None]).T @ b
    cov = 0.5 * (cov + cov.T)
    return np.outer(theta_hat, theta_hat) * cov
