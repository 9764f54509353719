"""Grid sizing: the equispaced support grid for a spacing and a moment bound.

The grid size is the smallest integer ``n`` with ``n > 1/eta`` and
``n^(1-k) log(n eta) m_k <= eta^k``, where ``m_k`` bounds the k-th moment of
the count distribution.  Binning a prior onto that grid keeps the truncated
Kullback-Leibler divergence between the exact and discretized count
distributions below ``2 eta``; the acceptance tests check this numerically.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .model import Grid

_SIZE_CAP = 10**9


class GridInfeasibleError(RuntimeError):
    """No grid size up to 1e9 satisfies the spacing condition."""


@dataclass(frozen=True)
class GridSpec:
    """Spacing eta, moment order k, moment bound m_k, optional size cap."""

    eta: float
    k: int
    m_k: float
    d_cap: int | None = None

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.k < 2:
            raise ValueError("moment order k must be at least 2")
        if not self.m_k > 0:
            raise ValueError("moment bound m_k must be positive")
        if self.d_cap is not None and self.d_cap < 2:
            raise ValueError("d_cap must be at least 2")


def kl_grid_size(spec: GridSpec) -> int:
    """Smallest n with n > 1/eta and n^(1-k) log(n eta) m_k <= eta^k, up to 1e9.

    The left side rises until n eta = e^(1/(k-1)) and falls after.  So
    unless the first n above 1/eta fits, every n on the rising side fails,
    the sizes that fit are those past some point of the falling side, and
    bisection finds it; the result is then stepped down while the size
    below it also fits, against rounding.  Sizes past 1e9 raise
    GridInfeasibleError.
    """
    eta, k, m_k = spec.eta, spec.k, spec.m_k
    target = eta**k

    def fits(n: int) -> bool:
        ns = np.array([n], dtype=float)
        return bool(ns ** (1.0 - k) * np.log(ns * eta) * m_k <= target)

    start = math.floor(1.0 / eta) + 1
    if start <= _SIZE_CAP and fits(start):
        return start
    n = start + bisect.bisect_left(range(start, _SIZE_CAP + 1), True, key=fits)
    if n > _SIZE_CAP:
        raise GridInfeasibleError(
            f"no grid size up to {_SIZE_CAP} satisfies eta={eta}, k={k}, m_k={m_k}"
        )
    while fits(n - 1):
        n -= 1
    return n


def build_equispaced_grid(spec: GridSpec) -> Grid:
    """Grid {i*eta : i=1..d}, or d_cap equispaced points over the same range.

    When ``d_cap`` is given and smaller than the full size, the endpoints
    (eta and d*eta) are kept and the interior is resampled at d_cap
    equispaced points, mirroring how large grids are thinned in practice.
    """
    d_full = kl_grid_size(spec)
    if spec.d_cap is None or spec.d_cap >= d_full:
        points = spec.eta * np.arange(1, d_full + 1, dtype=float)
    else:
        points = np.linspace(spec.eta, d_full * spec.eta, spec.d_cap)
    return Grid(points)

