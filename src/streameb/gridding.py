"""Grid sizing: the equispaced support grid for a spacing and a moment bound.

The grid size is the smallest integer ``n`` with ``n > 1/eta`` and
``n^(1-k) log(n eta) m_k <= eta^k``, where ``m_k`` bounds the k-th moment of
the count distribution.  Binning a prior onto that grid keeps the truncated
Kullback-Leibler divergence between the exact and discretized count
distributions below ``2 eta``; the acceptance tests check this numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Grid

_SCAN_CAP = 10**9
_SCAN_BLOCK = 1 << 15  # 256 kB temporaries: cache-sized, and no 8 MB peak per grid build


class GridInfeasibleError(RuntimeError):
    """No grid size up to the scan cap satisfies the spacing condition."""


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
    """Smallest n with n > 1/eta and n^(1-k) log(n eta) m_k <= eta^k.

    Found by an ascending scan starting just above 1/eta (vectorized in
    blocks); the scan is capped at 1e9 to bound pathological specs.
    """
    eta, k, m_k = spec.eta, spec.k, spec.m_k
    target = eta**k
    start = math.floor(1.0 / eta) + 1
    lo = start
    while lo <= _SCAN_CAP:
        hi = min(lo + _SCAN_BLOCK, _SCAN_CAP + 1)
        ns = np.arange(lo, hi, dtype=float)
        ok = ns ** (1.0 - k) * np.log(ns * eta) * m_k <= target
        idx = np.flatnonzero(ok)
        if idx.size:
            return int(lo + idx[0])
        lo = hi
    raise GridInfeasibleError(
        f"no grid size up to {_SCAN_CAP} satisfies eta={eta}, k={k}, m_k={m_k}"
    )


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

