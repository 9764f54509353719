"""Point estimates, asymptotic variance, and credible intervals.

The point estimate is the plug-in posterior mean in ratio form,
``(y+1) p_g(y+1) / p_g(y)``.  Its uncertainty after n observations is
asymptotically Gaussian with variance ``V(y) / b_n``, where ``V(y)`` is a
predictive-expectation functional of the current weights and ``b_n`` is the
inverse tail sum of squared step sizes.  Every pmf and posterior here comes
from ``model.log_mixture`` over ``model.log_kernel_rows``, so estimates
and variances are finite wherever the log-space pmf is, and a count's
estimate has the same bits whichever function computed it.

Estimates and variances take a count on a Grid or a count vector on a
ProductGrid: on a lattice the estimate is one ratio per coordinate,
``(y_j + 1) p_g(y + e_j) / p_g(y)``, and the variance is the k-by-k
covariance of those estimates.

``V(y)`` sums ``p(z) s(z)^2`` over future counts z.  Unless the caller
fixes the truncation point, it is certified per query: by Jensen's
inequality the terms beyond Z add at most ``sum_j g_j c_j^2 P(Y > Z |
theta_j)`` (c the contrast below; on a lattice, the union bound ``sum_i
P(Y_i > Z)`` over coordinates), an O(D) bound, and Z is the first point
where that bound is within 1e-12 of the partial sum up to ``max(ys) + 1``,
for every requested count; the terms kept only add to that sum.
``default_y_max`` (``hi + 20 * sqrt(hi)`` of the base grid) caps Z, so the
result never differs from the fixed-cutoff value by more than the
certificate allows and never costs more to compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, pdtrc, zeta

from .engine import LearningRate, NewtonState
# log_mixture_pmf stays importable here: perfbench/tracing.py patches it.
from .model import (  # noqa: F401
    KernelMatrixCache,
    MixingWeights,
    ProductGrid,
    _counts,
    log_kernel_rows,
    log_mixture,
    log_mixture_pmf,
)

# Certified truncation: the neglected terms of V(y) are at most this
# fraction of the terms kept.
_TRUNCATION_RTOL = 1e-12
# Entries of log-kernel rows built at once for the variance sums.
_BLOCK_ENTRIES = 2_000_000
# Largest lattice whose covariance is computed.
_COVARIANCE_MAX_D = 10**4


def default_y_max(grid) -> int:
    """Cap on the truncation point of sums over future counts: hi + 20*sqrt(hi)."""
    return int(math.ceil(grid.hi + 20.0 * math.sqrt(grid.hi)))


@dataclass(frozen=True)
class EstimateReport:
    """Per-count estimate with its interval and all intermediate quantities."""

    y: int
    theta_hat: float
    variance: float
    b_n: float
    ci_low: float
    ci_high: float
    level: float

    CSV_HEADER = "y,theta_hat,variance,b_n,ci_low,ci_high,level"

    def csv_row(self) -> str:
        return (
            f"{self.y},{self.theta_hat!r},{self.variance!r},{self.b_n!r},"
            f"{self.ci_low!r},{self.ci_high!r},{self.level!r}"
        )


def ratio_estimate(g: MixingWeights, y, cache: KernelMatrixCache | None = None) -> float | np.ndarray:
    """(y+1) p_g(y+1) / p_g(y), the posterior mean at y.

    On a ProductGrid ``y`` is a count vector and the result is the array of
    its k coordinate estimates ``(y_j + 1) p_g(y + e_j) / p_g(y)``.
    """
    thetas = _pair_estimates(g, _counts(g.grid, [y]), cache)[0]
    return thetas if isinstance(g.grid, ProductGrid) else float(thetas[0])


def estimate_table(g: MixingWeights, y_max: int, cache: KernelMatrixCache | None = None):
    """Ratio estimates and mixture pmf for every count 0..y_max, from one pmf table.

    Returns ``(theta_hat, p)`` with ``theta_hat[y] = ratio_estimate(g, y)``,
    bit for bit, and ``p[y] = p_g(y)``.  Scalar grids only.
    """
    log_p = log_mixture(log_kernel_rows(g.grid, np.arange(y_max + 2), cache), g.weights)[0]
    theta_hat = np.arange(1, y_max + 2) * np.exp(log_p[1:] - log_p[:-1])
    return theta_hat, np.exp(log_p[:-1])


def clt_scale(rate: LearningRate, n: int) -> float:
    """b_n = 1 / sum_{k >= n} step(k)^2 for the power schedule.

    The tail sum of (alpha + k)^(-2 gamma) over k >= n is the Hurwitz zeta
    function zeta(2 gamma, alpha + n), evaluated in closed form.  Strictly
    increasing in n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / float(zeta(2.0 * rate.gamma, rate.alpha + n))


def _pair_estimates(g: MixingWeights, ys: np.ndarray, cache: KernelMatrixCache | None):
    """Estimates and contrasts for every coordinate j of every validated count y in ``ys``.

    Pair i is count ``i // k`` with coordinate ``i % k`` bumped: ``theta[i]
    = (y_j + 1) p(y + e_j) / p(y)``, and ``contrasts[i] = k(y +
    e_j|theta)/p(y + e_j) - k(y|theta)/p(y)`` is read off the same two
    posterior rows as ``(post(y + e_j) - post(y)) / g``.
    """
    k = g.grid.k
    lo = np.repeat(ys.reshape(len(ys), k), k, axis=0)  # (m, k), m = len(ys) * k
    m, bumped = len(lo), (np.arange(len(lo)), np.tile(np.arange(k), len(ys)))
    hi = lo.copy()
    hi[bumped] += 1
    both = np.concatenate([lo, hi]).reshape((2 * m,) + ys.shape[1:])
    log_p, post = log_mixture(log_kernel_rows(g.grid, both, cache), g.weights)
    thetas = hi[bumped] * np.exp(log_p[m:] - log_p[:m])
    active = g.support_mask()
    contrasts = np.zeros((m, len(g.grid)))
    contrasts[:, active] = (post[m:, active] - post[:m, active]) / g.weights[active]
    return thetas, contrasts


def _tail_mass(grid, atoms: np.ndarray, z: int) -> np.ndarray:
    """``P(Y > z)`` at the given atoms; on a ProductGrid, ``sum_i P(Y_i > z)``."""
    digits = np.unravel_index(atoms, (len(grid.base),) * grid.k)
    used = np.unique(np.concatenate(digits))
    tail = np.zeros(len(grid.base))
    tail[used] = pdtrc(z, grid.base.points[used])
    return sum(tail[digit] for digit in digits)


def truncation_tail_bound(g: MixingWeights, contrasts: np.ndarray, z: int) -> np.ndarray:
    """Upper bound on ``sum_{z' > z} p(z') s(z')^2`` for each contrast row.

    Jensen's inequality puts ``s(z')^2`` under the posterior mean of
    ``c^2``, and summing that over z' leaves ``sum_j g_j c_j^2 P(Y > z |
    theta_j)``: O(d) to evaluate, with no truncation of its own.  On a
    ProductGrid the neglected count vectors are those with some coordinate
    above z, and ``sum_i P(Y_i > z | theta_j)`` bounds their probability.
    Atoms whose terms are exactly zero (the contrast underflows far from
    the requested counts) are skipped.
    """
    weighted = contrasts**2 * g.weights
    cols = np.flatnonzero(weighted.any(axis=0))
    return weighted[:, cols] @ _tail_mass(g.grid, cols, z)


def _certified_y_max(g, contrasts, partial, z_lo: int, cap: int) -> int:
    """First z in [z_lo, cap] whose tail bound is within tolerance of ``partial``.

    ``partial`` holds the sums up to ``z_lo``; later partial sums only grow,
    so the certificate holds at the returned point too.  Returns ``cap``
    when no point up to it qualifies.
    """
    target = _TRUNCATION_RTOL * partial

    def certified(z):
        return bool(np.all(truncation_tail_bound(g, contrasts, z) <= target))

    lo = hi = z_lo
    while not certified(hi):
        if hi >= cap:
            return cap
        lo, hi = hi, min(cap, 2 * hi)
    while hi - lo > 1:  # certified(hi) holds; certified(lo) fails unless lo == hi
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _second_moments(g: MixingWeights, contrasts: np.ndarray, z: int, cache) -> np.ndarray:
    """``sum p(z') s(z') s(z')^T`` over counts z' <= z in every coordinate, s = post(z') @ c."""
    grid = g.grid
    zs = np.indices((z + 1,) * grid.k).reshape(grid.k, -1).T  # lexicographic
    if not isinstance(grid, ProductGrid):
        zs = zs[:, 0]
    step = max(1, _BLOCK_ENTRIES // len(grid))
    out = np.zeros((len(contrasts), len(contrasts)))
    for start in range(0, len(zs), step):
        log_p, post = log_mixture(log_kernel_rows(grid, zs[start : start + step], cache), g.weights)
        s = post @ contrasts.T
        out += (np.exp(log_p)[:, None] * s).T @ s
    return 0.5 * (out + out.T)


def _estimates(g: MixingWeights, ys: np.ndarray, y_max: int | None, cache: KernelMatrixCache | None):
    """Estimates and their second-moment matrix for validated counts ``ys``.

    Returns ``(theta, V)`` over the pairs of ``_pair_estimates``: ``V[i,
    i]`` is the variance functional of pair i, and the k pairs of one count
    vector span the covariance of its coordinate estimates.  All pairs
    share one truncation point: ``y_max`` when given, else the certified
    point, found from the sums up to the largest bumped count and the O(D)
    tail bound.
    """
    if cache is None:
        cache = KernelMatrixCache(g.grid.base)
    thetas, contrasts = _pair_estimates(g, ys, cache)
    if y_max is None:
        cap = default_y_max(g.grid.base)
        z_lo = min(int(ys.max()) + 1, cap)
        partial = np.diag(_second_moments(g, contrasts, z_lo, cache))
        y_max = _certified_y_max(g, contrasts, partial, z_lo, cap)
    return thetas, np.outer(thetas, thetas) * _second_moments(g, contrasts, y_max, cache)


def asymptotic_variance(
    g: MixingWeights, y, y_max: int | None = None, cache: KernelMatrixCache | None = None
) -> float | np.ndarray:
    """Variance functional driving the interval width at count y.

    theta_hat(y)^2 times the predictive second moment of
    sum_j post_j(Z) * (k(y+1|theta_j)/p(y+1) - k(y|theta_j)/p(y)),
    with Z summed up to ``y_max``, or to the certified truncation point
    when ``y_max`` is None.  Zero exactly for a point mass.  On a
    ProductGrid of at most ``_COVARIANCE_MAX_D`` points, ``y`` is a count
    vector and the result is the k-by-k covariance of its coordinate
    estimates: symmetric positive semidefinite, the scalar variance at k = 1.
    """
    ys = _counts(g.grid, [y])
    lattice = isinstance(g.grid, ProductGrid)
    if lattice and g.grid.size > _COVARIANCE_MAX_D:
        raise ValueError(f"covariance refused for lattice size {g.grid.size}")
    moments = _estimates(g, ys, y_max, cache)[1]
    return moments if lattice else float(moments[0, 0])


def credible_intervals(
    state: NewtonState, ys, level: float, y_max: int | None = None
) -> list[EstimateReport]:
    """Asymptotic intervals theta_hat +/- z * sqrt(V / b_n) for several counts.

    One posterior table serves every count in ``ys``, and ``b_n`` and the
    normal quantile are computed once.  Valid for large n only; n must be at
    least 1.  The state's power schedule gives ``b_n`` a convergent squared
    tail, and ``step_n^2 b_n`` decays like 1/n, as the interval requires.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if state.n < 1:
        raise ValueError("interval requires at least one observation")
    if isinstance(state.g.grid, ProductGrid):
        raise ValueError(f"intervals need a Grid, not a ProductGrid (k={state.g.grid.k})")
    ys = _counts(state.g.grid, list(ys))
    if not ys.size:
        return []
    thetas, moments = _estimates(state.g, ys, y_max, state.cache)
    variances = np.diag(moments)
    b_n = clt_scale(state.rate, state.n)
    z = float(ndtri(0.5 * (1.0 + level)))
    reports = []
    for y, theta_hat, variance in zip(ys.tolist(), thetas.tolist(), variances.tolist()):
        half = z * math.sqrt(variance / b_n)
        reports.append(
            EstimateReport(
                y=y,
                theta_hat=theta_hat,
                variance=variance,
                b_n=b_n,
                ci_low=theta_hat - half,
                ci_high=theta_hat + half,
                level=level,
            )
        )
    return reports


def credible_interval(
    state: NewtonState, y: int, level: float, y_max: int | None = None
) -> EstimateReport:
    """Asymptotic interval at one count; see ``credible_intervals``."""
    return credible_intervals(state, [y], level, y_max)[0]
