"""Point estimates, asymptotic variance, and credible intervals.

The point estimate is the plug-in posterior mean in ratio form,
``(y+1) p_g(y+1) / p_g(y)``.  Its uncertainty after n observations is
asymptotically Gaussian with variance ``V(y) / b_n``, where ``V(y)`` is a
predictive-expectation functional of the current weights and ``b_n`` is the
inverse tail sum of squared step sizes.

``V(y)`` sums ``p(z) s(z)^2`` over future counts z.  Unless the caller fixes
the truncation point, it is certified per query: by Jensen's inequality the
terms beyond Z add at most ``sum_j g_j c_j^2 P(Y > Z | theta_j)`` (c the
contrast below), an O(d) bound, and Z is the first point where that bound
is within 1e-12 of the partial sum up to ``max(ys) + 1``, for every
requested count; the terms kept only add to that sum.  ``default_y_max``
(``grid.hi + 20 * sqrt(grid.hi)``) caps Z, so the result never differs from
the fixed-cutoff value by more than the certificate allows and never costs
more to compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, pdtrc, zeta

from .engine import LearningRate, NewtonState
from .model import (
    DegenerateLikelihoodError,
    KernelMatrixCache,
    MixingWeights,
    log_mixture_pmf,
    posterior_table,
    scalar_grid,
)

# Certified truncation: the neglected terms of V(y) are at most this
# fraction of the terms kept.
_TRUNCATION_RTOL = 1e-12


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


def ratio_estimate(g: MixingWeights, y: int, cache: KernelMatrixCache | None = None) -> float:
    """(y+1) p_g(y+1) / p_g(y); identical to the posterior mean at y."""
    log_num = log_mixture_pmf(g, y + 1, cache)
    log_den = log_mixture_pmf(g, y, cache)
    if not np.isfinite(log_den):
        raise DegenerateLikelihoodError(y)
    return float((y + 1) * math.exp(log_num - log_den))


def estimate_table(g: MixingWeights, y_max: int, cache: KernelMatrixCache | None = None):
    """Ratio estimates and mixture pmf for every count 0..y_max, from one pmf table.

    Returns ``(theta_hat, p)`` with ``theta_hat[y] = ratio_estimate(g, y)``
    and ``p[y] = p_g(y)``.  The table is ``log p_g`` for 0..y_max+1, each row
    shifted by its largest ``log k + log g`` over the positive-weight atoms,
    so an estimate is finite wherever ``ratio_estimate`` is, even where the
    linear pmf underflows.
    """
    grid = scalar_grid(g)
    if cache is None:
        cache = KernelMatrixCache(grid)
    active = g.support_mask()
    scores = cache.log_table(y_max + 1)[:, active] + np.log(g.weights[active])
    peak = scores.max(axis=1)
    log_p = peak + np.log(np.exp(scores - peak[:, None]).sum(axis=1))
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


def _contrasts(g: MixingWeights, ys: np.ndarray, cache: KernelMatrixCache) -> np.ndarray:
    """One row per requested count: k(y+1|theta)/p(y+1) - k(y|theta)/p(y)."""
    log_k = cache.log_table(int(ys.max()) + 1)
    k0, k1 = np.exp(log_k[ys]), np.exp(log_k[ys + 1])
    p0, p1 = k0 @ g.weights, k1 @ g.weights
    bad = (p0 <= 0) | (p1 <= 0)
    if bad.any():
        raise DegenerateLikelihoodError(int(ys[bad.argmax()]))
    return k1 / p1[:, None] - k0 / p0[:, None]


def truncation_tail_bound(g: MixingWeights, contrasts: np.ndarray, z: int) -> np.ndarray:
    """Upper bound on ``sum_{z' > z} p(z') s(z')^2`` for each contrast row.

    Jensen's inequality puts ``s(z')^2`` under the posterior mean of
    ``c^2``, and summing that over z' leaves ``sum_j g_j c_j^2 P(Y > z |
    theta_j)``: O(d) to evaluate, with no truncation of its own.  Atoms
    whose terms are exactly zero (the contrast underflows far from the
    requested counts) are skipped.
    """
    weighted = contrasts**2 * g.weights
    cols = np.flatnonzero(weighted.any(axis=0))
    return weighted[:, cols] @ pdtrc(z, g.grid.points[cols])


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


def _estimates(g: MixingWeights, ys, y_max: int | None, cache: KernelMatrixCache | None):
    """Point estimates and variance functionals for several counts at once.

    All of ``ys`` share one truncation point and one posterior table: at
    ``y_max`` when given, else at the certified point, which is found from
    a table up to ``max(ys) + 1`` and the O(d) tail bound.
    """
    ys = np.asarray(ys, dtype=np.int64)
    if ys.min() < 0:
        raise ValueError("counts must be nonnegative")
    if cache is None:
        cache = KernelMatrixCache(g.grid)
    thetas = np.array([ratio_estimate(g, int(y), cache) for y in ys])
    contrasts = _contrasts(g, ys, cache)

    def partial_sums(z):
        p, post = posterior_table(g, z, cache)
        return p @ (post @ contrasts.T) ** 2

    if y_max is None:
        cap = default_y_max(g.grid)
        z_lo = min(int(ys.max()) + 1, cap)
        y_max = _certified_y_max(g, contrasts, partial_sums(z_lo), z_lo, cap)
    return thetas, thetas**2 * partial_sums(y_max)


def asymptotic_variance(
    g: MixingWeights, y: int, y_max: int | None = None, cache: KernelMatrixCache | None = None
) -> float:
    """Variance functional driving the interval width at count y.

    theta_hat(y)^2 times the predictive second moment of
    sum_j post_j(Z) * (k(y+1|theta_j)/p(y+1) - k(y|theta_j)/p(y)),
    with Z summed up to ``y_max``, or to the certified truncation point
    when ``y_max`` is None.  Zero exactly for a point mass.
    """
    return float(_estimates(g, [y], y_max, cache)[1][0])


def normal_quantile(p: float) -> float:
    """Standard normal inverse CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    return float(ndtri(p))


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
    ys = [int(y) for y in ys]
    if not ys:
        return []
    thetas, variances = _estimates(state.g, ys, y_max, state.cache)
    b_n = clt_scale(state.rate, state.n)
    z = normal_quantile(0.5 * (1.0 + level))
    reports = []
    for y, theta_hat, variance in zip(ys, thetas.tolist(), variances.tolist()):
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
