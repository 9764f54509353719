"""Point estimates, asymptotic variance, and credible intervals.

The point estimate is the plug-in posterior mean in ratio form,
``(y+1) p_g(y+1) / p_g(y)``.  Its uncertainty after n observations is
asymptotically Gaussian with variance ``V(y) / b_n``, where ``V(y)`` is a
predictive-expectation functional of the current weights and ``b_n`` is the
inverse tail sum of squared step sizes.  Every pmf and posterior here comes
from ``model.log_mixture`` over rows that ``model.log_kernel_rows``
computes for the counts of the query; no query reads or grows the
recursion's kernel cache.  Estimates and variances are finite wherever the
log-space pmf is, and a count's estimate has the same bits whichever
function computed it.

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

On a scalar grid every variance sum, the partial sums behind the
certificate as well as the sum up to Z, runs over a certified prefix of the
grid, not all d atoms: past it every posterior term of every count summed
underflows to an exact 0.0, so the band changes the variance by float64
summation order alone (see ``_moments``).  Estimates and contrasts are
computed over the whole grid; the tail bound, and so Z, reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, pdtrc, zeta

from .engine import LearningRate, NewtonState
# log_mixture_pmf stays importable here: perfbench/tracing.py patches it.
from .model import (  # noqa: F401
    Grid,
    MixingWeights,
    ProductGrid,
    _counts,
    _log_kernel,
    log_kernel_rows,
    log_mixture,
    log_mixture_pmf,
)

# Certified truncation: the neglected terms of V(y) are at most this
# fraction of the terms kept.
_TRUNCATION_RTOL = 1e-12
# exp of a shift this far below a row's peak is exactly 0.0 in float64
# (the smallest subnormal is exp(-745.13)).
_UNDERFLOW_NATS = 746.0
# Nats past the certificate's margin at which the band's first width is
# set: room for a row peak off the Poisson mode (grid spacing, weights),
# so the first width rarely fails its check and costs a second sum.
_REACH_SLACK_NATS = 8.0
# Entries of log-kernel rows built at once for the variance sums and the
# estimate tables.
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


def ratio_estimate(g: MixingWeights, y) -> float | np.ndarray:
    """(y+1) p_g(y+1) / p_g(y), the posterior mean at y.

    On a ProductGrid ``y`` is a count vector and the result is the array of
    its k coordinate estimates ``(y_j + 1) p_g(y + e_j) / p_g(y)``.
    """
    thetas = _pair_estimates(g, _counts(g.grid, [y]))[0]
    return thetas if isinstance(g.grid, ProductGrid) else float(thetas[0])


def estimate_table(g: MixingWeights, y_max: int):
    """Ratio estimates and mixture pmf for every count 0..y_max.

    Returns ``(theta_hat, p)`` with ``theta_hat[y] = ratio_estimate(g, y)``,
    bit for bit, and ``p[y] = p_g(y)``.  Scalar grids only.
    """
    return _ratio_table(_log_pmfs(g.grid, [g.weights], y_max + 1)[0])


def _log_pmfs(grid: Grid, weights: list, top: int) -> np.ndarray:
    """``log p(z)`` for z = 0..top under each weight vector of ``weights``, one row each.

    Log-kernel rows are built in blocks of ``_BLOCK_ENTRIES`` entries, each
    block serving every weight vector, so memory stays bounded for any
    ``top``; ``log_mixture`` gives a row the same bits in any block.
    """
    step = max(1, _BLOCK_ENTRIES // len(grid))
    out = np.empty((len(weights), top + 1))
    for start in range(0, top + 1, step):
        log_rows = log_kernel_rows(grid, np.arange(start, min(top + 1, start + step)))
        for row, w in zip(out, weights):
            row[start : start + len(log_rows)] = log_mixture(log_rows, w)[0]
    return out


def _ratio_table(log_p: np.ndarray):
    """``(theta_hat, p)`` over the counts 0..y_max from the ``log p`` of counts 0..y_max+1.

    ``log p`` may be a block of such rows, one per mixture; each row of the
    result has the bits of a one-row call.
    """
    theta_hat = np.arange(1, log_p.shape[-1]) * np.exp(log_p[..., 1:] - log_p[..., :-1])
    return theta_hat, np.exp(log_p[..., :-1])


def clt_scale(rate: LearningRate, n: int) -> float:
    """b_n = 1 / sum_{k >= n} step(k)^2 for the power schedule.

    The tail sum of (alpha + k)^(-2 gamma) over k >= n is the Hurwitz zeta
    function zeta(2 gamma, alpha + n), evaluated in closed form.  Strictly
    increasing in n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / float(zeta(2.0 * rate.gamma, rate.alpha + n))


def _pair_estimates(g: MixingWeights, ys: np.ndarray):
    """Estimates and contrasts for every coordinate j of every validated count y in ``ys``.

    Pair i is count ``i // k`` with coordinate ``i % k`` bumped: ``theta[i]
    = (y_j + 1) p(y + e_j) / p(y)``, and ``contrasts[i] = k(y +
    e_j|theta)/p(y + e_j) - k(y|theta)/p(y)`` is read off the same two
    posterior rows as ``(post(y + e_j) - post(y)) / g``.  Each distinct
    count among the pairs has its full-width row built once.
    """
    k = g.grid.k
    lo = np.repeat(ys.reshape(len(ys), k), k, axis=0)  # (m, k), m = len(ys) * k
    m, bumped = len(lo), (np.arange(len(lo)), np.tile(np.arange(k), len(ys)))
    hi = lo.copy()
    hi[bumped] += 1
    # flat at k = 1: np.unique along an axis costs ~3x as much on a few counts
    counts, at = np.unique(np.concatenate([lo, hi]), axis=0 if k > 1 else None, return_inverse=True)
    rows = log_kernel_rows(g.grid, counts.reshape((-1,) + ys.shape[1:]))
    log_p, post = log_mixture(rows, g.weights)
    at = at.reshape(-1)
    thetas = hi[bumped] * np.exp(log_p[at[m:]] - log_p[at[:m]])
    contrasts = np.divide(post[at[m:]] - post[at[:m]], g.weights,
                          out=np.zeros((m, len(g.grid))), where=g.support_mask())
    return thetas, contrasts


def _tail_bound(g: MixingWeights, contrasts: np.ndarray):
    """``z ->`` an upper bound on ``sum_{z' > z} p(z') s(z')^2`` for each contrast row.

    Jensen's inequality puts ``s(z')^2`` under the posterior mean of
    ``c^2``, and summing that over z' leaves ``sum_j g_j c_j^2 P(Y > z |
    theta_j)``: O(d) to evaluate, with no truncation of its own.  On a
    ProductGrid the neglected count vectors are those with some coordinate
    above z, and ``sum_i P(Y_i > z | theta_j)`` bounds their probability.
    Atoms whose terms are exactly zero (the contrast underflows far from
    the requested counts) are skipped.  The z-independent part is done
    once, so each call of the returned function costs one ``pdtrc`` over
    the base points that the kept atoms use and one matrix product.
    """
    grid = g.grid
    weighted = contrasts**2 * g.weights
    cols = np.flatnonzero(weighted.any(axis=0))
    weighted = weighted[:, cols]
    digits = np.concatenate(np.unravel_index(cols, (len(grid.base),) * grid.k))
    used, where = np.unique(digits, return_inverse=True)
    where = where.reshape(grid.k, len(cols))  # row i: coordinate i's base point, per atom
    points = grid.base.points[used]

    def bound(z: int) -> np.ndarray:
        tail = pdtrc(z, points)  # P(Y > z) at each used base point
        return weighted @ tail[where].sum(axis=0)

    return bound


def _certified_y_max(g, contrasts, partial, z_lo: int, cap: int) -> int:
    """First z in [z_lo, cap] whose tail bound is within tolerance of ``partial``.

    ``partial`` holds the sums up to ``z_lo``; later partial sums only grow,
    so the certificate holds at the returned point too.  Returns ``cap``
    when no point up to it qualifies.
    """
    target = _TRUNCATION_RTOL * partial
    bound = _tail_bound(g, contrasts)

    def certified(z):
        return bool((bound(z) <= target).all())

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


def _second_moments(g: MixingWeights, contrasts: np.ndarray, z: int):
    """``sum p(z') s(z') s(z')^T`` over counts z' <= z in every coordinate, s = post(z') @ c.

    On a scalar grid the posteriors run over its first ``contrasts.shape[1]``
    atoms alone, their log-kernel rows computed by ``_log_kernel`` with the
    bits ``log_kernel_rows`` gives them; on a ProductGrid over the whole
    lattice.  Returns the sum and the ``log p`` of every count summed, in
    order.  The rows are built lexicographically in blocks of
    ``_BLOCK_ENTRIES`` entries, so the sum has the same bits on every call.
    """
    grid, width = g.grid, contrasts.shape[1]
    lattice = isinstance(grid, ProductGrid)
    zs = np.indices((z + 1,) * grid.k).reshape(grid.k, -1).T if lattice else np.arange(z + 1)
    step = max(1, _BLOCK_ENTRIES // width)
    out = np.zeros((len(contrasts), len(contrasts)))
    log_ps = []
    for start in range(0, len(zs), step):
        block = zs[start : start + step]
        rows = log_kernel_rows(grid, block) if lattice else _log_kernel(grid.points[:width], block)
        log_p, post = log_mixture(rows, g.weights[:width])
        s = post @ contrasts.T
        out += (np.exp(log_p)[:, None] * s).T @ s
        log_ps.append(log_p)
    return 0.5 * (out + out.T), np.concatenate(log_ps)


def _poisson_reach(z: int, nats: float) -> float:
    """The rate theta >= z at which ``log k(z | theta)`` lies ``nats`` below its peak at z.

    Solves ``u - log u = 1 + nats / z`` for u = theta / z > 1 by Newton's
    method, which decreases monotonically to the root after its first step.
    """
    if z == 0:
        return nats
    c = 1.0 + nats / z
    u = c + math.log(c)
    for _ in range(8):
        u -= (u - math.log(u) - c) / (1.0 - 1.0 / u)
    return z * u


def _moments(g: MixingWeights, contrasts: np.ndarray, z: int) -> np.ndarray:
    """``_second_moments`` up to z over a certified prefix [0, h) of a scalar grid.

    Both the partial sums behind the truncation certificate and the full
    sum are computed here.  Past h every score ``log k(z'|theta_j) + log g_j`` of a row z' <= z lies
    more than ``_UNDERFLOW_NATS`` below the row's peak, so ``log_mixture``
    over the whole grid would make each of those posterior terms an exact
    0.0 and the sum differs from the full-width one by summation order
    alone.  With ``theta_h >= z`` the kernel decreases in theta past every
    z', so ``log k(z'|theta_h) + log max_{j>=h} g_j`` bounds the excluded
    scores; a row's ``log p`` over at most d atoms exceeds its peak by at
    most ``log d``.  The check reads the ``log p`` of the rows the sum
    computes, O(z), and h starts where the Poisson kernel at z has fallen
    that far (and ``_REACH_SLACK_NATS`` more) below its mode and doubles
    while the check fails; at h = d, and on a ProductGrid, the sum is the
    full-width one.
    """
    grid, weights, d = g.grid, g.weights, len(g.grid)
    margin = _UNDERFLOW_NATS + math.log(d)
    if isinstance(grid, ProductGrid):
        h = d
    else:
        h = max(1, int(np.searchsorted(grid.points, _poisson_reach(z, margin + _REACH_SLACK_NATS))))
    while True:
        if weights[:h].any():
            moments, log_p = _second_moments(g, contrasts[:, :h], z)
            tail = float(weights[h:].max(initial=0.0))  # 0.0: nothing past h to bound
            if tail == 0.0 or (
                _log_kernel(grid.points[h : h + 1], np.arange(z + 1))[:, 0] + math.log(tail)
                <= log_p - margin
            ).all():
                return moments
        h = min(d, 2 * h)


def _estimates(g: MixingWeights, ys: np.ndarray, y_max: int | None):
    """Estimates and their second-moment matrix for validated counts ``ys``.

    Returns ``(theta, V)`` over the pairs of ``_pair_estimates``: ``V[i,
    i]`` is the variance functional of pair i, and the k pairs of one count
    vector span the covariance of its coordinate estimates.  All pairs
    share one truncation point: ``y_max`` when given, else the certified
    point, found from the sums up to the largest bumped count and the O(D)
    tail bound.  The pairs and contrasts span the whole grid; on a scalar
    grid both the partial sums and the full sum run over the certified
    band of ``_moments``.
    """
    thetas, contrasts = _pair_estimates(g, ys)
    if y_max is None:
        cap = default_y_max(g.grid.base)
        z_lo = min(int(ys.max()) + 1, cap)
        partial = np.diag(_moments(g, contrasts, z_lo))
        y_max = _certified_y_max(g, contrasts, partial, z_lo, cap)
    return thetas, np.outer(thetas, thetas) * _moments(g, contrasts, y_max)


def asymptotic_variance(g: MixingWeights, y, y_max: int | None = None) -> float | np.ndarray:
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
    moments = _estimates(g, ys, y_max)[1]
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
    thetas, moments = _estimates(state.g, ys, y_max)
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
