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

On a scalar grid the sum up to Z also runs over a certified prefix of the
grid, not all d atoms: past it every posterior term of every count up to Z
underflows to an exact 0.0, so the band changes the variance by float64
summation order alone (see ``_banded_moments``).  Estimates, contrasts,
the partial sums and Z itself are computed over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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


def ratio_estimate(g: MixingWeights, y) -> float | np.ndarray:
    """(y+1) p_g(y+1) / p_g(y), the posterior mean at y.

    On a ProductGrid ``y`` is a count vector and the result is the array of
    its k coordinate estimates ``(y_j + 1) p_g(y + e_j) / p_g(y)``.
    """
    thetas = _pair_estimates(g, _counts(g.grid, [y]), _fresh_rows(g))[0]
    return thetas if isinstance(g.grid, ProductGrid) else float(thetas[0])


def estimate_table(g: MixingWeights, y_max: int):
    """Ratio estimates and mixture pmf for every count 0..y_max, from one pmf table.

    Returns ``(theta_hat, p)`` with ``theta_hat[y] = ratio_estimate(g, y)``,
    bit for bit, and ``p[y] = p_g(y)``.  Scalar grids only.
    """
    return _estimate_table_from(log_kernel_rows(g.grid, np.arange(y_max + 2)), g.weights)


def _estimate_table_from(log_rows: np.ndarray, weights: np.ndarray):
    """``estimate_table`` over given log-kernel rows of the counts 0..y_max+1.

    One table of rows serves any number of weight vectors on its grid, with
    the bits ``estimate_table`` gives each of them.
    """
    log_p = log_mixture(log_rows, weights)[0]
    theta_hat = np.arange(1, len(log_p)) * np.exp(log_p[1:] - log_p[:-1])
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


def _fresh_rows(g: MixingWeights):
    """``zs ->`` ``log_mixture`` of the log-kernel rows of validated counts ``zs``."""
    return lambda zs: log_mixture(log_kernel_rows(g.grid, zs), g.weights)


def _band_rows(g: MixingWeights, width: int):
    """``_fresh_rows`` over the first ``width`` atoms of a scalar grid alone."""
    if width == len(g.grid):
        return _fresh_rows(g)
    band, weights = Grid(g.grid.points[:width]), g.weights[:width]
    return lambda zs: log_mixture(log_kernel_rows(band, zs), weights)


def _table_rows(g: MixingWeights, top: int):
    """``_fresh_rows``, reading the counts 0..top in every coordinate from one table.

    The table is built once, lexicographic over the cube of side ``top +
    1``, cut to a side whose rows fit in ``_BLOCK_ENTRIES`` entries (and at
    least 1), so its memory is bounded for any query; counts outside it are
    computed per call.  ``log_mixture`` gives a row the same bits in any
    block, so a row read from the table is the row computed fresh.

    On a scalar grid ``rows(zs, width)`` cuts every posterior to the first
    ``width`` atoms: table rows keep their full-width ``log p`` and are
    sliced, and the rows past the table are computed over those atoms alone
    (``_band_rows``).
    """
    grid, k = g.grid, g.grid.k
    side = max(1, min(top + 1, int((_BLOCK_ENTRIES // len(grid)) ** (1.0 / k))))
    shape = (side,) * k
    cube = np.indices(shape).reshape(k, -1).T
    table_log_p, table_post = _fresh_rows(g)(cube if isinstance(grid, ProductGrid) else cube[:, 0])

    def rows(zs, width=len(grid)):
        flat = zs.reshape(len(zs), k)
        inside = (flat < side).all(axis=1)
        at = np.ravel_multi_index(flat[inside].T, shape)
        if inside.all():
            return table_log_p[at], table_post[at, :width]
        log_p, post = np.empty(len(zs)), np.empty((len(zs), width))
        log_p[inside], post[inside] = table_log_p[at], table_post[at, :width]
        log_p[~inside], post[~inside] = _band_rows(g, width)(zs[~inside])
        return log_p, post

    return rows


def _pair_estimates(g: MixingWeights, ys: np.ndarray, rows):
    """Estimates and contrasts for every coordinate j of every validated count y in ``ys``.

    Pair i is count ``i // k`` with coordinate ``i % k`` bumped: ``theta[i]
    = (y_j + 1) p(y + e_j) / p(y)``, and ``contrasts[i] = k(y +
    e_j|theta)/p(y + e_j) - k(y|theta)/p(y)`` is read off the same two
    posterior rows as ``(post(y + e_j) - post(y)) / g``.  ``rows`` maps
    counts to their ``(log p, post)`` rows (``_fresh_rows`` or ``_table_rows``).
    """
    k = g.grid.k
    lo = np.repeat(ys.reshape(len(ys), k), k, axis=0)  # (m, k), m = len(ys) * k
    m, bumped = len(lo), (np.arange(len(lo)), np.tile(np.arange(k), len(ys)))
    hi = lo.copy()
    hi[bumped] += 1
    both = np.concatenate([lo, hi]).reshape((2 * m,) + ys.shape[1:])
    log_p, post = rows(both)
    thetas = hi[bumped] * np.exp(log_p[m:] - log_p[:m])
    active = g.support_mask()
    contrasts = np.zeros((m, len(g.grid)))
    contrasts[:, active] = (post[m:, active] - post[:m, active]) / g.weights[active]
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


def _second_moments(grid, contrasts: np.ndarray, z: int, rows):
    """``sum p(z') s(z') s(z')^T`` over counts z' <= z in every coordinate, s = post(z') @ c.

    Returns the sum and the ``log p`` of every count summed, in order.  The
    counts are taken in lexicographic blocks of ``_BLOCK_ENTRIES`` entries
    (rows of ``contrasts.shape[1]`` atoms) whatever ``rows`` (see
    ``_pair_estimates``) computes, so the sum has the same bits for the
    same rows.  Posteriors cut to a prefix of the atoms come with
    ``contrasts`` cut to the same prefix.
    """
    zs = np.indices((z + 1,) * grid.k).reshape(grid.k, -1).T  # lexicographic
    if not isinstance(grid, ProductGrid):
        zs = zs[:, 0]
    step = max(1, _BLOCK_ENTRIES // contrasts.shape[1])
    out = np.zeros((len(contrasts), len(contrasts)))
    log_ps = []
    for start in range(0, len(zs), step):
        log_p, post = rows(zs[start : start + step])
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


def _banded_moments(g: MixingWeights, contrasts: np.ndarray, z: int, rows) -> np.ndarray:
    """``_second_moments`` up to z over a certified prefix [0, h) of a scalar grid.

    Past h every score ``log k(z'|theta_j) + log g_j`` of a row z' <= z lies
    more than ``_UNDERFLOW_NATS`` below the row's peak, so ``log_mixture``
    over the whole grid would make each of those posterior terms an exact
    0.0 and the sum differs from the full-width one by summation order
    alone.  With ``theta_h >= z`` the kernel decreases in theta past every
    z', so ``log k(z'|theta_h) + log max_{j>=h} g_j`` bounds the excluded
    scores; a row's ``log p`` over at most d atoms exceeds its peak by at
    most ``log d``.  The check reads the ``log p`` of the rows the sum
    computes, O(z), and h starts where the Poisson kernel at z has fallen
    that far (and ``_REACH_SLACK_NATS`` more) below its mode and doubles
    while the check fails; at h = d the sum is the full-width one, bit for
    bit.
    """
    points, weights = g.grid.points, g.weights
    d = len(points)
    margin = _UNDERFLOW_NATS + math.log(d)
    zs = np.arange(z + 1)
    h = max(1, int(np.searchsorted(points, _poisson_reach(z, margin + _REACH_SLACK_NATS))))
    while h < d:
        if weights[:h].any():
            moments, log_p = _second_moments(g.grid, contrasts[:, :h], z, partial(rows, width=h))
            tail = float(weights[h:].max())
            if tail == 0.0:
                return moments
            excluded = _log_kernel(points[h : h + 1], zs)[:, 0] + math.log(tail)
            if (excluded <= log_p - margin).all():
                return moments
        h = min(d, 2 * h)
    return _second_moments(g.grid, contrasts, z, rows)[0]


def _estimates(g: MixingWeights, ys: np.ndarray, y_max: int | None):
    """Estimates and their second-moment matrix for validated counts ``ys``.

    Returns ``(theta, V)`` over the pairs of ``_pair_estimates``: ``V[i,
    i]`` is the variance functional of pair i, and the k pairs of one count
    vector span the covariance of its coordinate estimates.  All pairs
    share one truncation point: ``y_max`` when given, else the certified
    point, found from the sums up to the largest bumped count and the O(D)
    tail bound.  The rows up to the largest bumped count are built once
    (``_table_rows``): the pairs, the partial sums and the first rows of
    the full sum read them.  The pairs, contrasts and partial sums span the
    whole grid; on a scalar grid the full sum runs over the certified band
    of ``_banded_moments`` and computes only the rows past the table, over
    the band's atoms.
    """
    top = int(ys.max()) + 1
    rows = _table_rows(g, top)
    thetas, contrasts = _pair_estimates(g, ys, rows)
    if y_max is None:
        cap = default_y_max(g.grid.base)
        z_lo = min(top, cap)
        partial = np.diag(_second_moments(g.grid, contrasts, z_lo, rows)[0])
        y_max = _certified_y_max(g, contrasts, partial, z_lo, cap)
    if isinstance(g.grid, ProductGrid):
        moments = _second_moments(g.grid, contrasts, y_max, rows)[0]
    else:
        moments = _banded_moments(g, contrasts, y_max, rows)
    return thetas, np.outer(thetas, thetas) * moments


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
