"""Independent brute-force reference implementations used only by tests.

Almost everything here deliberately avoids the library's log-space and
vectorized code paths: plain floating-point sums, explicit loops, stdlib
factorials.  These stay slow and obvious so the fast implementations have
something trustworthy to be checked against.  The exceptions check
properties of the recursion rather than the mixture rows themselves:
``posterior_table``, ``posterior_mean`` and ``martingale_residual`` read
their posteriors from the library's ``log_mixture``, so they stay exact
where the linear pmf underflows.
"""

import math
import warnings

import numpy as np
from scipy.special import pdtrc, roots_legendre
from scipy.stats import poisson, rv_discrete

from streameb.inference import default_y_max
from streameb.model import MixingWeights, log_kernel_rows, log_mixture

COVARIANCE_MAX_D = 200

# Gauss-Legendre node count for integrating the Poisson kernel against a
# continuous prior over its support cut at isf(PRIOR_TAIL).  For the smooth
# priors the tests use this is within 1e-12 relative of adaptive quadrature
# over the whole support at every count up to 100.  A cut at isf(1e-16)
# instead is off by 4e-6 at y = 30 under the half-Gaussian, whose count-30
# mass comes from rates past that point.
QUADRATURE_NODES = 400
PRIOR_TAIL = 1e-300


def poisson_pmf(y, theta):
    return math.exp(-theta) * theta**y / math.factorial(y)


def clt_scale_partial_sum(alpha, gamma, n, terms=200_000):
    """b_n = 1 / sum_{k >= n} (alpha + k)^(-2 gamma), summed term by term.

    An explicit partial sum over the first ``terms`` terms plus a midpoint-rule
    remainder for the rest; accurate to ~1e-9 relative.
    """
    two_g = 2.0 * gamma
    ks = alpha + np.arange(n, n + terms, dtype=float)
    partial = float(np.sum(ks**-two_g))
    edge = alpha + n + terms - 0.5
    remainder = edge ** (1.0 - two_g) / (two_g - 1.0)
    return 1.0 / (partial + remainder)


def direct_mixture_pmf(points, weights, y):
    return sum(w * poisson_pmf(y, t) for t, w in zip(points, weights))


def direct_posterior_weights(points, weights, y):
    raw = np.array([w * poisson_pmf(y, t) for t, w in zip(points, weights)])
    return raw / raw.sum()


def direct_posterior_mean(points, weights, y):
    post = direct_posterior_weights(points, weights, y)
    return float(np.dot(points, post))


def posterior_table(g, y_max, cache=None):
    """Rows z = 0..y_max of the mixture pmf and the posterior weights given z.

    Returns ``(p, post)``: ``p[z] = p_g(z)`` and ``post[z] = k(z|theta) g /
    p_g(z)``, shape (y_max+1, d).  A posterior row is exact even where
    p_g(z) underflows to zero.
    """
    log_p, post = log_mixture(log_kernel_rows(g.grid, np.arange(y_max + 1), cache), g.weights)
    return np.exp(log_p), post


def posterior_mean(g, y):
    """E[theta | Y=y] under g, from the log-space posterior row of y."""
    post = log_mixture(log_kernel_rows(g.grid, [y]), g.weights)[1][0]
    return float(np.dot(g.grid.points, post))


def martingale_residual(state, y_max):
    """How far the next update is from mean-preserving, per atom.

    Averages the actual one-step update over counts y <= y_max drawn from
    the current predictive pmf, adds the analytically known contribution of
    the truncated tail, and returns the largest absolute gap to the current
    weights.  Zero up to truncation and rounding.
    """
    g = state.g
    w = g.weights
    a = state.rate(state.n + 1)
    p, post = posterior_table(g, y_max, state.cache)    # (y_max+1, d)
    stepped = (1.0 - a) * w[None, :] + a * post         # update applied at each y
    expected = (p[:, None] * stepped).sum(axis=0)
    # Poisson tail beyond y_max, exact: P(Y > y_max | theta_j)
    tail_k = pdtrc(y_max, g.grid.points)
    tail_p = float(np.dot(w, tail_k))
    expected += (1.0 - a) * w * tail_p + a * w * tail_k
    return float(np.max(np.abs(expected - w)))


def direct_newton_step(points, weights, y, step):
    post = direct_posterior_weights(points, weights, y)
    w = (1.0 - step) * np.asarray(weights) + step * post
    return w / w.sum()


def direct_variance_double_sum(points, weights, y, y_max):
    """Quadratic-in-everything evaluation of the interval variance."""
    points = list(points)
    weights = list(weights)
    p_y = direct_mixture_pmf(points, weights, y)
    p_y1 = direct_mixture_pmf(points, weights, y + 1)
    theta_hat = (y + 1) * p_y1 / p_y
    total = 0.0
    for z in range(y_max + 1):
        p_z = direct_mixture_pmf(points, weights, z)
        if p_z <= 0:
            continue
        bracket = 0.0
        for j, (t, w) in enumerate(zip(points, weights)):
            post_j = poisson_pmf(z, t) * w / p_z
            bracket += post_j * (poisson_pmf(y + 1, t) / p_y1 - poisson_pmf(y, t) / p_y)
        total += p_z * bracket**2
    return theta_hat**2 * total


def gradient_sandwich_variance(points, weights, y, y_max, covariance):
    """Second derivation of the same variance: contrast gradient against the
    posterior-weight covariance matrix (first d-1 coordinates)."""
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    p_y = direct_mixture_pmf(points, weights, y)
    p_y1 = direct_mixture_pmf(points, weights, y + 1)
    theta_hat = (y + 1) * p_y1 / p_y
    k_y = np.array([poisson_pmf(y, t) for t in points])
    k_y1 = np.array([poisson_pmf(y + 1, t) for t in points])
    grad = theta_hat * (
        (k_y1[:-1] - k_y1[-1]) / p_y1 - (k_y[:-1] - k_y[-1]) / p_y
    )
    return float(grad @ covariance @ grad)


def posterior_weight_covariance(g, y_max=None):
    """Predictive covariance of the first d-1 posterior weights.

    Entry (i, j) is ``sum_z post_i(z) post_j(z) p(z) - g_i g_j`` over
    z = 0..y_max (by default the library's cap ``default_y_max``), with the
    table built from scipy's Poisson pmf.  Symmetric and positive
    semidefinite; strictly positive definite when every weight is positive.
    Quadratic in d, so this is refused beyond d=200.
    """
    points, weights = g.grid.points, g.weights
    d = len(points)
    if d > COVARIANCE_MAX_D:
        raise ValueError(f"covariance matrix refused for d={d} > {COVARIANCE_MAX_D}")
    if y_max is None:
        y_max = default_y_max(g.grid)
    joint = poisson.pmf(np.arange(y_max + 1)[:, None], points[None, :]) * weights
    p = joint.sum(axis=1)
    post = np.divide(joint, p[:, None], out=np.zeros_like(joint), where=(p > 0)[:, None])
    full = post.T @ (p[:, None] * post) - np.outer(weights, weights)
    full = 0.5 * (full + full.T)
    return full[: d - 1, : d - 1]


# -- priors as scipy.stats distributions: frozen continuous ones, or
# rv_discrete(values=(atoms, probs)) for a prior on finitely many atoms


def count_second_moment(dist):
    """E[Y^2] for Y ~ Poisson(theta), theta ~ dist: E[theta] + E[theta^2]."""
    return float(dist.mean() + dist.moment(2))


def count_pmf(dist, ys):
    """p(y) = integral of the Poisson kernel against the prior.

    Continuous priors use Gauss-Legendre quadrature with ``QUADRATURE_NODES``
    points over the prior's support cut to [0, dist.isf(PRIOR_TAIL)];
    discrete priors are summed exactly.
    """
    ys = np.asarray(ys, dtype=int)
    if isinstance(dist, rv_discrete):
        theta, w = dist.xk, dist.pk
    else:
        x, gw = roots_legendre(QUADRATURE_NODES)
        lo, hi = dist.support()
        lo, hi = max(float(lo), 0.0), min(float(hi), float(dist.isf(PRIOR_TAIL)))
        theta = lo + 0.5 * (hi - lo) * (x + 1.0)
        w = 0.5 * (hi - lo) * gw * dist.pdf(theta)
    return poisson.pmf(ys[:, None], theta[None, :]) @ w


def binned_discretization(dist, grid):
    """Push a prior onto an equispaced grid by CDF differences over the bins.

    Bin i collects the prior mass on (theta_{i-1}, theta_i] (with theta_0=0);
    the last atom also absorbs the upper tail.  Any prior mass exactly at 0
    lands on the first atom, with a warning.
    """
    pts = grid.points
    gaps = np.diff(pts)
    if gaps.size and not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError("binned discretization expects an equispaced grid")
    cdf_at = np.asarray(dist.cdf(pts), dtype=float)
    if float(dist.cdf(0.0)) > 0:
        warnings.warn("prior has mass at 0; assigning it to the first grid atom")
    w = np.empty(len(grid))
    w[0] = cdf_at[0]
    w[1:] = np.diff(cdf_at)
    w[-1] += 1.0 - cdf_at[-1]
    w = np.clip(w, 0.0, None)
    return MixingWeights(grid, w / w.sum())


def kl_discretization_gap(dist, g, y_max):
    """Truncated KL(p_prior || p_g) summed over counts 0..y_max.

    Returns ``inf`` when the discretized pmf vanishes somewhere the exact
    pmf does not.  Nonnegative up to quadrature and truncation error.
    """
    p_exact = count_pmf(dist, np.arange(y_max + 1))
    log_p_g = log_mixture(log_kernel_rows(g.grid, np.arange(y_max + 1)), g.weights)[0]
    live = p_exact > 0
    degenerate = ~np.isfinite(log_p_g) | (np.exp(log_p_g) == 0.0)
    if np.any(live & degenerate):
        return math.inf
    terms = p_exact[live] * (np.log(p_exact[live]) - log_p_g[live])
    return float(terms.sum())


# -- product grids: lexicographic lattice indexing, first coordinate most significant


def multi_log_kernel(yvec, theta) -> float:
    """Sum of scalar log kernels -t + y log t - log y! across coordinates."""
    yvec, theta = tuple(yvec), tuple(theta)
    if len(yvec) != len(theta):
        raise ValueError("count vector and rate vector must have equal length")
    return float(sum(-t + y * math.log(t) - math.lgamma(y + 1) for y, t in zip(yvec, theta)))


def index_to_tuple(grid, i):
    """Rate vector at flat index i of a ProductGrid."""
    d = len(grid.base)
    digits = []
    for _ in range(grid.k):
        digits.append(i % d)
        i //= d
    return tuple(float(grid.base.points[j]) for j in reversed(digits))


def tuple_to_index(grid, indices):
    """Flat index of the lattice point with these per-coordinate base indices."""
    d = len(grid.base)
    i = 0
    for j in indices:
        i = i * d + int(j)
    return i


def coordinate_columns(grid):
    """(k, D) array: row j holds theta_j for every lattice point."""
    d = len(grid.base)
    cols = np.empty((grid.k, grid.size))
    for j in range(grid.k):
        cols[j] = np.tile(np.repeat(grid.base.points, d ** (grid.k - 1 - j)), d**j)
    return cols
