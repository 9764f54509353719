"""Independent brute-force reference implementations used only by tests.

Everything here deliberately avoids the library's log-space and vectorized
code paths: plain floating-point sums, explicit loops, stdlib factorials.
These stay slow and obvious so the fast implementations have something
trustworthy to be checked against.
"""

import math

import numpy as np
from scipy.stats import poisson

from streameb.inference import default_y_max
from streameb.model import log_poisson_kernel

COVARIANCE_MAX_D = 200


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


# -- product grids: lexicographic lattice indexing, first coordinate most significant


def multi_log_kernel(yvec, theta) -> float:
    """Sum of scalar log kernels across coordinates."""
    yvec, theta = tuple(yvec), tuple(theta)
    if len(yvec) != len(theta):
        raise ValueError("count vector and rate vector must have equal length")
    return float(sum(log_poisson_kernel(int(y), t) for y, t in zip(yvec, theta)))


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
