"""Plain-numpy references for the benchmark's output checks.

Nothing here imports streameb: each function recomputes a result from the
published formulas (README and module docstrings), so a check compares the
program against an independent implementation rather than against itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp


def log_kernel_table(points: np.ndarray, y_max: int) -> np.ndarray:
    """log Poisson(z | theta_j) for z = 0..y_max, shape (y_max + 1, d)."""
    zs = np.arange(y_max + 1, dtype=float)[:, None]
    return -points[None, :] + zs * np.log(points)[None, :] - gammaln(zs + 1.0)


def _scaled_kernel(points: np.ndarray, y_max: int) -> np.ndarray:
    """Kernel rows divided by their maximum, so no row underflows to zero."""
    logk = log_kernel_table(points, y_max)
    return np.exp(logk - logk.max(axis=1, keepdims=True))


def _step(w, row, a, q):
    """One step g <- (1 - a) g + a * posterior, in place; False if degenerate."""
    np.multiply(row, w, out=q)
    total = q.sum()
    if not total > 0.0:
        return False
    w *= 1.0 - a
    q *= a / total
    w += q
    w /= w.sum()
    return True


def scalar_recursion(points, w0, n0, alpha, gamma, ys):
    """Replay the scalar stream; returns (weights, n, skipped).

    Degenerate counts are skipped without advancing n, as the engine does
    with ``skip_degenerate``.
    """
    ys = np.asarray(ys, dtype=np.int64)
    kernel = _scaled_kernel(np.asarray(points, float), int(ys.max()))
    w, n, skipped = np.array(w0, dtype=float), int(n0), 0
    q = np.empty_like(w)
    for y in ys.tolist():
        if _step(w, kernel[y], (alpha + n + 1) ** (-gamma), q):
            n += 1
        else:
            skipped += 1
    return w, n, skipped


def lattice_recursion(base_points, w0, n0, alpha, gamma, yvecs):
    """Replay a two-coordinate lattice stream (lexicographic atom order)."""
    yvecs = np.asarray(yvecs, dtype=np.int64)
    kernel = _scaled_kernel(np.asarray(base_points, float), int(yvecs.max()))
    w, n = np.array(w0, dtype=float), int(n0)
    q = np.empty_like(w)
    d = kernel.shape[1]
    row = np.empty((d, d))
    for y1, y2 in yvecs.tolist():
        np.multiply(kernel[y1][:, None], kernel[y2][None, :], out=row)
        if not _step(w, row.ravel(), (alpha + n + 1) ** (-gamma), q):
            raise ValueError(f"lattice likelihood underflowed at {(y1, y2)}")
        n += 1
    return w, n


def default_y_max(hi: float) -> int:
    """Documented truncation of sums over future counts: hi + 20 sqrt(hi)."""
    return int(math.ceil(hi + 20.0 * math.sqrt(hi)))


def estimate_and_variance(points, weights, ys):
    """theta_hat(y) and the variance functional V(y), in log space.

    theta_hat(y) = (y+1) p(y+1) / p(y).  V(y) = theta_hat^2 *
    sum_z p(z) s(z)^2 with s(z) = sum_j post_j(z) c_j and contrast
    c_j = k(y+1|theta_j)/p(y+1) - k(y|theta_j)/p(y), z summed to the
    documented truncation point.
    """
    points = np.asarray(points, float)
    weights = np.asarray(weights, float)
    y_max = max(default_y_max(points[-1]), max(ys) + 1)
    logk = log_kernel_table(points, y_max)
    live = weights > 0
    logk, logw = logk[:, live], np.log(weights[live])
    log_joint = logk + logw[None, :]
    log_p = logsumexp(log_joint, axis=1)
    post = np.exp(log_joint - log_p[:, None])
    p = np.exp(log_p)
    out = []
    for y in ys:
        theta = (y + 1) * math.exp(log_p[y + 1] - log_p[y])
        contrast = np.exp(logk[y + 1] - log_p[y + 1]) - np.exp(logk[y] - log_p[y])
        s = post @ contrast
        out.append((theta, theta**2 * float(np.dot(p, s**2))))
    return out


def robbins(counts: dict, y: int) -> float:
    """Robbins' frequency ratio (y + 1) n_{y+1} / n_y."""
    return (y + 1) * counts.get(y + 1, 0) / counts[y]


def vdm_bounds(points, counts: dict):
    """Bounds on what a vertex-direction fit from uniform weights must reach.

    Returns (log likelihood of the uniform mixture, saturated log likelihood
    sum n_y log(n_y / N), Hellinger distance of the uniform mixture to the
    empirical pmf).  Each iteration improves on the uniform start, and no
    mixture beats the saturated model.
    """
    ys = np.array(sorted(counts))
    n = np.array([counts[y] for y in ys], dtype=float)
    logk = log_kernel_table(np.asarray(points, float), int(ys.max()))[ys]
    log_p = logsumexp(logk, axis=1) - math.log(logk.shape[1])
    saturated = float(n @ np.log(n / n.sum()))
    hellinger = 1.0 - float(np.sqrt(n / n.sum()) @ np.exp(0.5 * log_p))
    return float(n @ log_p), saturated, hellinger


def nb_log_likelihood(counts: dict, shape: float, rate: float) -> float:
    """Negative binomial log likelihood: Poisson counts under Gamma(shape, rate)."""
    ys = np.array(sorted(counts), dtype=float)
    n = np.array([counts[y] for y in sorted(counts)], dtype=float)
    terms = (gammaln(ys + shape) - gammaln(shape) - gammaln(ys + 1.0)
             + shape * math.log(rate / (1.0 + rate)) - ys * math.log1p(rate))
    return float(n @ terms)
