"""Classical batch estimators used as comparison points.

Four methods over a count histogram:

* ``robbins_estimate``: the ratio of empirical frequencies, (y+1) n_{y+1}/n_y.
* ``fit_npmle``: nonparametric ML mixing weights on a grid, by mix-SQP
  (Kim, Carbonetto, Stephens & Anitescu 2020): sequential quadratic
  programming whose subproblems an active-set method solves exactly.
* ``fit_min_hellinger``: same solver minimizing squared Hellinger distance
  to the empirical pmf.
* ``fit_gamma_hyperprior`` / ``gamma_posterior_mean``: parametric route; the
  marginal of a Gamma(shape, rate) prior is negative binomial, fitted by
  maximum likelihood, after which the posterior mean is (y+shape)/(1+rate).
  At the maximum the rate is shape / mean, and the shape is the root of the
  profile score ``sum_y n_y [psi(y+s) - psi(s)] - N log1p(mean/s)``, found
  by bisection in log shape down to adjacent floats.  When the variance
  exceeds the mean that score changes sign exactly once (Aragon, Eberly &
  Eberly 1992), so the root is the unique maximum and the search cannot
  fail; otherwise the fit is the boundary safeguard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgesv
from scipy.special import digamma

# ratio_estimate stays importable here: perfbench/tracing.py patches it.
from .inference import estimate_table, ratio_estimate  # noqa: F401
from .model import CountHistogram, Grid, MixingWeights, log_kernel_rows


class UndefinedAtCountError(ValueError):
    """Frequency-ratio estimate requested at a count never observed."""


@dataclass(frozen=True)
class GammaHyper:
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("shape and rate must be strictly positive")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Grid and stopping policy for the NPMLE and minimum-Hellinger solvers."""

    grid: Grid
    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


# The vertex-direction era's name; perfbench/workloads.py still imports it.
VdmConfig = SolverConfig


@dataclass(frozen=True, eq=False)
class SolverResult:
    weights: MixingWeights
    objective_path: np.ndarray     # maximized objective value per iteration
    certificate: float             # max_j directional score / its bound at exit
    converged: bool
    iterations: int
    qp_solves: int                 # linear systems solved across all QP subproblems


def baseline_grid(h: CountHistogram) -> Grid:
    """The one grid of the batch grid fits (``baseline_estimates``, ``evaluation.baseline_rows``).

    1,000 evenly spaced points from 1e-3 to max + 3 (sqrt(max) + 1), where
    max is the largest count; the top is at least 1.
    """
    top = h.max_count()
    return Grid(np.linspace(1e-3, max(top + 3.0 * (top**0.5 + 1.0), 1.0), 1000))


def robbins_estimate(h: CountHistogram, y: int) -> float:
    """(y+1) n_{y+1} / n_y from the raw histogram; 0 when y+1 was never seen."""
    n_y = h.entries.get(int(y), 0)
    if n_y < 1:
        raise UndefinedAtCountError(f"no observations at y={y}")
    return (y + 1) * h.entries.get(int(y) + 1, 0) / n_y


def _nonnegative_qp(a: np.ndarray, g: np.ndarray, x: np.ndarray, start: np.ndarray | None = None):
    """argmin over y >= 0 of |a (y - x)|^2 / 2 + g . (y - x), by a primal active set.

    Starts from the support of ``start``, a feasible point (the previous
    subproblem's solution; the empty support when it is None), and solves on
    that support first.  Then it adds the free coordinate whose gradient is
    below -1e-10 and most negative, and solves again.  Each Newton step on
    the support solves ``a_S' a_S`` plus a 1e-10 ridge for the correction to
    the current y, so the ridge damps the correction rather than pulling y
    toward zero; when a coordinate reaches zero the step stops there and the
    coordinate leaves the support.  ``a`` has one row per distinct count, so
    the d x d Hessian ``a' a`` is never formed.  Returns y and the number of
    linear systems solved.

    Reused between solves: the support is one index array, and its column
    block ``a_S`` is gathered from ``a`` only when a coordinate enters; a
    coordinate that leaves takes its column out of the block, with no new
    gather.  The gradient that picks the next coordinate reuses that block
    and the solution on the support that the last solve formed.  Every
    float operation and its order are those of a fresh gather per solve.
    """
    y = np.zeros(a.shape[1]) if start is None else start.copy()
    ax = a @ x
    support = np.flatnonzero(y)
    a_s, y_s = a[:, support], y[support]
    solves, entering = 0, None
    for _ in range(4 * a.shape[1] + 10):
        while support.size:
            cur = y[support]
            hess = a_s.T @ a_s
            hess.ravel()[:: support.size + 1] += 1e-10
            _, _, delta, info = dgesv(hess, a_s.T @ (a_s @ cur - ax) + g[support])
            solves += 1
            if info != 0:
                raise np.linalg.LinAlgError("Singular matrix")
            y_s = cur - delta
            if y_s[y_s.argmin()] > 0:  # = y_s.min() > 0, NaN too, at a fraction of its cost
                y[support] = y_s
                break
            hit = (y_s <= 0).nonzero()[0]
            held = cur[hit]
            ratios = held / (held - y_s[hit])
            first = ratios.argmin()
            moved = cur + ratios[first] * (y_s - cur)
            moved[hit[first]] = 0.0
            y_s = np.maximum(moved, 0.0)
            y[support] = y_s
            keep = y_s > 0
            support, y_s = support[keep], y_s[keep]
            a_s = a_s[:, keep]
        if entering is not None and not y[entering] > 0:
            break  # the entering coordinate left the support again: no progress left
        grad = a.T @ (a_s @ y_s - ax) + g
        grad[support] = 0.0
        entering = int(grad.argmin())
        if grad[entering] >= -1e-10:
            break
        support = np.concatenate((support, [entering]))
        a_s = a[:, support]
    return y, solves


# A step may shrink no pmf entry below this fraction of its current value, as
# far as the quadratic model of log p (or sqrt p) is trusted.  Without it one
# step can push a rare count's pmf to ~1e-30, which Newton steps only double.
_PMF_FLOOR = 0.1


def _run_sqp(h: CountHistogram, cfg: SolverConfig, objective, gain, lam: float, scale):
    """mix-SQP for ``f(x) = lam sum(x) - phi(Kx)`` over x >= 0 (phi concave).

    ``objective(p)`` gives ``(phi(p), u, c)`` at p = Kx, with u = phi'(p) and
    c = -phi''(p): f has gradient ``lam - u K`` and Hessian ``K' diag(c) K``.
    ``gain(p, dp)`` is ``phi(p + dp) - phi(p)`` without cancellation, for the
    Armijo search on f.  ``scale(phi(p))`` is the multiple of a mixture on the
    simplex that minimizes f along its ray; each step starts there and ends
    back on the simplex, so the recorded objective improves strictly.  At a
    stationary point ``max_j u . K[:, j] <= u . p``: that ratio certifies.
    """
    ys = h.support()
    kernel = np.exp(log_kernel_rows(cfg.grid, ys))
    if np.any(kernel.max(axis=1) <= 0.0):
        bad = int(ys[int(np.argmin(kernel.max(axis=1)))])
        raise ValueError(f"count y={bad} is unreachable from every grid atom")
    x = np.full(len(cfg.grid), 1.0 / len(cfg.grid))
    path, converged, cert, it = [], False, np.inf, 0
    y, qp_solves = None, 0  # y: the last subproblem's solution, the next one's start
    for it in range(1, cfg.max_iters + 1):
        p = kernel @ x
        value, u, c = objective(p)
        path.append(value)
        uk = u @ kernel
        cert = float(uk.max() / (u @ p))
        converged = cert <= 1.0 + cfg.tol
        if converged or it == cfg.max_iters:  # the result is the iterate just checked
            break
        s = scale(value)
        if s != 1.0:  # at s = 1 the scaled point is p itself, and so are u, c and uk
            x, p = s * x, s * p
            _, u, c = objective(p)
            uk = u @ kernel
        grad = lam - uk
        a = np.sqrt(c)[:, None] * kernel
        y, solves = _nonnegative_qp(a, grad, x, y)
        qp_solves += solves
        step = y - x
        dp = kernel @ step
        down = dp < 0
        t = float(((_PMF_FLOOR - 1.0) * p[down] / dp[down]).min(initial=1.0))
        slope, total = float(grad @ step), float(step.sum())
        while t >= 1e-10 and lam * t * total - gain(p, t * dp) > 0.01 * t * slope:
            t *= 0.5
        if t < 1e-10:  # no decrease along the step
            break
        x = x + t * step
        x /= x.sum()
    if not converged:
        warnings.warn(
            f"SQP stopped after {it} of max_iters={cfg.max_iters} iterations "
            f"with certificate {cert:.3e}; returning the best iterate"
        )
    weights = MixingWeights(cfg.grid, x / x.sum())  # x is scaled if the search failed
    return SolverResult(weights, np.asarray(path), cert, converged, it, qp_solves)


def fit_npmle(h: CountHistogram, cfg: SolverConfig) -> SolverResult:
    """Maximize sum_y n_y log p_g(y) over mixing weights on the grid.

    Solved as min ``sum(x) - sum_y (n_y/N) log (Kx)_y`` over x >= 0, whose
    minimizer lies on the simplex.  The certificate is ``max_j sum_y (n_y/N)
    k(y|theta_j) / p_g(y)``, 1 at the optimum.
    """
    freq = h.multiplicities() / h.total

    def objective(p):
        return float(freq @ np.log(p)), freq / p, freq / p**2

    def gain(p, dp):
        return float(freq @ np.log1p(dp / p))

    res = _run_sqp(h, cfg, objective, gain, 1.0, lambda value: 1.0)
    return replace(res, objective_path=h.total * res.objective_path)


def fit_min_hellinger(h: CountHistogram, cfg: SolverConfig) -> SolverResult:
    """Minimize 1 - sum_y sqrt(p_hat(y) p_g(y)) over mixing weights.

    The empirical pmf lives on the observed support (an implicit tail cell
    carries zero mass, so it never enters the affinity).  Solved as min
    ``sum(x)/2 - sum_y sqrt(p_hat(y) (Kx)_y)`` over x >= 0: the affinity is
    homogeneous of degree 1/2, so the minimizer is the best mixture times its
    squared affinity.  ``objective_path`` reports the distance of the
    normalized iterates, so it is non-increasing.
    """
    root_hat = np.sqrt(h.multiplicities() / h.total)

    def objective(p):
        root_p = np.sqrt(p)
        return float(root_hat @ root_p), 0.5 * root_hat / root_p, 0.25 * root_hat / (p * root_p)

    def gain(p, dp):
        return float(root_hat @ (dp / (np.sqrt(p + dp) + np.sqrt(p))))

    res = _run_sqp(h, cfg, objective, gain, 0.5, lambda affinity: affinity**2)
    return replace(res, objective_path=1.0 - res.objective_path)


# -- Gamma hyperprior (negative binomial marginal) ---------------------------


_BOUNDARY_LOG = np.log(1e8)
_BOUNDARY_WARNING = (
    "marginal likelihood is maximized toward the equidispersed "
    "boundary (shape, rate -> inf); returning the safeguarded fit"
)


# B_2k / 2k for k = 1..7: psi(x) ~ log x - 1/(2x) - sum_k (B_2k / 2k) x^(-2k)
# (Abramowitz & Stegun 6.3.18), highest power first for np.polyval.
_PSI_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120, 1 / 12)


def _digamma_step(ys: np.ndarray, s: float) -> np.ndarray:
    """``psi(ys + s) - psi(s)`` for counts ``ys``, accurate at large ``s`` too.

    Below s = 10 it is the plain difference.  From there on it is the
    difference of the two asymptotic series: ``log1p(ys / s)`` plus terms
    each far smaller than it.  The plain difference of two values near
    log s keeps an absolute error near 1e-16 log s against a difference
    near ys / s, so past a shape of ~1e4 it loses the profile score's sign.
    """
    if s < 10.0:
        return digamma(ys + s) - digamma(s)
    t = ys + s
    tail = np.polyval(_PSI_SERIES, s**-2.0) * s**-2.0 - np.polyval(_PSI_SERIES, t**-2.0) * t**-2.0
    return np.log1p(ys / s) + ys / (2.0 * s * t) + tail


def fit_gamma_hyperprior(h: CountHistogram) -> GammaHyper:
    """Maximum-likelihood (shape, rate) for the negative binomial marginal.

    The likelihood's score in the rate vanishes where ``shape / rate`` is the
    sample mean, so the fit is a root of the profile score in the shape s,
    with ``rate = s / mean``::

        d/ds l = sum_y n_y [psi(y + s) - psi(s)] - N log1p(mean / s)

    When the sample variance exceeds the mean this score is positive at
    small s, negative at large s and changes sign exactly once (Aragon,
    Eberly & Eberly, Statist. Probab. Lett. 1992), so bisection in log s
    over [-log 1e8, log 1e8], down to adjacent floats, finds the one
    maximum and cannot fail.  Data with no overdispersion, or a root at
    the bracket's end, push shape and rate to infinity together; a finite
    safeguard is returned with a warning in that case.
    """
    mean = sum(y * n for y, n in h.entries.items()) / h.total
    var = sum((y - mean) ** 2 * n for y, n in h.entries.items()) / h.total
    shape_cap = float(np.exp(_BOUNDARY_LOG))
    if var <= mean:
        # No overdispersion to explain (a single distinct count has variance
        # 0): the likelihood climbs toward the equidispersed limit (shape,
        # rate -> inf with their ratio fixed).
        warnings.warn(_BOUNDARY_WARNING)
        return GammaHyper(shape_cap, shape_cap / max(mean, 1e-8))
    ys, n = h.support().astype(float), h.multiplicities()
    lo, hi = -_BOUNDARY_LOG, _BOUNDARY_LOG
    log_shape = 0.5 * (lo + hi)
    while lo < log_shape < hi:
        s = math.exp(log_shape)
        if n @ _digamma_step(ys, s) > h.total * math.log1p(mean / s):
            lo = log_shape
        else:
            hi = log_shape
        log_shape = 0.5 * (lo + hi)
    if max(log_shape, log_shape - math.log(mean)) >= _BOUNDARY_LOG - 1e-3:
        warnings.warn(_BOUNDARY_WARNING)
    shape = math.exp(log_shape)
    return GammaHyper(shape, shape / mean)


def gamma_posterior_mean(hyper: GammaHyper, y: int) -> float:
    """Posterior mean under the conjugate pair: (y + shape) / (1 + rate)."""
    return (y + hyper.shape) / (1.0 + hyper.rate)


# -- per-count tables ---------------------------------------------------------

METHODS = ("robbins", "npmle", "npmd", "peb")


def baseline_estimates(h: CountHistogram, method: str, cfg: SolverConfig | None = None):
    """Estimate table {observed y -> estimate} for one method.

    The grid methods fit on ``cfg``, by default ``SolverConfig(baseline_grid(h))``.
    Returns ``(rows, info)`` where rows is a list of (y, estimate) over the
    observed support and info carries fit diagnostics (objective value for
    the grid methods, hyperparameters for the parametric one).
    """
    if not h.entries:
        raise ValueError("empty histogram: every method needs at least one count")
    ys = [int(y) for y in h.support()]
    info: dict = {"method": method}
    if method == "robbins":
        rows = [(y, robbins_estimate(h, y)) for y in ys]
    elif method in ("npmle", "npmd"):
        cfg = SolverConfig(baseline_grid(h)) if cfg is None else cfg
        res = fit_npmle(h, cfg) if method == "npmle" else fit_min_hellinger(h, cfg)
        table = estimate_table(res.weights, ys[-1])[0].tolist()
        rows = [(y, table[y]) for y in ys]
        info.update(
            objective=float(res.objective_path[-1]),
            certificate=res.certificate,
            converged=res.converged,
            iterations=res.iterations,
            qp_solves=res.qp_solves,
        )
    elif method == "peb":
        hyper = fit_gamma_hyperprior(h)
        rows = [(y, gamma_posterior_mean(hyper, y)) for y in ys]
        info.update(shape=hyper.shape, rate=hyper.rate)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return rows, info


def estimates_to_csv(rows, method: str) -> str:
    lines = ["y,method,estimate"]
    lines += [f"{y},{method},{est!r}" for y, est in rows]
    return "\n".join(lines) + "\n"


def estimates_to_markdown(tables: dict) -> str:
    """Markdown table with one column per count and one row per method."""
    ys = sorted({y for rows in tables.values() for y, _ in rows})
    header = "| method | " + " | ".join(str(y) for y in ys) + " |"
    rule = "|---" * (len(ys) + 1) + "|"
    lines = [header, rule]
    for method, rows in tables.items():
        by_y = dict(rows)
        cells = [f"{by_y[y]:.2f}" if y in by_y else "" for y in ys]
        lines.append("| " + method + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
