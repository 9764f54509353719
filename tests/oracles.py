"""Independent brute-force reference implementations used only by tests.

Almost everything here deliberately avoids the library's log-space and
vectorized code paths: plain floating-point sums, explicit loops, stdlib
factorials.  These stay slow and obvious so the fast implementations have
something trustworthy to be checked against.  The exceptions check
properties of the recursion rather than the mixture rows themselves:
``posterior_table``, ``posterior_mean`` and ``martingale_residual`` read
their posteriors from the library's ``log_mixture``, so they stay exact
where the linear pmf underflows.  ``lockstep_reference`` is the lockstep
recursion's earlier loop, one step at a time with every check in the
step, kept as the bit-for-bit reference for the blocked loop, and
``lattice_reference`` is the lattice loop with its rows built by numpy's
broadcast product, the reference for the ``dgemm`` row.
``full_width_estimates`` is the interval query with its variance sums over
every atom of the grid, the reference for the certified band, and
``dense_scaled_rows`` is the kernel cache's full-width block construction,
the bit-for-bit reference for its banded rows.
``atom_count_matrix`` and ``interval_coverage`` draw and score the
lockstep streams of the interval-coverage criterion.
``nonnegative_qp_reference`` is the mix-SQP subproblem's active set as first
written, gathering the support's columns afresh for every solve and every
gradient: the bit-for-bit reference for the solver that reuses them.
"""

import math
import warnings

import numpy as np
from scipy.linalg import blas
from scipy.linalg.lapack import dgesv
from scipy.special import pdtrc, roots_legendre
from scipy.stats import poisson, rv_discrete

from streameb import engine, inference
from streameb.evaluation import batched_newton_stream
from streameb.inference import credible_intervals, default_y_max, ratio_estimate
from streameb.model import (
    DegenerateLikelihoodError,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    _log_kernel,
    log_kernel_rows,
    log_mixture,
)

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


def dense_scaled_rows(points, ys):
    """The kernel cache's rows as first built: full-width log-kernel rows, each
    shifted by its maximum and exponentiated in one block."""
    rows = _log_kernel(points, ys)
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    return rows


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


def posterior_table(g, y_max):
    """Rows z = 0..y_max of the mixture pmf and the posterior weights given z.

    Returns ``(p, post)``: ``p[z] = p_g(z)`` and ``post[z] = k(z|theta) g /
    p_g(z)``, shape (y_max+1, d).  A posterior row is exact even where
    p_g(z) underflows to zero.
    """
    log_p, post = log_mixture(log_kernel_rows(g.grid, np.arange(y_max + 1)), g.weights)
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
    p, post = posterior_table(g, y_max)                 # (y_max+1, d)
    stepped = (1.0 - a) * w[None, :] + a * post         # update applied at each y
    expected = (p[:, None] * stepped).sum(axis=0)
    # Poisson tail beyond y_max, exact: P(Y > y_max | theta_j)
    tail_k = pdtrc(y_max, g.grid.points)
    tail_p = float(np.dot(w, tail_k))
    expected += (1.0 - a) * w * tail_p + a * w * tail_k
    return float(np.max(np.abs(expected - w)))


def lockstep_reference(grid, rate, y_matrix, w0, checkpoints):
    """``engine._fold_lockstep`` as a per-step loop on (d, reps) weights.

    Same arguments and result.  Each step reads its strided rows from the
    gathered block, computes its own step size, checks its betas, and
    takes its rescale and checkpoint in turn.  Its sums run down the atoms
    one at a time, as the blocked loop's do, so the two agree bit for bit.
    """
    reps, n_steps = y_matrix.shape
    d = len(grid)
    table = np.ascontiguousarray(KernelMatrixCache(grid).scaled_table(int(y_matrix.max())).T)
    v = np.repeat(np.asarray(w0, dtype=float)[:, None], reps, axis=1)
    q, t, beta = np.empty_like(v), np.empty(reps), np.empty(reps)
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s = 0, 1.0
    wanted, snaps = {int(c) for c in checkpoints}, {}
    block = max(1, engine._LOCKSTEP_BLOCK_FLOATS // (d * reps))
    with np.errstate(divide="ignore", over="ignore"):
        for lo in range(0, n_steps, block):
            counts = y_matrix[:, lo : lo + block].T  # (steps, reps) view
            rows = np.take(table, counts, axis=1)  # (d, steps, reps)
            for j in range(counts.shape[0]):
                np.multiply(rows[:, j], v, out=q)
                q.sum(axis=0, out=t)
                a = (alpha + (n + 1)) ** neg_gamma
                keep = 1.0 - a
                np.divide(a / keep * s, t, out=beta)
                if not beta.max() < math.inf:
                    bad = int(np.argmin(beta < math.inf))
                    raise DegenerateLikelihoodError(int(counts[j, bad]), n)
                q *= beta
                v += q
                s /= keep
                n += 1
                if s > engine._RESCALE_AT:
                    v /= v.sum(axis=0)
                    s = 1.0
                if n in wanted:
                    snaps[n] = (v / v.sum(axis=0)).T.copy()
    return (v / v.sum(axis=0)).T.copy(), snaps


def lattice_reference(state, ys):
    """``engine.update_stream`` on a ProductGrid, with each kernel row built by broadcasting.

    The earlier lattice loop: the row of a count vector is written into a
    third scratch vector by ``np.multiply(prefix[:, None], last)`` and then
    multiplied into the weights, with the same scaled-weight arithmetic and
    the same 64-byte-aligned buffers as ``engine._fold``.  Returns ``(n,
    normalized weights)``; a degenerate count vector raises as the engine
    does, without the stream index.
    """
    grid, rate, cache = state.g.grid, state.rate, state.cache
    d = len(grid)
    stride = -(-d // 8) * 8
    scratch = engine._aligned_empty(3 * stride)
    v, q, row = (scratch[i * stride : i * stride + d] for i in range(3))
    last = row.reshape(-1, len(grid.base))  # (d^(k-1), d)
    v[:] = state.g.weights
    ys = np.asarray(ys).tolist()
    scaled = cache.scaled_table(max(max(y) for y in ys))
    n, s = state.n, 1.0
    for y in ys:
        prefix = scaled[y[0]] if len(y) > 1 else np.ones(1)
        for c in y[1:-1]:
            prefix = np.multiply.outer(prefix, scaled[c]).ravel()
        np.multiply(prefix[:, None], scaled[y[-1]], out=last)
        np.multiply(row, v, q)
        t = blas.dasum(q)
        a = rate(n + 1)
        keep = 1.0 - a
        beta = a / keep * s / t if t > 0.0 else math.inf
        if not beta < math.inf:
            raise DegenerateLikelihoodError(tuple(y), n)
        blas.daxpy(q, v, a=beta)
        s /= keep
        n += 1
        if s > engine._RESCALE_AT:
            v /= blas.dasum(v)
            s = 1.0
    return n, v / blas.dasum(v)


def full_width_moments(g, contrasts, z):
    """``sum p(z') s(z') s(z')^T`` over z' = 0..z, every posterior over the whole grid.

    The variance sum as it ran before the band: blocks of
    ``inference._BLOCK_ENTRIES // d`` full-width rows, accumulated in the
    same order.
    """
    zs = np.arange(z + 1)
    step = max(1, inference._BLOCK_ENTRIES // len(g.grid))
    out = np.zeros((len(contrasts), len(contrasts)))
    for start in range(0, len(zs), step):
        log_p, post = log_mixture(log_kernel_rows(g.grid, zs[start : start + step]), g.weights)
        s = post @ contrasts.T
        out += (np.exp(log_p)[:, None] * s).T @ s
    return 0.5 * (out + out.T)


def full_width_estimates(g, ys, y_max=None):
    """``inference._estimates`` on a scalar grid with every variance sum full-width.

    Returns ``(theta, V, z)``: the pair estimates, their second-moment
    matrix and the truncation point, ``y_max`` or the one certified from
    full-width partial sums.  The pairs read one table of the rows 0..top.
    """
    ys = np.asarray(ys)
    top = int(ys.max()) + 1
    log_p, post = log_mixture(log_kernel_rows(g.grid, np.arange(top + 1)), g.weights)
    thetas = (ys + 1) * np.exp(log_p[ys + 1] - log_p[ys])
    active = g.support_mask()
    contrasts = np.zeros((len(ys), len(g.grid)))
    contrasts[:, active] = (post[ys + 1][:, active] - post[ys][:, active]) / g.weights[active]
    if y_max is None:
        cap = default_y_max(g.grid)
        z_lo = min(top, cap)
        partial = np.diag(full_width_moments(g, contrasts, z_lo))
        y_max = inference._certified_y_max(g, contrasts, partial, z_lo, cap)
    moments = full_width_moments(g, contrasts, y_max)
    return thetas, np.outer(thetas, thetas) * moments, y_max


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


# -- grid sizing


def kl_grid_size_scan(spec, block=1 << 15, cap=10**9):
    """``gridding.kl_grid_size`` by an ascending scan from just above 1/eta, in blocks.

    Each n is tested with the same float64 expression as the bisection, so
    the two must agree exactly; the scan stops past ``cap`` and returns None.
    """
    eta, k, m_k = spec.eta, spec.k, spec.m_k
    target = eta**k
    lo = math.floor(1.0 / eta) + 1
    while lo <= cap:
        ns = np.arange(lo, min(lo + block, cap + 1), dtype=float)
        idx = np.flatnonzero(ns ** (1.0 - k) * np.log(ns * eta) * m_k <= target)
        if idx.size:
            return int(lo + idx[0])
        lo += block
    return None


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


_DRAW_BLOCK = 1 << 22  # draws per block of rows: 32 MB float temporaries


def atom_count_matrix(atoms, probs, reps: int, n: int, rng) -> np.ndarray:
    """``(reps, n)`` Poisson counts at rates drawn from a grid-atoms prior.

    The same draws as ``rng.poisson(rng.choice(atoms, size=(reps, n), p=probs))``,
    made in blocks of rows: first every atom index, then every count.  Both
    are kept in the narrowest unsigned type that holds them; the count
    matrix is widened when a block's largest count overflows it.  An index
    is drawn as ``rng.choice`` draws it, from one ``rng.random`` per block
    and the cdf ``choice`` builds, but counted by one compare and add per
    atom instead of a binary search: the number of cdf entries at or below
    the uniform, which is ``searchsorted(cdf, u, side="right")``.
    """
    atoms = np.asarray(atoms, dtype=float)
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]  # so its last entry is 1, which no draw from [0, 1) reaches
    rows = max(1, _DRAW_BLOCK // n)
    blocks = [slice(lo, lo + rows) for lo in range(0, reps, rows)]
    idx = np.zeros((reps, n), dtype=np.min_scalar_type(len(atoms) - 1))
    for b in blocks:
        u = rng.random(idx[b].shape)
        for c in cdf[:-1]:
            idx[b] += u >= c
    ys = np.empty((reps, n), dtype=np.uint8)
    for b in blocks:
        counts = rng.poisson(atoms[idx[b]])
        top = int(counts.max())
        if top > np.iinfo(ys.dtype).max:
            ys = ys.astype(np.min_scalar_type(top))
        ys[b] = counts
    return ys


def interval_coverage(atoms, probs, rate, level, ys, reps, n_small, n_big, seed) -> dict:
    """``{y: share of streams whose interval at n_small covers their n_big estimate}``.

    ``reps`` seeded streams of ``n_big`` counts from the grid-atoms prior
    (``atoms`` with ``probs``) run in lockstep on the atoms' grid.
    """
    grid = Grid(atoms)
    y_matrix = atom_count_matrix(atoms, probs, reps, n_big, np.random.default_rng(seed))
    final, snaps = batched_newton_stream(grid, rate, y_matrix, checkpoints=(n_small,))
    cache = KernelMatrixCache(grid)  # NewtonState requires one; intervals do not read it
    hits = dict.fromkeys(ys, 0)
    for r in range(reps):
        state = engine.NewtonState(MixingWeights(grid, snaps[n_small][r]), n_small, rate, cache)
        g_big = MixingWeights(grid, final[r])
        for rep in credible_intervals(state, ys, level):
            hits[rep.y] += rep.ci_low <= ratio_estimate(g_big, rep.y) <= rep.ci_high
    return {y: h / reps for y, h in hits.items()}


def nonnegative_qp_reference(a, g, x, start=None):
    """``baselines._nonnegative_qp`` with a fresh column gather per solve.

    The support is a list; each solve gathers ``a[:, support]`` and
    ``y[support]``, and the gradient that picks the entering coordinate
    gathers them again.  Same rule, same float operations in the same order.
    """
    y = np.zeros(a.shape[1]) if start is None else start.copy()
    ax = a @ x
    support = np.flatnonzero(y).tolist()
    solves, entering = 0, None
    for _ in range(4 * a.shape[1] + 10):
        while support:
            a_s, cur = a[:, support], y[support]
            hess = a_s.T @ a_s
            hess.flat[:: len(support) + 1] += 1e-10
            _, _, delta, info = dgesv(hess, a_s.T @ (a_s @ cur - ax) + g[support])
            solves += 1
            if info != 0:
                raise np.linalg.LinAlgError("Singular matrix")
            z = cur - delta
            if z.min() > 0:
                y[support] = z
                break
            hit = np.flatnonzero(z <= 0)
            ratios = cur[hit] / (cur[hit] - z[hit])
            moved = cur + ratios.min() * (z - cur)
            moved[hit[np.argmin(ratios)]] = 0.0
            y[support] = np.maximum(moved, 0.0)
            support = [k for k in support if y[k] > 0]
        if entering is not None and entering not in support:
            break
        grad = a.T @ (a[:, support] @ y[support] - ax) + g
        grad[support] = 0.0
        entering = int(np.argmin(grad))
        if grad[entering] >= -1e-10:
            break
        support.append(entering)
    return y, solves
