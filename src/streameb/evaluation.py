"""Synthetic data generation, error metrics, regret, and timing harnesses.

The paper's comparison protocol: RMSE/MAD of the streaming estimator and of
each batch baseline on the same seeded compound draws, plus the decay of
the regret along the stream.  Regret compares two mixing distributions on
one grid through their per-count estimates, weighted by the oracle's pmf:

    sum_y (est_a(y) - est_b(y))^2 * p_{g_b}(y)

truncated at ``y_max``, by default ``grid.hi + 20 sqrt(grid.hi)``; at that
depth the neglected Poisson tail mass is far below 1e-8.  ``regret`` and the
decay diagnostic take this sum from ``_regrets``, which scores any number of
weight vectors against one oracle in one pass of kernel rows.  The stream
experiment sizes its grid by ``gridding.stream_grid``, as ``fit`` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import baselines, engine
from .engine import LearningRate
# build_equispaced_grid stays importable here: perfbench/tracing.py patches it.
from .gridding import build_equispaced_grid, stream_grid  # noqa: F401
# ratio_estimate stays importable here: perfbench/tracing.py patches it.
from .inference import (  # noqa: F401
    _log_pmfs,
    _ratio_table,
    default_y_max,
    estimate_table,
    ratio_estimate,
)
from .model import CountHistogram, Grid, MixingWeights, _integers
from .priors import PriorSpec


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One synthetic-stream configuration: prior, sample size, grid policy."""

    prior: PriorSpec
    n: int
    eta: float = 0.025
    d_cap: int | None = 10_000
    rate: LearningRate = field(default_factory=lambda: LearningRate(1.0, 0.99))
    seeds: tuple = (0,)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if len(self.seeds) == 0:
            raise ValueError("at least one seed is required")


@dataclass(frozen=True)
class MetricRow:
    method: str
    prior: str
    n: int
    d: int
    eta: float
    gamma: float
    seed: int
    rmse: float
    mad: float
    cpu_per_update_ms: float

    CSV_HEADER = "method,prior,n,d,eta,gamma,seed,rmse,mad,cpu_per_update_ms"

    def csv_row(self) -> str:
        # The timing field is empty when not measured (NaN) so that output
        # stays byte-deterministic under a fixed seed.
        ms = "" if np.isnan(self.cpu_per_update_ms) else repr(self.cpu_per_update_ms)
        return (
            f"{self.method},{self.prior},{self.n},{self.d},{self.eta!r},"
            f"{self.gamma!r},{self.seed},{self.rmse!r},{self.mad!r},{ms}"
        )


def generate_compound(prior: PriorSpec, n: int, seed: int):
    """Draw latent rates from the prior, then one count per rate."""
    rng = np.random.default_rng(seed)
    thetas = prior.sample(n, rng)
    ys = rng.poisson(thetas)
    return thetas, ys


def rmse_mad(thetas, estimates):
    """Root mean squared error and mean absolute deviation, elementwise."""
    thetas = np.asarray(thetas, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if thetas.shape != estimates.shape:
        raise ValueError("thetas and estimates must have equal length")
    err = estimates - thetas
    return float(np.sqrt(np.mean(err**2))), float(np.mean(np.abs(err)))


def _regrets(oracle: MixingWeights, weights, y_max: int | None = None) -> np.ndarray:
    """The regret of each weight vector of ``weights`` against ``oracle``, on its grid.

    One pass of kernel rows scores the oracle and every vector.
    """
    if y_max is None:
        y_max = default_y_max(oracle.grid)
    theta, p = _ratio_table(_log_pmfs(oracle.grid, [oracle.weights, *weights], y_max + 1))
    return np.array([np.dot((row - theta[0]) ** 2, p[0]) for row in theta[1:]])


def regret(g_a: MixingWeights, g_b: MixingWeights, y_max: int | None = None) -> float:
    """Expected squared estimate gap between g_a and the oracle g_b."""
    if not g_a.grid.same_points(g_b.grid):
        raise ValueError("both weight vectors must live on the same grid")
    return float(_regrets(g_b, [g_a.weights], y_max)[0])


def batched_newton_stream(
    grid: Grid,
    rate: LearningRate,
    y_matrix: np.ndarray,
    g0: np.ndarray | None = None,
    checkpoints=(),
):
    """Run many replications of the streaming recursion in lockstep.

    ``y_matrix`` has one row of counts per replication, at least one row
    and one column; column m is consumed at step m+1 by every replication
    simultaneously.  Counts must be nonnegative integers (2.0 is 2); an
    integer matrix is read as it is, so a narrow unsigned one is not
    widened.  ``g0`` is read as ``MixingWeights`` on the grid and defaults
    to uniform; every checkpoint must lie in [1, n_steps].  Each
    replication's weights agree with ``engine.update_stream`` on its row
    within 1e-12 (the two loops sum in different orders).  Returns
    ``(final_weights, {n: weights_at_n})`` with one weight row per
    replication.
    """
    w0 = MixingWeights.uniform(grid) if g0 is None else MixingWeights(grid, g0)
    ys = np.asarray(y_matrix)
    if ys.dtype.kind not in "ui":  # an int64 copy of a uint8 matrix would take 8x its memory
        ys = _integers(ys, "counts")
    if ys.ndim != 2 or 0 in ys.shape:
        raise ValueError(f"expected a (replications, steps) count matrix, got shape {ys.shape}")
    if ys.min() < 0:  # the gather would read a negative count's row from the end
        raise ValueError("counts must be nonnegative")
    marks = set(_integers(list(checkpoints), "checkpoints").tolist())
    if not all(1 <= c <= ys.shape[1] for c in marks):
        raise ValueError(f"checkpoints must lie in [1, {ys.shape[1]}], got {sorted(marks)}")
    return engine._fold_lockstep(grid, rate, ys, w0.weights, marks)


def run_stream_experiment(cfg: ExperimentConfig, seed: int, measure_time: bool = False) -> MetricRow:
    """One replication of the synthetic protocol.

    Draw (theta_i, Y_i) pairs, size the grid from the counts by
    ``gridding.stream_grid`` (which refuses all-zero counts), stream the
    counts through the recursion from a uniform start, then score the
    per-count estimates against the latent rates.
    The stream is timed only with ``measure_time`` set; otherwise the
    timing field is NaN and the row is fully deterministic under the seed.
    """
    thetas, ys = generate_compound(cfg.prior, cfg.n, seed)
    grid = stream_grid(ys, cfg.eta, cfg.d_cap)
    start = engine.init(grid, cfg.rate)
    t0 = time.perf_counter()
    g = engine.update_stream(start, ys).g
    ms_per_update = (time.perf_counter() - t0) * 1000.0 / cfg.n if measure_time else float("nan")
    del start  # scoring reads only g: free the kernel cache and the loop's buffer before it
    table, _ = estimate_table(g, int(ys.max()))
    rmse, mad = rmse_mad(thetas, table[ys])
    return MetricRow(
        method="stream",
        prior=cfg.prior.family,
        n=cfg.n,
        d=len(grid),
        eta=cfg.eta,
        gamma=cfg.rate.gamma,
        seed=seed,
        rmse=rmse,
        mad=mad,
        cpu_per_update_ms=ms_per_update,
    )


def baseline_rows(cfg: ExperimentConfig, seed: int) -> list:
    """One row per ``baselines.METHODS`` entry on the draws of ``run_stream_experiment``.

    Each method fits the histogram of the same seeded counts the stream
    sees, the grid methods on ``baselines.baseline_grid`` (1,000 points) at
    the solver defaults, and is scored against the latent rates.  The rows carry no
    step-size fields and no timing, so they are deterministic under the seed.
    """
    thetas, ys = generate_compound(cfg.prior, cfg.n, seed)
    h = CountHistogram.from_counts(ys)
    solver = baselines.SolverConfig(baselines.baseline_grid(h))
    nan = float("nan")
    rows = []
    for method in baselines.METHODS:
        table = dict(baselines.baseline_estimates(h, method, solver)[0])
        rmse, mad = rmse_mad(thetas, [table[y] for y in ys.tolist()])
        rows.append(MetricRow(method, cfg.prior.family, cfg.n, len(solver.grid), nan, nan,
                              seed, rmse, mad, nan))
    return rows


@dataclass(frozen=True, eq=False)
class RegretDecayResult:
    checkpoints: tuple
    regrets: np.ndarray       # (seeds, checkpoints)
    slopes: np.ndarray        # least-squares log-log slope per seed
    median_slope: float
    tv_final: np.ndarray      # total variation to the oracle at the last checkpoint


def regret_decay_diagnostic(cfg: ExperimentConfig, checkpoints) -> RegretDecayResult:
    """Decay rate of the regret along the stream, for a grid-atoms oracle.

    Runs one stream per seed, measures regret against the exact oracle
    weights at each checkpoint, and fits a log-log slope per seed.  Needs at
    least three distinct checkpoints, each at least 1, for a meaningful line
    fit.
    """
    if cfg.prior.family != "grid-atoms":
        raise ValueError("the oracle must be a grid-atoms prior, e.g. grid-atoms:1@0.5,4@0.5")
    checkpoints = tuple(sorted({int(c) for c in checkpoints}))
    if len(checkpoints) < 3 or checkpoints[0] < 1:
        raise ValueError("need at least three distinct checkpoints, each >= 1, for a slope fit")
    grid = Grid(cfg.prior.atoms)
    g_star = MixingWeights(grid, cfg.prior.probs)
    y_rows = np.stack([generate_compound(cfg.prior, checkpoints[-1], seed)[1] for seed in cfg.seeds])
    _, snaps = batched_newton_stream(grid, cfg.rate, y_rows, checkpoints=checkpoints)
    weights = [snaps[c][r] for r in range(len(cfg.seeds)) for c in checkpoints]
    regrets = _regrets(g_star, weights).reshape(len(cfg.seeds), len(checkpoints))
    log_n = np.log(np.asarray(checkpoints, float))
    design = np.stack([log_n, np.ones_like(log_n)], axis=1)
    slopes = np.array([np.linalg.lstsq(design, np.log(row), rcond=None)[0][0] for row in regrets])
    tv_final = 0.5 * np.abs(snaps[checkpoints[-1]] - g_star.weights[None, :]).sum(axis=1)
    return RegretDecayResult(
        checkpoints=checkpoints,
        regrets=regrets,
        slopes=slopes,
        median_slope=float(np.median(slopes)),
        tv_final=tv_final,
    )


def timing_harness(d_values, n_updates: int, windows, seed: int = 0):
    """Median per-update wall time (ms) per grid size and update window.

    Streams ``n_updates`` synthetic counts, after 20 warmup updates, through
    a fresh state for each grid size, timing chunks of 50 consecutive
    updates.  The whole stream is repeated 7 times and each chunk keeps its
    fastest repetition.  Repetitions are interleaved across grid sizes (each
    one visits every grid size in turn), so a slow period of the machine
    lands on all sizes alike instead of on one size's whole block, and the
    minimum filters it out; the warmup updates are discarded.  Returns rows
    ``(d, window_lo, window_hi, median_ms)`` in ``d_values`` order, where
    windows index updates after warmup.
    """
    warmup, chunk = 20, 50
    rng = np.random.default_rng(seed)
    runs = []
    for d in d_values:
        grid = Grid(np.linspace(0.2, 12.0, int(d)))
        ys = rng.poisson(3.0, size=n_updates + warmup)
        runs.append((int(d), grid, ys, np.full((len(ys) + chunk - 1) // chunk, np.inf)))
    for _ in range(7):
        for _, grid, ys, best in runs:
            state = engine.init(grid, LearningRate(1.0, 0.99))
            state.cache.ensure(int(ys.max()))
            for c in range(len(best)):
                piece = ys[c * chunk : (c + 1) * chunk]
                t0 = time.perf_counter()
                state = engine.update_stream(state, piece)
                dt = (time.perf_counter() - t0) / len(piece)
                best[c] = min(best[c], dt)
    rows = []
    for d, _, ys, best in runs:
        per_update = np.repeat(best, chunk)[: len(ys)][warmup:]
        for lo, hi in windows:
            window = per_update[lo : hi + 1]
            rows.append((d, int(lo), int(hi), float(np.median(window) * 1000.0)))
    return rows


def metrics_to_csv(rows) -> str:
    lines = [MetricRow.CSV_HEADER]
    lines += [r.csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def metrics_to_markdown(rows) -> str:
    """Method-by-n table of RMSE and MAD medians, one block per metric."""
    methods = sorted({r.method for r in rows})
    ns = sorted({r.n for r in rows})
    lines = []
    for metric in ("rmse", "mad"):
        lines.append("| " + metric.upper() + " | " + " | ".join(methods) + " |")
        lines.append("|---" * (len(methods) + 1) + "|")
        for n in ns:
            cells = []
            for method in methods:
                vals = [getattr(r, metric) for r in rows if r.method == method and r.n == n]
                cells.append(f"{np.median(vals):.3f}" if vals else "")
            lines.append(f"| n={n} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)
