"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion at its stated tolerance.  Monte Carlo criteria use
fixed seeds; their tolerances already include sampling slack.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import halfnorm, uniform, weibull_min

import streameb.engine as engine
from streameb.baselines import SolverConfig, fit_npmle, robbins_estimate
from streameb.engine import LearningRate, init, update, update_stream
from streameb.evaluation import (
    ExperimentConfig,
    generate_compound,
    interval_coverage,
    regret,
    regret_decay_diagnostic,
    run_stream_experiment,
    timing_harness,
)
from streameb.gridding import GridSpec, build_equispaced_grid
from streameb.inference import (
    asymptotic_variance,
    clt_scale,
    default_y_max,
    ratio_estimate,
)
from streameb.model import (
    CountHistogram,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    ProductGrid,
    mixture_pmf,
)
from streameb.priors import grid_atoms_prior, parse_prior

from . import oracles
from .conftest import ACCIDENT_PAIRS, random_weights

FIVE_ATOMS = np.array([0.5, 2.0, 4.5, 8.0, 13.0])
FIVE_PROBS = np.array([0.15, 0.25, 0.25, 0.2, 0.15])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_frequency_ratio_row_is_exact():
    h = CountHistogram.from_pairs(ACCIDENT_PAIRS)
    t0 = time.perf_counter()
    got = [robbins_estimate(h, y) for y in range(8)]
    elapsed = time.perf_counter() - t0
    expected = [0.17, 0.36, 0.53, 1.33, 1.43, 6.00, 1.75, 0.0]
    ok = [round(v, 2) for v in got] == expected and elapsed < 1e-3
    _report(
        "frequency-ratio-row",
        ok,
        f"row={[round(v, 2) for v in got]} in {elapsed * 1e6:.0f}us",
    )


def test_ratio_identity_across_grid_sizes():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for d in (3, 50, 1000):
        for _ in range(167):
            lo = rng.uniform(0.05, 1.0)
            hi = lo + rng.uniform(2.0, 25.0)
            g = random_weights(rng, np.sort(rng.uniform(lo, hi, size=d)))
            y = int(rng.integers(0, 40))
            direct = oracles.posterior_mean(g, y)
            ratio = (y + 1) * mixture_pmf(g, y + 1) / mixture_pmf(g, y)
            worst = max(worst, abs(ratio - direct) / abs(direct))
            checked += 1
    ok = checked >= 500 and worst <= 1e-10
    _report("ratio-identity", ok, f"{checked} pairs, worst rel err {worst:.2e}")


def test_martingale_property_of_the_update():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 101))
        g = random_weights(rng, np.sort(rng.uniform(0.1, 15.0, size=d)))
        state = engine.NewtonState(
            g, int(rng.integers(0, 50)), LearningRate(1.0, 0.9),
            KernelMatrixCache(g.grid),
        )
        y_max = default_y_max(g.grid)
        worst = max(worst, oracles.martingale_residual(state, y_max))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report(
        "martingale-property", ok, f"worst residual {worst:.2e} in {elapsed:.2f}s"
    )


def test_discretization_divergence_bound():
    t0 = time.perf_counter()
    priors = [
        ("weibull(5,3)", weibull_min(5, scale=3)),
        ("uniform[0,3]", uniform(0, 3)),
        ("half-gaussian", halfnorm(scale=1.0)),
    ]
    results = []
    ok = True
    for label, prior in priors:
        for eta in (0.05, 0.1):
            grid = build_equispaced_grid(
                GridSpec(eta=eta, k=2, m_k=oracles.count_second_moment(prior))
            )
            g = oracles.binned_discretization(prior, grid)
            # Counts above this carry < 1e-20 of the prior's predictive mass.
            hi = prior.isf(1e-16)
            y_max = int(hi + 25 * math.sqrt(hi) + 25)
            gap = oracles.kl_discretization_gap(prior, g, y_max)
            results.append(f"{label} eta={eta}: {gap:.3e}")
            ok = ok and 0.0 <= gap < 2 * eta
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        "discretization-bound", ok, "; ".join(results) + f"; {elapsed:.1f}s"
    )


def test_variance_two_independent_derivations_agree():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 51))
        g = random_weights(rng, np.sort(rng.uniform(0.2, 10.0, size=d)))
        y = int(rng.integers(0, 8))
        y_max = default_y_max(g.grid)
        direct = asymptotic_variance(g, y, y_max)
        cov = oracles.posterior_weight_covariance(g, y_max)
        sandwich = oracles.gradient_sandwich_variance(
            g.grid.points, g.weights, y, y_max, cov
        )
        worst = max(worst, abs(direct - sandwich))
    ok = worst <= 1e-8
    _report("variance-double-derivation", ok, f"worst abs gap {worst:.2e}")


def test_tail_sum_scale_factor_tracks_the_power_form():
    worst = 0.0
    for gamma in (0.6, 0.75, 0.9):
        for n in (100, 1000, 10_000):
            rate = LearningRate(1.0, gamma)
            direct = clt_scale(rate, n)
            closed = (2 * gamma - 1) * (1.0 + n) ** (2 * gamma - 1)
            worst = max(worst, abs(direct - closed) / closed)
    ok = worst < 0.02
    _report("tail-sum-scale", ok, f"worst rel gap to power form {worst:.3%}")


def test_consistency_and_regret_decay():
    t0 = time.perf_counter()
    prior = grid_atoms_prior(FIVE_ATOMS, FIVE_PROBS)
    cfg = ExperimentConfig(
        prior=prior,
        n=20_000,
        rate=LearningRate(1.0, 0.75),
        seeds=tuple(range(20)),
    )
    res = regret_decay_diagnostic(cfg, checkpoints=(2_000, 6_325, 20_000))
    tv_median = float(np.median(res.tv_final))
    elapsed = time.perf_counter() - t0
    ok = tv_median < 0.1 and res.median_slope <= -0.37 and elapsed < 300.0
    _report(
        "consistency-and-regret-decay",
        ok,
        f"median TV@2e4 {tv_median:.3f}, median slope {res.median_slope:.3f}, {elapsed:.1f}s",
    )


def test_synthetic_benchmark_ballpark():
    # Reference values 1.348 / 1.071 for the n=500 run: matching them needs
    # the Weibull with shape 3 and scale 5, whose count second moment (~27)
    # also matches the published grid sizes for this setup.
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        prior=parse_prior("weibull:3,5"),
        n=500,
        eta=0.025,
        d_cap=10_000,
        rate=LearningRate(1.0, 0.99),
    )
    rows = [run_stream_experiment(cfg, seed, measure_time=False) for seed in range(10)]
    rmse = float(np.median([r.rmse for r in rows]))
    mad = float(np.median([r.mad for r in rows]))
    elapsed = time.perf_counter() - t0
    ok = abs(rmse - 1.348) <= 0.35 and abs(mad - 1.071) <= 0.30 and elapsed < 600.0
    _report(
        "synthetic-benchmark-ballpark",
        ok,
        f"median RMSE {rmse:.3f} (target 1.348±0.35), median MAD {mad:.3f} "
        f"(target 1.071±0.30), {elapsed:.1f}s",
    )


def test_per_update_cost_constant_in_n_and_linear_in_d():
    # An update costs c0 + c1*d, with a fixed c0 of a few microseconds (the
    # Python loop and the per-count ufunc/BLAS calls).  The tenfold step is
    # taken at d = 3e3 -> 3e4, where the d-term dominates; at 1e3 it is only
    # comparable to c0, so the ratio there measures the overhead, not O(d).
    rows = timing_harness(
        [3_000, 10_000, 30_000], 1_000, [(100, 200), (900, 1000)], seed=0
    )
    by = {(d, lo): ms for d, lo, hi, ms in rows}
    const_ratio = by[(10_000, 900)] / by[(10_000, 100)]
    d_ratio = by[(30_000, 100)] / by[(3_000, 100)]
    ok = const_ratio <= 1.5 and 5.0 <= d_ratio <= 20.0
    _report(
        "per-update-cost",
        ok,
        f"late/early at d=1e4: {const_ratio:.2f} (<=1.5), "
        f"d=3e4/d=3e3: {d_ratio:.2f} (in [5,20])",
    )


def test_interval_coverage_of_the_long_run_estimate():
    # Asymptotic check, not a finite-n guarantee: nominal 90% intervals at
    # n=5e3 should cover the same stream's n=5e5 estimate in >= 80% of runs.
    t0 = time.perf_counter()
    coverage = interval_coverage(
        FIVE_ATOMS, FIVE_PROBS, LearningRate(1.0, 0.75), 0.90, [0, 1, 2],
        reps=200, n_small=5_000, n_big=500_000, seed=42,
    )
    elapsed = time.perf_counter() - t0
    ok = all(c >= 0.80 for c in coverage.values())
    _report(
        "interval-coverage",
        ok,
        f"coverage {coverage} at 90% nominal, {elapsed:.1f}s",
    )


def test_lattice_engine_reduces_to_the_scalar_engine():
    base = Grid(np.linspace(0.4, 9.0, 25))
    rate = LearningRate(1.0, 0.99)
    rng = np.random.default_rng(17)
    mstate = init(ProductGrid(base, 1), rate)
    sstate = init(base, rate)
    worst_traj = 0.0
    for y in rng.poisson(3.0, 1000):
        mstate = update(mstate, (int(y),))
        sstate = update(sstate, int(y))
        worst_traj = max(worst_traj, float(np.max(np.abs(mstate.g.weights - sstate.g.weights))))
    base4 = Grid([0.5, 1.5, 3.0, 6.0])
    pg = ProductGrid(base4, 2)
    w1 = rng.dirichlet(np.ones(4))
    w2 = rng.dirichlet(np.ones(4))
    g2 = MixingWeights(pg, np.outer(w1, w2).ravel())
    m1 = MixingWeights(base4, w1)
    m2 = MixingWeights(base4, w2)
    worst_est = 0.0
    for yv in [(0, 0), (1, 3), (4, 2), (7, 7)]:
        worst_est = max(
            worst_est,
            abs(ratio_estimate(g2, yv)[0] - ratio_estimate(m1, yv[0])),
            abs(ratio_estimate(g2, yv)[1] - ratio_estimate(m2, yv[1])),
        )
    ok = worst_traj <= 1e-12 and worst_est <= 1e-8
    _report(
        "lattice-reduction",
        ok,
        f"k=1 trajectory gap {worst_traj:.2e}, k=2 factorized estimate gap {worst_est:.2e}",
    )


def test_npmle_stationarity_certificates():
    histograms = []
    # five single-value histograms over a fine grid
    for y0 in (1, 2, 3, 5, 8):
        histograms.append(
            (CountHistogram.from_pairs([(y0, 400)]), Grid(np.linspace(0.05, 12, 200)))
        )
    # five mixtures sampled on small exact grids (interior optima)
    atoms = np.array([0.5, 4.0, 12.0])
    probs = np.array([0.3, 0.4, 0.3])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = rng.poisson(rng.choice(atoms, size=2000, p=probs))
        histograms.append((CountHistogram.from_counts(data), Grid(atoms)))
    worst_cert = 0.0
    all_monotone = True
    all_converged = True
    for h, grid in histograms:
        res = fit_npmle(h, SolverConfig(grid, max_iters=20_000, tol=1e-6))
        all_converged = all_converged and res.converged
        all_monotone = all_monotone and bool(
            np.all(np.diff(res.objective_path) >= -1e-9)
        )
        worst_cert = max(worst_cert, res.certificate)
    ok = all_converged and all_monotone and worst_cert <= 1 + 1e-6
    _report(
        "npmle-stationarity",
        ok,
        f"10 fits converged={all_converged}, monotone={all_monotone}, "
        f"worst certificate 1+{worst_cert - 1:.1e}",
    )
