import numpy as np
import pytest
from scipy.stats import poisson

from streameb.baselines import (
    ConvergenceError,
    GammaHyper,
    SolverConfig,
    UndefinedAtCountError,
    _nonnegative_qp,
    baseline_estimates,
    baseline_grid,
    estimates_to_csv,
    estimates_to_markdown,
    fit_gamma_hyperprior,
    fit_min_hellinger,
    fit_npmle,
    gamma_posterior_mean,
    nb_log_likelihood,
    robbins_estimate,
)
from streameb.evaluation import generate_compound
from streameb.model import CountHistogram, Grid
from streameb.priors import PriorSpec, grid_atoms_prior, parse_prior

from . import oracles

ACCIDENT_ROW = [0.17, 0.36, 0.53, 1.33, 1.43, 6.00, 1.75, 0.0]


class TestRobbins:
    def test_insurance_benchmark_row(self, accident_histogram):
        got = [round(robbins_estimate(accident_histogram, y), 2) for y in range(8)]
        assert got == ACCIDENT_ROW

    def test_zero_for_never_seen_successor(self):
        h = CountHistogram.from_pairs([(4, 10)])
        assert robbins_estimate(h, 4) == 0.0

    def test_undefined_at_unobserved_count(self, accident_histogram):
        with pytest.raises(UndefinedAtCountError):
            robbins_estimate(accident_histogram, 9)


class TestSolverConfig:
    def test_validation(self):
        grid = Grid([1.0, 2.0])
        with pytest.raises(ValueError):
            SolverConfig(grid, max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(grid, tol=0.0)

    def test_baseline_grid_rule(self):
        grid = baseline_grid(CountHistogram.from_pairs([(0, 3), (16, 1)]))
        assert len(grid) == 1000
        assert grid.lo == 1e-3
        assert grid.hi == pytest.approx(16 + 3 * (4 + 1))


class TestNpmle:
    def test_single_value_data_concentrates_nearby(self):
        h = CountHistogram.from_pairs([(3, 400)])
        grid = Grid(np.linspace(0.05, 12, 240))
        res = fit_npmle(h, SolverConfig(grid, max_iters=2000, tol=1e-8))
        assert res.converged
        peak = grid.points[int(np.argmax(res.weights.weights))]
        assert abs(peak - 3.0) < 0.06  # nearest grid atom to the sample mean
        assert res.weights.weights.max() > 0.999

    def test_two_cluster_data_splits_evenly(self):
        h = CountHistogram.from_pairs([(0, 500), (10, 500)])
        filler = np.linspace(2, 8, 7)
        grid = Grid(np.sort(np.concatenate([[0.5, 10.0], filler])))
        res = fit_npmle(h, SolverConfig(grid, max_iters=4000, tol=1e-6))
        assert res.converged
        w = res.weights.weights
        lo_mass = w[grid.points <= 1.0].sum()
        hi_mass = w[grid.points >= 9.0].sum()
        assert lo_mass == pytest.approx(0.5, abs=0.05)
        assert hi_mass == pytest.approx(0.5, abs=0.05)

    def test_likelihood_dominates_the_generating_weights(self):
        atoms = [1.0, 4.0, 9.0]
        probs = [0.3, 0.4, 0.3]
        _, ys = generate_compound(grid_atoms_prior(atoms, probs), 100_000, 11)
        h = CountHistogram.from_counts(ys)
        grid = Grid(atoms)
        res = fit_npmle(h, SolverConfig(grid, max_iters=3000, tol=1e-8))
        counts = h.multiplicities()
        kernel = np.array(
            [[oracles.poisson_pmf(y, t) for t in atoms] for y in h.support()]
        )
        loglik = lambda w: float(counts @ np.log(kernel @ w))
        assert loglik(res.weights.weights) >= loglik(np.array(probs)) - 1e-9

    def test_objective_is_monotone(self):
        h = CountHistogram.from_pairs([(0, 50), (2, 80), (7, 40)])
        grid = Grid(np.linspace(0.1, 12, 60))
        res = fit_npmle(h, SolverConfig(grid, max_iters=500, tol=1e-10))
        assert res.converged
        assert np.all(np.diff(res.objective_path) >= -1e-9)

    def test_stationarity_certificate_at_convergence(self):
        rng = np.random.default_rng(3)
        ys = rng.poisson(rng.choice([1.0, 6.0], size=3000, p=[0.5, 0.5]))
        h = CountHistogram.from_counts(ys)
        grid = Grid([1.0, 6.0])
        res = fit_npmle(h, SolverConfig(grid, max_iters=3000, tol=1e-8))
        assert res.converged
        # certificate recomputed from scratch
        counts, support = h.multiplicities(), h.support()
        kernel = np.array(
            [[oracles.poisson_pmf(int(y), t) for t in grid.points] for y in support]
        )
        p = kernel @ res.weights.weights
        scores = (counts / h.total) @ (kernel / p[:, None])
        assert scores.max() <= 1 + 1e-8

    def test_non_convergence_warns_and_returns_best_iterate(self, accident_histogram):
        grid = baseline_grid(accident_histogram)
        # the input needs more than three iterations, not QP rounding, to converge
        assert fit_npmle(accident_histogram, SolverConfig(grid, tol=1e-8)).iterations >= 6
        with pytest.warns(UserWarning):
            res = fit_npmle(accident_histogram, SolverConfig(grid, max_iters=3, tol=1e-8))
        assert not res.converged
        assert res.iterations == 3
        assert res.objective_path[-1] == res.objective_path.max()

    def test_insurance_fit_reaches_the_optimum_in_few_iterations(self, accident_histogram):
        # 500 vertex-direction steps stop at -5342.50; the optimum is -5340.70
        res = fit_npmle(accident_histogram, SolverConfig(baseline_grid(accident_histogram)))
        assert res.converged
        assert res.certificate <= 1 + 1e-8
        assert res.iterations <= 20
        kernel = np.array(
            [
                [oracles.poisson_pmf(int(y), t) for t in res.weights.grid.points]
                for y in accident_histogram.support()
            ]
        )
        loglik = accident_histogram.multiplicities() @ np.log(kernel @ res.weights.weights)
        assert loglik >= -5340.71
        assert res.objective_path[-1] == pytest.approx(loglik, rel=1e-12)


class TestNonnegativeQp:
    @pytest.mark.parametrize("seed", range(5))
    def test_cold_and_warm_solutions_satisfy_kkt(self, seed):
        # Few rows, many highly correlated columns: a fine Poisson kernel with
        # the SQP's sqrt(c) row scaling and an NPMLE-shaped gradient.
        rng = np.random.default_rng(seed)
        theta = np.linspace(0.05, 15.0, 400)
        kernel = poisson.pmf(np.arange(12)[:, None], theta[None, :])
        x = rng.dirichlet(np.ones(len(theta)))
        p = kernel @ x
        freq = rng.dirichlet(np.ones(12))
        a = np.sqrt(freq / p**2)[:, None] * kernel
        g = 1.0 - (freq / p) @ kernel
        cold, _ = _nonnegative_qp(a, g, x)
        earlier, _ = _nonnegative_qp(a, g + 0.05 * rng.normal(size=len(g)), x)
        warm, _ = _nonnegative_qp(a, g, x, earlier * rng.uniform(0.5, 1.5, len(earlier)))
        objective = lambda y: 0.5 * np.sum((a @ (y - x)) ** 2) + g @ (y - x)
        for y in (cold, warm):
            assert y.min() >= 0.0
            grad = a.T @ (a @ (y - x)) + g
            on = y > 0
            assert np.abs(grad[on]).max() <= 1e-8
            assert grad[~on].min() >= -1e-9
        assert objective(warm) == pytest.approx(objective(cold), rel=1e-12)

    def test_solutions_keep_the_bits_of_a_fresh_gather_per_solve(self):
        # random problems of every size the fits meet and more, cold and warm
        # starts, so that coordinates enter, leave and re-enter
        rng = np.random.default_rng(7)
        for k in range(300):
            m, d = rng.integers(1, 20), rng.integers(1, 80)
            a = rng.random((m, d)) * rng.choice([1e-3, 1.0, 10.0])
            g = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
            x = rng.dirichlet(np.ones(d))
            start = None if k % 3 == 0 else np.where(rng.random(d) < 0.3, rng.random(d), 0.0)
            y, solves = _nonnegative_qp(a, g, x, start)
            want, want_solves = oracles.nonnegative_qp_reference(a, g, x, start)
            assert y.tobytes() == want.tobytes() and solves == want_solves

    def test_random_histogram_fits_converge_monotonically(self):
        # A few draws of each hard kind: heavy tails, wide supports, near-zero
        # atoms, a handful of counts, coarse and fine grids.
        priors = ["weibull:3,5", "gamma:0.5,0.1", "grid-atoms:1@0.3,5@0.4,15@0.3",
                  "uniform:0,300", "grid-atoms:0.01@0.3,1@0.4,2@0.3"]
        for i, prior in enumerate(priors):
            for n in (5, 50, 500):
                _, ys = generate_compound(parse_prior(prior), n, 40 + 3 * i + n % 7)
                h = CountHistogram.from_counts(ys)
                top = h.max_count()  # baseline_grid's rule, on a coarser and a finer grid
                hi = max(top + 3.0 * (top**0.5 + 1.0), 1.0)
                for points in (20, 200):
                    cfg = SolverConfig(Grid(np.linspace(1e-3, hi, points)))
                    for fit, sign in ((fit_npmle, 1.0), (fit_min_hellinger, -1.0)):
                        res = fit(h, cfg)
                        assert res.converged, (prior, n, points, fit.__name__)
                        assert res.certificate <= 1.0 + cfg.tol
                        path = sign * res.objective_path
                        assert np.all(np.diff(path) >= -1e-12 * np.abs(path[:-1]))


class TestMinHellinger:
    def test_perfect_fit_reaches_zero_distance(self):
        # empirical pmf equal to the mixture of a one-atom grid
        atoms = [2.0]
        pmf = [oracles.poisson_pmf(y, 2.0) for y in range(30)]
        scale = 10_000_000
        pairs = [(y, max(1, round(p * scale))) for y, p in enumerate(pmf) if p * scale >= 1]
        h = CountHistogram.from_pairs(pairs)
        res = fit_min_hellinger(h, SolverConfig(Grid(atoms), max_iters=50, tol=1e-9))
        assert res.objective_path[-1] < 1e-3

    def test_single_value_data_concentrates_nearby(self):
        h = CountHistogram.from_pairs([(3, 400)])
        grid = Grid(np.linspace(0.05, 12, 240))
        res = fit_min_hellinger(h, SolverConfig(grid, max_iters=2000, tol=1e-8))
        assert res.converged
        peak = grid.points[int(np.argmax(res.weights.weights))]
        assert abs(peak - 3.0) < 0.6

    def test_distance_is_non_increasing(self):
        rng = np.random.default_rng(5)
        ys = rng.poisson(rng.choice([1.0, 7.0], size=2000), size=2000)
        h = CountHistogram.from_counts(ys)
        grid = Grid(np.linspace(0.1, 12, 80))
        res = fit_min_hellinger(h, SolverConfig(grid, max_iters=300, tol=1e-9))
        assert res.converged
        assert np.all(np.diff(res.objective_path) <= 1e-12)

    def test_insurance_fit_converges_below_the_vertex_direction_distance(
        self, accident_histogram
    ):
        cfg = SolverConfig(baseline_grid(accident_histogram))
        res = fit_min_hellinger(accident_histogram, cfg)
        assert res.converged
        assert res.objective_path[-1] < 8.6e-5  # 500 vertex-direction steps


class TestGammaFit:
    def test_recovers_simulated_hyperparameters(self):
        _, ys = generate_compound(PriorSpec("gamma", (2.0, 1.0)), 100_000, 3)
        h = CountHistogram.from_counts(ys)
        hyper = fit_gamma_hyperprior(h)
        assert hyper.shape == pytest.approx(2.0, rel=0.1)
        assert hyper.rate == pytest.approx(1.0, rel=0.1)

    def test_likelihood_at_fit_beats_truth(self):
        _, ys = generate_compound(PriorSpec("gamma", (2.0, 1.0)), 50_000, 9)
        h = CountHistogram.from_counts(ys)
        hyper = fit_gamma_hyperprior(h)
        assert nb_log_likelihood(h, hyper.shape, hyper.rate) >= nb_log_likelihood(
            h, 2.0, 1.0
        )

    def test_underdispersed_data_hits_the_boundary_safeguard(self):
        # variance below the mean cannot be matched by this mixture family;
        # the likelihood pushes shape and rate to infinity together
        h = CountHistogram.from_pairs([(3, 1000), (4, 2000), (5, 1000)])
        with pytest.warns(UserWarning):
            hyper = fit_gamma_hyperprior(h)
        assert np.isfinite(hyper.shape) and np.isfinite(hyper.rate)
        # the implied marginal mean still matches the data
        assert hyper.shape / hyper.rate == pytest.approx(4.0, rel=0.05)

    def test_degenerate_single_count_warns(self):
        # one distinct count has variance 0 <= mean: one boundary warning, no other
        with pytest.warns(UserWarning) as record:
            fit_gamma_hyperprior(CountHistogram.from_pairs([(3, 100)]))
        assert len(record) == 1 and "equidispersed boundary" in str(record[0].message)

    def test_fit_is_a_likelihood_maximum(self):
        # At the maximum the rate's score equation gives shape / rate = mean.
        _, ys = generate_compound(PriorSpec("gamma", (2.0, 1.0)), 100_000, 3)
        h = CountHistogram.from_counts(ys)
        hyper = fit_gamma_hyperprior(h)
        assert hyper.shape / hyper.rate == pytest.approx(ys.mean(), rel=1e-12)
        best = nb_log_likelihood(h, hyper.shape, hyper.rate)
        for s, r in ((1.01, 1), (1 / 1.01, 1), (1, 1.01), (1, 1 / 1.01)):
            stepped = nb_log_likelihood(h, hyper.shape * s, hyper.rate * r)
            assert stepped <= best + 1e-9 * abs(best)


class TestGammaPosteriorMean:
    def test_conjugate_arithmetic(self):
        assert gamma_posterior_mean(GammaHyper(1.0, 1.0), 0) == 0.5

    def test_flat_limit_returns_count_plus_shape(self):
        hyper = GammaHyper(2.0, 1e-12)
        assert gamma_posterior_mean(hyper, 7) == pytest.approx(9.0, rel=1e-9)

    def test_matches_oracle_posterior_means_on_simulated_data(self):
        thetas, ys = generate_compound(PriorSpec("gamma", (2.0, 1.0)), 200_000, 5)
        h = CountHistogram.from_counts(ys)
        hyper = fit_gamma_hyperprior(h)
        for y in range(6):
            exact = (y + 2.0) / 2.0  # true posterior mean under Gamma(2, 1)
            assert gamma_posterior_mean(hyper, y) == pytest.approx(exact, rel=0.03)

    def test_affine_in_the_count(self):
        hyper = GammaHyper(1.7, 0.8)
        ests = [gamma_posterior_mean(hyper, y) for y in range(10)]
        gaps = np.diff(ests)
        assert np.allclose(gaps, 1.0 / 1.8)
        assert ests[0] == pytest.approx(1.7 / 1.8)


class TestEstimateTables:
    def test_robbins_table_matches_direct_calls(self, accident_histogram):
        rows, info = baseline_estimates(accident_histogram, "robbins")
        assert [y for y, _ in rows] == list(range(8))
        assert [round(e, 2) for _, e in rows] == ACCIDENT_ROW
        assert info["method"] == "robbins"

    def test_peb_table_is_monotone_in_y(self, accident_histogram):
        rows, info = baseline_estimates(accident_histogram, "peb")
        ests = [e for _, e in rows]
        assert all(b > a for a, b in zip(ests, ests[1:]))
        assert info["shape"] > 0 and info["rate"] > 0

    def test_grid_methods_report_objectives(self, accident_histogram):
        grid = Grid(np.linspace(0.02, 12, 300))
        cfg = SolverConfig(grid, max_iters=400, tol=1e-7)
        out = {}
        for method in ("npmle", "npmd"):
            rows, info = baseline_estimates(accident_histogram, method, cfg)
            assert info["converged"]
            assert len(rows) == 8
            assert "objective" in info
            assert info["qp_solves"] >= info["iterations"] - 1
            out[method] = rows
        assert out["npmle"] != out["npmd"]

    @pytest.mark.parametrize("label, method, iterations, qp_solves", [
        ("synthetic", "npmle", 7, 120),
        ("synthetic", "npmd", 6, 105),
        ("insurance", "npmle", 9, 135),
        ("insurance", "npmd", 9, 128),
    ])
    def test_comparison_fits_keep_their_work(self, accident_histogram, label, method, iterations,
                                             qp_solves):
        # the four grid fits of one comparison job (seed 3, job 0: a Weibull(3,5)
        # histogram of 500 counts, and the insurance one) on the `baseline` grid.
        # A faster solver must reach the same iterate by the same active-set steps.
        if label == "synthetic":
            h = CountHistogram.from_counts(generate_compound(parse_prior("weibull:3,5"), 500, 30_000)[1])
        else:
            h = accident_histogram
        _, info = baseline_estimates(h, method, SolverConfig(baseline_grid(h)))
        assert (info["iterations"], info["qp_solves"]) == (iterations, qp_solves)

    def test_csv_and_markdown_emission(self):
        rows = [(0, 0.5), (1, 1.25)]
        csv = estimates_to_csv(rows, "robbins")
        assert csv.splitlines()[0] == "y,method,estimate"
        assert "0,robbins,0.5" in csv
        md = estimates_to_markdown({"robbins": rows})
        assert md.splitlines()[0].startswith("| method |")
        assert "0.50" in md and "1.25" in md

    def test_unknown_method_is_rejected(self, accident_histogram):
        with pytest.raises(ValueError):
            baseline_estimates(accident_histogram, "bayes")
        with pytest.raises(ValueError):
            baseline_estimates(accident_histogram, "npmle", None)
