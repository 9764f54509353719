import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streameb.engine import LearningRate, init, update_stream
from streameb.evaluation import (
    ExperimentConfig,
    MetricRow,
    batched_newton_stream,
    generate_compound,
    metrics_to_csv,
    metrics_to_markdown,
    regret,
    regret_decay_diagnostic,
    rmse_mad,
    run_stream_experiment,
    timing_harness,
)
from streameb.model import Grid, MixingWeights
from streameb.priors import grid_atoms_prior, uniform_prior, weibull_prior

from . import oracles


class TestGenerateCompound:
    def test_single_atom_mean_is_within_clt_band(self):
        prior = grid_atoms_prior([4.0], [1.0])
        thetas, ys = generate_compound(prior, 100_000, 0)
        assert np.all(thetas == 4.0)
        band = 3 * np.sqrt(4.0 / 100_000)
        assert abs(ys.mean() - 4.0) < band

    def test_uniform_prior_moment_band(self):
        prior = uniform_prior(0.0, 3.0)
        _, ys = generate_compound(prior, 100_000, 1)
        # E[Y] = 1.5; Var(Y) = E[theta] + Var(theta) = 1.5 + 0.75
        band = 3 * np.sqrt(2.25 / 100_000)
        assert abs(ys.mean() - 1.5) < band

    def test_deterministic_under_seed(self):
        prior = weibull_prior(5, 3)
        a = generate_compound(prior, 500, 7)
        b = generate_compound(prior, 500, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestRmseMad:
    def test_perfect_estimates(self):
        assert rmse_mad([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)

    def test_constant_offset(self):
        rmse, mad = rmse_mad([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
        assert rmse == pytest.approx(0.5)
        assert mad == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse_mad([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_both_metrics_nonnegative(self, errors):
        thetas = np.zeros(len(errors))
        rmse, mad = rmse_mad(thetas, np.asarray(errors))
        assert rmse >= 0.0 and mad >= 0.0
        assert rmse >= mad - 1e-12  # root mean square dominates the mean absolute


class TestRegret:
    def test_zero_against_itself(self):
        g = MixingWeights(Grid([1.0, 4.0]), [0.3, 0.7])
        assert regret(g, g, 60) == 0.0

    def test_matches_brute_force_double_sum(self):
        grid = Grid([1.0, 4.0])
        g_a = MixingWeights(grid, [0.25, 0.75])
        g_b = MixingWeights(grid, [0.4, 0.6])
        total = 0.0
        for y in range(60):
            est_a = oracles.direct_posterior_mean(grid.points, g_a.weights, y)
            est_b = oracles.direct_posterior_mean(grid.points, g_b.weights, y)
            total += (est_a - est_b) ** 2 * oracles.direct_mixture_pmf(
                grid.points, g_b.weights, y
            )
        assert regret(g_a, g_b, 59) == pytest.approx(total, rel=1e-10)

    def test_asymmetric_in_its_arguments(self):
        grid = Grid([0.5, 2.0, 6.0])
        g_a = MixingWeights(grid, [0.6, 0.3, 0.1])
        g_b = MixingWeights(grid, [0.1, 0.3, 0.6])
        assert regret(g_a, g_b, 80) != pytest.approx(regret(g_b, g_a, 80), rel=1e-6)


class TestBatchedStream:
    def test_matches_the_engine_row_by_row(self):
        atoms = np.array([0.5, 2.0, 5.0])
        grid = Grid(atoms)
        rate = LearningRate(1.0, 0.8)
        rng = np.random.default_rng(3)
        ys = rng.poisson(2.0, size=(4, 300))
        final, snaps = batched_newton_stream(grid, rate, ys, checkpoints=(100,))
        for r in range(4):
            state = update_stream(init(grid, rate), ys[r])
            assert np.max(np.abs(final[r] - state.g.weights)) < 1e-12
            mid = update_stream(init(grid, rate), ys[r, :100])
            assert np.max(np.abs(snaps[100][r] - mid.g.weights)) < 1e-12


class TestRunStreamExperiment:
    def test_produces_sane_metrics(self):
        cfg = ExperimentConfig(
            prior=uniform_prior(0.0, 3.0),
            n=200,
            eta=0.05,
            d_cap=2000,
            rate=LearningRate(1.0, 0.99),
        )
        row = run_stream_experiment(cfg, seed=0, measure_time=True)
        assert row.n == 200 and row.d == 2000
        assert 0.0 < row.rmse < 3.0
        assert 0.0 < row.mad <= row.rmse + 1e-12
        assert row.cpu_per_update_ms > 0

    def test_reproducible_under_seed(self):
        cfg = ExperimentConfig(
            prior=weibull_prior(5, 3), n=100, eta=0.1, d_cap=500,
            rate=LearningRate(1.0, 0.99),
        )
        a = run_stream_experiment(cfg, seed=3)
        b = run_stream_experiment(cfg, seed=3)
        assert (a.rmse, a.mad) == (b.rmse, b.mad)

    def test_all_zero_counts_are_an_error(self):
        prior = grid_atoms_prior([1e-8], [1.0])
        cfg = ExperimentConfig(prior=prior, n=5, eta=0.5, d_cap=10)
        with pytest.raises(ValueError):
            run_stream_experiment(cfg, seed=0)


class TestRegretDecay:
    def test_needs_three_checkpoints_and_a_grid_oracle(self):
        prior = grid_atoms_prior([1.0, 4.0], [0.5, 0.5])
        cfg = ExperimentConfig(prior=prior, n=100, rate=LearningRate(1.0, 0.75))
        with pytest.raises(ValueError):
            regret_decay_diagnostic(cfg, [10, 100])
        with pytest.raises(ValueError):  # no snapshot exists at 0
            regret_decay_diagnostic(cfg, [0, 50, 100])
        with pytest.raises(ValueError):  # one distinct point, a rank-1 design
            regret_decay_diagnostic(cfg, [100, 100, 100])
        cfg2 = ExperimentConfig(prior=uniform_prior(0, 3), n=100)
        with pytest.raises(ValueError):
            regret_decay_diagnostic(cfg2, [10, 50, 100])

    def test_regret_decays_along_the_stream(self):
        prior = grid_atoms_prior([0.5, 2.0, 4.5, 8.0], [0.3, 0.3, 0.2, 0.2])
        cfg = ExperimentConfig(
            prior=prior, n=4000, rate=LearningRate(1.0, 0.75),
            seeds=tuple(range(8)),
        )
        res = regret_decay_diagnostic(cfg, [500, 1500, 4000])
        assert res.median_slope < 0.0
        med = np.median(res.regrets, axis=0)
        assert med[-1] < med[0]
        assert np.all(res.regrets >= 0.0)

    def test_warm_start_beats_uniform_start(self):
        # Starting at the oracle keeps regret near zero while the uniform
        # start is still traveling; a gentle early schedule (large offset)
        # keeps the head start from being jolted away by the first counts.
        atoms = [0.5, 2.0, 4.5, 8.0]
        probs = [0.7, 0.05, 0.05, 0.2]
        grid = Grid(atoms)
        g_star = MixingWeights(grid, probs)
        rate = LearningRate(50.0, 0.75)
        checkpoints = (10, 50, 200)
        warm, cold = [], []
        for seed in range(9):
            _, ys = generate_compound(grid_atoms_prior(atoms, probs), 200, seed)
            ys = ys[None, :]
            _, cold_snaps = batched_newton_stream(grid, rate, ys, checkpoints=checkpoints)
            _, warm_snaps = batched_newton_stream(
                grid, rate, ys, g0=np.asarray(probs), checkpoints=checkpoints
            )
            warm.append(
                [regret(MixingWeights(grid, warm_snaps[c][0]), g_star, 120) for c in checkpoints]
            )
            cold.append(
                [regret(MixingWeights(grid, cold_snaps[c][0]), g_star, 120) for c in checkpoints]
            )
        warm_med = np.median(np.array(warm), axis=0)
        cold_med = np.median(np.array(cold), axis=0)
        assert warm_med[0] < 0.02  # starts essentially at the oracle
        assert np.all(warm_med < cold_med)


class TestTimingHarness:
    def test_row_shape_and_monotone_grid_cost(self):
        rows = timing_harness([500, 5000], 260, [(50, 250)], repeats=2)
        by_d = {d: ms for d, lo, hi, ms in rows}
        assert set(by_d) == {500, 5000}
        assert by_d[5000] > by_d[500]
        assert all(ms > 0 for ms in by_d.values())


class TestEmitters:
    def test_metrics_csv_and_markdown(self):
        rows = [
            MetricRow("stream", "weibull", 500, 100, 0.1, 0.99, 0, 1.25, 1.0, 0.05),
            MetricRow("robbins", "weibull", 500, 100, 0.1, 0.99, 0, 2.5, 2.0, 0.01),
        ]
        csv = metrics_to_csv(rows)
        assert csv.splitlines()[0] == MetricRow.CSV_HEADER
        assert len(csv.strip().splitlines()) == 3
        md = metrics_to_markdown(rows)
        assert "| RMSE |" in md and "| MAD |" in md
        assert "robbins" in md and "stream" in md
