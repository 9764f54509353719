import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streameb import engine, evaluation, inference, model
from streameb.engine import LearningRate, init, update_stream
from streameb.evaluation import (
    ExperimentConfig,
    MetricRow,
    _regrets,
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
from streameb.model import DegenerateLikelihoodError, Grid, MixingWeights
from streameb.priors import PriorSpec, grid_atoms_prior

from . import oracles


class TestGenerateCompound:
    def test_single_atom_mean_is_within_clt_band(self):
        prior = grid_atoms_prior([4.0], [1.0])
        thetas, ys = generate_compound(prior, 100_000, 0)
        assert np.all(thetas == 4.0)
        band = 3 * np.sqrt(4.0 / 100_000)
        assert abs(ys.mean() - 4.0) < band

    def test_uniform_prior_moment_band(self):
        prior = PriorSpec("uniform", (0.0, 3.0))
        _, ys = generate_compound(prior, 100_000, 1)
        # E[Y] = 1.5; Var(Y) = E[theta] + Var(theta) = 1.5 + 0.75
        band = 3 * np.sqrt(2.25 / 100_000)
        assert abs(ys.mean() - 1.5) < band

    def test_deterministic_under_seed(self):
        prior = PriorSpec("weibull", (5, 3))
        a = generate_compound(prior, 500, 7)
        b = generate_compound(prior, 500, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("atoms", [[0.5, 2.0, 4.5, 8.0, 13.0], [0.5, 2.0, 4.5, 8.0, 300.0]])
    def test_atom_count_blocks_match_one_draw(self, monkeypatch, atoms):
        # 8-row blocks; the second prior's counts overflow uint8 and widen.
        monkeypatch.setattr(oracles, "_DRAW_BLOCK", 8 * 5003)
        probs = [0.15, 0.25, 0.25, 0.2, 0.15]
        got = oracles.atom_count_matrix(atoms, probs, 37, 5003, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        want = rng.poisson(rng.choice(atoms, size=(37, 5003), p=probs))
        assert np.array_equal(got, want)
        assert got.dtype == (np.uint8 if atoms[-1] < 100 else np.uint16)


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

    def test_memory_stays_bounded_on_a_wide_grid(self):
        # the default cutoff on a grid reaching 8,000 is 9,789 counts: their
        # rows over d = 2,000 atoms take 157 MB per table, and a mixture
        # over one table doubles that; rows built in blocks stay small
        g = MixingWeights.uniform(Grid(np.linspace(4.0, 8000.0, 2000)))
        assert inference.default_y_max(g.grid) == 9789
        tracemalloc.start()
        try:
            value = regret(g, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 0.0 and peak < 64e6

    def test_is_one_row_of_the_shared_sum(self):
        # regret and the decay diagnostic both read _regrets; a vector scored
        # beside others keeps the bits it has alone
        grid = Grid([0.5, 2.0, 6.0])
        oracle = MixingWeights(grid, [0.2, 0.3, 0.5])
        rows = [np.array(w) for w in ([0.6, 0.3, 0.1], [0.1, 0.3, 0.6], [0.2, 0.3, 0.5])]
        together = _regrets(oracle, rows)
        for w, value in zip(rows, together):
            g = MixingWeights(grid, w)
            assert regret(g, oracle) == _regrets(oracle, [g.weights])[0] == value
        assert together[2] == 0.0

    def test_asymmetric_in_its_arguments(self):
        grid = Grid([0.5, 2.0, 6.0])
        g_a = MixingWeights(grid, [0.6, 0.3, 0.1])
        g_b = MixingWeights(grid, [0.1, 0.3, 0.6])
        assert regret(g_a, g_b, 80) != pytest.approx(regret(g_b, g_a, 80), rel=1e-6)


def _scalar_body_runs(monkeypatch):
    """A list that gets each scalar-float lockstep run's replication count."""
    runs, body = [], engine._lockstep_pair_floats
    monkeypatch.setattr(
        engine, "_lockstep_pair_floats", lambda *a: runs.append(a[2].shape[0]) or body(*a)
    )
    return runs


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


    @pytest.mark.parametrize(
        "rate, n_steps", [(LearningRate(1.0, 0.8), 300), (LearningRate(1e-9, 0.51), 13_000)]
    )
    def test_matches_row_streams_across_block_boundaries(self, monkeypatch, rate, n_steps):
        # Blocks of 64 steps for 4 replications on 3 atoms, checkpoints on
        # both sides of two block boundaries; the second schedule also
        # takes the shared scale S past its rescale point.
        monkeypatch.setattr(engine, "_LOCKSTEP_BLOCK_FLOATS", 64 * 4 * 3)
        grid = Grid([0.5, 2.0, 5.0])
        ys = np.random.default_rng(5).poisson(2.0, size=(4, n_steps))
        checkpoints = (63, 64, 65, 128, 129)
        final, snaps = batched_newton_stream(grid, rate, ys, checkpoints=checkpoints)
        assert sorted(snaps) == list(checkpoints)
        for r in range(4):
            for n, got in [(n_steps, final[r])] + [(c, snaps[c][r]) for c in checkpoints]:
                want = update_stream(init(grid, rate), ys[r, :n]).g.weights
                assert np.max(np.abs(got - want)) < 1e-12, (r, n)

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 500])
    @pytest.mark.parametrize("reps", [1, 3, 40, engine._SCALAR_MAX_REPS, engine._SCALAR_MAX_REPS + 1])
    def test_gives_the_reference_loops_bits(self, monkeypatch, d, reps):
        # Blocks of 50 steps, so checkpoints fall at, before and after a
        # block boundary and the last block is short.  Two atoms run as
        # scalar floats up to the cap, by the general calls above it.
        monkeypatch.setattr(engine, "_LOCKSTEP_BLOCK_FLOATS", 50 * d * reps)
        scalar_runs = _scalar_body_runs(monkeypatch)
        grid = Grid(np.linspace(0.3, 9.0, d))
        rate = LearningRate(1.0, 0.75)
        rng = np.random.default_rng(d * 100 + reps)
        ys = rng.poisson(rng.uniform(0.3, 9.0, size=(reps, 1)), size=(reps, 230))
        g0 = MixingWeights(grid, rng.dirichlet(np.ones(d))).weights
        checkpoints = {1, 49, 50, 51, 100, 229, 230}
        final, snaps = engine._fold_lockstep(grid, rate, ys, g0, checkpoints)
        assert scalar_runs == ([reps] if d == 2 and reps <= engine._SCALAR_MAX_REPS else [])
        ref_final, ref_snaps = oracles.lockstep_reference(grid, rate, ys, g0, checkpoints)
        assert np.array_equal(final, ref_final)
        assert sorted(snaps) == sorted(ref_snaps) == sorted(checkpoints)
        for c in checkpoints:
            assert np.array_equal(snaps[c], ref_snaps[c]), c

    @pytest.mark.parametrize(
        "points, cap",
        [([0.5, 2.0, 5.0], engine._SCALAR_MAX_REPS), ([0.5, 5.0], engine._SCALAR_MAX_REPS),
         ([0.5, 5.0], 3)],
        ids=["3-atoms", "2-atoms", "2-atoms-above-the-cap"],
    )
    def test_a_checkpoint_on_the_rescale_step(self, monkeypatch, points, cap):
        # S first passes its rescale point after step 12,361 under this
        # schedule; blocks of 1,000 steps put that step inside a block.
        # Two atoms run the 4 replications as scalar floats, or by the
        # general calls when the cap is below 4.
        rate = LearningRate(1e-9, 0.51)
        s, rescale_at = 1.0, 0
        while s <= engine._RESCALE_AT:
            rescale_at += 1
            s /= 1.0 - rate(rescale_at)
        assert rescale_at == 12_361
        monkeypatch.setattr(engine, "_LOCKSTEP_BLOCK_FLOATS", 1000 * 4 * len(points))
        monkeypatch.setattr(engine, "_SCALAR_MAX_REPS", cap)
        scalar_runs = _scalar_body_runs(monkeypatch)
        grid = Grid(points)
        ys = np.random.default_rng(5).poisson(2.0, size=(4, 12_500))
        checkpoints = (rescale_at - 1, rescale_at, rescale_at + 1)
        final, snaps = batched_newton_stream(grid, rate, ys, checkpoints=checkpoints)
        assert scalar_runs == ([4] if len(points) == 2 and cap >= 4 else [])
        w0 = MixingWeights.uniform(grid).weights
        ref_final, ref_snaps = oracles.lockstep_reference(grid, rate, ys, w0, checkpoints)
        assert np.array_equal(final, ref_final)
        for c in checkpoints:
            assert np.array_equal(snaps[c], ref_snaps[c]), c
            for r in range(4):
                want = update_stream(init(grid, rate), ys[r, :c]).g.weights
                assert np.max(np.abs(snaps[c][r] - want)) < 1e-12, (c, r)

    def test_a_degenerate_step_in_a_later_block_raises_the_first_one(self, monkeypatch):
        # Blocks of 64 steps; step 71 (n = 70) is the first degenerate one,
        # in replication 2, then in replication 3; replication 1 fails later.
        # The 5 replications run as scalar floats (which give up at the
        # degenerate step), then by the general calls alone under a cap of 4.
        monkeypatch.setattr(engine, "_LOCKSTEP_BLOCK_FLOATS", 64 * 5 * 2)
        scalar_runs = _scalar_body_runs(monkeypatch)
        grid = Grid([0.5, 152.0])
        ys = np.random.default_rng(8).poisson(0.5, size=(5, 200))
        ys[2, 70] = ys[3, 70] = ys[1, 90] = 152
        rate, w0 = LearningRate(1.0, 0.99), np.array([1.0, 0.0])
        with pytest.raises(DegenerateLikelihoodError) as ref:
            oracles.lockstep_reference(grid, rate, ys, w0, ())
        assert (ref.value.y, ref.value.n) == (152, 70)
        for cap, runs in ((engine._SCALAR_MAX_REPS, [5]), (4, [])):
            monkeypatch.setattr(engine, "_SCALAR_MAX_REPS", cap)
            scalar_runs.clear()
            with pytest.raises(DegenerateLikelihoodError) as err:
                batched_newton_stream(grid, rate, ys, g0=w0)
            assert scalar_runs == runs
            assert (err.value.y, err.value.n) == (ref.value.y, ref.value.n)

    def test_a_zero_likelihood_step_raises_as_the_reference(self, monkeypatch):
        # The scaled likelihood of a count of 1,000 rounds to exactly 0 at
        # the atom that holds all the weight, so its step divides by zero:
        # in Python floats that raises, and the float loop hands the stream
        # back to the numpy loop, which raises for the first degenerate step.
        done, body = [], engine._lockstep_pair_floats
        monkeypatch.setattr(
            engine, "_lockstep_pair_floats", lambda *a: done.append(body(*a)) or done[-1]
        )
        grid = Grid([0.5, 152.0])
        ys = np.random.default_rng(8).poisson(0.5, size=(5, 200))
        ys[1, 70] = ys[2, 70] = 1000
        rate, w0 = LearningRate(1.0, 0.99), np.array([1.0, 0.0])
        with pytest.raises(DegenerateLikelihoodError) as ref:
            oracles.lockstep_reference(grid, rate, ys, w0, ())
        assert (ref.value.y, ref.value.n) == (1000, 70)
        for cap, runs in ((engine._SCALAR_MAX_REPS, [None]), (4, [])):
            monkeypatch.setattr(engine, "_SCALAR_MAX_REPS", cap)
            done.clear()
            with pytest.raises(DegenerateLikelihoodError) as err:
                batched_newton_stream(grid, rate, ys, g0=w0)
            assert done == runs
            assert (err.value.y, err.value.n) == (ref.value.y, ref.value.n)

    def test_a_two_atom_table_longer_than_a_block_takes_the_general_calls(self, monkeypatch):
        # A count of 40,000 makes a table of 80,002 entries, over the 2^16
        # the scalar body's lists may hold.
        scalar_runs = _scalar_body_runs(monkeypatch)
        grid, rate = Grid([0.5, 40_000.0]), LearningRate(1.0, 0.75)
        ys = np.random.default_rng(6).poisson([[0.5], [40_000.0], [0.5]], size=(3, 60))
        assert ys.max() >= 40_000
        final, snaps = batched_newton_stream(grid, rate, ys, checkpoints=(30,))
        assert scalar_runs == []
        ref_final, ref_snaps = oracles.lockstep_reference(grid, rate, ys, [0.5, 0.5], {30})
        assert np.array_equal(final, ref_final) and np.array_equal(snaps[30], ref_snaps[30])

    def test_scalar_memory_does_not_grow_with_the_steps(self, monkeypatch):
        # Two atoms, 5 replications, blocks of 8,000 floats (800 steps).
        # Under tracemalloc the float loop runs about 60 times slower, so
        # the blocks are small and the long stream is 12.5 of them.  The
        # count matrix is made before tracing starts.
        monkeypatch.setattr(engine, "_LOCKSTEP_BLOCK_FLOATS", 8000)
        scalar_runs = _scalar_body_runs(monkeypatch)
        block_bytes = 8 * engine._LOCKSTEP_BLOCK_FLOATS
        grid, rate = Grid([1.0, 5.0]), LearningRate(1.0, 0.75)
        peaks = []
        for n_steps in (1_600, 10_000):
            ys = np.random.default_rng(4).poisson(3.0, size=(5, n_steps))
            tracemalloc.start()
            try:
                batched_newton_stream(grid, rate, ys, checkpoints=(800, n_steps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert scalar_runs == [5, 5]
        assert max(peaks) < 2 * block_bytes
        assert peaks[1] < 1.1 * peaks[0]

    def test_counts_are_read_as_integers(self, monkeypatch):
        grid = Grid([0.5, 2.0, 5.0])
        rate = LearningRate(1.0, 0.8)
        ys = np.random.default_rng(2).poisson(2.0, size=(3, 40))
        want = batched_newton_stream(grid, rate, ys, checkpoints=(20,))
        for same in (ys.astype(float), ys.tolist()):
            got = batched_newton_stream(grid, rate, same, checkpoints=(20,))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1][20], want[1][20])
        with pytest.raises(ValueError, match="integers"):
            batched_newton_stream(grid, rate, ys + 0.5)
        # a narrow unsigned matrix reaches the loop as it is, not widened
        seen, fold = [], engine._fold_lockstep
        monkeypatch.setattr(
            engine, "_fold_lockstep", lambda g, r, y, *a: seen.append(y.dtype) or fold(g, r, y, *a)
        )
        got = batched_newton_stream(grid, rate, ys.astype(np.uint8))
        assert seen == [np.uint8] and np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("shape", [(0,), (5,), (0, 4), (3, 0), (2, 3, 4)])
    def test_needs_a_matrix_with_a_replication_and_a_step(self, shape):
        with pytest.raises(ValueError, match="matrix"):
            batched_newton_stream(Grid([0.5, 2.0]), LearningRate(1.0, 0.8), np.ones(shape, int))

    def test_checkpoints_outside_the_stream_are_refused(self):
        grid, rate = Grid([0.5, 2.0]), LearningRate(1.0, 0.8)
        ys = np.ones((2, 10), dtype=int)
        for bad in ([0], [11], [3, 11], [2.5]):
            with pytest.raises(ValueError, match="checkpoints"):
                batched_newton_stream(grid, rate, ys, checkpoints=bad)
        with pytest.raises(ValueError, match="checkpoints"):
            oracles.interval_coverage([0.5, 2.0], [0.5, 0.5], rate, 0.9, [0, 1],
                                      reps=2, n_small=50, n_big=20, seed=0)

    def test_start_weights_are_read_as_mixing_weights(self):
        grid, rate = Grid([0.5, 2.0, 5.0]), LearningRate(1.0, 0.8)
        ys = np.ones((2, 10), dtype=int)
        for bad in ([1.5, -0.5, 0.0], [0.5, 0.5], [0.2, 0.2, 0.2]):
            with pytest.raises(ValueError, match="weights"):
                batched_newton_stream(grid, rate, ys, g0=bad)
        final, _ = batched_newton_stream(grid, rate, ys, g0=[0.0, 1.0, 0.0])
        assert np.array_equal(final, [[0.0, 1.0, 0.0]] * 2)

    def test_degenerate_step_and_negative_count_raise(self):
        grid = Grid([0.5, 152.0])
        ys = np.array([[0, 1, 2], [0, 152, 1]])
        with pytest.raises(DegenerateLikelihoodError) as err:
            batched_newton_stream(grid, LearningRate(1.0, 0.99), ys, g0=np.array([1.0, 0.0]))
        assert (err.value.y, err.value.n) == (152, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            batched_newton_stream(grid, LearningRate(1.0, 0.99), np.array([[-1, 2]]))


class TestRunStreamExperiment:
    def test_produces_sane_metrics(self):
        cfg = ExperimentConfig(
            prior=PriorSpec("uniform", (0.0, 3.0)),
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
            prior=PriorSpec("weibull", (5, 3)), n=100, eta=0.1, d_cap=500,
            rate=LearningRate(1.0, 0.99),
        )
        a = run_stream_experiment(cfg, seed=3)
        b = run_stream_experiment(cfg, seed=3)
        assert (a.rmse, a.mad) == (b.rmse, b.mad)

    def test_all_zero_counts_are_an_error(self):
        prior = grid_atoms_prior([1e-8], [1.0])
        cfg = ExperimentConfig(prior=prior, n=5, eta=0.5, d_cap=10)
        with pytest.raises(ValueError, match="all counts are zero"):
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
        cfg2 = ExperimentConfig(prior=PriorSpec("uniform", (0, 3)), n=100)
        with pytest.raises(ValueError):
            regret_decay_diagnostic(cfg2, [10, 50, 100])

    def test_a_one_atom_oracle_is_refused(self):
        # every stream on a one-atom grid is the oracle: all regrets 0, no slope
        cfg = ExperimentConfig(prior=grid_atoms_prior([1.0], [1.0]), n=100,
                               rate=LearningRate(1.0, 0.75))
        with pytest.raises(ValueError, match="one-atom oracle leaves every regret 0"):
            regret_decay_diagnostic(cfg, [10, 50, 100])

    def test_scores_every_snapshot_against_one_oracle_table(self, monkeypatch):
        prior = grid_atoms_prior([1.0, 5.0], [0.5, 0.5])
        cfg = ExperimentConfig(prior=prior, n=400, rate=LearningRate(1.0, 0.75), seeds=(0, 1, 2))
        checkpoints = (100, 200, 400)
        tables, mixtures = [], []
        rows, mixture = model.log_kernel_rows, inference.log_mixture

        def counted_rows(grid, counts):
            tables.append(len(counts))
            return rows(grid, counts)

        def counted_mixture(log_rows, weights):
            mixtures.append(log_rows.shape)
            return mixture(log_rows, weights)

        for owner in (model, inference):  # every name a table could be built through
            monkeypatch.setattr(owner, "log_kernel_rows", counted_rows)
        monkeypatch.setattr(inference, "log_mixture", counted_mixture)
        res = regret_decay_diagnostic(cfg, checkpoints)
        monkeypatch.undo()
        assert len(tables) == 1  # one kernel table for the oracle and every snapshot
        assert mixtures == [(tables[0], 2)] * (1 + 3 * 3)  # the oracle once, then each snapshot
        grid = Grid(prior.atoms)
        g_star = MixingWeights(grid, prior.probs)
        ys = np.stack([generate_compound(prior, 400, seed)[1] for seed in cfg.seeds])
        _, snaps = batched_newton_stream(grid, cfg.rate, ys, checkpoints=checkpoints)
        for ci, c in enumerate(checkpoints):
            for r in range(3):
                assert res.regrets[r, ci] == regret(MixingWeights(grid, snaps[c][r]), g_star)

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
        rows = timing_harness([500, 5000], 260, [(50, 250)])
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
