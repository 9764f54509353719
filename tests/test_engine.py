import hashlib
import math
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streameb.engine as engine
from streameb.engine import (
    LearningRate,
    StateFormatError,
    deserialize_state,
    init,
    serialize_state,
    update,
    update_stream,
)
from streameb.evaluation import batched_newton_stream
from streameb.model import DegenerateLikelihoodError, Grid, MixingWeights, ProductGrid

from . import oracles
from .conftest import random_weights


class TestLearningRate:
    def test_validation(self):
        with pytest.raises(ValueError):
            LearningRate(0.0, 0.9)
        with pytest.raises(ValueError):
            LearningRate(1.0, 0.5)
        with pytest.raises(ValueError):
            LearningRate(1.0, 1.01)
        with pytest.raises(ValueError):  # the first step (1 + 1e-17)^-1 rounds to 1
            LearningRate(1e-17, 1.0)

    def test_steps_lie_in_unit_interval_and_decrease(self):
        rate = LearningRate(1.0, 0.99)
        steps = np.array([rate(n) for n in range(1, 1001)])
        assert np.all(steps > 0) and np.all(steps < 1)
        assert np.all(np.diff(steps) < 0)
        assert steps[0] == pytest.approx(2.0**-0.99)


class TestInit:
    def test_uniform_default(self):
        grid = Grid([1.0, 2.0, 3.0, 4.0])
        state = init(grid, LearningRate(1.0, 0.99))
        assert state.n == 0
        assert np.allclose(state.g.weights, 0.25)

    def test_rejects_mismatched_start(self):
        grid = Grid([1.0, 2.0, 3.0])
        other = MixingWeights(Grid([1.0, 2.0]), [0.5, 0.5])
        with pytest.raises(ValueError):
            init(grid, LearningRate(1.0, 0.99), g0=other)

    def test_rejects_non_simplex_start(self):
        grid = Grid([1.0, 2.0])
        with pytest.raises(ValueError):
            MixingWeights(grid, [0.9, 0.3])


def _bits(state):
    return state.g.weights.view(np.uint64).tolist()


def _assert_batching_invariant(start, ys):
    """Single updates, one stream call and an uneven split give the same bits."""
    folded = start
    for y in ys:
        folded = update(folded, y)
    streamed = update_stream(start, ys)
    split = start
    for lo, hi in zip((0, 1, 4, 37), (1, 4, 37, len(ys))):  # 1, 3 and 33 counts, then the rest
        split = update_stream(split, ys[lo:hi])
    assert folded.n == streamed.n == split.n == len(ys)
    assert _bits(folded) == _bits(streamed) == _bits(split)


class TestUpdate:
    def test_point_mass_is_a_fixed_point(self):
        grid = Grid([2.0])
        state = init(grid, LearningRate(1.0, 0.99))
        for y in (0, 1, 7):
            state = update(state, y)
            assert state.g.weights[0] == 1.0

    def test_three_atom_hand_computation(self):
        grid = Grid([1.0, 2.0, 3.0])
        state = init(grid, LearningRate(1.0, 0.99))
        stepped = update(state, 0)
        expected = oracles.direct_newton_step(
            grid.points, state.g.weights, 0, 2.0**-0.99
        )
        assert np.max(np.abs(stepped.g.weights - expected)) < 1e-15

    def test_counter_and_immutability(self):
        grid = Grid([1.0, 2.0])
        state = init(grid, LearningRate(1.0, 0.99))
        stepped = update(state, 1)
        assert (state.n, stepped.n) == (0, 1)
        assert np.allclose(state.g.weights, 0.5)  # original untouched

    def test_degenerate_count_raises_and_leaves_state_alone(self):
        grid = Grid([0.5, 20000.0])
        state = init(grid, LearningRate(1.0, 0.99), g0=MixingWeights(grid, [1.0, 0.0]))
        with pytest.raises(DegenerateLikelihoodError) as err:
            update(state, 20000)
        assert err.value.y == 20000
        assert state.n == 0

    def test_rejects_negative_count(self):
        state = init(Grid([1.0]), LearningRate(1.0, 0.99))
        with pytest.raises(ValueError):
            update(state, -1)

    def test_rejects_non_integer_count_instead_of_truncating(self):
        state = init(Grid([1.0, 3.0]), LearningRate(1.0, 0.99))
        for bad in (2.7, -0.5, float("nan"), "2"):
            with pytest.raises(ValueError):
                update(state, bad)
        whole = update(state, 2).g.weights
        for same in (2.0, np.int64(2), np.float64(2.0)):
            assert np.array_equal(update(state, same).g.weights, whole)


class TestUpdateStream:
    def test_empty_stream_is_identity(self):
        state = init(Grid([1.0, 2.0]), LearningRate(1.0, 0.99))
        assert update_stream(state, []) is state

    def test_rejects_non_integer_counts_instead_of_truncating(self):
        state = init(Grid([1.0, 3.0]), LearningRate(1.0, 0.99))
        for bad in ([2.7, 1.2], [2, 1.5], np.array([2.0, np.inf])):
            with pytest.raises(ValueError, match="integers"):
                update_stream(state, bad)
        whole = update_stream(state, [2, 1]).g.weights
        assert np.array_equal(update_stream(state, [2.0, 1.0]).g.weights, whole)
        lattice = init(ProductGrid(Grid([1.0, 3.0]), 2), LearningRate(1.0, 0.99))
        with pytest.raises(ValueError, match="integers"):
            update_stream(lattice, [(1, 2.5)])

    def test_single_element_equals_single_update(self):
        grid = Grid(np.linspace(0.5, 9, 40))
        state = init(grid, LearningRate(1.0, 0.99))
        a = update(state, 3)
        b = update_stream(state, [3])
        assert _bits(a) == _bits(b)

    def test_stream_matches_folded_updates(self, rng):
        # a scalar grid, then k = 2 and k = 3 lattices (one count vector per row)
        cases = [
            (Grid(np.linspace(0.3, 10, 60)), rng.poisson(3.0, 200)),
            (ProductGrid(Grid(np.linspace(0.3, 10, 12)), 2), rng.poisson(3.0, (200, 2))),
            (ProductGrid(Grid(np.linspace(0.3, 10, 6)), 3), rng.poisson(3.0, (200, 3))),
        ]
        rate = LearningRate(1.0, 0.8)
        for grid, ys in cases:
            _assert_batching_invariant(init(grid, rate), ys)

    def test_stream_matches_folded_updates_across_a_rescale(self, rng):
        # Steps (1e-9 + n)^-0.51 multiply the scale S of the unnormalized
        # weights past the rescale point within 12,361 counts; the stream
        # must fold it back without a trace.
        rate = LearningRate(1e-9, 0.51)
        n = 13_000
        assert sum(-math.log1p(-rate(k)) for k in range(1, n + 1)) > math.log(engine._RESCALE_AT)
        cases = [
            (Grid(np.linspace(0.3, 10, 40)), rng.poisson(3.0, n)),
            (ProductGrid(Grid(np.linspace(0.3, 10, 6)), 2), rng.poisson(3.0, (n, 2))),
        ]
        for grid, ys in cases:
            _assert_batching_invariant(init(grid, rate), ys)

    def test_overflowing_step_counts_as_degenerate(self):
        # At y = 152 the kernel row at 0.5 is e^-717.5 of its maximum: a
        # positive, subnormal mixture total whose step coefficient overflows.
        grid = Grid([0.5, 152.0])
        row = engine.KernelMatrixCache(grid).scaled_table(152)[152]
        assert 0.0 < row[0] < 1e-300
        state = init(grid, LearningRate(1.0, 0.99), g0=MixingWeights(grid, [1.0, 0.0]))
        with pytest.raises(DegenerateLikelihoodError) as err:
            update(state, 152)
        with pytest.raises(DegenerateLikelihoodError) as err:
            update_stream(state, [0, 152, 1])
        assert err.value.stream_index == 1
        out = update_stream(state, [0, 152, 1], skip_degenerate=True)
        assert out.n == 2
        assert np.array_equal(out.g.weights, update_stream(state, [0, 1]).g.weights)

    def test_abort_carries_stream_index(self):
        grid = Grid([0.5, 20000.0])
        g0 = MixingWeights(grid, [1.0, 0.0])
        state = init(grid, LearningRate(1.0, 0.99), g0=g0)
        with pytest.raises(DegenerateLikelihoodError) as err:
            update_stream(state, [0, 1, 20000, 0])
        assert err.value.stream_index == 2
        assert err.value.n == 2

    def test_skip_degenerate_continues(self):
        grid = Grid([0.5, 20000.0])
        g0 = MixingWeights(grid, [1.0, 0.0])
        state = init(grid, LearningRate(1.0, 0.99), g0=g0)
        out = update_stream(state, [0, 20000, 1], skip_degenerate=True)
        assert out.n == 2
        # a lattice whose mass sits at (0.5, 0.5): the middle vector underflows
        lattice = ProductGrid(grid, 2)
        state = init(lattice, LearningRate(1.0, 0.99), g0=MixingWeights(lattice, [1.0, 0, 0, 0]))
        out = update_stream(state, [(0, 1), (20000, 20000), (1, 0)], skip_degenerate=True)
        kept = update_stream(state, [(0, 1), (1, 0)])
        assert out.n == 2
        assert np.array_equal(out.g.weights, kept.g.weights)

    def test_only_the_power_schedule_is_accepted(self):
        grid = Grid([1.0, 2.0, 3.0])
        with pytest.raises(TypeError):
            init(grid, rate=lambda n: 1.0 / n)
        with pytest.raises(TypeError):
            engine.NewtonState(MixingWeights.uniform(grid), 0, 0.5, engine.KernelMatrixCache(grid))

    def test_consistency_toward_a_grid_supported_truth(self):
        # Median over 20 seeds of the total-variation gap after 1e4 counts.
        atoms = np.array([0.5, 2.0, 4.5, 8.0, 13.0])
        probs = np.array([0.15, 0.25, 0.25, 0.2, 0.15])
        grid = Grid(atoms)
        rate = LearningRate(1.0, 0.75)
        tvs = []
        for seed in range(20):
            r = np.random.default_rng(seed)
            thetas = r.choice(atoms, size=10_000, p=probs)
            ys = r.poisson(thetas)
            final = update_stream(init(grid, rate), ys)
            tvs.append(0.5 * np.abs(final.g.weights - probs).sum())
        assert np.median(tvs) < 0.05

    def test_result_does_not_depend_on_buffer_alignment(self):
        # malloc places a 4 kB vector at an offset within its 64-byte line
        # that depends on the heap's history, and OpenBLAS's dasum of the
        # same values differs in the last bit between offsets.  The weights
        # below sit at each 8-byte offset in turn, and so do their copies
        # and arrays made like them, as if the allocator had put them there.
        def at_offset(values, offset):
            raw = np.empty(len(values) + 8)
            start = ((offset - raw.ctypes.data) % 64) // 8
            out = raw[start : start + len(values)]
            out[:] = values
            return out

        class Placed(np.ndarray):
            def copy(self, order="C"):
                return at_offset(self.view(np.ndarray), offset).view(Placed)

            def __array_function__(self, func, types, args, kwargs):
                if func is np.empty_like:
                    return at_offset(np.zeros(self.shape), offset).view(Placed)
                return super().__array_function__(func, types, args, kwargs)

        rate = LearningRate(1.0, 0.99)
        rng = np.random.default_rng(0)
        slow = LearningRate(1e-9, 0.51)  # S passes the rescale point between counts 12,300 and 13,000
        log_s = np.cumsum([-math.log1p(-slow(k)) for k in range(1, 13_001)])
        assert log_s[12_299] < math.log(engine._RESCALE_AT) < log_s[-1]
        cases = [
            (Grid(np.linspace(0.2, 12.0, 500)), rng.poisson(3.0, 200), rate),
            (ProductGrid(Grid(np.linspace(0.2, 12.0, 23)), 2), rng.poisson(3.0, (200, 2)), rate),
            (Grid(np.linspace(0.2, 12.0, 500)), np.random.default_rng(1).poisson(3.0, 13_000), slow),
        ]
        for grid, ys, case_rate in cases:
            start = init(grid, case_rate)
            want = update_stream(start, ys).g.weights
            for offset in range(0, 64, 8):
                placed = at_offset(start.g.weights, offset).view(Placed)
                assert placed.ctypes.data % 64 == offset
                g = MixingWeights(grid, start.g.weights)
                object.__setattr__(g, "weights", placed)
                state = engine.NewtonState(g, 0, case_rate, start.cache)
                got = update_stream(state, ys).g.weights
                assert np.array_equal(got, want), f"offset {offset} differs"
                for y in ys:
                    state = update(state, y)
                assert np.array_equal(state.g.weights, want), f"offset {offset} differs, single updates"
        # The lockstep path, with its start weights at each offset and the
        # heap shifted by a live allocation of a different size each time.
        grid, ys = cases[0][0], rng.poisson(3.0, (3, 200))
        finals = []
        for offset in range(0, 64, 8):
            shift = np.empty(offset + 1)
            g0 = at_offset(init(grid, rate).g.weights, offset)
            final, snaps = batched_newton_stream(grid, rate, ys, g0=g0, checkpoints=(100,))
            finals.append((final, snaps[100]))
            del shift
        for offset, (final, mid) in zip(range(0, 64, 8), finals):
            assert np.array_equal(final, finals[0][0]), f"lockstep offset {offset} differs"
            assert np.array_equal(mid, finals[0][1]), f"lockstep offset {offset} differs"


def _digest(state):
    return hashlib.sha256(state.g.weights.tobytes()).hexdigest()


class TestRetainedScratch:
    """The fold keeps its work buffer on the kernel cache between calls."""

    rate = LearningRate(1.0, 0.99)
    grid = Grid(np.linspace(0.2, 12.0, 200))

    def test_threads_sharing_a_cache_keep_their_serial_bits(self, monkeypatch):
        start = init(self.grid, self.rate)
        start.cache.ensure(40)
        streams = [np.random.default_rng(seed).poisson(2.0 + seed, 1500).tolist() for seed in range(4)]

        def run(ys):
            state = start
            for y in ys:  # one fold per count, so folds of different threads interleave
                state = update(state, y)
            return state

        serial = [run(ys) for ys in streams]
        real, allocations = engine._aligned_empty, []
        monkeypatch.setattr(engine, "_aligned_empty", lambda size: allocations.append(size) or real(size))
        barrier = threading.Barrier(len(streams))
        results = [None] * len(streams)

        def worker(i):
            barrier.wait()
            results[i] = run(streams[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-fold
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(streams))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(allocations) > 1  # some fold found the slot empty and allocated its own
        for want, got in zip(serial, results):
            assert got.n == want.n == 1500
            assert np.array_equal(got.g.weights.view(np.uint64), want.g.weights.view(np.uint64))

    def test_grids_of_different_sizes_may_share_a_cache(self, rng):
        # a lattice over a scalar grid reads that grid's cache, with a longer buffer
        lattice = ProductGrid(self.grid, 2)
        scalar = init(self.grid, self.rate)
        shared = engine.NewtonState(MixingWeights.uniform(lattice), 0, self.rate, scalar.cache)
        apart = [init(self.grid, self.rate), init(lattice, self.rate)]  # a cache each
        for y, yvec in zip(rng.poisson(3.0, 50).tolist(), rng.poisson(3.0, (50, 2)).tolist()):
            scalar, shared = update(scalar, y), update(shared, yvec)
            apart = [update(apart[0], y), update(apart[1], yvec)]
        for got, want in zip((scalar, shared), apart):
            assert np.array_equal(got.g.weights.view(np.uint64), want.g.weights.view(np.uint64))

    def test_results_never_alias_the_retained_buffer(self):
        state = update(init(self.grid, self.rate), 3)
        digest = _digest(state)
        later = state
        for y in range(100):
            update(state, y % 9)
            later = update(later, y % 9)
        assert _digest(state) == digest
        [(v, q)] = state.cache._scratch.values()
        for s in (state, later, update_stream(later, [1, 2])):
            w = s.g.weights
            assert not w.flags.writeable and w.base is None
            assert not np.shares_memory(w, v.base)
            assert not s._v.flags.writeable and not np.shares_memory(s._v, v.base)
            with pytest.raises(ValueError):
                w[0] = 0.5


class TestWeightsNormalizedWhenRead:
    """A fold's result keeps the scaled weights; ``g`` is built when first read."""

    rate = LearningRate(1.0, 0.99)
    grid = Grid(np.linspace(0.2, 12.0, 200))

    def test_reading_g_mid_chain_leaves_the_later_bits_alone(self, rng):
        quiet = read = init(self.grid, self.rate)
        for i, y in enumerate(rng.poisson(3.0, 300).tolist()):
            quiet, read = update(quiet, y), update(read, y)
            if i % 7 == 0:
                assert read.g.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert "g" not in vars(quiet)
        assert _bits(read) == _bits(quiet)

    def test_g_is_built_once_as_a_fresh_read_only_vector(self):
        state = update_stream(init(self.grid, self.rate), [1, 4, 2])
        assert "g" not in vars(state)  # the write did not normalize
        g = state.g
        assert state.g is g and vars(state)["g"] is g
        w = g.weights
        assert not w.flags.writeable and w.base is None
        assert not np.shares_memory(w, state._v)
        with pytest.raises(AttributeError):
            state.g = g
        with pytest.raises(AttributeError):
            state.grid  # only g is built on demand

    def test_concurrent_first_reads_agree(self):
        start = init(self.grid, self.rate)
        ys = np.random.default_rng(3).poisson(3.0, 500)
        want = _bits(update_stream(start, ys))
        states = [update_stream(start, ys) for _ in range(40)]  # none read yet
        barrier = threading.Barrier(4)
        seen = [None] * 4

        def reader(i):
            barrier.wait()
            seen[i] = [s.g for s in (states if i % 2 else states[::-1])]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, mid-read
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        seen = [got if i % 2 else got[::-1] for i, got in enumerate(seen)]
        for j, state in enumerate(states):
            assert all(got[j] is state.g for got in seen)  # one object per state
            assert state.g.weights.view(np.uint64).tolist() == want


class TestStreamInvariants:
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_simplex_and_positivity_preserved(self, y, seed):
        rng = np.random.default_rng(seed)
        g = random_weights(rng, np.sort(rng.uniform(0.1, 12.0, size=8)))
        state = engine.NewtonState(g, 3, LearningRate(1.0, 0.9), engine.KernelMatrixCache(g.grid))
        stepped = update(state, y)
        w = stepped.g.weights
        assert np.all(w > 0)  # strictly positive start stays strictly positive
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_update_is_a_convex_combination(self, y, seed):
        rng = np.random.default_rng(seed)
        g = random_weights(rng, np.sort(rng.uniform(0.1, 10.0, size=6)))
        state = engine.NewtonState(g, 5, LearningRate(1.0, 0.9), engine.KernelMatrixCache(g.grid))
        stepped = update(state, y)
        post = oracles.direct_posterior_weights(g.grid.points, g.weights, y)
        a = LearningRate(1.0, 0.9)(6)
        # componentwise, the new weight sits between the old one and the posterior
        lo = np.minimum(g.weights, post) - 1e-12
        hi = np.maximum(g.weights, post) + 1e-12
        assert np.all(stepped.g.weights >= lo) and np.all(stepped.g.weights <= hi)
        assert np.allclose(
            stepped.g.weights, (1 - a) * g.weights + a * post, atol=1e-12
        )


class TestMartingaleResidual:
    def test_point_mass_is_exact(self):
        grid = Grid([3.0])
        state = init(grid, LearningRate(1.0, 0.99))
        assert oracles.martingale_residual(state, 60) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_two_atoms(self):
        grid = Grid([1.0, 2.0])
        state = init(grid, LearningRate(1.0, 0.99))
        assert oracles.martingale_residual(state, 50) < 1e-8

    def test_random_states_stay_small(self, rng):
        for _ in range(5):
            g = random_weights(rng, np.sort(rng.uniform(0.2, 20.0, size=100)))
            state = engine.NewtonState(
                g, 17, LearningRate(1.0, 0.8), engine.KernelMatrixCache(g.grid)
            )
            y_max = int(g.grid.hi + 20 * math.sqrt(g.grid.hi))
            assert oracles.martingale_residual(state, y_max) < 1e-6


class TestSerialization:
    def test_fresh_round_trip(self):
        grid = Grid(np.linspace(0.5, 8, 32))
        state = init(grid, LearningRate(1.0, 0.99))
        back = deserialize_state(serialize_state(state))
        assert back.n == 0
        assert np.array_equal(back.g.weights, state.g.weights)
        assert np.array_equal(back.g.grid.points, grid.points)
        assert (back.rate.alpha, back.rate.gamma) == (1.0, 0.99)

    def test_round_trip_after_updates_is_bit_exact(self, rng):
        grid = Grid(np.linspace(0.5, 8, 32))
        state = update_stream(init(grid, LearningRate(1.0, 0.99)), rng.poisson(3.0, 1000))
        back = deserialize_state(serialize_state(state))
        assert back.n == 1000
        assert np.array_equal(back.g.weights, state.g.weights)

    def test_a_loaded_state_continues_within_rounding_of_memory(self, rng):
        # the file holds g, not the scaled weights a folded state continues
        # from, so a loaded state restarts at g with S = 1: its updates are a
        # fresh lineage, deterministic, and equal the in-memory ones only
        # within rounding
        grid = Grid(np.linspace(0.5, 8, 32))
        rate = LearningRate(1.0, 0.99)
        state = update_stream(init(grid, rate), rng.poisson(3.0, 1000))
        ys = rng.poisson(3.0, 1000)
        blob = serialize_state(state)
        loaded = update_stream(deserialize_state(blob), ys)
        restarted = engine.NewtonState(state.g, state.n, rate, state.cache)
        assert _bits(loaded) == _bits(update_stream(restarted, ys))
        assert _bits(loaded) == _bits(update_stream(deserialize_state(blob), ys))
        in_memory = update_stream(state, ys)
        assert loaded.n == in_memory.n == 2000
        assert np.max(np.abs(loaded.g.weights - in_memory.g.weights)) < 1e-13

    def test_corruption_is_detected(self):
        state = init(Grid([1.0, 2.0]), LearningRate(1.0, 0.99))
        blob = bytearray(serialize_state(state))
        blob[20] ^= 0xFF
        with pytest.raises(StateFormatError):
            deserialize_state(bytes(blob))

    def test_truncation_and_bad_magic_are_detected(self):
        state = init(Grid([1.0, 2.0]), LearningRate(1.0, 0.99))
        blob = serialize_state(state)
        with pytest.raises(StateFormatError):
            deserialize_state(blob[: len(blob) - 3])
        with pytest.raises(StateFormatError):
            deserialize_state(b"NOTMAGIC" + blob[8:])
        # a header claiming kdim = 0 or an absurd dimension, with a valid checksum
        for kdim in (0, 2**31):
            body = blob[:12] + struct.pack("<I", kdim) + blob[16:-4]
            with pytest.raises(StateFormatError):
                deserialize_state(body + struct.pack("<I", zlib.crc32(body)))


class TestCost:
    def test_per_update_cost_does_not_grow_with_n(self):
        grid = Grid(np.linspace(0.2, 12, 2000))
        ys = np.random.default_rng(0).poisson(3.0, 1100)
        state = init(grid, LearningRate(1.0, 0.99))
        state.cache.ensure(int(ys.max()))
        best_early, best_late = math.inf, math.inf
        for _ in range(5):
            state_r = init(grid, LearningRate(1.0, 0.99))
            state_r = update_stream(state_r, ys[:100])
            t0 = time.perf_counter()
            state_r = update_stream(state_r, ys[100:200])
            best_early = min(best_early, time.perf_counter() - t0)
            state_r = update_stream(state_r, ys[200:900])
            t0 = time.perf_counter()
            state_r = update_stream(state_r, ys[900:1000])
            best_late = min(best_late, time.perf_counter() - t0)
        assert best_late <= 1.5 * best_early
