import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streameb.inference import estimate_table, ratio_estimate
from streameb.model import (
    CountHistogram,
    DegenerateLikelihoodError,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    log_kernel_rows,
    log_mixture,
    mixture_pmf,
)

from .conftest import random_weights
from . import oracles


class TestGrid:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            Grid([])
        with pytest.raises(ValueError):
            Grid([0.0, 1.0])
        with pytest.raises(ValueError):
            Grid([-1.0, 1.0])

    def test_rejects_unsorted_and_duplicates(self):
        with pytest.raises(ValueError):
            Grid([2.0, 1.0])
        with pytest.raises(ValueError):
            Grid([1.0, 1.0])

    def test_points_are_immutable(self):
        g = Grid([1.0, 2.0])
        with pytest.raises(ValueError):
            g.points[0] = 5.0


class TestMixingWeights:
    def test_rejects_bad_sum(self):
        g = Grid([1.0, 2.0])
        with pytest.raises(ValueError):
            MixingWeights(g, [0.7, 0.7])

    def test_rejects_negative(self):
        g = Grid([1.0, 2.0])
        with pytest.raises(ValueError):
            MixingWeights(g, [1.2, -0.2])

    def test_renormalizes_small_drift(self):
        g = Grid([1.0, 2.0])
        w = MixingWeights(g, [0.5 + 2e-10, 0.5])
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_zero_weights_are_kept(self):
        g = Grid([1.0, 2.0, 3.0])
        w = MixingWeights(g, [0.5, 0.0, 0.5])
        assert w.weights[1] == 0.0
        assert len(w.weights) == 3


class TestCountHistogram:
    def test_from_counts_and_total(self):
        h = CountHistogram.from_counts([0, 0, 1, 3, 3, 3])
        assert h.entries == {0: 2, 1: 1, 3: 3}
        assert h.total == 6

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            CountHistogram.from_counts([-1])

    def test_total_must_match(self):
        with pytest.raises(ValueError):
            CountHistogram({0: 2}, total=5)


def log_poisson_kernel(y, theta):
    """One entry of the library's log-kernel rows: log k(y | theta)."""
    return float(log_kernel_rows(Grid([theta]), [y])[0, 0])


def posterior_weights(g, y):
    """The library's one-observation posterior row k(y|theta) g / p_g(y)."""
    return log_mixture(log_kernel_rows(g.grid, [y]), g.weights)[1][0]


class TestLogPoissonKernel:
    def test_zero_count_unit_rate(self):
        assert log_poisson_kernel(0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_count_equal_rate_one(self):
        assert log_poisson_kernel(1, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_against_extended_precision_value(self):
        # -3 + 50 ln 3 - ln(50!) evaluated with 50-digit arithmetic.
        assert log_poisson_kernel(50, 3.0) == pytest.approx(
            -96.54715251836754749777, rel=1e-14
        )

    def test_finite_deep_in_the_tail(self):
        assert math.isfinite(log_poisson_kernel(0, 11354.0))
        assert math.isfinite(log_poisson_kernel(500, 0.01))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_poisson_kernel(0, 0.0)
        with pytest.raises(ValueError):
            log_poisson_kernel(0, -2.0)
        with pytest.raises(ValueError):
            log_poisson_kernel(-1, 1.0)
        with pytest.raises(ValueError):
            log_poisson_kernel(2.5, 1.0)


class TestKernelCache:
    def test_matches_direct_formula(self):
        g = Grid([0.5, 2.0, 7.0])
        cache = KernelMatrixCache(g)
        for y in (0, 3, 11):
            row = cache.log_table(y)[y]
            for j, t in enumerate(g.points):
                assert math.exp(row[j]) == pytest.approx(
                    oracles.poisson_pmf(y, t), rel=1e-12
                )

    def test_lazy_extension_preserves_rows(self):
        g = Grid([1.0, 4.0])
        cache = KernelMatrixCache(g)
        first = cache.log_table(2)[2].copy()
        cache.ensure(40)
        assert np.array_equal(cache.log_table(2)[2], first)
        assert cache.max_y == 40

    def test_scaled_rows_shift_by_max(self):
        g = Grid(np.linspace(0.5, 30, 40))
        cache = KernelMatrixCache(g)
        scaled, log = cache.scaled_table(5)[5], cache.log_table(5)[5]
        assert scaled.max() == pytest.approx(1.0)
        assert np.allclose(np.log(scaled[scaled > 0]) + log.max(), log[scaled > 0])

    def test_growing_row_by_row_matches_one_extension(self):
        g = Grid(np.linspace(0.5, 30, 40))
        stepwise, once = KernelMatrixCache(g), KernelMatrixCache(g)
        for y in range(37):
            stepwise.ensure(y)
        once.ensure(36)
        assert stepwise.max_y == once.max_y == 36
        assert np.array_equal(stepwise.log_table(36), once.log_table(36))
        assert np.array_equal(stepwise.scaled_table(36), once.scaled_table(36))

    def test_negative_counts_are_rejected_not_read_from_the_end(self):
        g = MixingWeights(Grid([1.0, 4.0]), [0.5, 0.5])
        cache = KernelMatrixCache(g.grid)
        cache.ensure(30)
        for read in (cache.log_table, cache.scaled_table):
            with pytest.raises(ValueError):
                read(-1)
        with pytest.raises(ValueError):
            mixture_pmf(g, -1, cache)

    def test_reads_during_growth_see_complete_rows(self):
        # A reader that trusts max_y must find that row in every table,
        # whichever point of an extension its thread switch falls on.
        grid = Grid(np.linspace(0.1, 50.0, 20_000))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                cache = KernelMatrixCache(grid)
                cache.ensure(0)
                errors, stop = [], threading.Event()

                def read():
                    try:
                        while not stop.is_set():
                            y = cache.max_y
                            cache.scaled_table(y)[y]
                    except IndexError as exc:
                        errors.append(exc)

                reader = threading.Thread(target=read)
                reader.start()
                try:
                    for y in range(1, 60):
                        cache.ensure(y)
                finally:
                    stop.set()
                    reader.join(timeout=30)
                assert not reader.is_alive()
                assert errors == []
        finally:
            sys.setswitchinterval(interval)


class TestMixturePmf:
    def test_point_mass_is_the_kernel(self):
        g = Grid([2.0])
        w = MixingWeights(g, [1.0])
        assert mixture_pmf(w, 0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_two_atom_hand_sum(self):
        g = Grid([1.0, 2.0])
        w = MixingWeights(g, [0.5, 0.5])
        expected = (math.exp(-1) + 2 * math.exp(-2)) / 2
        assert mixture_pmf(w, 1) == pytest.approx(expected, rel=1e-14)

    def test_matches_direct_sum_on_random_mixture(self, rng):
        w = random_weights(rng, np.sort(rng.uniform(0.1, 20.0, size=50)))
        direct = oracles.direct_mixture_pmf(w.grid.points, w.weights, 7)
        assert mixture_pmf(w, 7) == pytest.approx(direct, rel=1e-10)

    def test_zero_weight_atoms_are_skipped(self):
        g = Grid([1.0, 3.0])
        w = MixingWeights(g, [1.0, 0.0])
        assert mixture_pmf(w, 2) == pytest.approx(oracles.poisson_pmf(2, 1.0), rel=1e-14)

    def test_non_integer_counts_are_refused_not_truncated(self):
        w = MixingWeights(Grid([1.0, 2.0]), [0.5, 0.5])
        for bad in (2.5, 1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="integers"):
                mixture_pmf(w, bad)
        assert mixture_pmf(w, 2.0) == mixture_pmf(w, 2)

    def test_total_mass_accumulates_to_one(self, rng):
        w = random_weights(rng, np.sort(rng.uniform(0.5, 8.0, size=20)))
        y_stop = int(w.grid.hi + 20 * math.sqrt(w.grid.hi))
        total = float(estimate_table(w, y_stop)[1].sum())
        assert 1.0 - total < 1e-8
        assert total <= 1.0 + 1e-12


class TestPosterior:
    def test_point_mass_fixed_point(self):
        g = Grid([2.5])
        w = MixingWeights(g, [1.0])
        assert posterior_weights(w, 9)[0] == 1.0
        assert ratio_estimate(w, 9) == pytest.approx(2.5)

    def test_two_atom_bayes_rule(self):
        g = Grid([1.0, 3.0])
        w = MixingWeights(g, [0.5, 0.5])
        post = posterior_weights(w, 0)
        assert post[0] == pytest.approx(0.8807970779778824, rel=1e-12)
        assert post[1] == pytest.approx(0.1192029220221176, rel=1e-12)
        assert ratio_estimate(w, 0) == pytest.approx(1.2384058440442351, rel=1e-12)

    def test_matches_brute_force_on_hundred_atoms(self, rng):
        w = random_weights(rng, np.sort(rng.uniform(0.2, 15.0, size=100)))
        post = posterior_weights(w, 4)
        brute = oracles.direct_posterior_weights(w.grid.points, w.weights, 4)
        assert np.max(np.abs(post - brute)) < 1e-12

    def test_log_space_survives_extreme_rate_count_mismatch(self):
        # p_g(0) underflows to 0 in linear space, but the posterior is still
        # exact in log space: a point mass conditions to itself.
        g = Grid([5000.0])
        w = MixingWeights(g, [1.0])
        assert mixture_pmf(w, 0) == 0.0
        assert posterior_weights(w, 0)[0] == 1.0
        assert ratio_estimate(w, 0) == pytest.approx(5000.0)


@st.composite
def mixtures(draw):
    d = draw(st.integers(min_value=1, max_value=12))
    pts = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=30.0),
            min_size=d,
            max_size=d,
            unique=True,
        )
    )
    raw = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=d, max_size=d
        )
    )
    w = np.asarray(raw) / np.sum(raw)
    return MixingWeights(Grid(np.sort(pts)), w)


class TestProperties:
    @given(mixtures(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=80, deadline=None)
    def test_ratio_identity(self, g, y):
        p_y = mixture_pmf(g, y)
        p_y1 = mixture_pmf(g, y + 1)
        if p_y <= 0:
            return
        ratio = (y + 1) * p_y1 / p_y
        assert ratio == pytest.approx(oracles.posterior_mean(g, y), rel=1e-10)

    @given(mixtures(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_posterior_is_on_the_simplex(self, g, y):
        try:
            post = posterior_weights(g, y)
        except DegenerateLikelihoodError:
            return
        assert np.all(post >= 0)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)

    @given(mixtures(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=80, deadline=None)
    def test_posterior_mean_stays_inside_the_grid(self, g, y):
        try:
            mean = oracles.posterior_mean(g, y)
        except DegenerateLikelihoodError:
            return
        assert g.grid.lo - 1e-12 <= mean <= g.grid.hi + 1e-12

    @given(mixtures(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=50, deadline=None)
    def test_pmf_lies_in_unit_interval(self, g, y):
        p = mixture_pmf(g, y)
        assert 0.0 <= p <= 1.0
