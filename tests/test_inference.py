import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, zeta

from streameb.engine import (
    KernelMatrixCache,
    LearningRate,
    NewtonState,
    init,
    martingale_residual,
    update_stream,
)
from streameb.evaluation import generate_compound
from streameb.gridding import GridSpec, build_equispaced_grid
from streameb.inference import (
    EstimateReport,
    asymptotic_variance,
    clt_scale,
    credible_interval,
    credible_intervals,
    default_y_max,
    normal_quantile,
    ratio_estimate,
    truncation_tail_bound,
    validate_clt_schedule,
)
from streameb.model import (
    Grid,
    MixingWeights,
    ProductGrid,
    log_poisson_kernel,
    posterior_mean,
    posterior_table,
    posterior_weights,
)
from streameb.priors import parse_prior

from . import oracles
from .conftest import random_weights


class TestRatioEstimate:
    def test_point_mass_returns_its_atom(self):
        g = MixingWeights(Grid([2.5]), [1.0])
        for y in range(6):
            assert ratio_estimate(g, y) == pytest.approx(2.5, rel=1e-12)

    def test_equals_posterior_mean_everywhere(self, rng):
        g = random_weights(rng, np.sort(rng.uniform(0.1, 18.0, size=60)))
        for y in range(0, 51, 7):
            assert ratio_estimate(g, y) == pytest.approx(
                posterior_mean(g, y), rel=1e-10
            )

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, y, seed):
        rng = np.random.default_rng(seed)
        g = random_weights(rng, np.sort(rng.uniform(0.1, 25.0, size=12)))
        assert ratio_estimate(g, y) == pytest.approx(posterior_mean(g, y), rel=1e-10)


    def test_negative_count_is_rejected_with_or_without_a_cache(self):
        g = MixingWeights(Grid([1.0, 4.0]), [0.5, 0.5])
        cache = KernelMatrixCache(g.grid)
        cache.ensure(30)
        for c in (None, cache):
            with pytest.raises(ValueError):
                ratio_estimate(g, -1, c)


class TestCltScale:
    def test_matches_hurwitz_tail(self):
        # independent oracle: the Hurwitz tail sum_{k>=n} (alpha+k)^(-2 gamma)
        # summed term by term, where the library evaluates zeta in closed form
        for alpha, gamma, n in [(1.0, 0.75, 10), (1.0, 0.99, 100), (0.5, 0.6, 3)]:
            expected = oracles.clt_scale_partial_sum(alpha, gamma, n)
            assert clt_scale(LearningRate(alpha, gamma), n) == pytest.approx(
                expected, rel=1e-9
            )

    def test_harmonic_case_brackets(self):
        # gamma=1, alpha=1: telescoping gives 1/(n+1) < tail < 1/n
        rate = LearningRate(1.0, 1.0)
        for n in (10, 100, 5000):
            b = clt_scale(rate, n)
            assert n < b < n + 1

    def test_agrees_with_power_approximation(self):
        rate = LearningRate(1.0, 0.75)
        direct = clt_scale(rate, 1000)
        closed = (2 * 0.75 - 1) * (1 + 1000) ** (2 * 0.75 - 1)
        assert abs(direct - closed) / closed < 0.02

    def test_strictly_increasing_in_n(self):
        rate = LearningRate(2.0, 0.8)
        values = [clt_scale(rate, n) for n in (1, 2, 5, 20, 100)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_inverse_identity(self):
        rate = LearningRate(1.0, 0.7)
        b = clt_scale(rate, 50)
        tail = float(zeta(1.4, 51.0))
        assert b * tail == pytest.approx(1.0, abs=1e-9)

    def test_divergent_tail_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LearningRate(1.0, 0.5)


class TestScheduleValidator:
    def test_power_schedule_passes(self):
        validate_clt_schedule(LearningRate(1.0, 0.99))

    def test_custom_schedules_are_rejected(self):
        with pytest.raises(ValueError):
            validate_clt_schedule(lambda n: 1.0 / n)


class TestAsymptoticVariance:
    def test_point_mass_has_zero_variance(self):
        g = MixingWeights(Grid([3.0]), [1.0])
        assert asymptotic_variance(g, 2, 80) == pytest.approx(0.0, abs=1e-30)

    def test_two_atoms_match_double_sum(self):
        g = MixingWeights(Grid([1.0, 3.0]), [0.5, 0.5])
        direct = oracles.direct_variance_double_sum([1.0, 3.0], [0.5, 0.5], 0, 60)
        assert asymptotic_variance(g, 0, 60) == pytest.approx(direct, abs=1e-9)

    def test_nonnegative_on_random_states(self, rng):
        for _ in range(10):
            g = random_weights(rng, np.sort(rng.uniform(0.2, 10.0, size=15)))
            assert asymptotic_variance(g, int(rng.integers(0, 8))) >= 0.0

    def test_matches_gradient_sandwich(self, rng):
        # Two derivations of the same quantity: the predictive second moment
        # and the contrast gradient against the weight covariance matrix.
        for _ in range(5):
            d = int(rng.integers(3, 30))
            g = random_weights(rng, np.sort(rng.uniform(0.2, 9.0, size=d)))
            y = int(rng.integers(0, 6))
            y_max = default_y_max(g.grid)
            v = oracles.posterior_weight_covariance(g, y_max)
            direct = asymptotic_variance(g, y, y_max)
            sandwich = oracles.gradient_sandwich_variance(
                g.grid.points, g.weights, y, y_max, v
            )
            assert direct == pytest.approx(sandwich, abs=1e-8, rel=1e-8)


def _fitted_weights(grid, seed, n=500):
    """Weights after streaming Weibull(3,5) counts: mass where data put it."""
    _, ys = generate_compound(parse_prior("weibull:3,5"), n, seed)
    return update_stream(init(grid, LearningRate(1.0, 0.99)), ys).g


def _truncation_cases(rng):
    """States on narrow and on wide grids; the wide one reaches rates near
    1e4 as the paper-default grid does, with d kept small enough that the
    uncapped table stays cheap."""
    wide = Grid(np.linspace(0.025, 9662.75, 200))
    yield random_weights(rng, np.sort(rng.uniform(0.2, 12.0, size=25)))
    yield random_weights(rng, np.sort(rng.uniform(0.2, 60.0, size=80)))
    yield random_weights(rng, wide.points)
    yield _fitted_weights(wide, int(rng.integers(0, 1000)))


class TestCertifiedTruncation:
    def test_bound_dominates_the_neglected_tail(self, rng):
        for g in _truncation_cases(rng):
            cap = default_y_max(g.grid)
            p, post = posterior_table(g, cap)
            for y in (0, 3, 7):
                k0 = np.exp(log_poisson_kernel(y, g.grid.points))
                k1 = np.exp(log_poisson_kernel(y + 1, g.grid.points))
                contrast = k1 / (k1 @ g.weights) - k0 / (k0 @ g.weights)
                terms = p * (post @ contrast) ** 2
                for z in (y + 1, y + 5, y + 20, y + 60, y + 200):
                    tail = float(terms[z + 1 :].sum())
                    bound = float(truncation_tail_bound(g, contrast[None, :], z)[0])
                    assert tail <= bound * (1 + 1e-9) + 1e-300, (len(g.grid), y, z)

    def test_certified_variance_matches_the_capped_one(self, rng):
        for g in _truncation_cases(rng):
            cache = KernelMatrixCache(g.grid)
            for y in range(8):
                capped = asymptotic_variance(g, y, default_y_max(g.grid), cache)
                certified = asymptotic_variance(g, y, cache=cache)
                assert certified == pytest.approx(capped, rel=1e-12, abs=1e-30)

    def test_batched_intervals_equal_single_ones(self, rng):
        grid = Grid(np.linspace(0.025, 9662.75, 200))
        state = update_stream(init(grid, LearningRate(1.0, 0.99)), rng.poisson(4.0, 300))
        ys = [5, 0, 2, 7, 2]
        batched = credible_intervals(state, ys, 0.9)
        single = [credible_interval(state, y, 0.9) for y in ys]
        assert [r.y for r in batched] == ys
        for b, s in zip(batched, single):
            assert (b.y, b.theta_hat, b.b_n, b.level) == (s.y, s.theta_hat, s.b_n, s.level)
            for field in ("variance", "ci_low", "ci_high"):
                assert getattr(b, field) == pytest.approx(getattr(s, field), rel=1e-12), field

    def test_paper_default_state_stays_small(self):
        # The cap on this grid is over 1.2e4 rows of d = 1e4 (~1 GB per
        # table); the certified point stays within the first few dozen.
        _, ys = generate_compound(parse_prior("weibull:3,5"), 500, 7)
        m2 = float(np.mean(ys.astype(float) ** 2))
        grid = build_equispaced_grid(GridSpec(0.025, 2, m2, d_cap=10_000))
        assert len(grid) == 10_000 and grid.hi > 5_000
        state = update_stream(init(grid, LearningRate(1.0, 0.99)), ys)
        reports = credible_intervals(state, range(8), 0.95)
        assert state.cache.max_y < 200
        assert all(r.variance > 0 and r.ci_low < r.theta_hat < r.ci_high for r in reports)

    def test_negative_counts_are_rejected(self):
        g = MixingWeights(Grid([1.0, 2.0]), [0.5, 0.5])
        with pytest.raises(ValueError):
            asymptotic_variance(g, -1)


class TestWeightCovariance:
    def test_symmetric(self, rng):
        g = random_weights(rng, np.sort(rng.uniform(0.3, 8.0, size=10)))
        v = oracles.posterior_weight_covariance(g)
        assert np.max(np.abs(v - v.T)) < 1e-14

    def test_three_uniform_atoms_are_positive_definite(self):
        g = MixingWeights(Grid([1.0, 2.0, 3.0]), np.full(3, 1 / 3))
        v = oracles.posterior_weight_covariance(g)
        assert np.all(np.linalg.eigvalsh(v) > 0)

    def test_near_point_mass_vanishes(self):
        grid = Grid([1.0, 2.0, 3.0])
        for eps in (1e-4, 1e-6, 1e-8):
            g = MixingWeights(grid, [1 - eps, eps / 2, eps / 2])
            norm = np.linalg.norm(oracles.posterior_weight_covariance(g), 2)
            assert norm < 10 * eps

    def test_positive_semidefinite_generally(self, rng):
        g = random_weights(rng, np.sort(rng.uniform(0.2, 12.0, size=25)))
        eig = np.linalg.eigvalsh(oracles.posterior_weight_covariance(g))
        assert eig.min() > -1e-12

    def test_large_grids_are_refused(self):
        g = MixingWeights(Grid(np.linspace(0.1, 50, 300)), np.full(300, 1 / 300))
        with pytest.raises(ValueError):
            oracles.posterior_weight_covariance(g, 60)


class TestNormalQuantile:
    def test_against_scipy_inverse_cdf(self):
        ps = np.concatenate(
            [np.array([1e-8, 1e-4, 0.02425, 0.5, 0.975]), np.linspace(0.001, 0.999, 97)]
        )
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(
                float(ndtri(p)), abs=1e-9
            )

    def test_symmetry(self):
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), rel=1e-12)

    def test_range_validation(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestCredibleInterval:
    @staticmethod
    def _state_after(ys, grid, rate):
        return update_stream(init(grid, rate), ys)

    def test_point_mass_gives_zero_width(self):
        grid = Grid([2.5])
        state = self._state_after([2, 3, 2], grid, LearningRate(1.0, 0.99))
        rep = credible_interval(state, 1, 0.9)
        assert rep.ci_low == rep.ci_high == pytest.approx(2.5)
        assert rep.variance == pytest.approx(0.0, abs=1e-30)

    def test_tiny_level_collapses_to_the_estimate(self, rng):
        grid = Grid(np.linspace(0.5, 8, 30))
        state = self._state_after(rng.poisson(3.0, 50), grid, LearningRate(1.0, 0.9))
        rep = credible_interval(state, 2, 1e-12)
        assert rep.ci_high - rep.ci_low < 1e-10

    def test_report_is_internally_consistent(self, rng):
        grid = Grid(np.linspace(0.5, 8, 30))
        state = self._state_after(rng.poisson(3.0, 200), grid, LearningRate(1.0, 0.9))
        rep = credible_interval(state, 1, 0.95)
        z = normal_quantile(0.975)
        half = z * math.sqrt(rep.variance / rep.b_n)
        assert rep.ci_low == pytest.approx(rep.theta_hat - half)
        assert rep.ci_high == pytest.approx(rep.theta_hat + half)
        assert rep.ci_low <= rep.theta_hat <= rep.ci_high
        assert grid.lo <= rep.theta_hat <= grid.hi
        assert rep.b_n == pytest.approx(clt_scale(state.rate, 200), rel=1e-12)

    def test_needs_observations_and_a_power_schedule(self):
        grid = Grid([1.0, 2.0])
        fresh = init(grid, LearningRate(1.0, 0.99))
        with pytest.raises(ValueError):
            credible_interval(fresh, 0, 0.9)
        state = update_stream(init(grid, rate=lambda n: 1.0 / n), [1])
        with pytest.raises(ValueError):
            credible_interval(state, 0, 0.9)

    def test_level_validation(self, rng):
        grid = Grid([1.0, 2.0])
        state = self._state_after([1], grid, LearningRate(1.0, 0.99))
        for level in (0.0, 1.0):
            with pytest.raises(ValueError):
                credible_interval(state, 0, level)

    def test_csv_row_round_trips(self):
        rep = EstimateReport(3, 2.5, 0.1, 40.0, 2.4, 2.6, 0.9)
        row = rep.csv_row()
        parts = row.split(",")
        assert int(parts[0]) == 3
        assert float(parts[1]) == 2.5
        assert EstimateReport.CSV_HEADER.count(",") == row.count(",")


class TestLatticeWeightsRejected:
    """Scalar entry points name the grid kind instead of failing inside numpy."""

    @pytest.fixture
    def lattice_state(self):
        lattice = ProductGrid(Grid([1.0, 2.0, 3.0]), 2)
        return update_stream(init(lattice, LearningRate(1.0, 0.99)), [(1, 2), (0, 3)])

    def test_ratio_estimate(self, lattice_state):
        with pytest.raises(ValueError, match="ProductGrid"):
            ratio_estimate(lattice_state.g, 0, lattice_state.cache)

    def test_credible_intervals(self, lattice_state):
        with pytest.raises(ValueError, match="ProductGrid"):
            credible_intervals(lattice_state, [0], 0.9)

    def test_martingale_residual(self, lattice_state):
        with pytest.raises(ValueError, match="ProductGrid"):
            martingale_residual(lattice_state, 10)

    def test_posterior_weights(self, lattice_state):
        with pytest.raises(ValueError, match="ProductGrid"):
            posterior_weights(lattice_state.g, 0, lattice_state.cache)
