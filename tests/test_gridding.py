import math
import time

import numpy as np
import pytest
from scipy.stats import halfnorm, rv_discrete, uniform, weibull_min

from streameb.gridding import (
    GridInfeasibleError,
    GridSpec,
    build_equispaced_grid,
    kl_grid_size,
    stream_grid,
)
from streameb.model import Grid, MixingWeights
from streameb.priors import PriorSpec

from .oracles import (
    binned_discretization,
    count_pmf,
    count_second_moment,
    kl_discretization_gap,
    kl_grid_size_scan,
)


def scan_condition(n, eta, k, m_k):
    return n > 1.0 / eta and n ** (1.0 - k) * math.log(n * eta) * m_k <= eta**k


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(eta=0.0, k=2, m_k=1.0)
        with pytest.raises(ValueError):
            GridSpec(eta=0.1, k=1, m_k=1.0)
        with pytest.raises(ValueError):
            GridSpec(eta=0.1, k=2, m_k=0.0)
        with pytest.raises(ValueError):
            GridSpec(eta=0.1, k=2, m_k=1.0, d_cap=1)


class TestKlGridSize:
    def test_matches_linear_scan(self):
        spec = GridSpec(eta=0.1, k=2, m_k=10.0)
        d = kl_grid_size(spec)
        n = 11
        while not scan_condition(n, 0.1, 2, 10.0):
            n += 1
        assert d == n

    def test_is_the_true_infimum(self):
        # Scan certificate: the condition fails just below and holds at d.
        for spec in (
            GridSpec(eta=0.1, k=2, m_k=10.0),
            GridSpec(eta=0.05, k=2, m_k=4.5),
            GridSpec(eta=0.3, k=3, m_k=7.0),
        ):
            d = kl_grid_size(spec)
            assert scan_condition(d, spec.eta, spec.k, spec.m_k)
            assert not scan_condition(d - 1, spec.eta, spec.k, spec.m_k)

    def test_block_size_does_not_change_the_size(self):
        # The sizes must equal those of a scan in blocks of 1 << 20.  Specs
        # share (eta, k) pairs so that the wide-block reference computes
        # n^(1-k) log(n eta) once per pair and block; m_k is set to reach
        # sizes spread log-uniformly from 2/eta to 1e6.
        rng = np.random.default_rng(20)
        wide = 1 << 20
        checked = 0
        for eta in np.exp(rng.uniform(np.log(0.01), np.log(0.5), size=20)):
            k = int(rng.integers(2, 5))
            start = math.floor(1.0 / eta) + 1
            d = np.exp(rng.uniform(np.log(2.0 / eta), np.log(1e6), size=20))
            m_ks = eta**k * d ** (k - 1) / np.log(d * eta)
            want = {}
            lo = start
            while len(want) < len(m_ks):
                ns = np.arange(lo, lo + wide, dtype=float)
                base = ns ** (1.0 - k) * np.log(ns * eta)
                for m_k in set(m_ks) - set(want):
                    ok = base * m_k <= eta**k
                    first = int(ok.argmax())
                    if ok[first]:
                        want[m_k] = lo + first
                lo += wide
            for m_k in m_ks:
                assert kl_grid_size(GridSpec(eta=eta, k=k, m_k=m_k)) == want[m_k]
                checked += 1
        assert checked == 400

    def test_bisection_matches_the_scan(self):
        # eta from 1e-3 to 1, k from 2 to 6, m_k from 0.01 to 1,000: every
        # size the scan reaches by 5e5, and the refusals past it
        checked = 0
        for eta in np.geomspace(1e-3, 1.0, 9):
            for k in range(2, 7):
                for m_k in np.geomspace(0.01, 1000.0, 6):
                    spec = GridSpec(eta=float(eta), k=k, m_k=float(m_k))
                    want = kl_grid_size_scan(spec, cap=500_000)
                    if want is not None:
                        assert kl_grid_size(spec) == want, spec
                        checked += 1
                    else:
                        assert kl_grid_size_scan(spec, cap=500_000 + 1) is None
        assert checked > 150

    def test_an_infeasible_spec_is_refused_at_once(self):
        # m_2 of uniform(150, 250) counts: no size up to 1e9 fits at eta = 0.025
        t0 = time.perf_counter()
        with pytest.raises(GridInfeasibleError, match="no grid size up to 1000000000"):
            kl_grid_size(GridSpec(eta=0.025, k=2, m_k=40_592.0))
        assert time.perf_counter() - t0 < 0.5  # the scan took 7.2 s
        with pytest.raises(GridInfeasibleError):  # the first size is already past the cap
            kl_grid_size(GridSpec(eta=1e-9 / 1.5, k=2, m_k=1.0))

    def test_vanishing_moment_gives_minimal_grid(self):
        assert kl_grid_size(GridSpec(eta=1.0, k=2, m_k=1e-12)) == 2

    def test_monotone_in_the_moment_bound(self):
        sizes = [
            kl_grid_size(GridSpec(eta=0.025, k=2, m_k=m)) for m in (5.0, 15.0, 30.0)
        ]
        assert sizes == sorted(sizes)
        # heavier moment bounds at fine spacing reach deep into 1e5 territory
        assert sizes[-1] > 100_000


class TestBuildEquispacedGrid:
    def test_minimal_grid_case(self):
        # the size rule is strict: the first integer exceeding 1/eta = 2 is 3
        grid = build_equispaced_grid(GridSpec(eta=0.5, k=2, m_k=1e-12))
        assert np.allclose(grid.points, [0.5, 1.0, 1.5])
        grid = build_equispaced_grid(GridSpec(eta=1.0, k=2, m_k=1e-12))
        assert np.allclose(grid.points, [1.0, 2.0])

    def test_full_grid_is_multiples_of_eta(self):
        spec = GridSpec(eta=0.2, k=2, m_k=2.0)
        grid = build_equispaced_grid(spec)
        d = kl_grid_size(spec)
        assert len(grid) == d
        assert np.allclose(grid.points, 0.2 * np.arange(1, d + 1))

    def test_cap_keeps_endpoints_and_equispacing(self):
        spec = GridSpec(eta=0.025, k=2, m_k=27.0, d_cap=10_000)
        grid = build_equispaced_grid(spec)
        full = kl_grid_size(GridSpec(eta=0.025, k=2, m_k=27.0))
        assert len(grid) == 10_000
        assert grid.points[0] == pytest.approx(0.025)
        assert grid.hi == pytest.approx(full * 0.025)
        gaps = np.diff(grid.points)
        assert np.allclose(gaps, gaps[0], rtol=1e-12)

    def test_cap_larger_than_needed_is_ignored(self):
        grid = build_equispaced_grid(GridSpec(eta=0.5, k=2, m_k=1e-12, d_cap=50))
        assert len(grid) == 3


class TestStreamGrid:
    def test_is_the_equispaced_grid_of_the_second_moment(self):
        ys = np.array([0, 3, 7, 2, 0, 11])
        m2 = float(np.mean(ys.astype(float) ** 2))
        for m2_given, m_k in ((None, m2), (40.0, 40.0)):
            expected = build_equispaced_grid(GridSpec(0.05, 2, m_k, d_cap=300))
            grid = stream_grid(ys, 0.05, 300, m2_given)
            assert np.array_equal(grid.points, expected.points)
        uncapped = stream_grid(ys.tolist(), 0.5, None)
        assert np.array_equal(uncapped.points, build_equispaced_grid(GridSpec(0.5, 2, m2)).points)

    def test_refuses_all_zero_counts(self):
        with pytest.raises(ValueError, match="all counts are zero"):
            stream_grid([0, 0, 0], 0.1, 100)
        assert len(stream_grid([0, 0, 0], 0.1, 100, m2=4.0)) > 1  # a given bound sizes it


class TestBinnedDiscretization:
    def test_point_mass_lands_in_its_bin(self):
        prior = rv_discrete(values=([1.5], [1.0]))
        grid = Grid([1.0, 2.0])
        w = binned_discretization(prior, grid)
        assert np.allclose(w.weights, [0.0, 1.0])

    def test_uniform_mass_splits_evenly(self):
        prior = uniform(0.0, 3.0)
        grid = Grid(np.arange(1, 7) * 0.5)
        w = binned_discretization(prior, grid)
        assert np.allclose(w.weights, np.full(6, 1 / 6), atol=1e-12)

    def test_weibull_matches_cdf_differences(self):
        prior = weibull_min(5.0, scale=3.0)
        grid = Grid(np.arange(1, 201) * 0.05)
        w = binned_discretization(prior, grid)
        pts = grid.points
        expected = np.diff(np.concatenate([[0.0], prior.cdf(pts)]))
        expected[-1] += 1.0 - prior.cdf(pts[-1])
        assert np.max(np.abs(w.weights - expected)) < 1e-10

    def test_upper_tail_is_absorbed_by_last_atom(self):
        prior = halfnorm(scale=1.0)
        grid = Grid([0.5, 1.0])
        w = binned_discretization(prior, grid)
        assert w.weights[-1] == pytest.approx(1.0 - prior.cdf(0.5), rel=1e-12)

    def test_mass_at_zero_warns_and_goes_to_first_atom(self):
        prior = uniform(0.0, 3.0)

        class WithAtom:
            def cdf(self, x):
                return 0.25 + 0.75 * prior.cdf(x)

        grid = Grid([1.0, 2.0, 3.0])
        with pytest.warns(UserWarning):
            w = binned_discretization(WithAtom(), grid)
        assert w.weights[0] == pytest.approx(0.25 + 0.75 / 3, rel=1e-12)

    def test_requires_equispaced_grid(self):
        prior = uniform(0.0, 3.0)
        with pytest.raises(ValueError):
            binned_discretization(prior, Grid([0.5, 1.0, 3.0]))


class TestKlGap:
    def test_zero_for_exact_discretization(self):
        atoms = [0.5, 1.0, 1.5, 2.0]
        prior = rv_discrete(values=(atoms, [0.1, 0.4, 0.3, 0.2]))
        g = MixingWeights(Grid(atoms), [0.1, 0.4, 0.3, 0.2])
        assert kl_discretization_gap(prior, g, 40) == pytest.approx(0.0, abs=1e-12)

    def test_weibull_binning_beats_twice_the_spacing(self):
        prior = weibull_min(5.0, scale=3.0)
        grid = build_equispaced_grid(
            GridSpec(eta=0.1, k=2, m_k=count_second_moment(prior))
        )
        g = binned_discretization(prior, grid)
        gap = kl_discretization_gap(prior, g, 60)
        assert 0.0 <= gap < 0.2

    def test_gap_is_asymmetric_in_its_arguments(self):
        prior = uniform(0.0, 3.0)
        grid = Grid(np.arange(1, 41) * 0.1)
        g = binned_discretization(prior, grid)
        # Shift mass to make the two directions differ.
        w = g.weights.copy()
        w[0] += 0.2
        w /= w.sum()
        shifted_prior = rv_discrete(values=(grid.points, w))
        shifted = MixingWeights(grid, w)
        forward = kl_discretization_gap(prior, shifted, 40)
        backward = kl_discretization_gap(shifted_prior, g, 40)
        assert forward != pytest.approx(backward, rel=1e-3)

    def test_vanishing_support_signals_infinite_gap(self):
        prior = uniform(0.0, 3.0)
        g = MixingWeights(Grid([5000.0, 6000.0]), [0.5, 0.5])
        assert kl_discretization_gap(prior, g, 10) == math.inf


class TestPriorSpec:
    def test_count_pmf_sums_to_one(self):
        for prior in (
            weibull_min(5, scale=3),
            uniform(0, 3),
            halfnorm(scale=1.0),
            rv_discrete(values=([1.0, 2.0], [0.4, 0.6])),
        ):
            pmf = count_pmf(prior, np.arange(80))
            assert pmf.sum() == pytest.approx(1.0, abs=1e-8)

    def test_moments_match_quadrature(self):
        prior = weibull_min(5, scale=3)
        pmf = count_pmf(prior, np.arange(80))
        ys = np.arange(80)
        assert float(np.dot(ys, pmf)) == pytest.approx(prior.mean(), rel=1e-10)
        assert float(np.dot(ys**2, pmf)) == pytest.approx(
            count_second_moment(prior), rel=1e-10
        )

    def test_samplers_are_deterministic_under_seed(self):
        prior = PriorSpec("half-gaussian", (1.0,))
        a = prior.sample(100, np.random.default_rng(5))
        b = prior.sample(100, np.random.default_rng(5))
        assert np.array_equal(a, b)
