import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, zeta

from streameb import inference
from streameb.engine import (
    LearningRate,
    NewtonState,
    deserialize_state,
    init,
    serialize_state,
    update_stream,
)
from streameb.evaluation import generate_compound, regret
from streameb.gridding import GridSpec, build_equispaced_grid
from streameb.inference import (
    EstimateReport,
    asymptotic_variance,
    clt_scale,
    credible_interval,
    credible_intervals,
    default_y_max,
    estimate_table,
    ratio_estimate,
)
from streameb.inference import _tail_bound
from streameb.model import Grid, MixingWeights, ProductGrid, log_kernel_rows, mixture_pmf
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
                oracles.posterior_mean(g, y), rel=1e-10
            )

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, y, seed):
        rng = np.random.default_rng(seed)
        g = random_weights(rng, np.sort(rng.uniform(0.1, 25.0, size=12)))
        assert ratio_estimate(g, y) == pytest.approx(oracles.posterior_mean(g, y), rel=1e-10)


    def test_negative_count_is_rejected_beside_a_warm_cache(self):
        # the engine's cache holds rows 0..30; neither the estimate nor the
        # cache may read a negative count's row from the end of a table
        state = update_stream(init(Grid([1.0, 4.0]), LearningRate(1.0, 0.99)), [30, 2])
        assert state.cache.max_y == 30
        with pytest.raises(ValueError):
            ratio_estimate(state.g, -1)
        with pytest.raises(ValueError):
            state.cache.scaled_table(-1)

    def test_non_integer_count_is_refused_not_truncated(self):
        g = MixingWeights(Grid([1.0, 4.0]), [0.5, 0.5])
        for bad in (2.5, 2.0000001, -0.5):
            with pytest.raises(ValueError, match="integers"):
                ratio_estimate(g, bad)
        assert ratio_estimate(g, 2.0) == ratio_estimate(g, np.int64(2)) == ratio_estimate(g, 2)


class TestEstimateTable:
    def test_agrees_with_per_count_calls(self, rng):
        paper = _paper_default_state().g
        rough = random_weights(rng, np.sort(rng.uniform(0.1, 40.0, size=90)))
        for g in (paper, rough):
            theta, p = estimate_table(g, 40)
            assert theta.shape == p.shape == (41,)
            for y in range(41):
                assert theta[y] == pytest.approx(ratio_estimate(g, y), rel=1e-12)
                assert p[y] == pytest.approx(mixture_pmf(g, y), rel=1e-12)

    def test_every_path_gives_the_same_bits_on_the_paper_default_state(self):
        # one mixture routine reduces every row in the same order, so a
        # count's estimate does not depend on which function asked for it
        state = _paper_default_state()
        ys = list(range(16))
        batched = [r.theta_hat for r in credible_intervals(state, ys, 0.95)]
        single = [credible_interval(state, y, 0.95).theta_hat for y in ys]
        ratio = [ratio_estimate(state.g, y) for y in ys]
        table = estimate_table(state.g, 15)[0].tolist()
        assert batched == single == ratio == table

    def test_queries_leave_a_loaded_state_cache_empty(self):
        # The kernel cache is the recursion's: intervals, tables and ratio
        # estimates compute their own log rows, so a state read from a
        # checkpoint answers them without growing its cache, and the
        # intervals keep their pinned bytes.
        state = deserialize_state(serialize_state(_paper_default_state()))
        reports = credible_intervals(state, range(8), 0.95)
        csv = EstimateReport.CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in reports) + "\n"
        theta, _ = estimate_table(state.g, 7)
        ratios = [ratio_estimate(state.g, y) for y in range(8)]
        assert state.cache.max_y == -1
        assert csv == _PAPER_DEFAULT_CSV
        for report, full_width in zip(reports, _FULL_WIDTH_VARIANCES):
            assert report.variance == pytest.approx(full_width, rel=1e-13, abs=0)
        assert theta.tolist() == ratios == [r.theta_hat for r in reports]

    def test_row_blocks_keep_the_bits(self, monkeypatch):
        # tables and regrets build their rows in blocks; a row has the same
        # bits in any block, so three rows per block change nothing
        g = _paper_default_state().g
        oracle = MixingWeights.uniform(g.grid)
        whole = estimate_table(g, 60), regret(g, oracle, 60)
        monkeypatch.setattr(inference, "_BLOCK_ENTRIES", 3 * len(g.grid))
        blocked = estimate_table(g, 60), regret(g, oracle, 60)
        for a, b in zip(whole[0], blocked[0]):
            assert a.tobytes() == b.tobytes()
        assert whole[1] == blocked[1]

    def test_a_block_of_rows_gives_each_row_the_bits_of_a_one_row_call(self, rng):
        # the regret diagnostic scores the oracle and every snapshot from one
        # block; the paper-default state spans a wide band of log p, the rough
        # weights and a point mass a narrow and a steep one
        paper = _paper_default_state().g
        points = np.sort(rng.uniform(0.1, 40.0, size=90))
        blocks = [
            (paper.grid, [paper.weights, MixingWeights.uniform(paper.grid).weights,
                          random_weights(rng, paper.grid.points).weights]),
            (Grid(points), [random_weights(rng, points).weights, np.eye(90)[3]]),
        ]
        for grid, ws in blocks:
            for top in (1, 2, 9, 77):
                log_p = inference._log_pmfs(grid, ws, top)
                theta, p = inference._ratio_table(log_p)
                assert theta.shape == p.shape == (len(ws), top)
                for row, t, q in zip(log_p, theta, p):
                    one_t, one_p = inference._ratio_table(row)
                    assert t.tobytes() == one_t.tobytes() and q.tobytes() == one_p.tobytes()

    def test_finite_where_the_linear_pmf_underflows(self):
        # k(y | 0.5) underflows long before y = 20000; the zero-weight atom
        # at 20000 must not enter the row shift
        g = MixingWeights(Grid([0.5, 20000.0]), [1.0, 0.0])
        theta, p = estimate_table(g, 20000)
        assert np.all(np.isfinite(theta)) and p[-1] == 0.0
        assert theta[20000] == pytest.approx(ratio_estimate(g, 20000), rel=1e-12)
        assert np.allclose(theta, 0.5, rtol=1e-9)


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


# Intervals for y = 0..7 at level 0.95 on ``_paper_default_state()``, as
# `streameb estimate` prints them; pinned to the last bit.
_PAPER_DEFAULT_CSV = """\
y,theta_hat,variance,b_n,ci_low,ci_high,level
0,2.7356603278023277,0.43908815497410547,433.15388705368264,2.6732577049751898,2.7980629506294656,0.95
1,3.1394578284589265,0.3629702913576553,433.15388705368264,3.082721330837042,3.196194326080811,0.95
2,3.5262277123640775,0.34167759021328886,433.15388705368264,3.471180512690328,3.581274912037827,0.95
3,3.9085484673880817,0.3570200453819132,433.15388705368264,3.8522789379359517,3.9648179968402117,0.95
4,4.29333417377031,0.4025449739429131,433.15388705368264,4.233584685887127,4.353083661653493,0.95
5,4.6834154627320945,0.48116902886813656,433.15388705368264,4.618091004621177,4.748739920843012,0.95
6,5.079293732689846,0.5998910569341915,433.15388705368264,5.006354166366597,5.152233299013096,0.95
7,5.479843432871455,0.7684795110066492,433.15388705368264,5.397288480824343,5.562398384918567,0.95
"""

# The variances of those rows while the full sum ran over all 10,000 atoms;
# the certified band moves them by summation order alone, and leaves the
# other fields' bits as they were.
_FULL_WIDTH_VARIANCES = [
    0.43908815497410525, 0.3629702913576554, 0.34167759021328886, 0.3570200453819131,
    0.4025449739429131, 0.48116902886813634, 0.5998910569341916, 0.768479511006649,
]


# Intervals for y = 0..7 at level 0.95 on ``_serve_like_state()`` read back
# from its checkpoint bytes, as a `serve-mixed` query prints them; pinned to
# the last bit, variances included.
_SERVE_LIKE_CSV = """\
y,theta_hat,variance,b_n,ci_low,ci_high,level
0,0.025,2.9508203852341306e-41,16078.521533371797,0.025,0.025,0.95
1,0.02500000000000001,1.563743457767108e-34,16078.521533371797,0.02500000000000001,0.02500000000000001,0.95
2,0.02500000000000962,5.873323454176684e-28,16078.521533371797,0.025000000000009244,0.025000000000009993,0.95
3,0.02500000001924488,2.3497195524911716e-21,16078.521533371797,0.02500000001849562,0.025000000019994143,0.95
4,0.025000038491530093,9.399680818586754e-15,16078.521533371797,0.02500003699294438,0.025000039990115807,0.95
5,0.02507698622963188,3.760170371734431e-08,16078.521533371797,0.025073988939410933,0.025079983519852824,0.95
6,0.17850632106155334,0.14858100204694427,16078.521533371797,0.17254823630877994,0.18446440581432674,0.95
7,43.024283429094034,228.66832516410634,16078.521533371797,42.790546119600776,43.25802073858729,0.95
"""


def _paper_default_state():
    """500 Weibull(3,5) counts (seed 7) on the paper's grid: d = 1e4, hi > 5e3."""
    _, ys = generate_compound(parse_prior("weibull:3,5"), 500, 7)
    m2 = float(np.mean(ys.astype(float) ** 2))
    grid = build_equispaced_grid(GridSpec(0.025, 2, m2, d_cap=10_000))
    return update_stream(init(grid, LearningRate(1.0, 0.99)), ys)


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
            p, post = oracles.posterior_table(g, cap)
            for y in (0, 3, 7):
                k0, k1 = np.exp(log_kernel_rows(g.grid, [y, y + 1]))
                contrast = k1 / (k1 @ g.weights) - k0 / (k0 @ g.weights)
                terms = p * (post @ contrast) ** 2
                for z in (y + 1, y + 5, y + 20, y + 60, y + 200):
                    tail = float(terms[z + 1 :].sum())
                    bound = float(_tail_bound(g, contrast[None, :])(z)[0])
                    assert tail <= bound * (1 + 1e-9) + 1e-300, (len(g.grid), y, z)

    def test_certified_variance_matches_the_capped_one(self, rng):
        for g in _truncation_cases(rng):
            for y in range(8):
                capped = asymptotic_variance(g, y, default_y_max(g.grid))
                certified = asymptotic_variance(g, y)
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

    def test_paper_default_state_stays_small(self, monkeypatch):
        # The cap on this grid is over 1.2e4 rows of d = 1e4 (~1 GB per
        # table); the certified point stays within the first few dozen, so
        # the query builds fewer than 200 log-kernel rows in all.
        state = _paper_default_state()
        assert len(state.g.grid) == 10_000 and state.g.grid.hi > 5_000
        built = []
        mixture = inference.log_mixture
        monkeypatch.setattr(inference, "log_mixture",
                            lambda log_rows, w: built.append(len(log_rows)) or mixture(log_rows, w))
        reports = credible_intervals(state, range(8), 0.95)
        assert 0 < sum(built) < 200
        assert all(r.variance > 0 and r.ci_low < r.theta_hat < r.ci_high for r in reports)

    def test_each_full_width_row_is_built_once(self, rng, monkeypatch):
        # the pairs build each distinct count's full-width row once; the
        # variance sums build their own rows, over the band on a scalar grid
        calls, shapes, found = [], [], []  # counts per log_kernel_rows call, row blocks mixed
        rows, mixture, search = inference.log_kernel_rows, inference.log_mixture, inference._certified_y_max

        def counted_rows(grid, counts):
            calls.append(np.asarray(counts).tolist())
            return rows(grid, counts)

        def counted_mixture(log_rows, weights):
            shapes.append(log_rows.shape)
            return mixture(log_rows, weights)

        def spied_search(*args):
            found.append(search(*args))
            return found[-1]

        monkeypatch.setattr(inference, "log_kernel_rows", counted_rows)
        monkeypatch.setattr(inference, "log_mixture", counted_mixture)
        monkeypatch.setattr(inference, "_certified_y_max", spied_search)
        rate = LearningRate(1.0, 0.99)
        grid = Grid(np.linspace(0.025, 9662.75, 200))
        scalar = update_stream(init(grid, rate), rng.poisson(4.0, 300))
        credible_intervals(scalar, range(8), 0.95)
        assert calls == [list(range(9))]  # the pairs' rows, the only full-width ones
        (pairs, width), (partial, partial_width), (summed, band) = shapes
        assert (pairs, width) == (9, len(grid)) and partial == 9
        assert found[0] > 8 and summed == found[0] + 1
        assert max(partial_width, band) < len(grid)

        calls.clear()
        lattice = ProductGrid(Grid(np.linspace(0.1, 40.0, 30)), 2)
        g = update_stream(init(lattice, rate), rng.poisson([3.0, 9.0], (300, 2))).g
        asymptotic_variance(g, [4, 11])
        pairs, summed = calls[0], [c for counts in calls[1:] for c in counts]

        def cube(z):  # lexicographic
            return np.indices((z + 1,) * 2).reshape(2, -1).T.tolist()

        assert pairs == [[4, 11], [4, 12], [5, 11]]
        assert found[-1] > 12 and summed == cube(12) + cube(found[-1])

    def test_negative_counts_are_rejected(self):
        g = MixingWeights(Grid([1.0, 2.0]), [0.5, 0.5])
        with pytest.raises(ValueError):
            asymptotic_variance(g, -1)

    def test_search_stops_at_the_first_certified_point(self, rng, monkeypatch):
        # the doubling-and-bisection search must return what a linear scan
        # from z_lo returns, and the certified result must carry the bits of
        # a fixed cutoff at that point
        searches = []  # ((g, contrasts, partial, z_lo, cap), returned point) per query
        search = inference._certified_y_max

        def spy(*args):
            searches.append((args, search(*args)))
            return searches[-1][1]

        def first_certified(g, contrasts, partial, z_lo, cap):
            for z in range(z_lo, cap):
                if np.all(_tail_bound(g, contrasts)(z) <= 1e-12 * partial):
                    return z
            return cap

        monkeypatch.setattr(inference, "_certified_y_max", spy)
        rate = LearningRate(1.0, 0.99)
        scalar = update_stream(init(Grid(np.linspace(0.025, 9662.75, 200)), rate), rng.poisson(4.0, 300))
        ys = [5, 0, 2, 7, 2]
        reports = credible_intervals(scalar, ys, 0.9)
        (args, found), = searches
        z = first_certified(*args)
        assert found == z > args[3]  # past z_lo: the search had to move
        assert reports == credible_intervals(scalar, ys, 0.9, y_max=z)

        lattice = ProductGrid(Grid(np.linspace(0.1, 40.0, 30)), 2)
        g = update_stream(init(lattice, rate), rng.poisson([3.0, 9.0], (300, 2))).g
        for y in ([0, 0], [4, 11], [12, 2]):
            cov = asymptotic_variance(g, y)
            args, found = searches[-1]
            z = first_certified(*args)
            assert found == z > args[3]
            assert np.array_equal(cov, asymptotic_variance(g, y, y_max=z))

    def test_interval_where_the_linear_pmf_underflows(self):
        # every rate is at least 760, so p_g(0) and p_g(1) are below 1e-330:
        # the contrasts and the estimate come from the log-space rows
        grid = Grid(np.linspace(760.0, 900.0, 200))
        rng = np.random.default_rng(0)
        state = update_stream(init(grid, LearningRate(1.0, 0.99)), rng.poisson(800, 2000))
        assert mixture_pmf(state.g, 0) == 0.0
        rep = credible_interval(state, 0, 0.95)
        assert rep.theta_hat == estimate_table(state.g, 0)[0][0]
        assert rep.theta_hat == pytest.approx(760.7637, abs=1e-4)
        assert np.isfinite(rep.variance) and rep.variance > 0
        assert rep.ci_low < rep.theta_hat < rep.ci_high


def _serve_like_state(n=20_000, seed=3):
    """Weibull(3,5) counts on a paper grid capped at d = 200, as a serve checkpoint."""
    _, ys = generate_compound(parse_prior("weibull:3,5"), n, seed)
    m2 = float(np.mean(ys.astype(float) ** 2))
    grid = build_equispaced_grid(GridSpec(0.025, 2, m2, d_cap=200))
    return update_stream(init(grid, LearningRate(1.0, 0.99)), ys)


class TestCertifiedBand:
    """The full variance sum runs over a certified prefix of the grid.

    ``oracles.full_width_estimates`` is the same query with the sum over
    every atom.  Past the band every posterior term of the rows summed is an
    exact 0.0, so the two differ by float64 summation order alone: within
    rel 1e-13.  Where the band is the whole grid they agree bit for bit.
    """

    @staticmethod
    def _query(monkeypatch, state, ys, y_max=None):
        """``credible_intervals`` with the band width and truncation point of each sum."""
        bands, moments = [], inference._second_moments

        def spy(g, contrasts, z):
            bands.append((contrasts.shape[1], z))
            return moments(g, contrasts, z)

        monkeypatch.setattr(inference, "_second_moments", spy)
        reports = credible_intervals(state, ys, 0.95, y_max)
        monkeypatch.undo()
        return reports, bands

    def _check(self, monkeypatch, state, ys, y_max=None, rel=1e-13):
        reports, bands = self._query(monkeypatch, state, ys, y_max)
        thetas, moments, z_full = oracles.full_width_estimates(state.g, np.array(ys), y_max)
        h, z = bands[-1]  # the full sum
        assert z == z_full
        assert [r.theta_hat for r in reports] == thetas.tolist()
        assert {r.b_n for r in reports} == {clt_scale(state.rate, state.n)}
        for r, v in zip(reports, np.diag(moments)):
            assert r.variance == pytest.approx(v, rel=rel, abs=0)
        # every posterior term a band leaves out, in the partial sums and
        # in the full sum, is exactly zero
        for width, top in bands:
            post = oracles.posterior_table(state.g, top)[1]
            assert not post[:, width:].any()
        return h

    def test_serve_and_paper_default_states_agree_with_the_full_width_sum(self, monkeypatch):
        for state in (_serve_like_state(), _paper_default_state()):
            h = self._check(monkeypatch, state, list(range(8)))
            assert h < len(state.g.grid) // 4

    def test_serve_like_checkpoint_keeps_its_pinned_bytes(self):
        state = deserialize_state(serialize_state(_serve_like_state()))
        assert len(state.g.grid) == 200
        reports = credible_intervals(state, range(8), 0.95)
        csv = EstimateReport.CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in reports) + "\n"
        assert csv == _SERVE_LIKE_CSV

    def test_band_is_the_whole_grid_on_dense_and_five_atom_grids(self, monkeypatch):
        rng = np.random.default_rng(5)
        dense = Grid(np.linspace(0.5, 8.0, 30))
        five = Grid([0.5, 2.0, 4.5, 8.0, 13.0])
        thetas = rng.choice(five.points, p=[0.15, 0.25, 0.25, 0.2, 0.15], size=5_000)
        states = [
            update_stream(init(dense, LearningRate(1.0, 0.9)), rng.poisson(3.0, 200)),
            update_stream(init(five, LearningRate(1.0, 0.75)), rng.poisson(thetas)),
        ]
        for state in states:
            assert self._check(monkeypatch, state, [0, 1, 2, 4, 8], rel=0) == len(state.g.grid)

    def test_zero_weights_and_an_explicit_truncation_point(self, monkeypatch):
        state = _serve_like_state(n=5_000)
        w = state.g.weights.copy()
        h = self._query(monkeypatch, state, list(range(8)))[1][-1][0]
        inside, beyond, short, far = w.copy(), w.copy(), w.copy(), w.copy()
        inside[[1, 3, h // 2]] = 0.0
        beyond[[h, h + 7]] = 0.0
        beyond[h + 20 :] = 0.0
        short[10:] = 0.0  # no weight past any band: nothing to bound
        far[:40] = 0.0  # nothing in the first bands: they widen until one has weight
        for weights in (inside, beyond, short, far):
            g = MixingWeights(state.g.grid, weights / weights.sum())
            zeroed = NewtonState(g, state.n, state.rate, state.cache)
            self._check(monkeypatch, zeroed, list(range(8)))
            for y_max in (5, 60):  # below the largest bumped count, and past it
                self._check(monkeypatch, zeroed, [0, 3, 7], y_max)

    def test_the_full_sum_reads_only_the_band_on_the_paper_default_state(self, monkeypatch):
        # d = 1e4, and only the first ~900 atoms carry a posterior term that
        # survives exp at any count up to the certified point (Z = 43)
        state = _paper_default_state()
        calls, shapes = [], []
        rows, mixture = inference.log_kernel_rows, inference.log_mixture
        monkeypatch.setattr(inference, "log_kernel_rows",
                            lambda grid, counts: calls.append(list(counts)) or rows(grid, counts))
        monkeypatch.setattr(inference, "log_mixture",
                            lambda log_rows, w: shapes.append(log_rows.shape) or mixture(log_rows, w))
        credible_intervals(state, range(8), 0.95)
        assert calls == [list(range(9))]  # the pairs' rows, the only full-width ones
        (pairs, width), (partial, partial_width), (summed, band_width) = shapes
        assert (pairs, width) == (9, 10_000)
        assert partial == 9 and partial_width < 1_000 and summed == 44
        live = oracles.posterior_table(state.g, 43)[1].any(axis=0)
        assert np.flatnonzero(live).max() < band_width < 1_000


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
    """The interval's half-width is the normal quantile times sqrt(V / b_n)."""

    @staticmethod
    def _quantiles(levels):
        grid = Grid(np.linspace(0.5, 8, 30))
        state = update_stream(init(grid, LearningRate(1.0, 0.9)), [3, 1, 4, 1, 5, 9, 2, 6])
        for level in levels:
            rep = credible_interval(state, 2, level)
            scale = math.sqrt(rep.variance / rep.b_n)
            yield level, (rep.ci_high - rep.theta_hat) / scale, (rep.theta_hat - rep.ci_low) / scale

    def test_against_scipy_inverse_cdf(self):
        for level, upper, _ in self._quantiles([1e-6, 0.5, 0.9, 0.95, 0.999999]):
            assert upper == pytest.approx(float(ndtri(0.5 + 0.5 * level)), rel=1e-9)

    def test_symmetry(self):
        for _, upper, lower in self._quantiles([0.5, 0.95]):
            assert upper == pytest.approx(lower, rel=1e-9)

    def test_range_validation(self):
        state = update_stream(init(Grid([1.0, 2.0]), LearningRate(1.0, 0.99)), [1])
        for level in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                credible_interval(state, 0, level)


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
        z = ndtri(0.975)
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
        with pytest.raises(TypeError):  # b_n needs the power schedule
            init(grid, rate=lambda n: 1.0 / n)

    def test_non_integer_counts_are_refused_not_truncated(self):
        state = self._state_after([1, 2, 3], Grid([1.0, 2.0]), LearningRate(1.0, 0.99))
        with pytest.raises(ValueError, match="integers"):
            credible_intervals(state, [1, 2.5], 0.9)
        assert credible_intervals(state, [2.0], 0.9) == credible_intervals(state, [2], 0.9)

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
    """Entry points name the grid kind instead of failing inside numpy."""

    @pytest.fixture
    def lattice_state(self):
        lattice = ProductGrid(Grid([1.0, 2.0, 3.0]), 2)
        return update_stream(init(lattice, LearningRate(1.0, 0.99)), [(1, 2), (0, 3)])

    def test_ratio_estimate(self, lattice_state):
        # a lattice takes count vectors; a scalar count has the wrong shape
        with pytest.raises(ValueError, match="ProductGrid"):
            ratio_estimate(lattice_state.g, 0)

    def test_credible_intervals(self, lattice_state):
        for ys in ([0], [(1, 2)]):
            with pytest.raises(ValueError, match="ProductGrid"):
                credible_intervals(lattice_state, ys, 0.9)
