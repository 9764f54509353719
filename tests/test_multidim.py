import math

import numpy as np
import pytest

from streameb import engine, inference, multidim
from streameb.engine import (
    LearningRate,
    deserialize_state,
    init,
    serialize_state,
    update,
    update_stream,
)
from streameb.inference import asymptotic_variance, default_y_max, ratio_estimate
from streameb.model import (
    DegenerateLikelihoodError,
    Grid,
    MixingWeights,
    ProductGrid,
    log_kernel_rows,
    log_mixture_pmf,
    mixture_pmf,
)

from . import oracles


class TestProductGrid:
    def test_size_and_cap(self):
        base = Grid([1.0, 2.0, 3.0])
        assert ProductGrid(base, 2).size == 9
        with pytest.raises(ValueError):
            ProductGrid(base, 14)  # 3^14 > 1e6
        with pytest.raises(ValueError):
            ProductGrid(base, 0)

    def test_shared_grid_surface(self):
        base = Grid([1.0, 2.0, 3.0])
        pg = ProductGrid(base, 2)
        assert (len(pg), pg.k, pg.base) == (9, 2, base)
        assert (len(base), base.k, base.base) == (3, 1, base)
        assert pg.same_points(ProductGrid(Grid([1.0, 2.0, 3.0]), 2))
        assert not pg.same_points(ProductGrid(base, 3))
        assert not pg.same_points(base) and not base.same_points(pg)

    def test_index_tuple_bijection(self):
        base = Grid([1.0, 2.0, 3.0])
        pg = ProductGrid(base, 3)
        seen = set()
        for i in range(pg.size):
            tup = oracles.index_to_tuple(pg, i)
            seen.add(tup)
            digits = [list(base.points).index(t) for t in tup]
            assert oracles.tuple_to_index(pg, digits) == i
        assert len(seen) == pg.size

    def test_coordinate_columns_agree_with_tuples(self):
        base = Grid([0.5, 2.0])
        pg = ProductGrid(base, 3)
        cols = oracles.coordinate_columns(pg)
        for i in range(pg.size):
            assert tuple(cols[:, i]) == oracles.index_to_tuple(pg, i)

    def test_benchmark_names_are_the_engine_objects(self):
        assert multidim.ProductGrid is ProductGrid
        assert multidim.multi_init is engine.init
        assert multidim.multi_update_stream is engine.update_stream


class TestMultiKernel:
    def test_reduces_to_scalar_kernel(self):
        library = float(log_kernel_rows(Grid([2.0]), [3])[0, 0])
        assert oracles.multi_log_kernel((3,), (2.0,)) == pytest.approx(library, rel=1e-15)

    def test_two_dim_hand_value(self):
        assert oracles.multi_log_kernel((0, 0), (1.0, 1.0)) == pytest.approx(-2.0, abs=1e-14)

    def test_three_dim_matches_product_of_scalars(self, rng):
        for _ in range(10):
            yv = tuple(int(v) for v in rng.integers(0, 12, size=3))
            th = tuple(float(v) for v in rng.uniform(0.2, 9.0, size=3))
            direct = sum(math.log(oracles.poisson_pmf(y, t)) for y, t in zip(yv, th))
            assert oracles.multi_log_kernel(yv, th) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.multi_log_kernel((1, 2), (1.0,))


class TestMultiUpdate:
    def test_k1_trajectory_is_bitwise_identical_to_scalar(self, rng):
        base = Grid(np.linspace(0.4, 9.0, 25))
        rate = LearningRate(1.0, 0.99)
        mstate = init(ProductGrid(base, 1), rate)
        sstate = init(base, rate)
        for y in rng.poisson(3.0, 1000):
            mstate = update(mstate, (int(y),))
            sstate = update(sstate, int(y))
        assert mstate.n == sstate.n == 1000
        assert np.array_equal(mstate.g.weights, sstate.g.weights)

    def test_point_mass_is_a_fixed_point(self):
        base = Grid([2.0, 5.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[oracles.tuple_to_index(pg, [0, 1])] = 1.0  # the rate vector (2, 5)
        state = init(pg, LearningRate(1.0, 0.99), MixingWeights(pg, w))
        for yv in [(0, 0), (3, 4), (1, 9)]:
            state = update(state, yv)
            assert state.g.weights[oracles.tuple_to_index(pg, [0, 1])] == 1.0

    def test_step_from_factorized_weights_uses_the_product_row(self, rng):
        # From product weights w1 x w2 the lattice posterior of (y1, y2) is the
        # product of the coordinate posteriors exactly when the lattice row is
        # the product of the coordinate rows, so one scheduled step must be
        # (1-a) w + a outer(post1, post2).
        base = Grid([0.5, 2.0, 6.0])
        pg = ProductGrid(base, 2)
        rate = LearningRate(1.0, 0.9)
        for _ in range(20):
            w1, w2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            state = init(pg, rate, MixingWeights(pg, np.outer(w1, w2).ravel()))
            y1, y2 = int(rng.poisson(2.0)), int(rng.poisson(4.0))
            post = np.outer(
                oracles.direct_posterior_weights(base.points, w1, y1),
                oracles.direct_posterior_weights(base.points, w2, y2),
            ).ravel()
            a = rate(1)
            expected = (1.0 - a) * state.g.weights + a * post
            assert np.max(np.abs(update(state, (y1, y2)).g.weights - expected)) < 1e-14

    def test_degenerate_count_vector_raises(self):
        base = Grid([0.5, 30000.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[0] = 1.0  # all mass at (0.5, 0.5)
        state = init(pg, LearningRate(1.0, 0.99), MixingWeights(pg, w))
        with pytest.raises(DegenerateLikelihoodError):
            update(state, (30000, 30000))

    def test_stream_reports_the_failing_index(self):
        base = Grid([0.5, 30000.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[0] = 1.0
        state = init(pg, LearningRate(1.0, 0.99), MixingWeights(pg, w))
        with pytest.raises(DegenerateLikelihoodError) as err:
            update_stream(state, [(0, 0), (30000, 30000)])
        assert err.value.stream_index == 1
        assert err.value.y == (30000, 30000)

    def test_malformed_count_vectors_are_rejected(self):
        state = init(ProductGrid(Grid([1.0, 2.0]), 2), LearningRate(1.0, 0.99))
        for bad in ([(1, 2, 3)], [1, 2], [(1, -1)]):
            with pytest.raises(ValueError):
                update_stream(state, bad)
        for bad in ((1,), (0, -2)):
            with pytest.raises(ValueError):
                update(state, bad)
        assert update_stream(state, []) is state


class TestMultiEstimate:
    def test_point_mass_returns_its_atoms(self):
        base = Grid([2.0, 5.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[oracles.tuple_to_index(pg, [0, 1])] = 1.0
        g = MixingWeights(pg, w)
        for yv in [(0, 0), (4, 2)]:
            assert ratio_estimate(g, yv) == pytest.approx([2.0, 5.0], rel=1e-10)

    def test_factorized_weights_reduce_to_scalar_estimates(self, rng):
        base = Grid([0.5, 1.5, 3.0, 6.0])
        pg = ProductGrid(base, 2)
        w1 = rng.dirichlet(np.ones(4))
        w2 = rng.dirichlet(np.ones(4))
        g = MixingWeights(pg, np.outer(w1, w2).ravel())
        m1 = MixingWeights(base, w1)
        m2 = MixingWeights(base, w2)
        for yv in [(0, 0), (2, 5), (7, 1)]:
            assert ratio_estimate(g, yv) == pytest.approx(
                [ratio_estimate(m1, yv[0]), ratio_estimate(m2, yv[1])], rel=1e-8
            )

    def test_ratio_form_equals_conditional_mean(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        w = rng.dirichlet(np.ones(pg.size))
        g = MixingWeights(pg, w)
        yv = (1, 3)
        cols = oracles.coordinate_columns(pg)
        k_vals = np.array(
            [
                math.exp(oracles.multi_log_kernel(yv, oracles.index_to_tuple(pg, i)))
                for i in range(pg.size)
            ]
        )
        post = k_vals * w / (k_vals * w).sum()
        assert ratio_estimate(g, yv) == pytest.approx(cols @ post, rel=1e-10)

    def test_estimates_stay_inside_the_base_grid(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        g = MixingWeights(pg, rng.dirichlet(np.ones(pg.size)))
        for yv in [(0, 0), (3, 8), (12, 1)]:
            assert np.all((base.lo <= ratio_estimate(g, yv)) & (ratio_estimate(g, yv) <= base.hi))

    def test_coordinates_have_the_bits_of_single_count_ratios(self, rng):
        # all k coordinates come from one block of kernel rows, each with the
        # bits of its own (y_j + 1) p(y + e_j) / p(y) from single-count pmfs
        for base, k, yvs in [
            (Grid([0.5, 1.5, 3.0, 6.0]), 2, [(0, 0), (2, 5), (7, 1)]),
            (Grid(np.linspace(0.3, 3.0, 8)), 3, [(0, 2, 1), (4, 0, 3)]),
        ]:
            pg = ProductGrid(base, k)
            g = MixingWeights(pg, rng.dirichlet(np.ones(pg.size)))
            for yv in yvs:
                log_p = log_mixture_pmf(g, yv)
                bumped = np.add(yv, np.eye(k, dtype=int))  # row j is y + e_j
                single = [(yv[j] + 1) * np.exp(log_mixture_pmf(g, bumped[j]) - log_p) for j in range(k)]
                assert ratio_estimate(g, yv).tolist() == single

    def test_malformed_and_non_integer_count_vectors_are_refused(self):
        g = MixingWeights(ProductGrid(Grid([1.0, 2.0]), 2), np.full(4, 0.25))
        for bad in ((1,), (1, 2, 3), (0, -1), 3):
            with pytest.raises(ValueError):
                ratio_estimate(g, bad)
        for bad in ((1, 2.5), (0.5, 0)):
            with pytest.raises(ValueError, match="integers"):
                mixture_pmf(g, bad)
        assert mixture_pmf(g, (1.0, 2.0)) == mixture_pmf(g, (1, 2))


class TestMultiVariance:
    def test_k1_diagonal_matches_scalar_variance(self, rng):
        base = Grid([0.5, 2.0, 4.0, 7.0])
        pg = ProductGrid(base, 1)
        w = rng.dirichlet(np.ones(4))
        g = MixingWeights(pg, w)
        scalar = asymptotic_variance(MixingWeights(base, w), 2, 120)
        lattice = asymptotic_variance(g, (2,), 120)
        assert lattice.shape == (1, 1)
        assert lattice[0, 0] == pytest.approx(scalar, rel=1e-10)

    def test_point_mass_gives_zero_matrix(self):
        base = Grid([2.0, 5.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[1] = 1.0
        cov = asymptotic_variance(MixingWeights(pg, w), (1, 1), 60)
        assert np.max(np.abs(cov)) < 1e-25

    def test_matches_brute_force_lattice_sum(self, rng):
        base = Grid([0.6, 1.8, 3.2])
        pg = ProductGrid(base, 2)
        w = rng.dirichlet(np.ones(9))
        g = MixingWeights(pg, w)
        yv = (1, 2)
        y_max = 40
        tuples = [oracles.index_to_tuple(pg, i) for i in range(9)]
        p_y = mixture_pmf(g, yv)
        brute = np.zeros((2, 2))
        contrasts = np.zeros((2, 9))
        theta_hat = np.zeros(2)
        for j in range(2):
            bumped = tuple(y + (1 if jj == j else 0) for jj, y in enumerate(yv))
            p_up = mixture_pmf(g, bumped)
            theta_hat[j] = (yv[j] + 1) * p_up / p_y
            for i, th in enumerate(tuples):
                k_up = math.exp(oracles.multi_log_kernel(bumped, th))
                k_y = math.exp(oracles.multi_log_kernel(yv, th))
                contrasts[j, i] = k_up / p_up - k_y / p_y
        for z1 in range(y_max + 1):
            for z2 in range(y_max + 1):
                zv = (z1, z2)
                p_z = mixture_pmf(g, zv)
                if p_z <= 0:
                    continue
                post = np.array(
                    [math.exp(oracles.multi_log_kernel(zv, th)) * wi for th, wi in zip(tuples, w)]
                )
                post /= post.sum()
                b = contrasts @ post
                brute += p_z * np.outer(b, b)
        brute *= np.outer(theta_hat, theta_hat)
        got = asymptotic_variance(g, yv, y_max)
        assert np.max(np.abs(got - brute)) < 1e-8

    def test_symmetric_positive_semidefinite(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        g = MixingWeights(pg, rng.dirichlet(np.ones(9)))
        cov = asymptotic_variance(g, (1, 1), 60)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-9

    def test_certified_truncation_matches_the_capped_sum(self, rng, monkeypatch):
        # k = 2 at D = 10^4, the largest lattice the covariance accepts, and
        # k = 3; the certified sum visits a small corner of the capped box
        built = []
        rows = inference.log_kernel_rows
        monkeypatch.setattr(inference, "log_kernel_rows",
                            lambda grid, counts, cache=None: built.append(len(counts))
                            or rows(grid, counts, cache))
        for base, k, yv in [
            (Grid(np.linspace(0.2, 12.0, 100)), 2, (3, 5)),
            (Grid(np.linspace(0.3, 3.0, 8)), 3, (0, 2, 1)),
        ]:
            pg = ProductGrid(base, k)
            g = MixingWeights(pg, rng.dirichlet(np.ones(pg.size)))
            built.clear()
            certified = asymptotic_variance(g, yv)
            visited = sum(built)
            built.clear()
            capped = asymptotic_variance(g, yv, default_y_max(base))
            assert visited < sum(built) / 3
            assert np.all(np.linalg.eigvalsh(certified) > 0)
            assert np.max(np.abs(certified - capped) / np.abs(capped)) < 1e-12

    def test_values_of_the_former_lattice_entry_points(self):
        # multidim.multi_estimate and multi_asymptotic_variance returned these
        # for the same weights before the lattice joined the scalar surface
        pg = ProductGrid(Grid([0.5, 1.5, 3.0, 6.0]), 2)
        w = np.arange(1.0, 17.0)
        g = MixingWeights(pg, w / w.sum())
        assert ratio_estimate(g, (2, 5)).tolist() == [2.7376319866634424, 4.772683250486619]
        expected = [[1.0494293168916728, -0.1654718102640056], [-0.1654718102640056, 1.252427314843912]]
        assert asymptotic_variance(g, (2, 5)) == pytest.approx(np.array(expected), rel=1e-13)

    def test_lattices_above_the_covariance_cap_are_refused(self):
        pg = ProductGrid(Grid(np.linspace(0.2, 12.0, 101)), 2)  # D = 10,201
        with pytest.raises(ValueError, match="refused"):
            asymptotic_variance(MixingWeights(pg, np.full(pg.size, 1 / pg.size)), (1, 1))


class TestMultiSerialization:
    def test_round_trip(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        state = update_stream(init(pg, LearningRate(1.0, 0.9)), rng.integers(0, 8, size=(20, 2)))
        back = deserialize_state(serialize_state(state))
        assert back.n == 20
        assert back.g.grid.same_points(pg)
        assert np.array_equal(back.g.weights, state.g.weights)
        assert (back.rate.alpha, back.rate.gamma) == (1.0, 0.9)
