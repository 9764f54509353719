import math

import numpy as np
import pytest

from streameb import engine, multidim
from streameb.engine import (
    LearningRate,
    deserialize_state,
    init,
    serialize_state,
    update,
    update_stream,
)
from streameb.inference import asymptotic_variance
from streameb.model import DegenerateLikelihoodError, Grid, MixingWeights, ProductGrid
from streameb.multidim import multi_asymptotic_variance, multi_estimate, multi_mixture_pmf

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
        from streameb.model import log_poisson_kernel

        assert oracles.multi_log_kernel((3,), (2.0,)) == log_poisson_kernel(3, 2.0)

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

    def test_unit_step_preserves_factorized_weights(self, rng):
        # A pure posterior step (unit step size) maps a product of marginals
        # to the product of the coordinate posteriors.  Note the blended
        # update does not share this property: a convex combination of two
        # product measures is not a product measure.
        base = Grid([0.5, 2.0, 6.0])
        pg = ProductGrid(base, 2)
        rate = LearningRate(1.0, 0.9)
        mstate = init(pg, rate)
        s1 = init(base, rate)
        s2 = init(base, rate)
        for _ in range(40):
            y1, y2 = int(rng.poisson(2.0)), int(rng.poisson(4.0))
            mstate = update(mstate, (y1, y2), step_size=1.0)
            s1 = update(s1, y1, step_size=1.0)
            s2 = update(s2, y2, step_size=1.0)
        tensor = np.outer(s1.g.weights, s2.g.weights).ravel()
        assert np.max(np.abs(mstate.g.weights - tensor)) < 1e-10

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
            assert multi_estimate(g, yv, 0) == pytest.approx(2.0, rel=1e-10)
            assert multi_estimate(g, yv, 1) == pytest.approx(5.0, rel=1e-10)

    def test_factorized_weights_reduce_to_scalar_estimates(self, rng):
        from streameb.inference import ratio_estimate

        base = Grid([0.5, 1.5, 3.0, 6.0])
        pg = ProductGrid(base, 2)
        w1 = rng.dirichlet(np.ones(4))
        w2 = rng.dirichlet(np.ones(4))
        g = MixingWeights(pg, np.outer(w1, w2).ravel())
        m1 = MixingWeights(base, w1)
        m2 = MixingWeights(base, w2)
        for yv in [(0, 0), (2, 5), (7, 1)]:
            assert multi_estimate(g, yv, 0) == pytest.approx(
                ratio_estimate(m1, yv[0]), rel=1e-8
            )
            assert multi_estimate(g, yv, 1) == pytest.approx(
                ratio_estimate(m2, yv[1]), rel=1e-8
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
        for j in range(2):
            assert multi_estimate(g, yv, j) == pytest.approx(
                float(cols[j] @ post), rel=1e-10
            )

    def test_estimates_stay_inside_the_base_grid(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        g = MixingWeights(pg, rng.dirichlet(np.ones(pg.size)))
        for yv in [(0, 0), (3, 8), (12, 1)]:
            for j in range(2):
                assert base.lo <= multi_estimate(g, yv, j) <= base.hi


class TestMultiVariance:
    def test_k1_diagonal_matches_scalar_variance(self, rng):
        base = Grid([0.5, 2.0, 4.0, 7.0])
        pg = ProductGrid(base, 1)
        w = rng.dirichlet(np.ones(4))
        g = MixingWeights(pg, w)
        scalar = asymptotic_variance(MixingWeights(base, w), 2, 120)
        lattice = multi_asymptotic_variance(g, (2,), 120)
        assert lattice.shape == (1, 1)
        assert lattice[0, 0] == pytest.approx(scalar, rel=1e-10)

    def test_point_mass_gives_zero_matrix(self):
        base = Grid([2.0, 5.0])
        pg = ProductGrid(base, 2)
        w = np.zeros(4)
        w[1] = 1.0
        cov = multi_asymptotic_variance(MixingWeights(pg, w), (1, 1), 60)
        assert np.max(np.abs(cov)) < 1e-25

    def test_matches_brute_force_lattice_sum(self, rng):
        base = Grid([0.6, 1.8, 3.2])
        pg = ProductGrid(base, 2)
        w = rng.dirichlet(np.ones(9))
        g = MixingWeights(pg, w)
        yv = (1, 2)
        y_max = 40
        tuples = [oracles.index_to_tuple(pg, i) for i in range(9)]
        p_y = multi_mixture_pmf(g, yv)
        brute = np.zeros((2, 2))
        contrasts = np.zeros((2, 9))
        theta_hat = np.zeros(2)
        for j in range(2):
            bumped = tuple(y + (1 if jj == j else 0) for jj, y in enumerate(yv))
            p_up = multi_mixture_pmf(g, bumped)
            theta_hat[j] = (yv[j] + 1) * p_up / p_y
            for i, th in enumerate(tuples):
                k_up = math.exp(oracles.multi_log_kernel(bumped, th))
                k_y = math.exp(oracles.multi_log_kernel(yv, th))
                contrasts[j, i] = k_up / p_up - k_y / p_y
        for z1 in range(y_max + 1):
            for z2 in range(y_max + 1):
                zv = (z1, z2)
                p_z = multi_mixture_pmf(g, zv)
                if p_z <= 0:
                    continue
                post = np.array(
                    [math.exp(oracles.multi_log_kernel(zv, th)) * wi for th, wi in zip(tuples, w)]
                )
                post /= post.sum()
                b = contrasts @ post
                brute += p_z * np.outer(b, b)
        brute *= np.outer(theta_hat, theta_hat)
        got = multi_asymptotic_variance(g, yv, y_max)
        assert np.max(np.abs(got - brute)) < 1e-8

    def test_symmetric_positive_semidefinite(self, rng):
        base = Grid([0.5, 2.0, 4.0])
        pg = ProductGrid(base, 2)
        g = MixingWeights(pg, rng.dirichlet(np.ones(9)))
        cov = multi_asymptotic_variance(g, (1, 1), 60)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


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
