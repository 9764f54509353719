"""Checks of the test oracles themselves, against independent references."""

import pytest
from scipy import integrate
from scipy.stats import halfnorm, poisson, uniform, weibull_min

from . import oracles


@pytest.mark.parametrize(
    "prior", [weibull_min(5, scale=3), uniform(0, 3), halfnorm(scale=1.0)], ids=lambda p: p.dist.name
)
def test_count_pmf_matches_adaptive_quadrature(prior):
    # the discretization-bound gate's three priors, integrated over the whole support
    lo, hi = prior.support()
    ys = [0, 3, 10, 30]
    for y, got in zip(ys, oracles.count_pmf(prior, ys)):
        exact, _ = integrate.quad(
            lambda t: poisson.pmf(y, t) * prior.pdf(t), lo, hi, epsabs=0.0, epsrel=2e-14, limit=500
        )
        assert got == pytest.approx(exact, rel=1e-9, abs=0.0), y
