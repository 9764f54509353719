"""Latent-rate prior families used for discretization and synthetic data.

A :class:`PriorSpec` bundles the pieces every consumer needs: a CDF (for
binned discretization), a density or atom list (for quadrature), a seedable
sampler, and the first two moments, from which the second moment of the
resulting count distribution follows as ``E[Y^2] = E[theta] + E[theta^2]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import erf, gammainc, gammaln, roots_legendre

FAMILIES = ("weibull", "uniform", "half-gaussian", "grid-atoms", "gamma")

# Gauss-Legendre node count for integrating the Poisson kernel against a
# continuous prior; the integrands are smooth so this is far more than enough.
QUADRATURE_NODES = 10_000


@lru_cache(maxsize=4)
def _legendre_nodes(n: int):
    return roots_legendre(n)


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """A prior on the positive half line, identified by family and parameters.

    Families:
      weibull(shape, scale) | uniform(lo, hi) | half-gaussian(sigma)
      gamma(shape, rate)    | grid-atoms(atoms..., probs...)
    """

    family: str
    params: tuple = ()
    atoms: np.ndarray | None = field(default=None)
    probs: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown prior family {self.family!r}")
        if self.family == "grid-atoms":
            atoms = np.asarray(self.atoms, dtype=float)
            probs = np.asarray(self.probs, dtype=float)
            if atoms.shape != probs.shape or atoms.ndim != 1 or atoms.size == 0:
                raise ValueError("atoms and probs must be matching nonempty vectors")
            if np.any(atoms <= 0):
                raise ValueError("atoms must be strictly positive")
            if np.any(np.diff(atoms) <= 0):
                raise ValueError("atoms must be strictly increasing")
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
                raise ValueError("probs must be a probability vector")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "probs", probs / probs.sum())
        else:
            p = tuple(float(v) for v in self.params)
            object.__setattr__(self, "params", p)
            if self.family == "weibull" and (len(p) != 2 or min(p) <= 0):
                raise ValueError("weibull needs positive (shape, scale)")
            if self.family == "uniform" and (len(p) != 2 or p[0] < 0 or p[1] <= p[0]):
                raise ValueError("uniform needs 0 <= lo < hi")
            if self.family == "half-gaussian":
                if len(p) == 0:
                    object.__setattr__(self, "params", (1.0,))
                elif len(p) != 1 or p[0] <= 0:
                    raise ValueError("half-gaussian needs positive sigma")
            if self.family == "gamma" and (len(p) != 2 or min(p) <= 0):
                raise ValueError("gamma needs positive (shape, rate)")

    # -- distribution functions -------------------------------------------

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "weibull":
            shape, scale = self.params
            out = np.where(x > 0, -np.expm1(-((np.maximum(x, 0) / scale) ** shape)), 0.0)
        elif self.family == "uniform":
            lo, hi = self.params
            out = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
        elif self.family == "half-gaussian":
            (sigma,) = self.params
            out = np.where(x > 0, erf(np.maximum(x, 0) / (sigma * math.sqrt(2))), 0.0)
        elif self.family == "gamma":
            shape, rate = self.params
            out = np.where(x > 0, gammainc(shape, rate * np.maximum(x, 0)), 0.0)
        else:
            out = (self.atoms <= x[..., None]) @ self.probs
        return float(out) if np.ndim(out) == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.family == "weibull":
            shape, scale = self.params
            z = np.maximum(x, 0) / scale
            out = np.where(x > 0, (shape / scale) * z ** (shape - 1) * np.exp(-(z**shape)), 0.0)
        elif self.family == "uniform":
            lo, hi = self.params
            out = np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
        elif self.family == "half-gaussian":
            (sigma,) = self.params
            out = np.where(
                x > 0,
                math.sqrt(2.0 / math.pi) / sigma * np.exp(-(x**2) / (2 * sigma**2)),
                0.0,
            )
        elif self.family == "gamma":
            from scipy.stats import gamma  # slow import, needed by this family only

            shape, rate = self.params
            out = gamma.pdf(x, shape, scale=1.0 / rate)
        else:
            raise ValueError("grid-atoms prior has no density")
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.family == "weibull":
            shape, scale = self.params
            return scale * rng.weibull(shape, size=n)
        if self.family == "uniform":
            lo, hi = self.params
            return rng.uniform(lo, hi, size=n)
        if self.family == "half-gaussian":
            (sigma,) = self.params
            return np.abs(rng.normal(0.0, sigma, size=n))
        if self.family == "gamma":
            shape, rate = self.params
            return rng.gamma(shape, 1.0 / rate, size=n)
        return rng.choice(self.atoms, size=n, p=self.probs)

    # -- moments and support -----------------------------------------------

    def mean(self) -> float:
        if self.family == "weibull":
            shape, scale = self.params
            return scale * math.gamma(1 + 1 / shape)
        if self.family == "uniform":
            lo, hi = self.params
            return (lo + hi) / 2
        if self.family == "half-gaussian":
            (sigma,) = self.params
            return sigma * math.sqrt(2 / math.pi)
        if self.family == "gamma":
            shape, rate = self.params
            return shape / rate
        return float(np.dot(self.atoms, self.probs))

    def second_moment(self) -> float:
        if self.family == "weibull":
            shape, scale = self.params
            return scale**2 * math.gamma(1 + 2 / shape)
        if self.family == "uniform":
            lo, hi = self.params
            return (hi**3 - lo**3) / (3 * (hi - lo))
        if self.family == "half-gaussian":
            (sigma,) = self.params
            return sigma**2
        if self.family == "gamma":
            shape, rate = self.params
            return shape * (shape + 1) / rate**2
        return float(np.dot(self.atoms**2, self.probs))

    def count_second_moment(self) -> float:
        """E[Y^2] for Y ~ Poisson(theta), theta ~ this prior."""
        return self.mean() + self.second_moment()

    def support_hi(self) -> float:
        """Upper integration limit leaving at most ~1e-16 of prior mass."""
        if self.family == "weibull":
            shape, scale = self.params
            return scale * (-math.log(1e-16)) ** (1 / shape)
        if self.family == "uniform":
            return self.params[1]
        if self.family == "half-gaussian":
            return 9.0 * self.params[0]
        if self.family == "gamma":
            from scipy.stats import gamma

            shape, rate = self.params
            return float(gamma.ppf(1 - 1e-16, shape, scale=1.0 / rate))
        return float(self.atoms[-1])

    # -- induced count distribution ----------------------------------------

    def count_pmf(self, ys, nodes: int = QUADRATURE_NODES) -> np.ndarray:
        """p(y) = integral of the Poisson kernel against the prior.

        Continuous families use Gauss-Legendre quadrature with ``nodes``
        points over [0, support_hi]; grid-atoms priors are summed exactly.
        """
        ys = np.asarray(ys, dtype=int)
        if self.family == "grid-atoms":
            theta, w = self.atoms, self.probs
        else:
            x, gw = _legendre_nodes(nodes)
            hi = self.support_hi()
            theta = 0.5 * hi * (x + 1.0)
            w = 0.5 * hi * gw * self.pdf(theta)
        log_k = (
            -theta[None, :]
            + ys[:, None] * np.log(theta[None, :])
            - gammaln(ys + 1.0)[:, None]
        )
        return np.exp(log_k) @ w


def weibull_prior(shape: float, scale: float) -> PriorSpec:
    return PriorSpec("weibull", (shape, scale))


def uniform_prior(lo: float, hi: float) -> PriorSpec:
    return PriorSpec("uniform", (lo, hi))


def half_gaussian_prior(sigma: float = 1.0) -> PriorSpec:
    return PriorSpec("half-gaussian", (sigma,))


def gamma_prior(shape: float, rate: float) -> PriorSpec:
    return PriorSpec("gamma", (shape, rate))


def grid_atoms_prior(atoms, probs) -> PriorSpec:
    return PriorSpec("grid-atoms", (), atoms=np.asarray(atoms, float), probs=np.asarray(probs, float))


def parse_prior(text: str) -> PriorSpec:
    """Parse CLI syntax like ``weibull:5,3`` or ``grid-atoms:0.5@0.2,2@0.8``."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "grid-atoms":
        atoms, probs = [], []
        for piece in arg.split(","):
            a, _, p = piece.partition("@")
            atoms.append(float(a))
            probs.append(float(p))
        return grid_atoms_prior(atoms, probs)
    params = tuple(float(v) for v in arg.split(",")) if arg else ()
    return PriorSpec(name, params)
