"""Latent-rate prior families for synthetic data.

A :class:`PriorSpec` names a family and its parameters, validates them, and
draws seeded samples with numpy's generators.  Its distribution functions,
moments and induced count pmf live with the tests that need them
(``tests/oracles.py``, on scipy.stats).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("weibull", "uniform", "half-gaussian", "grid-atoms", "gamma")

# A number on the command line or in a file: an ASCII decimal float, so ``1_0``,
# ``٣`` and ``３`` are refused; the non-finite spellings parse, for the reader to judge.
_DECIMAL = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE
)


def _decimal(text: str) -> float:
    """``float(text)`` for a ``_DECIMAL`` once the blanks around it are stripped."""
    if not _DECIMAL.fullmatch(text.strip()):
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


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


def grid_atoms_prior(atoms, probs) -> PriorSpec:
    return PriorSpec("grid-atoms", (), atoms=np.asarray(atoms, float), probs=np.asarray(probs, float))


def parse_prior(text: str) -> PriorSpec:
    """Parse CLI syntax like ``weibull:5,3`` or ``grid-atoms:0.5@0.2,2@0.8``.

    Every number is a ``_DECIMAL``; anything else raises ValueError.
    """
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    if name == "grid-atoms":
        atoms, probs = [], []
        for piece in arg.split(","):
            a, _, p = piece.partition("@")
            atoms.append(_decimal(a))
            probs.append(_decimal(p))
        return grid_atoms_prior(atoms, probs)
    params = tuple(_decimal(v) for v in arg.split(",")) if arg else ()
    return PriorSpec(name, params)
