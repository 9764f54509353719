"""Streaming recursion for the mixing distribution, one observation at a time.

Each observation moves the current weight vector toward its one-observation
posterior by a step size from a decaying schedule:

    g_{n+1} = (1 - a_{n+1}) g_n + a_{n+1} * posterior(g_n, y)

An observation is a count on a :class:`Grid`, or a vector of k independent
counts on a :class:`ProductGrid` of D = d^k rate vectors, whose kernel row
is the outer product of k per-coordinate rows.  That row is the only step
that depends on the grid kind; the recursion is shared.

States are immutable; ``update`` returns a fresh state sharing the kernel
cache, so a held reference is already a consistent snapshot.  Updates are
strictly sequential (the recursion is order-dependent), and each one costs
O(d), or O(D) on a lattice, independent of how many observations came before.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas as _blas
from scipy.special import gammaincc

from .model import (
    DegenerateLikelihoodError,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    ProductGrid,
    posterior_table,
    scalar_grid,
)

_MAGIC = b"EBSTREAM"
_VERSION = 1
_HEADER = struct.Struct("<8sIIQQdd")
_MAX_KDIM = 64  # bounds d**kdim, so a forged header cannot ask for a huge power


class StateFormatError(ValueError):
    """Serialized state is malformed: bad magic, version, length, or checksum."""


@dataclass(frozen=True)
class LearningRate:
    """Power step-size schedule a_n = (alpha + n)^(-gamma).

    Requires alpha > 0 and gamma in (1/2, 1]: steps then lie in (0, 1),
    their sum diverges, and the sum of squares converges.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (1/2, 1]")

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("step index starts at 1")
        return (self.alpha + n) ** (-self.gamma)

    def steps(self, n_start: int, count: int) -> np.ndarray:
        """Vector of step sizes for observations n_start+1 .. n_start+count."""
        ks = np.arange(n_start + 1, n_start + count + 1, dtype=float)
        return (self.alpha + ks) ** (-self.gamma)


@dataclass(frozen=True, eq=False)
class NewtonState:
    """Weights after n observations, plus the schedule and kernel cache.

    The grid is a :class:`Grid` for scalar counts or a :class:`ProductGrid`
    for vectors of k independent counts; the cache is over ``grid.base``.
    The schedule must be a :class:`LearningRate`: the paper's guarantees,
    the interval's ``b_n`` and serialization all rest on the power form.
    """

    g: MixingWeights
    n: int
    rate: LearningRate
    cache: KernelMatrixCache

    def __post_init__(self):
        if not isinstance(self.rate, LearningRate):
            raise TypeError(f"the schedule must be a LearningRate, not {type(self.rate).__name__}")


def init(grid: Grid | ProductGrid, rate: LearningRate, g0: MixingWeights | None = None) -> NewtonState:
    """Fresh state at n=0; ``g0`` defaults to uniform on the grid."""
    if g0 is None:
        g0 = MixingWeights.uniform(grid)
    elif not g0.grid.same_points(grid):
        raise ValueError("initial weights are not supported on the given grid")
    return NewtonState(g=g0, n=0, rate=rate, cache=KernelMatrixCache(grid.base))


def _counts(grid: Grid | ProductGrid, ys) -> np.ndarray:
    """Validated counts: shape (n,) on a Grid, (n, k) on a ProductGrid."""
    ys = np.asarray(ys, dtype=np.int64)
    row = (grid.k,) if isinstance(grid, ProductGrid) else ()
    if ys.ndim == 0 or ys.shape[1:] != row:
        raise ValueError(f"expected observations of shape {row}, got an array of shape {ys.shape}")
    if ys.min() < 0:
        raise ValueError("counts must be nonnegative")
    return ys


def update(state: NewtonState, y) -> NewtonState:
    """Consume one observation; returns the state after observation n+1.

    ``y`` is a count on a Grid and a vector of k counts on a ProductGrid.
    Raises DegenerateLikelihoodError, leaving the state unchanged, when the
    mixture likelihood of ``y`` underflows.
    """
    grid = state.g.grid
    if isinstance(grid, ProductGrid):
        y = tuple(_counts(grid, [y])[0].tolist())
        scaled = _LatticeRows(grid, state.cache.scaled_table(max(y)))[y]
    else:
        y = int(y)
        _, scaled = state.cache.scaled_row(y)
    w = state.g.weights
    q = scaled * w
    total = q.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateLikelihoodError(y, state.n)
    a = state.rate(state.n + 1)
    new_w = (1.0 - a) * w + (a / total) * q
    new_w /= new_w.sum()
    return NewtonState(
        g=MixingWeights(grid, new_w),
        n=state.n + 1,
        rate=state.rate,
        cache=state.cache,
    )


def _aligned_empty(size: int) -> np.ndarray:
    """Uninitialized float64 vector whose first element is 64-byte aligned.

    OpenBLAS's ``dasum`` can return a different last bit for the same values
    at a different offset within a 64-byte line, and malloc places a vector
    at whatever offset its heap's history gives.  Keeping the loop's buffers
    at one fixed offset makes the recursion independent of that history.
    """
    raw = np.empty(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size]


class _LatticeRows:
    """Scaled kernel rows of a ProductGrid, indexed by count vector.

    Row ``yvec`` is the flattened outer product of the per-coordinate rows
    ``scaled[y_1], ..., scaled[y_k]``, written into one aligned scratch
    buffer that every lookup overwrites.  Indexing mirrors ``scaled[y]`` on
    a Grid, so the recursion reads rows the same way for both grid kinds.
    """

    def __init__(self, grid: ProductGrid, scaled: np.ndarray):
        self.scaled = scaled
        self.row = _aligned_empty(len(grid))
        self.last = self.row.reshape(-1, len(grid.base))  # (d^(k-1), d)

    def __getitem__(self, yvec) -> np.ndarray:
        scaled = self.scaled
        prefix = scaled[yvec[0]] if len(yvec) > 1 else np.ones(1)
        for y in yvec[1:-1]:
            prefix = np.multiply.outer(prefix, scaled[y]).ravel()
        np.multiply(prefix[:, None], scaled[yvec[-1]], out=self.last)
        return self.row


def update_stream(
    state: NewtonState,
    ys,
    snapshot_every: int | None = None,
    on_snapshot: Callable[[NewtonState], None] | None = None,
    skip_degenerate: bool = False,
) -> NewtonState:
    """Fold the one-observation update over a sequence, with a low-overhead loop.

    ``ys`` holds counts on a Grid and rows of k counts on a ProductGrid.
    Semantically a repeated ``update`` (same arithmetic via BLAS, so results
    agree to rounding); the loop mutates a private scratch copy of the
    weights, and the caller's state is untouched if anything raises.
    Results are bit-reproducible: identical inputs give bit-identical
    weights, wherever the allocator places the caller's arrays.  The
    first degenerate observation aborts with its stream index attached to
    the raised error; with ``skip_degenerate`` set, offending observations
    are skipped instead (this biases the fit and is opt-in for that
    reason).  When ``snapshot_every`` is set, ``on_snapshot`` receives an
    immutable state snapshot every that many observations.
    """
    if len(ys) == 0:
        return state
    grid = state.g.grid
    ys = _counts(grid, ys)
    cache = state.cache
    rows = cache.scaled_table(int(ys.max()))
    if isinstance(grid, ProductGrid):  # the one grid-dependent step: rows[y]
        rows = _LatticeRows(grid, rows)
    w = _aligned_empty(len(state.g.weights))
    w[:] = state.g.weights
    q = _aligned_empty(len(w))
    rate = state.rate
    n = n0 = state.n
    steps = rate.steps(n, len(ys)).tolist()  # indexed by successful updates, not stream position
    y_list = ys.tolist()
    mul, dasum, dscal, daxpy = np.multiply, _blas.dasum, _blas.dscal, _blas.daxpy
    for i, y in enumerate(y_list):
        mul(rows[y], w, q)
        total = dasum(q)
        if not total > 0.0:  # catches underflow to zero (and NaN, defensively)
            if skip_degenerate:
                continue
            err = DegenerateLikelihoodError(y if ys.ndim == 1 else tuple(y), n)
            err.stream_index = i
            raise err
        a = steps[n - n0]
        dscal(1.0 - a, w)
        daxpy(q, w, a=a / total)
        dscal(1.0 / dasum(w), w)
        n += 1
        if snapshot_every and n % snapshot_every == 0 and on_snapshot:
            on_snapshot(NewtonState(MixingWeights(grid, w.copy()), n, rate, cache))
    return NewtonState(g=MixingWeights(grid, w), n=n, rate=rate, cache=cache)


def martingale_residual(state: NewtonState, y_max: int) -> float:
    """How far the next update is from mean-preserving, per atom.

    Averages the actual one-step update over counts y <= y_max drawn from
    the current predictive pmf, adds the analytically known contribution of
    the truncated tail, and returns the largest absolute gap to the current
    weights.  Zero up to truncation and rounding.
    """
    g = state.g
    w = g.weights
    pts = scalar_grid(g).points
    a = state.rate(state.n + 1)
    p, post = posterior_table(g, y_max, state.cache)    # (y_max+1, d)
    stepped = (1.0 - a) * w[None, :] + a * post         # update applied at each y
    expected = (p[:, None] * stepped).sum(axis=0)
    # Poisson tail beyond y_max, exact: P(Y > y_max | theta_j)
    tail_k = 1.0 - gammaincc(y_max + 1.0, pts)
    tail_p = float(np.dot(w, tail_k))
    expected += (1.0 - a) * w * tail_p + a * w * tail_k
    return float(np.max(np.abs(expected - w)))


# -- serialization ----------------------------------------------------------
#
# Layout (little endian):
#   magic 8s | version u32 | kdim u32 | d u64 | n u64 | alpha f64 | gamma f64
#   | base grid f64[d] | weights f64[d^kdim] | crc32 u32 of everything above
# A scalar state has kdim = 1; a lattice state has kdim = k.


def serialize_state(state: NewtonState) -> bytes:
    rate, grid = state.rate, state.g.grid
    head = _HEADER.pack(_MAGIC, _VERSION, grid.k, len(grid.base), state.n, rate.alpha, rate.gamma)
    body = head + grid.base.points.tobytes() + state.g.weights.tobytes()
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize_state(blob: bytes) -> NewtonState:
    """Inverse of ``serialize_state``; kdim = 1 gives a Grid, else a ProductGrid."""
    if len(blob) < _HEADER.size + 4:
        raise StateFormatError("truncated state blob")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise StateFormatError("checksum mismatch")
    magic, version, kdim, d, n, alpha, gamma = _HEADER.unpack(body[: _HEADER.size])
    if magic != _MAGIC:
        raise StateFormatError("bad magic")
    if version != _VERSION:
        raise StateFormatError(f"unsupported state version {version}")
    if not 1 <= kdim <= _MAX_KDIM:
        raise StateFormatError(f"unsupported dimension kdim={kdim}")
    if len(body) != _HEADER.size + 8 * d + 8 * d**kdim:
        raise StateFormatError("state blob has wrong length")
    pts = np.frombuffer(body, dtype="<f8", count=d, offset=_HEADER.size)
    w = np.frombuffer(body, dtype="<f8", count=d**kdim, offset=_HEADER.size + 8 * d)
    base = Grid(pts)
    grid = base if kdim == 1 else ProductGrid(base, kdim)
    rate = LearningRate(alpha, gamma)
    return NewtonState(g=MixingWeights(grid, w), n=n, rate=rate, cache=KernelMatrixCache(base))
