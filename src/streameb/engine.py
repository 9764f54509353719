"""Streaming recursion for the mixing distribution, one observation at a time.

Each observation moves the current weight vector toward its one-observation
posterior by a step size from a decaying schedule:

    g_{n+1} = (1 - a_{n+1}) g_n + a_{n+1} * posterior(g_n, y)

An observation is a count on a :class:`Grid`, or a vector of k independent
counts on a :class:`ProductGrid` of D = d^k rate vectors, whose kernel row
is the outer product of k per-coordinate rows.  That row is the only step
that depends on the grid kind; the recursion is shared.  It has two loop
bodies with the same arithmetic: ``_fold`` (BLAS level-1 calls on one
weight vector) behind ``update`` and ``update_stream``, and
``_fold_lockstep`` (numpy calls on a weight matrix) behind
``evaluation.batched_newton_stream``.

States are immutable; ``update`` returns a fresh state sharing the kernel
cache, so a held reference is already a consistent snapshot.  Updates are
strictly sequential (the recursion is order-dependent), and each one costs
O(d), or O(D) on a lattice, independent of how many observations came before.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas as _blas

from .model import (
    DegenerateLikelihoodError,
    Grid,
    KernelMatrixCache,
    MixingWeights,
    ProductGrid,
    _counts,
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
    their sum diverges, and the sum of squares converges.  An alpha so small
    that the first step rounds to 1 is rejected too.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (1/2, 1]")
        if not self(1) < 1.0:
            raise ValueError(f"alpha={self.alpha!r} is so small that the first step rounds to 1")

    def __call__(self, n: int) -> float:
        if n < 1:
            raise ValueError("step index starts at 1")
        return (self.alpha + n) ** (-self.gamma)


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


def update(state: NewtonState, y) -> NewtonState:
    """Consume one observation; returns the state after observation n+1.

    ``y`` is a count on a Grid and a vector of k counts on a ProductGrid;
    a count that is not an integer raises ValueError.  Raises
    DegenerateLikelihoodError, leaving the state unchanged, when the
    mixture likelihood of ``y`` underflows.
    """
    if isinstance(state.g.grid, ProductGrid):
        y = tuple(_counts(state.g.grid, [y])[0].tolist())
        return _fold(state, [y], max(y))
    count = int(y)  # not _counts: no array round trip on the single-count write path
    if count != y or count < 0:
        raise ValueError(f"counts must be nonnegative integers, got {y!r}")
    return _fold(state, [count], count)


def update_stream(
    state: NewtonState,
    ys,
    snapshot_every: int | None = None,
    on_snapshot: Callable[[NewtonState], None] | None = None,
    skip_degenerate: bool = False,
) -> NewtonState:
    """Fold the one-observation update over a sequence, with a low-overhead loop.

    ``ys`` holds counts on a Grid and rows of k counts on a ProductGrid.
    Semantically a repeated ``update``: the weights agree with folded
    ``update`` calls within 1e-13 on a scalar grid and 1e-12 on a lattice
    (the loop normalizes less often, see ``_fold``).  The caller's state is
    untouched if anything raises.  Results are bit-reproducible: identical
    inputs give bit-identical weights, wherever the allocator places the
    caller's arrays.  The first degenerate observation aborts with its
    stream index attached to the raised error; with ``skip_degenerate``
    set, offending observations are skipped instead (this biases the fit
    and is opt-in for that reason).  When ``snapshot_every`` is set,
    ``on_snapshot`` receives an immutable state snapshot every that many
    observations.
    """
    if len(ys) == 0:
        return state
    ys = _counts(state.g.grid, ys)
    return _fold(state, ys.tolist(), int(ys.max()), snapshot_every, on_snapshot, skip_degenerate)


# The scaled weights are folded back to the simplex when S passes this.
_RESCALE_AT = 1e100


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
    ``scaled[y_1], ..., scaled[y_k]``, written into the scratch vector
    ``row`` that every lookup overwrites.  Indexing mirrors ``scaled[y]`` on
    a Grid, so the recursion reads rows the same way for both grid kinds.
    """

    def __init__(self, grid: ProductGrid, scaled: np.ndarray, row: np.ndarray):
        self.scaled = scaled
        self.row = row
        self.last = row.reshape(-1, len(grid.base))  # (d^(k-1), d)

    def __getitem__(self, yvec) -> np.ndarray:
        scaled = self.scaled
        prefix = scaled[yvec[0]] if len(yvec) > 1 else np.ones(1)
        for y in yvec[1:-1]:
            prefix = np.multiply.outer(prefix, scaled[y]).ravel()
        np.multiply(prefix[:, None], scaled[yvec[-1]], out=self.last)
        return self.row


def _fold(state, ys, top, snapshot_every=None, on_snapshot=None, skip_degenerate=False):
    """The recursion over validated observations ``ys`` (a list; ``top`` is their largest count).

    The weights are kept unnormalized, as ``v = S w`` with one running
    scalar S, so an observation with scaled kernel row ``r`` and step ``a``
    costs three passes over the weights:

        q = r * v;   T = sum(q);   v += beta q,  beta = a S / ((1 - a) T);

    then ``S <- S / (1 - a)``.  In exact arithmetic ``v / S`` is then
    ``(1 - a) w + a (r * w) / (r . w)``.  ``v`` is normalized only for a
    result (the end of the call and each snapshot) and when S passes
    ``_RESCALE_AT``.  An observation is degenerate when T is not positive
    or beta overflows; it never reaches the weights.
    """
    grid, rate, cache = state.g.grid, state.rate, state.cache
    d = len(grid)
    stride = -(-d // 8) * 8  # each scratch vector starts on a 64-byte line
    lattice = isinstance(grid, ProductGrid)
    scratch = _aligned_empty(stride * (3 if lattice else 2))
    v, q = scratch[:d], scratch[stride : stride + d]
    v[:] = state.g.weights
    rows = cache.scaled_table(top)
    if len(ys) > len(rows):  # a list of row views is faster to index than the table
        rows = list(rows)
    if lattice:  # the one grid-dependent step: rows[y]
        rows = _LatticeRows(grid, rows, scratch[2 * stride : 2 * stride + d])
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s = state.n, 1.0
    snap = snapshot_every if on_snapshot else 0
    mul, dasum, daxpy = np.multiply, _blas.dasum, _blas.daxpy
    for i, y in enumerate(ys):
        mul(rows[y], v, q)
        t = dasum(q)
        a = (alpha + (n + 1)) ** neg_gamma
        keep = 1.0 - a
        beta = a / keep * s / t if t > 0.0 else math.inf  # also inf on overflow; NaN fails too
        if not beta < math.inf:
            if skip_degenerate:
                continue
            err = DegenerateLikelihoodError(tuple(y) if lattice else y, n)
            err.stream_index = i
            raise err
        daxpy(q, v, a=beta)
        s /= keep
        n += 1
        if s > _RESCALE_AT:
            v /= dasum(v)
            s = 1.0
        if snap and n % snap == 0:
            on_snapshot(NewtonState(MixingWeights._normalized(grid, v, dasum(v)), n, rate, cache))
    if n == state.n:
        return state
    return NewtonState(MixingWeights._normalized(grid, v, dasum(v)), n, rate, cache)


# The lockstep loop gathers the kernel rows of a block of steps at once,
# at most this many floats, so memory stays bounded for any count matrix.
_LOCKSTEP_BLOCK_FLOATS = 1 << 20


def _fold_lockstep(grid: Grid, rate: LearningRate, y_matrix: np.ndarray, w0: np.ndarray, checkpoints):
    """``_fold``'s recursion for many replications of a scalar stream in lockstep.

    Row r of ``y_matrix`` is replication r's stream, and column m is step m+1
    of every replication.  The weights are a (d, reps) matrix ``V = S W``
    with one S for all replications, since its update does not depend on
    the data; beta has one entry per replication.  Counts and kernel rows
    are gathered one block of columns at a time, so the count matrix is
    never copied whole.  A degenerate step raises.  Returns ``(final,
    {n: weights at n for n in checkpoints})``, one weight row per replication.
    """
    reps, n_steps = y_matrix.shape
    if y_matrix.min() < 0:  # np.take would read a negative count's row from the end
        raise ValueError("counts must be nonnegative")
    d = len(grid)
    table = np.ascontiguousarray(KernelMatrixCache(grid).scaled_table(int(y_matrix.max())).T)
    v = np.repeat(np.asarray(w0, dtype=float)[:, None], reps, axis=1)
    q, t, beta = np.empty_like(v), np.empty(reps), np.empty(reps)
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s = 0, 1.0
    wanted, snaps = {int(c) for c in checkpoints}, {}
    block = max(1, _LOCKSTEP_BLOCK_FLOATS // (d * reps))
    with np.errstate(divide="ignore", over="ignore"):
        for lo in range(0, n_steps, block):
            counts = y_matrix[:, lo : lo + block].T  # (steps, reps) view
            rows = np.take(table, counts, axis=1)  # (d, steps, reps)
            for j in range(counts.shape[0]):
                np.multiply(rows[:, j], v, out=q)
                q.sum(axis=0, out=t)
                a = (alpha + (n + 1)) ** neg_gamma
                keep = 1.0 - a
                np.divide(a / keep * s, t, out=beta)
                if not beta.max() < math.inf:
                    bad = int(np.argmin(beta < math.inf))
                    raise DegenerateLikelihoodError(int(counts[j, bad]), n)
                q *= beta
                v += q
                s /= keep
                n += 1
                if s > _RESCALE_AT:
                    v /= v.sum(axis=0)
                    s = 1.0
                if n in wanted:
                    snaps[n] = (v / v.sum(axis=0)).T.copy()
    return (v / v.sum(axis=0)).T.copy(), snaps


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
