"""Core Poisson-mixture arithmetic on a fixed grid of candidate means.

Everything downstream (the streaming engine, interval construction, the
classical baselines) works with a discrete mixing distribution over an
ascending grid of positive rates, or over a product lattice of them.
Kernel evaluations are done in log space because practical grids extend to
rates in the thousands, where the linear Poisson pmf underflows.

Outside the recursion every mixture computation, on either grid kind, is
``log_mixture`` (a block of log-kernel rows to ``(log p_g, posterior)``)
over rows that ``log_kernel_rows`` computes for the counts asked about.
``KernelMatrixCache`` belongs to the recursion alone: it keeps the scaled
rows the per-count update reads, so a write costs O(d) however many came
before.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Construction rejects weight vectors farther than this from the simplex.
SIMPLEX_TOL = 1e-9
# Largest product grid accepted: D = d^k weights, and kernel rows of that length.
LATTICE_CAP = 10**6


class DegenerateLikelihoodError(ValueError):
    """The mixture pmf underflowed to zero at the requested count."""

    def __init__(self, y, n=None):
        self.y = y
        self.n = n
        msg = f"mixture likelihood underflowed at count y={y}"
        if n is not None:
            msg += f" (after {n} observations)"
        super().__init__(msg)


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing, strictly positive support points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(pts)) or not np.all(pts > 0):
            raise ValueError("grid points must be finite and strictly positive")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", _frozen(pts))

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def lo(self) -> float:
        return float(self.points[0])

    @property
    def hi(self) -> float:
        return float(self.points[-1])

    # A scalar grid is the one-coordinate case of the shared grid surface:
    # observations have k = 1 coordinate, each ranging over ``base``.
    k = 1

    @property
    def base(self) -> "Grid":
        return self

    def same_points(self, other) -> bool:
        return isinstance(other, Grid) and self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """k-fold product of a base grid: D = d^k candidate rate vectors.

    Lattice points are indexed lexicographically, the first coordinate being
    the most significant digit.  The Poisson kernel factorizes across
    coordinates, so one kernel cache over ``base`` serves every coordinate.
    """

    base: Grid
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.size > LATTICE_CAP:
            raise ValueError(f"lattice size d^k = {self.size} exceeds the cap {LATTICE_CAP}")

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        return len(self.base) ** self.k

    def same_points(self, other) -> bool:
        return isinstance(other, ProductGrid) and self.k == other.k and self.base.same_points(
            other.base
        )


@dataclass(frozen=True, eq=False)
class MixingWeights:
    """A probability mass function over a :class:`Grid` or :class:`ProductGrid`.

    Weights must be nonnegative and sum to one within ``SIMPLEX_TOL``; the
    stored vector is renormalized so its sum is exactly 1 in floating point.
    Zero weights are kept in place rather than pruned, so user-declared
    support never changes silently.
    """

    grid: Grid | ProductGrid
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.grid),):
            raise ValueError("weights must match the grid length")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        # Renormalize unless already at 1 within a few ulps: freshly divided
        # vectors pass through unchanged, keeping save/load round trips exact.
        if abs(total - 1.0) > 1e-13:
            w = w / total
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def _normalized(cls, grid, v: np.ndarray, total: float) -> "MixingWeights":
        """Weights ``v / total`` without the O(d) checks, for the engine.

        The caller guarantees ``v >= 0`` entrywise and ``total == sum(v)``, so
        a finite, positive ``total`` bounds every entry.  The result is a
        fresh read-only vector.
        """
        if not 0.0 < total < math.inf:
            raise ValueError(f"weights sum to {total!r}")
        w = np.divide(v, total)
        w.setflags(write=False)
        g = object.__new__(cls)
        g.__dict__.update(grid=grid, weights=w)  # the frozen fields, without __setattr__
        return g

    @classmethod
    def uniform(cls, grid: Grid) -> "MixingWeights":
        d = len(grid)
        return cls(grid, np.full(d, 1.0 / d))

    def support_mask(self) -> np.ndarray:
        return self.weights > 0.0


@dataclass(frozen=True, eq=False)
class CountHistogram:
    """Observed counts as a multiset of (y, multiplicity) pairs."""

    entries: dict
    total: int

    def __post_init__(self):
        ys = _integers(list(self.entries), "counts")
        n_ys = _integers(list(self.entries.values()), "multiplicities")
        if ys.size and ys.min() < 0:
            raise ValueError("counts must be nonnegative")
        if n_ys.size and n_ys.min() < 1:
            raise ValueError("multiplicities must be positive")
        # insertion order is kept: moment fits sum over the entries in it
        clean = dict(zip(ys.tolist(), n_ys.tolist()))
        object.__setattr__(self, "entries", clean)
        total = sum(clean.values())
        if self.total != total:
            raise ValueError(f"total {self.total} != sum of multiplicities {total}")

    @classmethod
    def from_pairs(cls, pairs) -> "CountHistogram":
        pairs = list(pairs)
        ys = _integers([y for y, _ in pairs], "counts").tolist()
        n_ys = _integers([n_y for _, n_y in pairs], "multiplicities").tolist()
        if n_ys and min(n_ys) < 1:  # before summing: a later pair must not cancel a bad one
            raise ValueError("multiplicities must be positive")
        entries = {}
        for y, n_y in zip(ys, n_ys):
            entries[y] = entries.get(y, 0) + n_y
        return cls(entries, sum(entries.values()))

    @classmethod
    def from_counts(cls, ys) -> "CountHistogram":
        # list() first: np.asarray would wrap a generator or dict view as one object
        counts = _integers(ys if isinstance(ys, np.ndarray) else list(ys), "counts")
        values, first, n_ys = np.unique(counts, return_index=True, return_counts=True)
        order = np.argsort(first)  # first appearance, the order of a loop over ys
        return cls(dict(zip(values[order].tolist(), n_ys[order].tolist())), len(counts))

    def support(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=int)

    def multiplicities(self) -> np.ndarray:
        return np.array([self.entries[y] for y in sorted(self.entries)], dtype=float)

    def max_count(self) -> int:
        return max(self.entries)


class KernelMatrixCache:
    """Lazily grown table of scaled kernel rows, the recursion's only table.

    Row y is ``k(y | theta_j)`` over the grid divided by its largest entry,
    i.e. ``exp(log k(y | theta) - max_j log k(y | theta_j))``: the scaled
    row the streaming update multiplies into the weights.  Rows are appended
    as larger counts arrive and never change afterwards.  Reads are safe
    from multiple threads; extension takes an internal lock and publishes
    the longer table as one view, so a reader sees only complete rows.  The
    backing buffer is sized exactly on the first request and grows
    geometrically after that, so a rising maximum count costs amortized
    O(d) per row.  Read-side queries build their log rows with
    ``log_kernel_rows`` and never touch a cache.

    The cache also keeps the recursion's work buffer between calls, in
    ``_scratch`` (see ``engine._fold``): every state of a lineage shares the
    cache, so it is the one place the buffer can live and be freed with them.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._lock = threading.Lock()
        empty = np.empty((0, len(grid)))
        self._buffer = empty  # full capacity; touched only under the lock
        self._table = empty  # rows 0..max_y
        self._scratch = {}  # at most one entry, taken and put back by engine._fold

    @property
    def max_y(self) -> int:
        return self._table.shape[0] - 1

    def ensure(self, y: int) -> None:
        if y <= self.max_y:
            return
        with self._lock:
            lo = self.max_y + 1
            if y < lo:
                return
            capacity = self._buffer.shape[0]
            if y >= capacity:
                rows = y + 1 if lo == 0 else max(y + 1, 2 * capacity)
                self._buffer = _grown(self._buffer, rows, lo)
            block = self._buffer[lo : y + 1]
            block[:] = _log_kernel(self.grid.points, np.arange(lo, y + 1))
            block -= block.max(axis=1, keepdims=True)
            np.exp(block, out=block)
            self._table = self._buffer[: y + 1]

    def scaled_table(self, y_max: int) -> np.ndarray:
        """Rows 0..y_max of the row-max-shifted kernel, shape (y_max+1, d)."""
        if y_max < 0:  # a negative index would silently read a cached row from the end
            raise ValueError("counts must be nonnegative")
        table = self._table
        if y_max >= table.shape[0]:
            self.ensure(y_max)
            table = self._table
        return table[: y_max + 1]


def _grown(buf: np.ndarray, rows: int, keep: int) -> np.ndarray:
    """A buffer of ``rows`` rows whose first ``keep`` rows are copied from ``buf``."""
    out = np.empty((rows,) + buf.shape[1:])
    out[:keep] = buf[:keep]
    return out


def _log_kernel(points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rows ``log k(y | points)`` for each count in ``ys``, shape (len(ys), d).

    One array is allocated and the two remaining terms are subtracted in
    place; IEEE addition commutes, so each entry has the bits of
    ``-theta + y log theta - lgamma(y + 1)``.
    """
    ys = np.asarray(ys, dtype=float)[:, None]
    rows = ys * np.log(points)
    rows -= points
    rows -= gammaln(ys + 1.0)
    return rows


def _integers(values, what: str) -> np.ndarray:
    """``values`` as int64, each equal to its int64 value: 2.0 is 2, 2.5 is refused.

    Counts and multiplicities read through here, so a non-integer is
    refused rather than truncated.
    """
    given = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the equality check below
        ints = given.astype(np.int64, copy=False)
    if ints is not given and not np.array_equal(ints, given):
        raise ValueError(f"{what} must be integers")
    return ints


def _counts(grid: Grid | ProductGrid, ys) -> np.ndarray:
    """Validated int64 counts: shape (n,) on a Grid, (n, k) on a ProductGrid.

    Every count-level query reads its counts through here; see ``_integers``.
    """
    counts = _integers(ys, "counts")
    row = (grid.k,) if isinstance(grid, ProductGrid) else ()
    if counts.ndim == 0 or counts.shape[1:] != row:
        raise ValueError(
            f"expected counts of shape {row} on a {type(grid).__name__}, "
            f"got an array of shape {counts.shape}"
        )
    if counts.size and counts.min() < 0:
        raise ValueError("counts must be nonnegative")
    return counts


def log_kernel_rows(grid: Grid | ProductGrid, counts) -> np.ndarray:
    """Log-kernel rows, shape (n, len(grid)), one per count or count vector.

    ``counts`` has shape (n,) on a Grid and (n, k) on a ProductGrid.  A
    lattice row is the outer sum of its k base rows, one per coordinate,
    flattened in the lattice's lexicographic order.  Each entry is the same
    elementwise formula whichever counts share the call, so a row has the
    same bits in every block.
    """
    counts, points = _counts(grid, counts), grid.base.points
    first, *rest = counts.reshape(len(counts), grid.k).T  # one column of counts per coordinate
    rows = _log_kernel(points, first)
    for col in rest:
        rows = rows[:, :, None] + _log_kernel(points, col)[:, None, :]
        rows = rows.reshape(len(col), rows.shape[1] * len(points))
    return rows


def log_mixture(log_rows: np.ndarray, weights: np.ndarray):
    """``(log p, post)`` for a block of log-kernel rows against mixing weights.

    ``log p[i] = log sum_j exp(log_rows[i, j]) weights[j]`` and ``post[i]``
    is row i's posterior, ``exp(log_rows[i]) * weights / p[i]`` (zero where
    the weight is).  Each row is shifted by its largest ``log k + log w``
    over the positive weights before exponentiating, so both are finite even
    where the linear pmf underflows.  The rows are reduced in C order, so a
    row gets the same bits whichever block it comes in.
    """
    active = weights > 0
    every = bool(active.all())
    scores = np.add(log_rows if every else log_rows[:, active], np.log(weights[active]), order="C")
    peak = scores.max(axis=1)
    scores -= peak[:, None]
    np.exp(scores, out=scores)
    total = scores.sum(axis=1)
    scores /= total[:, None]
    post = scores if every else np.zeros(log_rows.shape)
    if not every:
        post[:, active] = scores
    return peak + np.log(total), post


def log_mixture_pmf(g: MixingWeights, y) -> float:
    """log p_g(y) for a count on a Grid or a count vector on a ProductGrid."""
    return float(log_mixture(log_kernel_rows(g.grid, [y]), g.weights)[0][0])


def mixture_pmf(g: MixingWeights, y) -> float:
    """p_g(y) = sum_j k(y | theta_j) g(theta_j); underflow yields 0.0."""
    return float(np.exp(log_mixture_pmf(g, y)))
