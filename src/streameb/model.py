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
before.  A new cache row costs its band, the atoms within
``_UNDERFLOW_NATS`` of its peak, plus an O(d) zero fill, and is written in
place: no temporary is built.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

# Construction rejects weight vectors farther than this from the simplex.
SIMPLEX_TOL = 1e-9
# Largest product grid accepted: D = d^k weights, and kernel rows of that length.
LATTICE_CAP = 10**6
# exp of a shift this far below a row's peak is exactly 0.0 in float64
# (the smallest subnormal is exp(-745.13)).
_UNDERFLOW_NATS = 746.0
# Nats a cache row's band reaches past _UNDERFLOW_NATS: room for the
# rounding of its log-kernel entries, its peak and its roots.
_BAND_SLACK_NATS = 1.0


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
    """Observed counts as a multiset of (y, multiplicity) pairs; ``total`` is their number."""

    entries: dict

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
        object.__setattr__(self, "total", sum(clean.values()))

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
        return cls(entries)

    @classmethod
    def from_counts(cls, ys) -> "CountHistogram":
        # list() first: np.asarray would wrap a generator or dict view as one object
        counts = _integers(ys if isinstance(ys, np.ndarray) else list(ys), "counts")
        values, first, n_ys = np.unique(counts, return_index=True, return_counts=True)
        order = np.argsort(first)  # first appearance, the order of a loop over ys
        return cls(dict(zip(values[order].tolist(), n_ys[order].tolist())))

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

    A new row is written in place in the buffer, which is allocated zeroed:
    only the row's band, the atoms within ``_UNDERFLOW_NATS`` of its peak,
    is computed (see ``_scaled_rows``), so a row costs its band plus the
    O(d) zero fill of its memory, and no (rows x d) temporary is built.
    Every entry has the bits of the full-width formula.

    The cache also keeps the recursion's work buffer between calls, in
    ``_scratch`` (see ``engine._fold``): every state of a lineage shares the
    cache, so it is the one place the buffer can live and be freed with them.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._lock = threading.Lock()
        empty = np.empty((0, len(grid)))
        self._buffer = empty  # full capacity, zero past the table; touched only under the lock
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
            _scaled_rows(self.grid.points, lo, self._buffer[lo : y + 1])
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
    """A zeroed buffer of ``rows`` rows whose first ``keep`` rows are copied from ``buf``."""
    out = np.zeros((rows,) + buf.shape[1:])
    out[:keep] = buf[:keep]
    return out


def _scaled_rows(points: np.ndarray, first: int, block: np.ndarray) -> None:
    """Write the scaled kernel rows of counts ``first, first + 1, ...`` into the zeroed ``block``.

    Each row is computed on its band alone, in place: the log-kernel with
    the bits of ``_log_kernel``, shifted by its maximum, exponentiated.
    ``y log theta - theta`` is concave in theta with its peak at theta = y,
    so a row's largest entry is at one of the two atoms around y, and the
    atoms within ``_UNDERFLOW_NATS`` of it lie between the two rates where
    the kernel falls that far (and ``_BAND_SLACK_NATS`` more) below that
    entry, two roots of ``_poisson_reach``.  A grid end whose entry lies
    above that floor bounds the band without a root.  Every atom outside
    would give exactly 0.0, and the band holds the row's maximum, so each
    row has the bits of the full-width computation.  Rows that share a
    band are computed together.
    """
    n, d = block.shape
    ys = np.arange(first, first + n, dtype=float)
    log_points, lgam = np.log(points), gammaln(ys + 1.0)
    at = np.searchsorted(points, ys)  # points[at - 1] < y <= points[at]
    # y log theta - theta at the two atoms around y and at the grid's two ends
    ends = np.zeros_like(at), np.full_like(at, d - 1)
    cols = np.stack([np.maximum(at - 1, 0), np.minimum(at, d - 1), *ends])
    vals = ys * log_points[cols] - points[cols]
    floor = vals[:2].max(axis=0) - (_UNDERFLOW_NATS + _BAND_SLACK_NATS)
    nats = (xlogy(ys, ys) - ys - floor).tolist()  # from the peak over all rates down to the floor
    starts, stops = np.zeros(n, dtype=int), np.full(n, d)
    for edges, end, lower, side in ((starts, 2, True, "left"), (stops, 3, False, "right")):
        cut = np.flatnonzero(vals[end] < floor).tolist()
        reach = [_poisson_reach(first + i, nats[i], lower) for i in cut]
        edges[cut] = np.searchsorted(points, reach, side)
    runs = (np.flatnonzero((np.diff(starts) != 0) | (np.diff(stops) != 0)) + 1).tolist()
    for i, j in zip([0] + runs, runs + [n]):
        a, b = starts[i], stops[i]
        band = block[i:j, a:b]
        np.multiply(ys[i:j, None], log_points[a:b], out=band)
        band -= points[a:b]
        band -= lgam[i:j, None]
        band -= band.max(axis=1, keepdims=True)
        np.exp(band, out=band)


def _poisson_reach(z: int, nats: float, lower: bool = False) -> float:
    """The rate at which ``log k(z | theta)`` lies ``nats`` below its peak at theta = z.

    The root theta >= z, or theta <= z with ``lower``.  Both solve ``u -
    log u = 1 + nats / z`` for u = theta / z by Newton's method.  Above 1
    the iterates decrease monotonically to the root after the first step;
    below 1 they start under the root and increase monotonically to it.  So
    an iterate short of the root lies past it, away from z.
    """
    if z == 0:
        return 0.0 if lower else nats
    c = 1.0 + nats / z
    if lower:  # exp(-c) and 1 - sqrt(2(c - 1)) both lie under the root
        u = max(math.exp(-c), 1.0 - math.sqrt(2.0 * (c - 1.0)))
        if u == 0.0:  # exp(-c) underflowed: 0 is the closest float under the root
            return 0.0
    else:
        u = c + math.log(c)
    for _ in range(8):
        u -= (u - math.log(u) - c) / (1.0 - 1.0 / u)
    return z * u


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
