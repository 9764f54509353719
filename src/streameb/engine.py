"""Streaming recursion for the mixing distribution, one observation at a time.

Each observation moves the current weight vector toward its one-observation
posterior by a step size from a decaying schedule:

    g_{n+1} = (1 - a_{n+1}) g_n + a_{n+1} * posterior(g_n, y)

An observation is a count on a :class:`Grid`, or a vector of k independent
counts on a :class:`ProductGrid` of D = d^k rate vectors, whose kernel row
is the outer product of k per-coordinate rows, written by one BLAS
``dgemm``.  That row is the only step that depends on the grid kind; the
recursion is shared.  Its loop bodies all have the same arithmetic:
``_fold`` (BLAS calls on one weight vector) behind ``update`` and
``update_stream``, and ``_fold_lockstep`` behind
``evaluation.batched_newton_stream``, which runs numpy calls on a weight
matrix, or on two atoms and a few replications, Python floats one
replication at a time.

States are immutable; ``update`` returns a new state with fresh, read-only
weights, sharing the kernel cache, so a held reference is already a
consistent snapshot.  A state keeps the recursion's scaled weights, and its
weights ``g`` are normalized when read, once: a write does not normalize,
and the next write continues from where the last one stopped, so any split
of a stream into ``update`` and ``update_stream`` calls gives the weights
of one ``update_stream`` call bit for bit.  A saved state is the exception:
its file holds ``g`` alone, so a loaded state restarts from ``g`` at S = 1,
and its continuation differs from the in-memory one in the last bits
(``deserialize_state``).  The cache also keeps the loop's work buffer
between calls (``_fold``); no state's weights are a view of it.  Updates
are strictly sequential (the recursion is order-dependent), and each one
costs O(d), or O(D) on a lattice, independent of how many observations
came before.
"""

from __future__ import annotations

import ctypes
import math
import struct
import zlib
from dataclasses import dataclass

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

    Besides ``g`` a state holds the recursion's scaled weights ``v = S w``
    (read-only) and their scale S, from which the next ``_fold``
    continues.  A state built here starts at ``v = g.weights`` and S = 1.
    A state made by ``_fold`` holds only ``v`` and S; its ``g`` is
    normalized from them when first read, and then kept (``__getattr__``).
    So a read state holds two D-float vectors, ``v`` and ``g.weights``,
    and an unread one holds one.
    """

    g: MixingWeights
    n: int
    rate: LearningRate
    cache: KernelMatrixCache

    def __post_init__(self):
        if not isinstance(self.rate, LearningRate):
            raise TypeError(f"the schedule must be a LearningRate, not {type(self.rate).__name__}")
        self.__dict__.update(_grid=self.g.grid, _v=self.g.weights, _s=1.0)  # frozen: no __setattr__

    def __getattr__(self, name):
        """``g`` of a state made by ``_fold``: ``v / sum(v)``, built on first read.

        The sum is ``dasum`` over a copy on a 64-byte line, as the loop
        sums ``v`` in its aligned buffer, so it has the bits of a
        normalization inside the loop.  Threads reading ``g`` for the first
        time at once may each build it; ``setdefault`` keeps the first, so
        every reader gets the same object.
        """
        if name != "g":  # only reached for attributes the instance does not have
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        aligned = _aligned_empty(len(self._v))
        aligned[:] = self._v
        g = MixingWeights._normalized(self._grid, aligned, _blas.dasum(aligned))
        return self.__dict__.setdefault("g", g)


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
    if isinstance(state._grid, ProductGrid):  # the grid, not g: reading g would normalize
        y = tuple(_counts(state._grid, [y])[0].tolist())
        return _fold(state, [y], max(y))
    count = int(y)  # not _counts: no array round trip on the single-count write path
    if count != y or count < 0:
        raise ValueError(f"counts must be nonnegative integers, got {y!r}")
    return _fold(state, [count], count)


def update_stream(state: NewtonState, ys, *, skip_degenerate: bool = False) -> NewtonState:
    """Fold the one-observation update over a sequence, with a low-overhead loop.

    ``ys`` holds counts on a Grid and rows of k counts on a ProductGrid.
    Semantically a repeated ``update``, bit for bit: folded ``update``
    calls, or any split of ``ys`` into ``update_stream`` calls, give the
    same weights, since each call continues the last one's scaled weights
    and the weights are normalized when read (see ``_fold``).  Not across
    ``serialize_state``: a loaded state restarts from the normalized
    weights, so continuing it differs from continuing the saved state in
    memory in the last bits (within 1e-13); continuing the same file
    always gives the same bits.  The caller's state is untouched if
    anything raises.  Results are bit-reproducible: identical inputs give
    bit-identical weights, wherever the allocator places the caller's
    arrays.  On a long weight vector the OpenBLAS thread count is an input
    too, since OpenBLAS splits a long ``dasum`` or ``daxpy`` across threads
    and adds the parts in another order: a scalar grid of d = 200,000 and
    lattices of D = 490,000 and 10^6 give different bits on 1 and 2
    threads, while d = 30,000 and D = 10,000 give the same.  Pin
    ``OPENBLAS_NUM_THREADS`` to compare such runs.  The first degenerate
    observation aborts with its stream index attached to the raised error;
    with ``skip_degenerate`` set, offending observations are skipped
    instead (this biases the fit and is opt-in for that reason).  Weights
    at chosen steps of many streams come from the ``checkpoints`` of
    ``evaluation.batched_newton_stream``.
    """
    if len(ys) == 0:
        return state
    ys = _counts(state._grid, ys)
    return _fold(state, ys.tolist(), int(ys.max()), skip_degenerate)


# The scaled weights are folded back to the simplex when S passes this.
_RESCALE_AT = 1e100


def _aligned_empty(size: int) -> np.ndarray:
    """Uninitialized float64 vector whose first element is 64-byte aligned.

    OpenBLAS's ``dasum`` can return a different last bit for the same values
    at a different offset within a 64-byte line, and malloc places a vector
    at whatever offset its heap's history gives.  Summing only vectors at one
    fixed offset makes the recursion independent of that history.
    """
    raw = np.empty(size + 8)
    # the buffer's address, without the helper object ``raw.ctypes`` builds per access
    start = (-ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64) // 8
    return raw[start : start + size]


class _LatticeRows:
    """Scaled kernel rows of a ProductGrid, indexed by count vector.

    Row ``yvec`` is the flattened outer product of the per-coordinate rows
    ``scaled[y_1], ..., scaled[y_k]``, written into the vector ``out`` that
    every lookup overwrites; ``_fold`` passes its ``q``.  numpy builds the
    product of the first k - 1 rows (``prefix``, d^(k-1) entries), and one
    BLAS ``dgemm`` writes ``C = last prefix^T``, with ``C`` the
    Fortran-order (d, d^(k-1)) view of ``out``: entry (i, j) lands at
    ``j d + i``, the lattice's lexicographic order.  The inner dimension is
    1, so each entry is the one rounded product ``prefix_j * last_i``, and
    ``beta = 0`` writes C without reading it: the row has the bits of
    ``np.multiply.outer(prefix, last)`` whatever ``out`` held, on one
    OpenBLAS thread or several (no entry depends on another).  Indexing
    mirrors ``scaled[y]`` on a Grid, so the recursion reads rows the same
    way for both grid kinds.
    """

    def __init__(self, grid: ProductGrid, scaled, out: np.ndarray):
        self.scaled = scaled
        self.out = out
        self.c = out.reshape(len(grid.base), -1, order="F")  # (d, d^(k-1)), a view of out

    def __getitem__(self, yvec) -> np.ndarray:
        scaled = self.scaled
        prefix = scaled[yvec[0]] if len(yvec) > 1 else np.ones(1)
        for y in yvec[1:-1]:
            prefix = np.multiply.outer(prefix, scaled[y]).ravel()
        last = scaled[yvec[-1]]
        # positional (beta=0, c, trans_a=0, trans_b=0, overwrite_c=1): f2py parses keywords per call
        _blas.dgemm(1.0, last[:, None], prefix[None, :], 0.0, self.c, 0, 0, 1)
        return self.out


def _fold(state, ys, top, skip_degenerate=False):
    """The recursion over validated observations ``ys`` (a list; ``top`` is their largest count).

    The weights are kept unnormalized, as ``v = S w`` with one running
    scalar S, so an observation with scaled kernel row ``r`` and step ``a``
    costs three passes over the weights:

        q = r * v;   T = sum(q);   v += beta q,  beta = a S / ((1 - a) T);

    then ``S <- S / (1 - a)``.  In exact arithmetic ``v / S`` is then
    ``(1 - a) w + a (r * w) / (r . w)``.  The fold starts from the input
    state's ``v`` and S, and ``v`` is normalized only when S passes
    ``_RESCALE_AT``: the result keeps ``v`` and S, and its weights are
    normalized when read (``NewtonState.__getattr__``).  So a fold
    continues the previous one exactly, and a stream split over many calls
    gives the bits of one call.  A state from ``init``, the constructor or
    ``deserialize_state`` starts at its normalized weights with S = 1, so
    a fold after a save and load is not the fold in memory, bit for bit.
    An observation is degenerate when T is not positive or beta overflows;
    it never reaches the weights.

    ``v`` and ``q`` are the only scratch, 2 D floats for both grid kinds.
    A scalar row is read from the cache's table; a lattice row is first
    written into ``q`` by one ``dgemm`` (``_LatticeRows``), so the first
    pass is ``q = q * v``, the same rounded products as ``r * v``.

    The scratch outlives the call.  It is one buffer of 2 * stride + 8
    floats (stride is D rounded up to a multiple of 8, so each vector
    starts on a 64-byte line and ``dasum`` keeps its bits; the 8 are
    alignment slack), kept as the pair ``(v, q)`` in the slot
    ``cache._scratch``.  Every state of a lineage shares the cache, and the
    buffer is freed with it.  A fold takes the pair out of the slot with
    one ``dict.pop``, atomic under the GIL, and puts it back once its
    result is built.  A fold that finds the slot empty, because another
    thread's fold holds the buffer, allocates its own; so does the fold
    after one that raised, whose buffer is dropped.  ``v`` is overwritten
    by the state's scaled weights, and ``q`` before it is read, so a
    buffer's old contents never reach a result, and the result keeps a
    fresh read-only copy of ``v``.
    """
    grid, rate, cache = state._grid, state.rate, state.cache
    d = len(state._v)
    lattice = isinstance(grid, ProductGrid)
    scratch = cache._scratch.pop("v, q", None)  # one C call: no two folds take the same buffer
    if scratch is None or len(scratch[0]) != d:
        stride = -(-d // 8) * 8  # each scratch vector starts on a 64-byte line
        buf = _aligned_empty(2 * stride)
        scratch = buf[:d], buf[stride : stride + d]
    v, q = scratch
    v[:] = state._v
    rows = cache._table  # the published rows; read directly when they already reach top
    if top >= len(rows):
        rows = cache.scaled_table(top)
    if len(ys) > len(rows):  # a list of row views is faster to index than the table
        rows = list(rows)
    if lattice:  # the one grid-dependent step: rows[y], a lattice row written into q
        rows = _LatticeRows(grid, rows, q)
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s = state.n, state._s
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
        daxpy(q, v, d, beta)  # positional (n, a): f2py parses keywords on every call
        s /= keep
        n += 1
        if s > _RESCALE_AT:
            v /= dasum(v)
            s = 1.0
    result = state
    if n != state.n:  # a NewtonState without __init__: rate is the input state's, g comes when read
        v = v.copy()
        v.setflags(write=False)
        result = object.__new__(NewtonState)
        result.__dict__.update(n=n, rate=rate, cache=cache, _grid=grid, _v=v, _s=s)  # no __setattr__
    cache._scratch["v, q"] = scratch  # after the result's own copy: the next fold may overwrite v
    return result


# The lockstep loop gathers the kernel rows of a block of steps at once: as
# many steps as fit in this many floats, and at least one, so memory stays
# within the larger of this and the d * reps floats of the weights for any
# count matrix.  512 KB: a block and its betas stay in a core's L2 cache.
_LOCKSTEP_BLOCK_FLOATS = 1 << 16

# Up to this many replications a two-atom lockstep runs each replication as
# Python floats (``_lockstep_pair_floats``).  Measured on the regret task,
# the floats run 1.1x faster than the numpy calls at 24 replications and
# break even at 28, so the cap sits below the crossover (README, the
# lockstep loop).
_SCALAR_MAX_REPS = 24


def _fold_lockstep(grid: Grid, rate: LearningRate, y_matrix: np.ndarray, w0: np.ndarray, checkpoints):
    """``_fold``'s recursion for many replications of a scalar stream in lockstep.

    Row r of ``y_matrix`` (validated nonnegative integer counts) is
    replication r's stream, and column m is step m+1 of every replication;
    ``checkpoints`` is a set of step numbers in [1, n_steps].  The weights
    are a (d, reps) matrix ``V = S W`` with one S for all replications,
    since its update does not depend on the data.  A step is five numpy
    calls, each writing into an array that already exists:

        Q = R * V;   t = sum(Q, axis=0);   beta = c / t;   Q *= beta;   V += Q

    where R is the step's (d, reps) slice of scaled kernel rows and
    ``c = a S / (1 - a)``; the sum adds the atoms one at a time, in order.
    The other body takes two atoms with at most ``_SCALAR_MAX_REPS``
    replications (and a kernel table of at most ``_LOCKSTEP_BLOCK_FLOATS``
    entries): ``_lockstep_pair_floats`` runs each replication as Python
    floats, the same operations without numpy's per-call cost, which at
    10 replications is most of a step.  When it meets a degenerate step
    it gives up, and this loop runs the stream again from the start.
    A step that takes S past ``_RESCALE_AT`` then divides V by its column
    sums and sets S to 1.  Everything else is done once per block of steps:

    - the block's kernel rows are gathered by one ``np.take`` into a
      (steps, d, reps) buffer of at most ``_LOCKSTEP_BLOCK_FLOATS``
      floats, so each step's R is contiguous;
    - the block's betas are checked together, so the first degenerate
      step raises with its count and step, as a per-step check would (the
      steps after it only fill this call's own arrays with inf and NaN).

    Returns ``(final, {n: weights at n for n in checkpoints})``, one weight
    row per replication.
    """
    reps, n_steps = y_matrix.shape
    d = len(grid)
    table = np.ascontiguousarray(KernelMatrixCache(grid).scaled_table(int(y_matrix.max())).T)
    block = min(n_steps, max(1, _LOCKSTEP_BLOCK_FLOATS // (d * reps)))
    if d == 2 and reps <= _SCALAR_MAX_REPS and table.size <= _LOCKSTEP_BLOCK_FLOATS:
        done = _lockstep_pair_floats(table, rate, y_matrix, w0, checkpoints, block)
        if done is not None:
            return done
    v = np.repeat(np.asarray(w0, dtype=float)[:, None], reps, axis=1)
    q, t = np.empty_like(v), np.empty(reps)
    rows_buf, beta_buf = np.empty(block * d * reps), np.empty((block, reps))
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s, snaps = 0, 1.0, {}
    mul, add, reduce, div = np.multiply, np.add, np.add.reduce, np.divide
    with np.errstate(all="ignore"):  # the check after each block catches a degenerate beta
        for lo in range(0, n_steps, block):
            counts = y_matrix[:, lo : lo + block].T  # (steps, reps) view
            steps = len(counts)
            rows, beta = rows_buf[: steps * d * reps].reshape(steps, d, reps), beta_buf[:steps]
            # valid counts never clip; np.take fills the (d, steps, reps) view through a buffer
            np.take(table, counts, axis=1, out=rows.transpose(1, 0, 2), mode="clip")
            for r, b in zip(rows, beta):
                n += 1
                a = (alpha + n) ** neg_gamma
                keep = 1.0 - a
                c = a / keep * s
                s /= keep
                mul(r, v, q)
                reduce(q, 0, None, t)
                div(c, t, b)
                mul(q, b, q)
                add(v, q, v)
                if s > _RESCALE_AT:
                    v /= v.sum(axis=0)
                    s = 1.0
                if n in checkpoints:
                    snaps[n] = (v / v.sum(axis=0)).T.copy()
            if not beta.max() < math.inf:  # t not positive, an overflow, or a NaN
                j, bad = divmod(int(np.argmin(beta < math.inf)), reps)
                raise DegenerateLikelihoodError(int(counts[j, bad]), n - steps + j)
    return (v / v.sum(axis=0)).T.copy(), snaps


def _lockstep_pair_floats(table, rate, y_matrix, w0, checkpoints, block):
    """``_fold_lockstep`` on two atoms, one replication at a time in Python floats.

    ``table`` is the (2, top + 1) kernel table, read as two lists.  Per
    block of steps, the counts become lists, and the step constants ``c``
    and the steps that end a segment (a rescale or a checkpoint) are
    computed once for all replications.  Then each replication runs

        q0 = r0 v0;   q1 = r1 v1;   b = c / (q0 + q1);   v0 += q0 b;   v1 += q1 b

    and at a segment's end divides by ``v0 + v1``: the IEEE operations of
    the numpy bodies in the same order (Python floats are float64, with no
    fused multiply-add), so the same bits, without per-call overhead.  The
    loop has no check: a degenerate step divides by zero or leaves a weight
    that is not finite up to the block's end, and then this returns None,
    so that ``_fold_lockstep`` runs the numpy body, which raises for the
    first degenerate (step, replication).  Scratch is the table's two lists and the block's count lists
    and constants, each at most ``_LOCKSTEP_BLOCK_FLOATS`` values, so
    memory does not grow with the steps.
    """
    reps, n_steps = y_matrix.shape
    row0, row1 = table.tolist()
    v = [(float(w0[0]), float(w0[1]))] * reps
    snaps = {c: np.empty((reps, 2)) for c in sorted(checkpoints)}
    alpha, neg_gamma = rate.alpha, -rate.gamma
    n, s = 0, 1.0
    for lo in range(0, n_steps, block):
        counts = y_matrix[:, lo : lo + block].tolist()
        cs, stops = [], []  # stops: (end, rescale, snapshot array or None), one per segment
        for j in range(len(counts[0])):
            n += 1
            a = (alpha + n) ** neg_gamma
            keep = 1.0 - a
            cs.append(a / keep * s)
            s /= keep
            rescale = s > _RESCALE_AT
            if rescale:
                s = 1.0
            if rescale or n in checkpoints:
                stops.append((j + 1, rescale, snaps.get(n)))
        if not stops or stops[-1][0] < len(cs):
            stops.append((len(cs), False, None))
        for r, ys in enumerate(counts):
            v0, v1 = v[r]
            try:
                start = 0
                for end, rescale, snap in stops:
                    for y, c in zip(ys[start:end], cs[start:end]):
                        q0 = row0[y] * v0
                        q1 = row1[y] * v1
                        b = c / (q0 + q1)
                        v0 += q0 * b
                        v1 += q1 * b
                    if rescale:
                        t = v0 + v1
                        v0 /= t
                        v1 /= t
                    if snap is not None:
                        t = v0 + v1
                        snap[r] = v0 / t, v1 / t
                    start = end
            except ZeroDivisionError:
                return None
            if not (math.isfinite(v0) and math.isfinite(v1)):
                return None
            v[r] = v0, v1
    final = np.empty((reps, 2))
    for r, (v0, v1) in enumerate(v):
        t = v0 + v1
        final[r] = v0 / t, v1 / t
    return final, snaps


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
    """Inverse of ``serialize_state``; kdim = 1 gives a Grid, else a ProductGrid.

    The file holds the normalized weights ``g``, not the scaled ``v`` and S
    a folded state continues from, so the loaded state starts at ``g`` with
    S = 1, and updates after a load match updates in memory within 1e-13,
    not bit for bit (see ``update_stream``).
    """
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
