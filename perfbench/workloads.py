"""The four streameb benchmark workloads, run in a child process by run.py.

Each workload is a closed loop on one thread: the next operation starts when
the previous one returns.  Set-up (data generation, grid sizing, state
initialisation) is repeated and timed apart from the operations, and the
output checks run after the timed region against the plain-numpy references
in ``reference.py``.  See README.md for why each workload exists.

    python3 perfbench/workloads.py --workload ingest-paper --seed 1 \
        --seconds 25 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

import reference
import streameb
from streameb import baselines, cli, engine, evaluation, gridding, inference, multidim, priors
from streameb.model import CountHistogram, Grid

BATCH = 1000
SETUP_REPEATS = 25
# The reference replays the first CHECK_PREFIX batches from the initial state
# (accumulated error) and the last batch from the state before it (the final
# weights).  A full replay would cost twice the timed region.
CHECK_PREFIX = 20
RATE = engine.LearningRate(1.0, 0.99)
# Weights agree with the reference to rounding: each step differs only in
# summation order (BLAS against numpy), and the recursion is a contraction.
WEIGHT_RTOL = 1e-9
# Estimates and variances: relative 1e-8, with the acceptance suite's
# absolute 1e-8 below magnitude 1.  The program computes the variance in
# linear space, so values near 1e-30 carry rounding noise far above 1e-8
# relative, yet far below anything an interval can show.
ESTIMATE_TOL = 1e-8
# One year of auto insurance claims for 9,461 policy holders (the same
# histogram the acceptance tests use).
ACCIDENT_PAIRS = [(0, 7840), (1, 1317), (2, 239), (3, 42), (4, 14), (5, 4), (6, 4), (7, 1)]

now = time.perf_counter


def _weights_mismatch(label, got, want):
    """Message when two weight vectors differ beyond rounding, else None."""
    gap = float(np.max(np.abs(np.asarray(got) - want)))
    if not gap <= WEIGHT_RTOL * float(want.max()):
        return f"{label}: weights differ from the reference by up to {gap:.3e}"
    return None


def _paper_grid(ys, d_cap):
    m2 = float(np.mean(np.asarray(ys, float) ** 2))
    spec = gridding.GridSpec(eta=0.025, k=2, m_k=m2, d_cap=d_cap)
    return spec, gridding.build_equispaced_grid(spec)


class IngestPaper:
    """Weibull(3,5) counts on the paper-default grid, in batches of 1,000."""

    name = "ingest-paper"
    op = "batch"
    trace_unit = 1
    min_ops = 100
    pool = 200_000

    def setup(self, seed):
        prior = priors.parse_prior("weibull:3,5")
        _, self.ys = evaluation.generate_compound(prior, self.pool, seed)
        self.spec, grid = _paper_grid(self.ys, 10_000)
        self._start(engine.init(grid, RATE))

    def _start(self, state, mstate=None):
        state.cache.ensure(int(self.ys.max()))
        self.states = {"start": state, "prefix": None, "before_last": None, "final": state}
        self.mstates = dict.fromkeys(self.states, mstate)
        self.batches = self.offered = self.skipped = 0

    def _advance(self, states, new):
        states["before_last"], states["final"] = states["final"], new
        if self.batches == CHECK_PREFIX:
            states["prefix"] = new

    def _next(self, pool):
        lo = self.batches * BATCH % len(pool)
        return pool[lo : lo + BATCH]

    def step(self):
        batch = self._next(self.ys)
        old = self.states["final"]
        t0 = now()
        new = engine.update_stream(old, batch, skip_degenerate=True)
        dt = now() - t0
        self._account(old, new, batch)
        return dt, len(batch), dt

    def _account(self, old, new, batch, mnew=None):
        self.batches += 1
        self.offered += len(batch)
        self.skipped += len(batch) - (new.n - old.n)
        self._advance(self.states, new)
        if mnew is not None:
            self._advance(self.mstates, mnew)

    def _replays(self, pool):
        """(from state, counts, to state) pairs the reference must reproduce."""
        prefix = min(self.batches, CHECK_PREFIX)
        last = np.resize(pool, (self.batches * BATCH,) + pool.shape[1:])[-BATCH:]
        return [
            ("start", np.resize(pool, (prefix * BATCH,) + pool.shape[1:]),
             "prefix" if self.batches >= CHECK_PREFIX else "final"),
            ("before_last", last, "final"),
        ]

    def _check_scalar(self):
        if not self.batches:
            return ["no batch completed"]
        problems = []
        for src, counts, dst in self._replays(self.ys):
            g0, want = self.states[src], self.states[dst]
            w, n, skipped = reference.scalar_recursion(
                g0.g.grid.points, g0.g.weights, g0.n, RATE.alpha, RATE.gamma, counts
            )
            problems.append(_weights_mismatch(f"scalar {src}->{dst}", want.g.weights, w))
            program_skipped = len(counts) - (want.n - g0.n)
            if n != want.n or skipped != program_skipped:
                problems.append(f"scalar {src}->{dst}: n={want.n} with {program_skipped} skipped, "
                                f"reference n={n} with {skipped} skipped")
        final = self.states["final"]
        if abs(final.g.weights.sum() - 1.0) > 1e-12:
            problems.append(f"scalar weights sum to {final.g.weights.sum()!r}")
        return [p for p in problems if p]

    def check(self, ops):
        """(operations whose output is wrong, messages)."""
        problems = self._check_scalar()
        return (ops if problems else 0), problems

    def params(self):
        grid = self.states["final"].g.grid
        return {
            "d": len(grid),
            "d_full": gridding.kl_grid_size(self.spec),
            "grid_hi": grid.hi,
            "default_y_max": inference.default_y_max(grid),
            "max_count": int(self.ys.max()),
            "batch": BATCH,
            "pool_counts": self.pool,
            "counts_offered": self.offered,
            "counts_skipped": self.skipped,
        }


class IngestDense(IngestPaper):
    """Dense kernel rows: a d = 30,000 scalar grid and a D = 10,000 lattice.

    One operation is a round: a 1,000-count scalar batch, then a 1,000-vector
    lattice batch, so both engines see the same machine conditions.
    """

    name = "ingest-dense"
    op = "round"
    pool = 100_000

    def setup(self, seed):
        prior = priors.parse_prior("uniform:0.2,12")
        _, self.ys = evaluation.generate_compound(prior, self.pool, seed)
        coords = [evaluation.generate_compound(prior, self.pool, seed + k * 10**6)[1] for k in (1, 2)]
        self.yvecs = np.stack(coords, axis=1)
        lattice = multidim.ProductGrid(Grid(np.linspace(0.2, 12.0, 100)), 2)
        mstate = multidim.multi_init(lattice, RATE)
        mstate.cache.ensure(int(self.yvecs.max()))
        self._start(engine.init(Grid(np.linspace(0.2, 12.0, 30_000)), RATE), mstate)

    def step(self):
        batch, vecs = self._next(self.ys), self._next(self.yvecs)
        old = self.states["final"]
        t0 = now()
        new = engine.update_stream(old, batch, skip_degenerate=True)
        mnew = multidim.multi_update_stream(self.mstates["final"], vecs)
        dt = now() - t0
        self._account(old, new, batch, mnew)
        return dt, len(batch) + len(vecs), dt

    def check(self, ops):
        problems = self._check_scalar()
        for src, vecs, dst in self._replays(self.yvecs):
            g0, want = self.mstates[src], self.mstates[dst]
            w, n = reference.lattice_recursion(
                g0.g.grid.base.points, g0.g.weights, g0.n, RATE.alpha, RATE.gamma, vecs
            )
            problems.append(_weights_mismatch(f"lattice {src}->{dst}", want.g.weights, w))
            if n != want.n:
                problems.append(f"lattice {src}->{dst}: n={want.n}, reference n={n}")
        final = self.mstates["final"].g.weights
        if abs(final.sum() - 1.0) > 1e-12:
            problems.append(f"lattice weights sum to {final.sum()!r}")
        problems = [p for p in problems if p]
        return (ops if problems else 0), problems

    def params(self):
        grid, lattice = self.states["final"].g.grid, self.mstates["final"].g.grid
        return {
            "d": len(grid),
            "grid_hi": grid.hi,
            "default_y_max": inference.default_y_max(grid),
            "lattice_base_d": len(lattice.base),
            "lattice_D": lattice.size,
            "max_count": int(max(self.ys.max(), self.yvecs.max())),
            "batch": BATCH,
            "pool_counts": self.pool,
            "counts_offered": 2 * self.offered,
            "counts_skipped": self.skipped,
        }


class ServeMixed:
    """Single-count writes beside CLI reads of a checkpointed state."""

    name = "serve-mixed"
    op = "query"
    trace_unit = 1
    min_ops = 20
    pool = 200_000
    d_cap = 200
    writes_per_query = 5000
    header = inference.EstimateReport.CSV_HEADER

    def __init__(self, workdir: Path):
        self.ckpt = workdir / f"serve-mixed-{os.getpid()}.state"
        self.csv = workdir / f"serve-mixed-{os.getpid()}.csv"

    def setup(self, seed):
        prior = priors.parse_prior("weibull:3,5")
        _, ys = evaluation.generate_compound(prior, self.pool, seed)
        self.ys = ys.tolist()
        _, grid = _paper_grid(ys, self.d_cap)
        self.state = engine.init(grid, RATE)
        self.state.cache.ensure(int(ys.max()))
        self.offered = 0
        self.outputs = []

    def step(self):
        lo = self.offered % len(self.ys)
        state = self.state
        if self.tracer:  # spans of the writes do not belong to the query
            query_id, self.tracer.op_id = self.tracer.op_id, "writes"
        t0 = now()
        for y in self.ys[lo : lo + self.writes_per_query]:
            state = engine.update(state, y)
        writing = now() - t0
        self.offered += self.writes_per_query
        self.state = state
        self.ckpt.write_bytes(engine.serialize_state(state))
        if self.tracer:
            self.tracer.op_id = query_id
        argv = ["--no-meta", "--out", str(self.csv), "estimate", "--state", str(self.ckpt), "--y", "0..7"]
        t0 = now()
        rc = cli.main(argv)
        dt = now() - t0
        if rc != 0:
            raise RuntimeError(f"streameb estimate exited with {rc}")
        self.outputs.append(self.csv.read_text(encoding="utf-8"))
        self.last = state
        return dt, self.writes_per_query, writing

    def _parse(self, text):
        lines = text.splitlines()
        if lines[0] != self.header or len(lines) != 9:
            raise ValueError(f"unexpected CSV layout: {lines[:2]}")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(8)):
            raise ValueError("rows are not y = 0..7")
        if not all(math.isfinite(v) for r in rows for v in r):
            raise ValueError("non-finite value in CSV")
        return rows

    def check(self, ops):
        bad, problems = 0, []
        parsed = []
        for i, text in enumerate(self.outputs):
            try:
                parsed.append(self._parse(text))
            except (ValueError, IndexError) as err:
                bad += 1
                problems.append(f"query {i}: {err}")
        if parsed and len(parsed) == len(self.outputs):
            g = self.last.g
            want = reference.estimate_and_variance(g.grid.points, g.weights, range(8))
            for row, (theta, var) in zip(parsed[-1], want):
                for label, got, ref in (("theta_hat", row[1], theta), ("variance", row[2], var)):
                    if not abs(got - ref) <= ESTIMATE_TOL * max(abs(ref), 1.0):
                        problems.append(f"last query y={int(row[0])}: {label} {got!r} vs reference {ref!r}")
            bad += any(p.startswith("last query") for p in problems)
        return bad, problems

    def params(self):
        grid = self.state.g.grid
        return {
            "d": len(grid),
            "d_cap": self.d_cap,
            "grid_hi": grid.hi,
            "default_y_max": inference.default_y_max(grid),
            "writes_per_query": self.writes_per_query,
            "query": "estimate --y 0..7",
            "pool_counts": self.pool,
            "counts_offered": self.offered,
        }

    def cleanup(self):
        for path in (self.ckpt, self.csv):
            path.unlink(missing_ok=True)


class CompareBatch:
    """The paper's comparison protocol: stream, four baselines, regret decay.

    One job is six operations, run in turn, so that a run holds many short
    operations rather than a few long ones: the stream experiment with the
    closed-form baselines (robbins, peb) on both histograms, the four
    vertex-direction fits (npmle and npmd on the synthetic and on the
    insurance histogram), and the regret diagnostic, which also renders the
    job's CSV and markdown tables.
    """

    name = "compare-batch"
    op = "task"
    tasks = ("stream", "synthetic/npmle", "synthetic/npmd", "insurance/npmle", "insurance/npmd", "regret")
    min_ops = 2 * len(tasks)
    trace_unit = len(tasks)  # traced runs trace whole jobs, every second one
    n = 500
    jobs = 32
    checkpoints = (1000, 4000, 16000)
    regret_reps = 10

    def _vdm(self, h):
        # Grid rule of `streameb baseline`: 1,000 points up to max + 3 (sqrt(max) + 1).
        hi = max(h.max_count() + 3.0 * (h.max_count() ** 0.5 + 1.0), 1.0)
        return baselines.VdmConfig(Grid(np.linspace(1e-3, hi, 1000)), max_iters=500, tol=1e-8)

    def setup(self, seed):
        prior = priors.parse_prior("weibull:3,5")
        self.cfg = evaluation.ExperimentConfig(prior=prior, n=self.n, eta=0.025, d_cap=10_000, rate=RATE)
        self.oracle = priors.parse_prior("grid-atoms:1@0.5,5@0.5")
        insurance = CountHistogram.from_pairs(ACCIDENT_PAIRS)
        self.inputs = []
        for j in range(self.jobs):
            job_seed = seed * 10_000 + j * 100
            _, ys = evaluation.generate_compound(prior, self.n, job_seed)
            h = CountHistogram.from_counts(ys)
            hists = {"synthetic": (h, self._vdm(h)), "insurance": (insurance, self._vdm(insurance))}
            self.inputs.append((job_seed, hists))
        self.done = 0
        self.outputs = []  # (task, histograms, result) per completed operation
        self.job = {}
        self.job_seconds = []  # input to finished table, per completed job

    def step(self):
        task = self.tasks[self.done % len(self.tasks)]
        job_seed, hists = self.inputs[self.done // len(self.tasks) % self.jobs]
        self.done += 1
        if task == "stream":
            self.job = {"tables": {}, "seconds": 0.0}
        job, counts, busy = self.job, 0, 0.0
        t0 = now()
        if task == "stream":
            job["row"] = row = evaluation.run_stream_experiment(self.cfg, job_seed, measure_time=False)
            counts, busy = self.n, now() - t0
            for label, (h, vdm) in hists.items():
                for method in ("robbins", "peb"):
                    job["tables"][f"{label}/{method}"] = baselines.baseline_estimates(h, method, vdm)
            result = (row, dict(job["tables"]))
        elif task == "regret":
            cfg = evaluation.ExperimentConfig(
                prior=self.oracle,
                n=max(self.checkpoints),
                rate=engine.LearningRate(1.0, 0.75),
                seeds=tuple(range(job_seed, job_seed + self.regret_reps)),
            )
            res = evaluation.regret_decay_diagnostic(cfg, self.checkpoints)
            tables = {name: rows for name, (rows, _) in job["tables"].items()}
            table = evaluation.metrics_to_csv([job["row"]]) + baselines.estimates_to_markdown(tables)
            result = (res, table, sorted(tables))
            counts, busy = self.regret_reps * max(self.checkpoints), now() - t0
        else:
            label, method = task.split("/")
            h, vdm = hists[label]
            job["tables"][task] = result = baselines.baseline_estimates(h, method, vdm)
        dt = now() - t0
        job["seconds"] += dt
        if task == "regret":
            self.job_seconds.append(job["seconds"])
        self.outputs.append((task, hists, result))
        return dt, counts, busy

    def summary(self):
        """Median time from seeded input to finished table, over whole jobs."""
        jobs = self.job_seconds
        return {"job_s": (float(np.median(jobs)), "s", len(jobs))} if jobs else {}

    def _problems(self, task, hists, result):
        """What is wrong with one operation's output, against reference.py."""
        if task == "regret":
            res, table, names = result
            issues = []
            if not (np.all(np.isfinite(res.regrets)) and math.isfinite(res.median_slope)):
                issues.append("non-finite regret")
            if len(names) != 2 * len(baselines.METHODS) or not all(f"| {name} |" in table for name in names):
                issues.append(f"comparison table lacks a method row: has {names}")
            return issues
        if task == "stream":
            row, closed = result
            issues = []
            if not (row.rmse >= 0 and row.mad >= 0 and math.isfinite(row.rmse + row.mad)):
                issues.append(f"stream RMSE/MAD {row.rmse!r}/{row.mad!r}")
            for label, (h, _) in hists.items():
                rows, _ = closed[f"{label}/robbins"]
                if rows != [(y, reference.robbins(h.entries, y)) for y in sorted(h.entries)]:
                    issues.append(f"{label}/robbins differs from the reference")
                rows, info = closed[f"{label}/peb"]
                shape, rate = info["shape"], info["rate"]
                best = reference.nb_log_likelihood(h.entries, shape, rate)
                steps = ((shape * 1.01, rate), (shape / 1.01, rate), (shape, rate * 1.01), (shape, rate / 1.01))
                for s, r in steps:
                    if reference.nb_log_likelihood(h.entries, s, r) > best + 1e-9 * abs(best):
                        issues.append(f"{label}/peb: (shape, rate) is not a likelihood maximum")
                        break
                if not all(math.isfinite(est) and est > 0 for _, est in rows):
                    issues.append(f"{label}/peb: estimate not finite and positive")
            return issues
        label, method = task.split("/")
        h, vdm = hists[label]
        rows, info = result
        points = vdm.grid.points
        issues = []
        if not all(points[0] <= est <= points[-1] for _, est in rows):
            issues.append(f"{task}: a posterior mean lies outside the grid")
        if not info.get("certificate", 0.0) >= 1.0 - 1e-9:
            issues.append(f"{task}: certificate {info.get('certificate')!r}, must be >= 1")
        uniform, saturated, hellinger = reference.vdm_bounds(points, h.entries)
        obj = info["objective"]
        lo, hi = (uniform, saturated) if method == "npmle" else (0.0, hellinger)
        if not lo - 1e-9 * abs(lo) <= obj <= hi + 1e-9 * abs(hi):
            issues.append(f"{task}: objective {obj!r} outside [{lo!r}, {hi!r}]")
        return issues

    def check(self, ops):
        bad, problems = 0, []
        for i, (task, hists, result) in enumerate(self.outputs):
            issues = self._problems(task, hists, result)
            if issues:
                bad += 1
                problems.append(f"operation {i} ({task}): " + "; ".join(issues))
        return bad, problems

    def params(self):
        return {
            "tasks_per_job": len(self.tasks),
            "stream_n": self.n,
            "stream_grid": "eta=0.025, d_cap=10000",
            "baseline_grid_points": 1000,
            "max_iters": 500,
            "tol": 1e-8,
            "histograms": "synthetic Weibull(3,5) n=500, insurance",
            "regret": f"grid-atoms:1@0.5,5@0.5 gamma=0.75 reps={self.regret_reps} checkpoints={self.checkpoints}",
            "tasks_run": self.done,
        }


WORKLOADS = {w.name: w for w in (IngestPaper, IngestDense, ServeMixed, CompareBatch)}


def run_phase(wl, seed, seconds, min_ops, tracer=None):
    """Set up, then run operations for ``seconds``, timing SETUP_REPEATS set-ups.

    The first set-up is the workload's own; the others set up a throwaway
    copy, spread evenly over the run, so the set-up median sees the same
    machine conditions as the operations.  Their time is not charged to the
    run's ``seconds``.  With a tracer, every second set-up and every second
    run of ``wl.trace_unit`` operations runs traced, so the traced and
    untraced samples share the machine's conditions and their difference is
    the tracing overhead.
    """
    wl.tracer = tracer
    setups, ops, attempted, failed = [], [], 0, 0

    def timed(i, label, call, unit=1):
        traced = tracer is not None and i // unit % 2 == 1
        if traced:
            tracer.op_id = f"{label}-{i}"
            tracer.install()
        try:
            return traced, call()
        finally:
            if traced:
                tracer.uninstall()

    def time_setup(target):
        t0 = now()
        traced, _ = timed(len(setups), "setup", lambda: target.setup(seed))
        dt = now() - t0
        setups.append((traced, dt))
        return dt

    time_setup(wl)
    start = now()
    while now() - start < seconds or attempted < min_ops:
        if len(setups) < SETUP_REPEATS and now() - start >= len(setups) * seconds / SETUP_REPEATS:
            start += time_setup(copy.copy(wl))
        attempted += 1
        try:
            traced, (dt, n, busy) = timed(attempted - 1, "op", wl.step, wl.trace_unit)
        except Exception:  # an operation that raises counts as failed; the loop goes on
            failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        ops.append((traced, dt, n, busy))
    while len(setups) < SETUP_REPEATS:
        time_setup(copy.copy(wl))
    bad, problems = wl.check(attempted - failed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"setups": setups, "ops": ops, "attempted": attempted, "failed": failed + bad,
            "problems": problems}


HIGHER_IS_BETTER = {"ingest_counts_per_s"}


def end_to_end(phase, traced=False) -> dict:
    """End-to-end metrics over the untraced (or the traced) samples."""
    ops = [op for op in phase["ops"] if op[0] == traced]
    if not ops:
        return {}
    lat = np.array([dt for _, dt, _, _ in ops])
    return {
        "setup_s": float(np.median([dt for t, dt in phase["setups"] if t == traced])),
        "ingest_counts_per_s": sum(op[2] for op in ops) / sum(op[3] for op in ops),
        "op_ms_p50": float(np.percentile(lat, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(lat, 90)) * 1e3,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, help="write the result JSON here")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(streameb.__file__).resolve().parent.parent != src:
        print(f"streameb imported from {streameb.__file__}, not from {src}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # solvers warn when they stop at max_iters
    workdir = Path(args.result).parent
    cls = WORKLOADS[args.workload]
    wl = cls(workdir) if cls is ServeMixed else cls()
    try:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        phase = run_phase(wl, args.seed, args.seconds, wl.min_ops, tracer)
        metrics = end_to_end(phase)
        if tracer:
            tracer.write(workdir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            e_traced = end_to_end(phase, traced=True)
            overhead = {}
            for key in metrics.keys() & e_traced.keys():
                # Positive means tracing made the metric worse.
                ratio = e_traced[key] / metrics[key]
                overhead[f"trace.overhead.{key}"] = (1 / ratio if key in HIGHER_IS_BETTER else ratio) - 1.0
            metrics = tracer.layer_metrics([dt for t, dt, _, _ in phase["ops"] if t]) | overhead
        result = {
            "workload": args.workload,
            "op": wl.op,
            "seed": args.seed,
            "trace": args.trace,
            "attempted": phase["attempted"],
            "failed": phase["failed"],
            "problems": phase["problems"],
            "samples": {"setup": len(phase["setups"]), "ops": len(phase["ops"])},
            "setup_s": [dt for _, dt in phase["setups"]],
            "op_latencies_s": [dt for _, dt, _, _ in phase["ops"]],
            "ingest_s": [busy for _, _, _, busy in phase["ops"]],
            "metrics": metrics,
            "env": environment(),
            "params": wl.params(),
            "summary": wl.summary() if hasattr(wl, "summary") and not args.trace else {},
        }
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
