"""Command-line front end: ingestion, simulation, fitting, estimation, benchmarks.

Subcommands
-----------
simulate  stream draws from a synthetic prior through the recursion;
          writes one metric row (RMSE, MAD) per replication
fit       stream a count file through the recursion; writes its estimates
          and, optionally, a resumable state
estimate  point estimates and credible intervals from a saved state
baseline  classical estimators over a count histogram
bench     per-update timing across grid sizes
regret    decay of the regret along a stream against a grid-atoms oracle

Exit codes: 0 success, 2 flag/input validation error, 3 numerical failure.
Outputs are deterministic for fixed flags and seed; the one timestamp header
line is suppressed by --no-meta.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, engine, evaluation, inference
from .baselines import SolverConfig
from .engine import LearningRate
from .gridding import GridInfeasibleError, GridSpec, build_equispaced_grid
from .model import CountHistogram, DegenerateLikelihoodError
from .priors import _DECIMAL, _decimal, parse_prior

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


@dataclass(frozen=True)
class IngestFormat:
    """How an input file maps to a count histogram.

    kind is one of:
      counts-lines   one nonnegative integer per line
      histogram-csv  header ``y,count`` then one pair per line
      event-window   TSV of (entity_id, origin_epoch_s, event_epoch_s); the
                     count for an entity is the number of its events within
                     ``window_s`` seconds of its origin.  Every row of an
                     entity gives the same origin, and timestamps are finite.
                     A row with an empty third field declares an entity with
                     zero events.

    Counts are optionally signed runs of ASCII digits.
    """

    kind: str
    window_s: float | None = None
    KINDS = ("counts-lines", "histogram-csv", "event-window")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ingest format {self.kind!r}")
        if self.kind == "event-window" and not (self.window_s and self.window_s > 0):
            raise ValueError("event-window ingestion needs a positive window length")
        if self.kind != "event-window" and self.window_s is not None:
            raise ValueError(f"--window is read by event-window input only, not {self.kind}")


# A count field: an optionally signed run of ASCII digits, so ``1_0`` and ``٣`` are refused.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ascii_ints(fields) -> list:
    """Integers from ``fields``, each an ``_INTEGER`` once the blanks around it are stripped."""
    fields = [field.strip() for field in fields]
    if not all(_INTEGER.fullmatch(field) for field in fields):
        raise ValueError(f"not an integer: {fields!r}")
    return [int(field) for field in fields]


def _flag_int(text: str, least: float = -math.inf) -> int:
    """argparse type of the integer flags: the ``_INTEGER`` rule of the input files, >= ``least``."""
    try:
        value = _ascii_ints([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {least}, got {text!r}")
    return value


_flag_seed = functools.partial(_flag_int, least=0)
_flag_count = functools.partial(_flag_int, least=1)


def _flag_float(text: str) -> float:
    """argparse type of the float flags: the ``_DECIMAL`` rule of timestamps and priors."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {text!r}") from None


def _flag_path(text: str) -> str:
    """argparse type of the output and state paths: an empty path is refused, not ignored."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return text


def _flag_prior(text: str):
    """argparse type of ``--prior`` and ``--atoms``: ``parse_prior``, its refusal naming the flag."""
    try:
        return parse_prior(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _lines(path: str) -> list:
    """``(line number, line)`` for each nonblank line of ``path``; a file with none is refused."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(ln, line) for ln, line in enumerate(handle.read().splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty input")
    return lines


def read_count_stream(path: str) -> list:
    """Counts-lines parser preserving file order (one integer per line)."""
    counts = []
    for ln, line in _lines(path):
        line = line.strip()
        if not _INTEGER.fullmatch(line) or int(line) < 0:
            raise ValueError(f"{path}:{ln}: expected a nonnegative integer, got {line!r}")
        counts.append(int(line))
    return counts


def ingest(path: str, fmt: IngestFormat) -> CountHistogram:
    """Parse a file into a histogram; malformed lines report their number."""
    if fmt.kind == "counts-lines":
        return CountHistogram.from_counts(read_count_stream(path))
    lines = _lines(path)
    if fmt.kind == "histogram-csv":
        if lines[0][0] == 1 and lines[0][1].strip().lower().replace(" ", "") == "y,count":
            lines = lines[1:]
        pairs = []
        for ln, line in lines:
            fields = [field.strip() for field in line.split(",")]
            if len(fields) != 2 or not all(_INTEGER.fullmatch(field) for field in fields):
                raise ValueError(f"{path}:{ln}: expected 'y,count', got {line.strip()!r}")
            pairs.append((int(fields[0]), int(fields[1])))
        return CountHistogram.from_pairs(pairs)
    # event-window: one count per entity id, each entity with a single origin
    origins, events = {}, {}
    for ln, line in lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
        entity, origin_s, event_s = (p.strip() for p in parts)
        for stamp in (origin_s, event_s) if event_s else (origin_s,):
            if not _DECIMAL.fullmatch(stamp):
                raise ValueError(f"{path}:{ln}: bad timestamp {stamp!r}")
        origin = float(origin_s)
        event = float(event_s) if event_s else None
        if not math.isfinite(origin) or (event is not None and not math.isfinite(event)):
            raise ValueError(f"{path}:{ln}: timestamps must be finite")
        first = origins.setdefault(entity, origin)
        if origin != first:
            raise ValueError(
                f"{path}:{ln}: entity {entity!r} has origin {origin!r}, "
                f"but {first!r} on its first row"
            )
        events.setdefault(entity, 0)
        if event is not None and 0.0 <= event - origin <= fmt.window_s:
            events[entity] += 1
    return CountHistogram.from_counts(events.values())


def _meta_line(args) -> str:
    return f"# streameb {args.command} generated_at={time.strftime('%Y-%m-%dT%H:%M:%S')}"


def _emit(text: str, args) -> None:
    body = text if args.no_meta else _meta_line(args) + "\n" + text
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)


def _parse_int_list(text: str, flag: str):
    """Comma-separated integers; an empty list or an empty field is refused."""
    try:
        return _ascii_ints(text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_y_range(text: str):
    """``--y``: an ascending range ``lo..hi``, both ends included, or a list of counts."""
    if ".." not in text:
        return _parse_int_list(text, "--y")
    try:
        lo, hi = _ascii_ints(text.split(".."))
    except ValueError:
        raise ValueError(f"--y needs a range lo..hi of integers, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"--y range {text!r} is descending")
    return list(range(lo, hi + 1))


def _parse_windows(text: str, n: int):
    """``--windows``: comma-separated ``lo:hi`` windows of the ``n`` timed updates.

    Each needs ``0 <= lo <= hi <= n`` and ``lo < n``, so no window is empty.
    """
    windows = []
    for field in text.split(","):
        try:
            lo, hi = _ascii_ints(field.split(":"))
        except ValueError:
            raise ValueError(f"--windows needs comma-separated lo:hi pairs, got {text!r}") from None
        if not (0 <= lo <= hi <= n and lo < n):
            raise ValueError(f"--windows {field!r} needs 0 <= lo <= hi <= {n} (--n) and lo < {n}")
        windows.append((lo, hi))
    return windows


def _read_scalar_state(path: str) -> engine.NewtonState:
    """A serialized state from ``path``; lattice states have no CLI commands."""
    with open(path, "rb") as handle:
        state = engine.deserialize_state(handle.read())
    if state.g.grid.k != 1:
        raise engine.StateFormatError(f"expected a scalar state, found kdim={state.g.grid.k}")
    return state


def _ingest_format(args) -> IngestFormat:
    return IngestFormat(kind=args.format, window_s=args.window)


# -- subcommand bodies --------------------------------------------------------


# The grid and rate flags' defaults: simulate's argparse defaults.  fit's
# flags default to None, so that beside --state-in, whose state brings its own
# grid and rate, one given (or --m2) is refused, not ignored.
_GRID_FLAGS = {"eta": 0.025, "dcap": 10_000, "gamma": 0.99, "alpha": 1.0}


def _take_defaults(args, flags: dict, refusal: str | None) -> None:
    """Set each of ``flags`` not given to its default; one given is refused when ``refusal`` is set."""
    for name, default in flags.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif refusal:
            raise ValueError(f"--{name.replace('_', '-')} {refusal}")


def _cmd_simulate(args) -> int:
    seeds = tuple(range(args.seed, args.seed + args.replications))
    cfg = evaluation.ExperimentConfig(prior=args.prior, n=args.n, eta=args.eta, d_cap=args.dcap,
                                      rate=LearningRate(args.alpha, args.gamma), seeds=seeds)
    rows = [evaluation.run_stream_experiment(cfg, s, measure_time=args.timing) for s in cfg.seeds]
    _emit(evaluation.metrics_to_csv(rows), args)
    return 0


def _cmd_fit(args) -> int:
    fresh = "sets up a new grid and rate; --state-in resumes on its state's own"
    _take_defaults(args, {"m2": None, **_GRID_FLAGS}, fresh if args.state_in is not None else None)
    shuffle = "shuffles histogram and event-window input; counts-lines input streams in file order"
    _take_defaults(args, {"seed": 0}, shuffle if args.format == "counts-lines" else None)
    if args.m2 is not None and not args.m2 > 0:
        raise ValueError(f"--m2 must be positive, got {args.m2!r}")
    rate = LearningRate(args.alpha, args.gamma)
    fmt = _ingest_format(args)
    if fmt.kind == "counts-lines":
        # the recursion is order-dependent; stream the file in its own order
        ys = read_count_stream(args.input)
        h = CountHistogram.from_counts(ys)
    else:
        # a histogram has no order; its consistency results assume an
        # exchangeable one, so stream a seeded shuffle, not the sorted counts
        h = ingest(args.input, fmt)
        ascending = np.repeat(h.support(), h.multiplicities().astype(np.int64))
        ys = np.random.default_rng(args.seed).permutation(ascending)
    if args.state_in is not None:
        state = _read_scalar_state(args.state_in)
    else:
        m2 = args.m2 if args.m2 is not None else float(np.mean(np.array(ys, dtype=float) ** 2))
        if m2 <= 0:
            raise ValueError("all counts are zero; supply --m2, a state, or richer data")
        grid = build_equispaced_grid(GridSpec(args.eta, 2, m2, d_cap=args.dcap))
        state = engine.init(grid, rate)
    n_before = state.n
    state = engine.update_stream(state, ys, skip_degenerate=args.skip_degenerate)
    if args.skip_degenerate:
        print(f"# skipped {len(ys) - (state.n - n_before)} of {len(ys)} counts", file=sys.stderr)
    if args.state_out is not None:
        with open(args.state_out, "wb") as handle:
            handle.write(engine.serialize_state(state))
    table = inference.estimate_table(state.g, h.max_count())[0].tolist()
    rows = [(y, table[y]) for y in sorted(h.entries)]
    _emit(baselines.estimates_to_csv(rows, "stream"), args)
    return 0


def _cmd_estimate(args) -> int:
    ys = _parse_y_range(args.y)
    state = _read_scalar_state(args.state)
    reports = inference.credible_intervals(state, ys, args.level)
    text = inference.EstimateReport.CSV_HEADER + "\n"
    text += "\n".join(r.csv_row() for r in reports) + "\n"
    _emit(text, args)
    return 0


def _cmd_baseline(args) -> int:
    h = ingest(args.input, _ingest_format(args))
    cfg = SolverConfig(baselines.baseline_grid(h)) if args.method in ("npmle", "npmd") else None
    rows, info = baselines.baseline_estimates(h, args.method, cfg)
    if args.markdown:
        _emit(baselines.estimates_to_markdown({args.method: rows}), args)
    else:
        _emit(baselines.estimates_to_csv(rows, args.method), args)
    if args.verbose:
        print(f"# info: {info}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    windows = _parse_windows(args.windows, args.n)
    ds = _parse_int_list(args.d, "--d")
    rows = evaluation.timing_harness(ds, args.n, windows, seed=args.seed)
    text = "d,window_lo,window_hi,median_ms\n"
    text += "\n".join(f"{d},{lo},{hi},{ms!r}" for d, lo, hi, ms in rows) + "\n"
    _emit(text, args)
    return 0


def _cmd_regret(args) -> int:
    prior = args.atoms
    if prior.family != "grid-atoms":
        raise ValueError("regret needs a grid-atoms oracle, e.g. grid-atoms:1@0.5,4@0.5")
    checkpoints = _parse_int_list(args.checkpoints, "--checkpoints")
    cfg = evaluation.ExperimentConfig(
        prior=prior,
        n=max(checkpoints),
        rate=LearningRate(args.alpha, args.gamma),
        seeds=tuple(range(args.seed, args.seed + args.replications)),
    )
    res = evaluation.regret_decay_diagnostic(cfg, checkpoints)
    lines = ["seed,checkpoint,regret"]
    for seed, row in zip(cfg.seeds, res.regrets.tolist()):
        lines += [f"{seed},{c},{value!r}" for c, value in zip(res.checkpoints, row)]
    lines.append(f"# median_log_log_slope,{res.median_slope!r}")
    lines.append(f"# median_tv_final,{float(np.median(res.tv_final))!r}")
    _emit("\n".join(lines) + "\n", args)
    return 0


# -- parser -------------------------------------------------------------------


def _add_grid_flags(cmd, seed_help: str) -> None:
    """Add the grid, rate and seed flags of ``simulate`` and ``fit``, defaulting to None."""
    cmd.add_argument("--eta", type=_flag_float, help="grid spacing (0.025)")
    cmd.add_argument("--dcap", type=_flag_int, help="most grid points (10000)")
    cmd.add_argument("--gamma", type=_flag_float, help="step-size decay (0.99)")
    cmd.add_argument("--alpha", type=_flag_float, help="step-size offset (1.0)")
    cmd.add_argument("--seed", type=_flag_seed, help=seed_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streameb", description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=_flag_path, help="write output here instead of stdout")
    parser.add_argument("--no-meta", action="store_true", help="suppress the timestamp header")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="stream draws from a synthetic prior; RMSE/MAD rows")
    sim.add_argument("--prior", type=_flag_prior, required=True, help="e.g. weibull:5,3")
    sim.add_argument("--n", type=_flag_int, default=500, help="counts per replication (500)")
    sim.add_argument("--replications", type=_flag_count, default=1, help="seeds from --seed (1)")
    sim.add_argument("--timing", action="store_true",
                     help="include measured per-update time (not byte-deterministic)")
    _add_grid_flags(sim, "first seed (0)")
    sim.set_defaults(func=_cmd_simulate, seed=0, **_GRID_FLAGS)

    fit = sub.add_parser("fit", help="stream a count file through the recursion")
    fit.add_argument("--input", required=True, help="count file to stream")
    fit.add_argument("--format", default="counts-lines", choices=IngestFormat.KINDS)
    fit.add_argument("--window", type=_flag_float,
                     help="event-window length in seconds (that format only)")
    fit.add_argument("--m2", type=_flag_float,
                     help="positive moment bound for grid sizing (default: empirical)")
    fit.add_argument("--state-in", type=_flag_path,
                     help="resume from this saved state, on its own grid and rate: "
                          "refuses --m2, --eta, --dcap, --gamma and --alpha")
    fit.add_argument("--state-out", type=_flag_path, help="save the final state here")
    fit.add_argument("--skip-degenerate", action="store_true",
                     help="skip counts whose likelihood underflows instead of failing")
    _add_grid_flags(fit, "shuffle of a histogram or event-window input (0); "
                         "refused on counts-lines input, which streams in file order")
    fit.set_defaults(func=_cmd_fit)

    est = sub.add_parser("estimate", help="estimates and intervals from a saved state")
    est.add_argument("--state", required=True)
    est.add_argument("--y", required=True, help="counts, e.g. 0..7 or 0,3,9")
    est.add_argument("--level", type=_flag_float, default=0.95)
    est.set_defaults(func=_cmd_estimate)

    base = sub.add_parser("baseline", help="classical estimators over a histogram")
    base.add_argument("--method", required=True, choices=baselines.METHODS)
    base.add_argument("--input", required=True)
    base.add_argument("--format", default="histogram-csv", choices=IngestFormat.KINDS)
    base.add_argument("--window", type=_flag_float,
                      help="event-window length in seconds (that format only)")
    base.add_argument("--markdown", action="store_true")
    base.add_argument("--verbose", action="store_true")
    base.set_defaults(func=_cmd_baseline)

    bench = sub.add_parser("bench", help="per-update timing across grid sizes")
    bench.add_argument("--d", default="1000,10000", help="comma-separated grid sizes")
    bench.add_argument("--n", type=_flag_int, default=1000)
    bench.add_argument("--windows", default="100:200,900:1000")
    bench.add_argument("--seed", type=_flag_seed, default=0)
    bench.set_defaults(func=_cmd_bench)

    reg = sub.add_parser("regret", help="regret decay against a grid-atoms oracle")
    reg.add_argument("--atoms", type=_flag_prior, required=True,
                     help="e.g. grid-atoms:0.5@0.2,2@0.3,5@0.5")
    reg.add_argument("--gamma", type=_flag_float, default=0.75)
    reg.add_argument("--alpha", type=_flag_float, default=1.0)
    reg.add_argument("--seed", type=_flag_seed, default=0)
    reg.add_argument("--replications", type=_flag_count, default=5)
    reg.add_argument("--checkpoints", default="1000,4000,16000")
    reg.set_defaults(func=_cmd_regret)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.

    ``parse_args`` keeps no state between calls, so every ``main`` call can
    share it; building it (~1.4 ms) was over a third of an in-process
    ``estimate`` query on a d = 200 state.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return VALIDATION_EXIT if exc.code else 0
    try:
        return args.func(args)
    except (DegenerateLikelihoodError, GridInfeasibleError, baselines.ConvergenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (ValueError, OSError, engine.StateFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
