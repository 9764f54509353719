#!/usr/bin/env python3
"""Run the synthetic comparison: streaming estimator vs the batch baselines.

For each prior and sample size, draws a compound sample per seed, fits the
stream and every baseline on it (the grid fits on ``baselines.baseline_grid``,
1,000 points), and reports RMSE/MAD rows plus a median summary table.  Its
flags parse as the CLI's do, with ``streameb simulate``'s grid defaults.

    python scripts/synthetic_benchmark.py --priors weibull:3,5 uniform:0,3 \
        --n 100 500 --seeds 10 --out results.csv
"""

import argparse
import sys

from streameb.cli import (
    _GRID_FLAGS,
    _flag_count,
    _flag_dcap,
    _flag_float,
    _flag_positive,
    _flag_prior,
)
from streameb.engine import LearningRate
from streameb.evaluation import (
    ExperimentConfig,
    baseline_rows,
    metrics_to_csv,
    metrics_to_markdown,
    run_stream_experiment,
)
from streameb.priors import parse_prior


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--priors", nargs="+", type=_flag_prior, default=[parse_prior("weibull:3,5")])
    ap.add_argument("--n", nargs="+", type=_flag_count, default=[100, 500])
    ap.add_argument("--seeds", type=_flag_count, default=10)
    ap.add_argument("--eta", type=_flag_positive)
    ap.add_argument("--dcap", type=_flag_dcap)
    ap.add_argument("--gamma", type=_flag_float)
    ap.add_argument("--out")
    ap.set_defaults(**_GRID_FLAGS)
    args = ap.parse_args(argv)

    rows = []
    for prior in args.priors:
        for n in args.n:
            cfg = ExperimentConfig(prior=prior, n=n, eta=args.eta, d_cap=args.dcap,
                                   rate=LearningRate(args.alpha, args.gamma))
            for seed in range(args.seeds):
                rows.append(run_stream_experiment(cfg, seed))
                rows.extend(baseline_rows(cfg, seed))
            print(f"done: {prior.family} n={n}", file=sys.stderr)
    csv = metrics_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        print(csv)
    print(metrics_to_markdown(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
