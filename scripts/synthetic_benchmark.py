#!/usr/bin/env python3
"""Run the synthetic comparison: streaming estimator vs the batch baselines.

For each prior and sample size, draws a compound sample per seed, fits the
stream and every baseline on it (the grid fits on ``baselines.baseline_grid``,
1,000 points), and reports RMSE/MAD rows plus a median summary table.

    python scripts/synthetic_benchmark.py --priors weibull:3,5 uniform:0,3 \
        --n 100 500 --seeds 10 --out results.csv
"""

import argparse
import sys

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
    ap.add_argument("--priors", nargs="+", default=["weibull:3,5"])
    ap.add_argument("--n", nargs="+", type=int, default=[100, 500])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--eta", type=float, default=0.025)
    ap.add_argument("--dcap", type=int, default=10_000)
    ap.add_argument("--gamma", type=float, default=0.99)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    rows = []
    for prior_text in args.priors:
        for n in args.n:
            cfg = ExperimentConfig(
                prior=parse_prior(prior_text), n=n, eta=args.eta, d_cap=args.dcap,
                rate=LearningRate(1.0, args.gamma),
            )
            for seed in range(args.seeds):
                rows.append(run_stream_experiment(cfg, seed))
                rows.extend(baseline_rows(cfg, seed))
            print(f"done: {prior_text} n={n}", file=sys.stderr)
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
