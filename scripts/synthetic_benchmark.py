#!/usr/bin/env python3
"""Run the synthetic comparison: streaming estimator vs the batch baselines.

For each prior and sample size, draws a compound sample per seed, fits all
five methods, and reports RMSE/MAD rows plus a median summary table.

    python scripts/synthetic_benchmark.py --priors weibull:3,5 uniform:0,3 \
        --n 100 500 --seeds 10 --out results.csv
"""

import argparse
import sys

import numpy as np

from streameb.baselines import (
    VdmConfig,
    baseline_grid,
    fit_gamma_hyperprior,
    fit_min_hellinger,
    fit_npmle,
    gamma_posterior_mean,
    robbins_estimate,
)
from streameb.engine import LearningRate
from streameb.evaluation import (
    ExperimentConfig,
    MetricRow,
    generate_compound,
    metrics_to_csv,
    metrics_to_markdown,
    rmse_mad,
    run_stream_experiment,
)
from streameb.inference import ratio_estimate
from streameb.model import CountHistogram, KernelMatrixCache
from streameb.priors import parse_prior


def baseline_rows(prior, prior_label, n, seed, grid_points):
    thetas, ys = generate_compound(prior, n, seed)
    h = CountHistogram.from_counts(ys)
    grid = baseline_grid(h, grid_points)
    cfg = VdmConfig(grid)
    cache = KernelMatrixCache(grid)
    rows = []

    def score(label, estimate_at):
        table = {y: estimate_at(int(y)) for y in np.unique(ys)}
        rmse, mad = rmse_mad(thetas, np.array([table[y] for y in ys]))
        rows.append(
            MetricRow(label, prior_label, n, len(grid), float("nan"), float("nan"),
                      seed, rmse, mad, float("nan"))
        )

    score("robbins", lambda y: robbins_estimate(h, y) if y in h.entries else float(y))
    npmle = fit_npmle(h, cfg).weights
    score("npmle", lambda y: ratio_estimate(npmle, y, cache))
    npmd = fit_min_hellinger(h, cfg).weights
    score("npmd", lambda y: ratio_estimate(npmd, y, cache))
    hyper = fit_gamma_hyperprior(h)
    score("peb", lambda y: gamma_posterior_mean(hyper, y))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--priors", nargs="+", default=["weibull:3,5"])
    ap.add_argument("--n", nargs="+", type=int, default=[100, 500])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--eta", type=float, default=0.025)
    ap.add_argument("--dcap", type=int, default=10_000)
    ap.add_argument("--gamma", type=float, default=0.99)
    ap.add_argument("--grid-points", type=int, default=1000)
    ap.add_argument("--skip-baselines", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    rows = []
    for prior_text in args.priors:
        prior = parse_prior(prior_text)
        for n in args.n:
            cfg = ExperimentConfig(
                prior=prior, n=n, eta=args.eta, d_cap=args.dcap,
                rate=LearningRate(1.0, args.gamma),
            )
            for seed in range(args.seeds):
                rows.append(run_stream_experiment(cfg, seed))
                if not args.skip_baselines:
                    rows.extend(
                        baseline_rows(prior, prior.family, n, seed, args.grid_points)
                    )
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
