#!/usr/bin/env python3
"""Monte Carlo check of interval coverage against each stream's own limit.

Runs many replications of the streaming fit, forms nominal-level intervals
at a modest n, then continues each stream much further and measures how
often the interval covered the long-run estimate.

    python scripts/interval_coverage.py --reps 200 --n-small 5000 --n-big 500000
"""

import argparse
import sys

from streameb.engine import LearningRate
from streameb.evaluation import interval_coverage


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--atoms", nargs="+", type=float, default=[0.5, 2.0, 4.5, 8.0, 13.0])
    ap.add_argument("--probs", nargs="+", type=float, default=[0.15, 0.25, 0.25, 0.2, 0.15])
    ap.add_argument("--gamma", type=float, default=0.75)
    ap.add_argument("--level", type=float, default=0.9)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--n-small", type=int, default=5000)
    ap.add_argument("--n-big", type=int, default=500_000)
    ap.add_argument("--y", nargs="+", type=int, default=[0, 1, 2])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    coverage = interval_coverage(
        args.atoms, args.probs, LearningRate(1.0, args.gamma), args.level, args.y,
        args.reps, args.n_small, args.n_big, args.seed,
    )
    print("y,coverage")
    for y, share in coverage.items():
        print(f"{y},{share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
