#!/usr/bin/env python3
"""Record alternating benchmark pairs of two source trees into one JSON file.

Runs ``perfbench/run.py --workload W --seed S --seconds T`` in the base tree
and in the head tree, ``--pairs`` times per workload, alternating which tree
goes first, with seed ``--seed`` + i for pair i (both trees get the same
seed).  It reads the JSON line that run.py prints last and the ``# k=v``
lines above it (commit, source digest, library versions, nproc, BLAS
threads).  Per workload and end-to-end metric the file holds every run's
value, both medians and quartiles, and the pairs each tree won (ties count
for neither), with the metric's direction and bound from the head tree's
BENCHMARK.json.

    python3 scripts/bench_record.py --base ../parent --head . --pairs 10 \\
        --seconds 25 --workload compare-batch --out BENCH_21.json

An existing ``--out`` file keeps its other workloads, so workloads with
different pair counts go into one file by running the script once per
count.  The file is rewritten after every workload.  Compare numbers only
within one file: the two trees' runs in it come from one session.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The environment keys of run.py's header lines that must agree between trees.
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads")


def parse_run(stdout: str) -> dict:
    """One run.py output: its summary (the last line) and its ``# k=v`` fields."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    summary = json.loads(lines[-1])
    fields = {}
    for line in lines[:-1]:
        if line.startswith("# ") and not line.startswith(("# params ", "# op =")):
            for token in line[2:].split():
                key, sep, value = token.partition("=")
                if sep:
                    fields[key] = value
    return {"summary": summary, "fields": fields}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark of ``tree`` once.

    A run whose output checks fail still prints its summary, and is recorded
    with ``correct`` false; a run that prints no summary raises.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        run = parse_run(proc.stdout)
    except ValueError as err:  # json.JSONDecodeError is a ValueError
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{err}\n{proc.stderr[-2000:]}") from None
    run["returncode"] = proc.returncode
    return run


def _quartiles(values) -> dict:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(q2), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize(pairs: list, directions: dict) -> dict:
    """Per metric: both trees' values, medians, quartiles and pairs won.

    ``pairs`` holds ``{"seed", "first", "base", "head"}`` with parsed runs;
    ``directions`` maps a metric to its BENCHMARK.json entry ("better",
    "bound").
    """
    metrics = {}
    for name in pairs[0]["base"]["summary"]["metrics"]:
        base = [p["base"]["summary"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["summary"]["metrics"][name]["value"] for p in pairs]
        spec = directions.get(name, {})
        better = spec.get("better", "lower")
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        lost = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        b, h = _quartiles(base), _quartiles(head)
        change = (h["median"] - b["median"]) / b["median"] if b["median"] else None
        metrics[name] = {
            "unit": pairs[0]["base"]["summary"]["metrics"][name]["unit"],
            "better": better,
            "bound": spec.get("bound"),
            "base": dict(b, values=base),
            "head": dict(h, values=head),
            "head_median_change": change,
            "pairs_head_won": won,
            "pairs_base_won": lost,
            "pairs_tied": len(pairs) - won - lost,
            # the claim rule: 9 of 10 pairs, and a gap wider than the base's IQR
            "gain_resolved": won >= 0.9 * len(pairs)
            and sign * (b["median"] - h["median"]) > b["iqr"],
        }
    return metrics


def _tree_identity(runs: list) -> dict:
    fields = [r["fields"] for r in runs]
    return {key: sorted({f.get(key) for f in fields}, key=str) for key in ("commit", "src_sha256")}


def _dirty(tree: Path):
    """Whether tracked files differ from the tree's commit; None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--untracked-files=no"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(out.stdout.strip()) if out.returncode == 0 else None


def record_workload(base: Path, head: Path, workload: str, pairs: int, seconds: float, seed: int,
                    directions: dict) -> dict:
    """``pairs`` alternating pairs of one workload, summarized."""
    done = []
    for i in range(pairs):
        s = seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"seed": s, "first": order[0]}
        for side in order:
            pair[side] = run_once(base if side == "base" else head, workload, s, seconds)
        done.append(pair)
        print(f"# {workload} pair {i + 1}/{pairs} seed {s} ({order[0]} first) done", file=sys.stderr)
    envs = {side: [{k: p[side]["fields"].get(k) for k in ENV_KEYS} for p in done]
            for side in ("base", "head")}
    return {
        "pairs": pairs,
        "seconds": seconds,
        "seeds": [p["seed"] for p in done],
        "first": [p["first"] for p in done],
        "base": _tree_identity([p["base"] for p in done]),
        "head": _tree_identity([p["head"] for p in done]),
        "environment": envs["head"][0],
        "environment_agrees": all(e == envs["head"][0] for side in envs.values() for e in side),
        "correct": {side: [p[side]["summary"]["correct"] for p in done] for side in ("base", "head")},
        "failed_ops": {side: [p[side]["summary"]["failed"] for p in done] for side in ("base", "head")},
        "attempted_ops": {side: [p[side]["summary"]["attempted"] for p in done]
                          for side in ("base", "head")},
        "metrics": summarize(done, directions),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, type=Path, help="the parent's source tree")
    ap.add_argument("--head", required=True, type=Path, help="the changed source tree")
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--workload", required=True, action="append",
                    help="a workload of perfbench/run.py; give it again for more")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.head / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m for m in spec["end_to_end"]}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc.setdefault("workloads", {})
    for workload in args.workload:
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        entry = record_workload(args.base.resolve(), args.head.resolve(), workload, args.pairs,
                                args.seconds, args.seed, directions)
        entry.update(started=started, base_dirty=_dirty(args.base), head_dirty=_dirty(args.head))
        doc["workloads"][workload] = entry
        doc["command"] = "perfbench/run.py --workload W --seed S --seconds T, trees alternating"
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
