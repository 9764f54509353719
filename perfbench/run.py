"""Run streameb benchmark workloads and print their metrics.

Each workload runs in its own child process, with BLAS pinned to one thread,
so its peak RSS is its own.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it name
every metric with its unit and sample count, and record the environment.

    python3 perfbench/run.py --workload ingest-paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 1`` reports per-layer metrics from spans (see tracing.py) instead
of the end-to-end ones.  Run from the root of a streameb source tree; the
package is imported from its ``src/`` directory, never from site-packages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("ingest-paper", "ingest-dense", "serve-mixed", "compare-batch")
# A child gets its timed region plus this long for start-up, set-up and checks.
CHILD_GRACE_S = 145.0
BLAS_THREADS = "1"

UNITS = {
    "setup_s": "s",
    "ingest_counts_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# What one operation is on each workload.
OPS = {
    "ingest-paper": "one 1,000-count update_stream batch",
    "ingest-dense": "one round: a 1,000-count scalar batch and a 1,000-vector lattice batch",
    "serve-mixed": "one in-process `streameb estimate --y 0..7` on the latest checkpoint",
    "compare-batch": "one of a comparison job's six tasks: stream experiment with robbins and peb, "
                     "one npmle or npmd fit, or regret diagnostic with the tables",
}
# The workload-specific name of each operation latency: (name, source).
ALIASES = {
    "ingest-paper": [("batch_ms_p50", "op_ms_p50"), ("batch_ms_p90", "op_ms_p90")],
    "ingest-dense": [("batch_ms_p50", "op_ms_p50"), ("batch_ms_p90", "op_ms_p90")],
    "serve-mixed": [("query_ms_p50", "op_ms_p50")],
    "compare-batch": [],
}


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    for suffix, unit in (("_mb", "MB"), ("us_per_count", "us"), ("us_per_call", "us"),
                         ("us_per_step", "us"), ("_ms_per_op", "ms"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def source_identity() -> dict:
    """The commit when this is a git checkout, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        commit = out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; returns (result, peak RSS MB)."""
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result_path)]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    deadline = time.monotonic() + seconds + CHILD_GRACE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"{workload}: child exited with {proc.returncode} and no result")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def report(result: dict, peak_mb: float, ident: dict) -> dict:
    """Print one workload's record and metric table; returns its metrics."""
    env, params = result["env"], result["params"]
    print(f"# workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"commit={ident['commit']} src_sha256={ident['src_sha256'][:16]}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# params " + " ".join(f"{k}={v}" for k, v in params.items()))
    print(f"# op = {OPS[result['workload']]}")
    ops, setups = result["samples"]["ops"], result["samples"]["setup"]
    metrics = {}
    if result["trace"]:
        for name, value in result["metrics"].items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        values = dict(result["metrics"], peak_rss_mb=peak_mb)
        if values.keys() < UNITS.keys():
            raise RuntimeError(f"{result['workload']}: no operation succeeded")
        for name, unit in UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    print(f"{'metric':<42} {'value':>16} {'unit':<6} samples")
    for name, m in metrics.items():
        n = setups if name == "setup_s" else 1 if name == "peak_rss_mb" else ops
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']:<6} {n}")
    if not result["trace"]:
        for alias, source in ALIASES[result["workload"]]:
            label = f"{alias} (= {source})"
            print(f"{label:<42} {metrics[source]['value']:>16.6g} {'ms':<6} {ops}")
        for name, (value, unit, n) in result["summary"].items():
            print(f"{name:<42} {value:>16.6g} {unit:<6} {n}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':<42} {failed / attempted:>16.6g} {'ratio':<6} {failed}/{attempted}")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "streameb" / "__init__.py").is_file():
        print(f"error: no streameb sources under {SRC}", file=sys.stderr)
        return 2
    ident = source_identity()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, peak_mb = run_child(name, args.seed, args.seconds, args.trace)
            metrics = report(result, peak_mb, ident)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["correct"] &= result["failed"] == 0 and not result["problems"]
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
