import importlib.util
import json
from pathlib import Path

import pytest

from streameb.baselines import METHODS
from streameb.engine import LearningRate
from streameb.evaluation import ExperimentConfig, MetricRow, baseline_rows
from streameb.priors import parse_prior

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_benchmark_rows_come_from_the_shared_routine(tmp_path, capsys):
    out, again = tmp_path / "rows.csv", tmp_path / "again.csv"
    args = ["--n", "60", "--seeds", "1", "--eta", "0.1", "--dcap", "400"]
    for path in (out, again):
        assert _script("synthetic_benchmark").main(args + ["--out", str(path)]) == 0
    assert out.read_bytes() == again.read_bytes()
    header, stream, *rest = out.read_text().splitlines()
    assert header == MetricRow.CSV_HEADER
    assert stream.startswith("stream,weibull,60,")
    cfg = ExperimentConfig(prior=parse_prior("weibull:3,5"), n=60, eta=0.1, d_cap=400,
                           rate=LearningRate(1.0, 0.99))
    expected = baseline_rows(cfg, 0)
    assert [r.method for r in expected] == list(METHODS)
    assert rest == [r.csv_row() for r in expected]
    assert "| RMSE |" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--grid-points", "100"], ["--skip-baselines"]])
def test_synthetic_benchmark_has_no_grid_or_skip_flag(flag, capsys):
    # the grid fits run on baseline_grid, and the script always runs them
    with pytest.raises(SystemExit) as exc:
        _script("synthetic_benchmark").main(["--n", "60", "--seeds", "1"] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _canned_run(workload, seed, commit, op_ms, rss, correct=True):
    """What perfbench/run.py prints for one run, cut to the lines the recorder reads."""
    metrics = {"op_ms_p50": {"value": op_ms, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        f"# workload={workload} seed={seed} trace=0 commit={commit} src_sha256={commit * 4}",
        "# python=3.11.7 numpy=2.4.6 scipy=1.17.1 nproc=2 blas_threads=1",
        "# params tasks_per_job=6 stream_n=500",
        "# op = one of a comparison job's six tasks",
        f"op_ms_p50 {op_ms} ms 100",
        json.dumps({"correct": correct, "attempted": 100, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_bench_record_alternates_and_summarizes_canned_runs(tmp_path, monkeypatch):
    rec = _script("bench_record")
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir(), head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    # base op_ms 3.0..3.4, head 2.0..2.4 except one pair head loses; rss equal
    op_ms = {"base": [3.0, 3.1, 3.2, 3.3, 3.4], "head": [2.0, 2.1, 3.5, 2.3, 2.4]}
    calls = []

    def runner(tree, workload, seed, seconds):
        side = "base" if tree == base else "head"
        calls.append((side, seed))
        value = op_ms[side][seed - 41]
        return rec.parse_run(_canned_run(workload, seed, "b" if side == "base" else "h", value, 90.0))

    monkeypatch.setattr(rec, "run_once", runner)
    out = tmp_path / "BENCH.json"
    args = ["--base", str(base), "--head", str(head), "--pairs", "5", "--seconds", "25",
            "--workload", "compare-batch", "--seed", "41", "--out", str(out)]
    assert rec.main(args) == 0
    assert calls == [("base", 41), ("head", 41), ("head", 42), ("base", 42), ("base", 43),
                     ("head", 43), ("head", 44), ("base", 44), ("base", 45), ("head", 45)]
    entry = json.loads(out.read_text())["workloads"]["compare-batch"]
    assert entry["seeds"] == [41, 42, 43, 44, 45]
    assert entry["first"] == ["base", "head", "base", "head", "base"]
    assert entry["base"] == {"commit": ["b"], "src_sha256": ["bbbb"]}
    assert entry["head"] == {"commit": ["h"], "src_sha256": ["hhhh"]}
    assert entry["environment"] == {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                                    "nproc": "2", "blas_threads": "1"}
    assert entry["environment_agrees"] and entry["correct"]["head"] == [True] * 5
    op = entry["metrics"]["op_ms_p50"]
    assert (op["base"]["median"], op["head"]["median"]) == (3.2, 2.3)
    assert op["base"]["iqr"] == pytest.approx(0.2) and op["head"]["values"] == op_ms["head"]
    assert (op["pairs_head_won"], op["pairs_base_won"], op["pairs_tied"]) == (4, 1, 0)
    assert op["bound"] == 0.25 and not op["gain_resolved"]  # 4 of 5 pairs is below 9 in 10
    rss = entry["metrics"]["peak_rss_mb"]
    assert (rss["pairs_tied"], rss["head_median_change"], rss["gain_resolved"]) == (5, 0.0, False)

    # a second workload joins the same file and leaves the first one as it was
    assert rec.main(args[:-5] + ["ingest-paper", "--seed", "41", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["compare-batch", "ingest-paper"]
    assert doc["workloads"]["compare-batch"] == entry


def test_bench_record_parse_run_needs_the_summary_line():
    rec = _script("bench_record")
    with pytest.raises(ValueError):
        rec.parse_run("")
    with pytest.raises(ValueError):
        rec.parse_run("# workload=x seed=1\nerror: child exited with 1 and no result\n")
