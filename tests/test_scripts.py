import importlib.util
from pathlib import Path

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
    args = ["--n", "60", "--seeds", "1", "--eta", "0.1", "--dcap", "400", "--grid-points", "100"]
    for path in (out, again):
        assert _script("synthetic_benchmark").main(args + ["--out", str(path)]) == 0
    assert out.read_bytes() == again.read_bytes()
    header, stream, *rest = out.read_text().splitlines()
    assert header == MetricRow.CSV_HEADER
    assert stream.startswith("stream,weibull,60,")
    cfg = ExperimentConfig(prior=parse_prior("weibull:3,5"), n=60, eta=0.1, d_cap=400,
                           rate=LearningRate(1.0, 0.99))
    expected = baseline_rows(cfg, 0, 100)
    assert [r.method for r in expected] == list(METHODS)
    assert rest == [r.csv_row() for r in expected]
    assert "| RMSE |" in capsys.readouterr().out
