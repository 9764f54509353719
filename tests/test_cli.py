import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streameb
from streameb.cli import IngestFormat, ingest, main
from streameb.engine import LearningRate, deserialize_state, init, serialize_state
from streameb.model import Grid, MixingWeights, ProductGrid

from .conftest import ACCIDENT_PAIRS

ACCIDENT_CSV = "y,count\n" + "\n".join(f"{y},{n}" for y, n in ACCIDENT_PAIRS) + "\n"


@pytest.fixture
def accident_csv(tmp_path):
    path = tmp_path / "accident.csv"
    path.write_text(ACCIDENT_CSV)
    return str(path)


class TestIngest:
    def test_counts_lines(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("0\n0\n1\n")
        h = ingest(str(path), IngestFormat("counts-lines"))
        assert h.entries == {0: 2, 1: 1}

    def test_counts_lines_reports_bad_line(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("0\nx\n1\n")
        with pytest.raises(ValueError, match=":2:"):
            ingest(str(path), IngestFormat("counts-lines"))

    def test_histogram_csv_totals(self, accident_csv):
        h = ingest(accident_csv, IngestFormat("histogram-csv"))
        assert h.total == 9461
        assert h.entries[0] == 7840

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            ingest(str(path), IngestFormat("counts-lines"))

    def test_event_window_hand_counted(self, tmp_path):
        # entity a: events at +5s and +29s inside a 30s window, +40s outside
        # entity b: declared with no events
        path = tmp_path / "events.tsv"
        path.write_text(
            "a\t100\t105\n"
            "a\t100\t129\n"
            "a\t100\t140\n"
            "b\t200\t\n"
        )
        h = ingest(str(path), IngestFormat("event-window", window_s=30.0))
        assert h.entries == {2: 1, 0: 1}

    def test_event_window_needs_a_window(self):
        with pytest.raises(ValueError):
            IngestFormat("event-window")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            IngestFormat("parquet")


class TestBaselineCommand:
    def test_robbins_row_csv(self, accident_csv, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(
            [
                "--out", str(out), "--no-meta",
                "baseline", "--method", "robbins", "--input", accident_csv,
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y,method,estimate"
        values = [round(float(line.split(",")[2]), 2) for line in lines[1:]]
        assert values == [0.17, 0.36, 0.53, 1.33, 1.43, 6.00, 1.75, 0.0]

    def test_markdown_table(self, accident_csv, capsys):
        code = main(
            ["--no-meta", "baseline", "--method", "robbins", "--input", accident_csv,
             "--markdown"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("| method |")
        assert "6.00" in text

    def test_missing_file_is_a_validation_error(self, capsys):
        code = main(["baseline", "--method", "robbins", "--input", "/nonexistent.csv"])
        assert code == 2

    @pytest.mark.parametrize("method", ["npmle", "npmd"])
    def test_grid_fits_converge_at_the_defaults(self, accident_csv, capsys, method):
        code = main(["--no-meta", "baseline", "--method", method, "--input", accident_csv,
                     "--verbose"])
        assert code == 0
        err = capsys.readouterr().err
        assert "'converged': True" in err and "'qp_solves': " in err


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only the Gamma-hyperprior fit needs scipy.optimize; commands that never
    # run it should not pay for importing it
    src = str(Path(streameb.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, streameb.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


class TestFitEstimateFlow:
    def test_fit_synthetic_writes_metric_rows(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "--out", str(out), "--no-meta",
                "fit", "--prior", "weibull:5,3", "--n", "60", "--eta", "0.1",
                "--dcap", "400", "--gamma", "0.99", "--alpha", "1", "--seed", "7",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,prior,n,d,eta,gamma,seed")
        assert lines[1].split(",")[1] == "weibull"

    def test_fit_is_byte_deterministic_with_no_meta(self, tmp_path):
        args = [
            "--no-meta", "fit", "--prior", "uniform:0,3", "--n", "40",
            "--eta", "0.1", "--dcap", "200", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--out", str(a)] + args) == 0
        assert main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_meta_line_present_by_default(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["--out", str(out), "fit", "--prior", "uniform:0,3", "--n", "20",
             "--eta", "0.2", "--dcap", "100", "--seed", "1"]
        )
        assert code == 0
        assert out.read_text().startswith("# streameb fit")

    def test_fit_resume_equivalence(self, tmp_path, rng):
        counts = rng.poisson(2.0, 1000)
        full = tmp_path / "full.txt"
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        full.write_text("\n".join(str(int(y)) for y in counts) + "\n")
        first.write_text("\n".join(str(int(y)) for y in counts[:500]) + "\n")
        second.write_text("\n".join(str(int(y)) for y in counts[500:]) + "\n")
        s_full, s_a, s_b = (tmp_path / n for n in ("full.bin", "a.bin", "b.bin"))
        # pin the moment bound so every leg sizes the same grid
        base = ["--no-meta", "fit", "--eta", "0.1", "--dcap", "300", "--m2", "6.0"]
        assert main(base + ["--input", str(full), "--state-out", str(s_full)]) == 0
        assert main(base + ["--input", str(first), "--state-out", str(s_a)]) == 0
        assert (
            main(
                base
                + ["--input", str(second), "--state-in", str(s_a), "--state-out", str(s_b)]
            )
            == 0
        )
        one = deserialize_state(s_full.read_bytes())
        two = deserialize_state(s_b.read_bytes())
        assert one.n == two.n == 1000
        assert np.max(np.abs(one.g.weights - two.g.weights)) < 1e-12

    def test_estimate_from_state(self, tmp_path, rng):
        counts = tmp_path / "counts.txt"
        counts.write_text("\n".join(str(int(y)) for y in rng.poisson(2.0, 300)) + "\n")
        state = tmp_path / "s.bin"
        assert main(
            ["--no-meta", "fit", "--input", str(counts), "--eta", "0.1",
             "--dcap", "300", "--state-out", str(state)]
        ) == 0
        out = tmp_path / "est.csv"
        code = main(
            ["--out", str(out), "--no-meta",
             "estimate", "--state", str(state), "--y", "0..7", "--level", "0.95"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "y,theta_hat,variance,b_n,ci_low,ci_high,level"
        assert len(lines) == 9
        row = lines[1].split(",")
        assert float(row[4]) <= float(row[1]) <= float(row[5])

    def test_fit_and_estimate_print_the_same_estimates(self, tmp_path, capsys):
        # the paper-default state: 500 Weibull(3,5) counts at seed 7, d = 10,000
        from streameb.evaluation import generate_compound
        from streameb.priors import parse_prior

        counts, state = tmp_path / "counts.txt", tmp_path / "s.bin"
        ys = generate_compound(parse_prior("weibull:3,5"), 500, 7)[1]
        counts.write_text("\n".join(str(int(y)) for y in ys) + "\n")
        assert main(["--no-meta", "fit", "--input", str(counts), "--eta", "0.025",
                     "--dcap", "10000", "--state-out", str(state)]) == 0
        fitted = {y: est for y, _, est in
                  (line.split(",") for line in capsys.readouterr().out.splitlines()[1:])}
        assert main(["--no-meta", "estimate", "--state", str(state), "--y", "0..15"]) == 0
        estimated = {line.split(",")[0]: line.split(",")[1]
                     for line in capsys.readouterr().out.splitlines()[1:]}
        assert len(fitted) == 16
        assert {y: estimated[y] for y in fitted} == fitted

    def test_estimate_rejects_corrupt_state(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code = main(["estimate", "--state", str(bad), "--y", "0..3"])
        assert code == 2
        # a well-formed lattice state is not a scalar state either
        lattice = tmp_path / "lattice.bin"
        grid = ProductGrid(Grid([1.0, 2.0, 3.0]), 2)
        lattice.write_bytes(serialize_state(init(grid, LearningRate(1.0, 0.99))))
        counts = tmp_path / "counts.txt"
        counts.write_text("0\n1\n")
        assert main(["estimate", "--state", str(lattice), "--y", "0..3"]) == 2
        assert main(["fit", "--input", str(counts), "--state-in", str(lattice)]) == 2
        assert capsys.readouterr().err.count("expected a scalar state, found kdim=2") == 2

    def test_histogram_input_streams_a_seeded_shuffle(self, accident_csv, tmp_path):
        # the recursion is order-dependent: the sorted stream gives 0.131 at y = 0
        h = ingest(accident_csv, IngestFormat("histogram-csv"))
        ascending = np.repeat(h.support(), h.multiplicities().astype(np.int64))
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text("\n".join(map(str, np.random.default_rng(0).permutation(ascending))))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--out", str(a), "--no-meta", "fit", "--input", accident_csv,
                     "--format", "histogram-csv", "--seed", "0"]) == 0
        assert main(["--out", str(b), "--no-meta", "fit", "--input", str(shuffled)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert float(a.read_text().splitlines()[1].split(",")[2]) > 0.2

    def test_skip_degenerate_reports_what_it_dropped(self, tmp_path, capsys):
        # k(20000 | 0.5) underflows, and the atom at 20000 carries no weight
        grid = Grid([0.5, 20000.0])
        start = tmp_path / "start.bin"
        start.write_bytes(serialize_state(
            init(grid, LearningRate(1.0, 0.99), MixingWeights(grid, [1.0, 0.0]))
        ))
        counts = tmp_path / "counts.txt"
        counts.write_text("0\n20000\n1\n")
        end = tmp_path / "end.bin"
        assert main(["--no-meta", "fit", "--input", str(counts), "--state-in", str(start),
                     "--state-out", str(end), "--skip-degenerate"]) == 0
        out, err = capsys.readouterr()
        assert err == "# skipped 1 of 3 counts\n"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [y for y, _, _ in rows] == ["0", "1", "20000"]
        assert [float(est) for _, _, est in rows] == pytest.approx([0.5] * 3, rel=1e-9)
        assert deserialize_state(end.read_bytes()).n == 2

    def test_fit_without_prior_or_input_fails(self):
        assert main(["fit", "--eta", "0.1"]) == 2


class TestBenchAndRegret:
    def test_bench_emits_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["--out", str(out), "--no-meta",
             "bench", "--d", "200,400", "--n", "120", "--windows", "10:60,60:110"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "d,window_lo,window_hi,median_ms"
        assert len(lines) == 5

    def test_regret_summary(self, tmp_path):
        out = tmp_path / "regret.csv"
        code = main(
            ["--out", str(out), "--no-meta",
             "regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--gamma", "0.75",
             "--replications", "3", "--checkpoints", "50,150,400"]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("seed,checkpoint,regret")
        assert "# median_log_log_slope," in text
        assert "# median_tv_final," in text
        rows = [line.split(",") for line in text.splitlines()[1:] if not line.startswith("#")]
        assert len(rows) == 9 and all(float(value) > 0 for _, _, value in rows)

    def test_regret_rejects_continuous_prior(self):
        assert main(["regret", "--atoms", "weibull:5,3"]) == 2

    def test_regret_rejects_unusable_checkpoints(self, capsys):
        for checkpoints in ("0,100,200", "200,200,200"):
            args = ["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--checkpoints", checkpoints]
            assert main(args) == 2
        assert capsys.readouterr().err.count("three distinct checkpoints") == 2

    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2
