import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streameb
from streameb import cli
from streameb.cli import IngestFormat, ingest, main
from streameb.engine import LearningRate, deserialize_state, init, serialize_state, update_stream
from streameb.evaluation import generate_compound
from streameb.model import Grid, MixingWeights, ProductGrid
from streameb.priors import parse_prior

from .conftest import ACCIDENT_PAIRS

ACCIDENT_CSV = "y,count\n" + "\n".join(f"{y},{n}" for y, n in ACCIDENT_PAIRS) + "\n"


@pytest.fixture
def accident_csv(tmp_path):
    path = tmp_path / "accident.csv"
    path.write_text(ACCIDENT_CSV)
    return str(path)


@pytest.fixture
def weibull_counts(tmp_path):
    """The 500 Weibull(3,5) counts of one comparison job (seed 3, job 0), one per line."""
    _, ys = generate_compound(parse_prior("weibull:3,5"), 500, 30_000)
    path = tmp_path / "weibull.txt"
    path.write_text("\n".join(str(int(y)) for y in ys) + "\n")
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

    def test_event_window_keys_entities_by_id(self, tmp_path):
        # a second origin for entity a is refused, not read as a new entity
        path = tmp_path / "events.tsv"
        path.write_text("a\t0\t5\na\t100\t105\nb\t0\t\n")
        with pytest.raises(ValueError, match=r"events\.tsv:2: entity 'a' has origin 100\.0"):
            ingest(str(path), IngestFormat("event-window", window_s=30.0))
        path.write_text("a\t0\t5\na\t0.0\t29\nb\t0\t\n")
        assert ingest(str(path), IngestFormat("event-window", window_s=30.0)).entries == {
            2: 1, 0: 1}

    @pytest.mark.parametrize("rows, line", [
        ("a\tnan\t5\nc\t0\t3\n", 1),
        ("c\t0\t3\nb\t0\tinf\n", 2),
        ("c\t0\t3\nb\t-inf\t\n", 2),
    ])
    def test_event_window_refuses_non_finite_timestamps(self, tmp_path, capsys, rows, line):
        path = tmp_path / "events.tsv"
        path.write_text(rows)
        with pytest.raises(ValueError, match=f"events\\.tsv:{line}: timestamps must be finite"):
            ingest(str(path), IngestFormat("event-window", window_s=30.0))
        assert main(["fit", "--input", str(path), "--format", "event-window",
                     "--window", "30"]) == 2

    @pytest.mark.parametrize("stamp", ["1_0", "\u0663", "\uff13", "0x10", "1e", "..5", "5 0"])
    @pytest.mark.parametrize("column", ["origin", "event"])
    def test_event_window_takes_ascii_decimal_timestamps_only(self, tmp_path, capsys, stamp, column):
        path = tmp_path / "events.tsv"
        row = f"b\t{stamp}\t3\n" if column == "origin" else f"b\t0\t{stamp}\n"
        path.write_text("c\t0\t3\n" + row)
        with pytest.raises(ValueError, match=f"events\\.tsv:2: bad timestamp {stamp!r}"):
            ingest(str(path), IngestFormat("event-window", window_s=30.0))
        assert main(["fit", "--input", str(path), "--format", "event-window",
                     "--window", "30"]) == 2

    def test_event_window_reads_every_ascii_decimal_form(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("a\t1e2\t1.05E+2\nb\t+.5\t\nc\t-3.\t-25e-1\nd\t7\t40\n")
        assert ingest(str(path), IngestFormat("event-window", window_s=30.0)).entries == {
            1: 2, 0: 2}

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff13", "3.0", "0x3"])
    def test_counts_lines_take_ascii_digits_only(self, tmp_path, capsys, field):
        path = tmp_path / "counts.txt"
        path.write_text(f"2\n{field}\n")
        with pytest.raises(ValueError, match=r"counts\.txt:2: expected a nonnegative integer"):
            ingest(str(path), IngestFormat("counts-lines"))
        assert main(["--no-meta", "baseline", "--method", "robbins", "--format", "counts-lines",
                     "--input", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_count_signs_keep_their_handling(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("+3\n-0\n")
        assert ingest(str(path), IngestFormat("counts-lines")).entries == {3: 1, 0: 1}
        path.write_text("3\n-2\n")
        with pytest.raises(ValueError, match=r":2: expected a nonnegative integer, got '-2'"):
            ingest(str(path), IngestFormat("counts-lines"))
        path.write_text("y,count\n+1, 3\n2 ,+4\n")
        assert ingest(str(path), IngestFormat("histogram-csv")).entries == {1: 3, 2: 4}
        path.write_text("y,count\n-1,3\n")
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            ingest(str(path), IngestFormat("histogram-csv"))

    @pytest.mark.parametrize("row", ["1_0,3", "1,1_0", "\u0663,3", "1,\u0663", "1,3.0", "1,3,4"])
    def test_histogram_csv_takes_ascii_digits_only(self, tmp_path, capsys, row):
        path = tmp_path / "hist.csv"
        path.write_text(f"y,count\n0,5\n{row}\n")
        with pytest.raises(ValueError, match=r"hist\.csv:3: expected 'y,count'"):
            ingest(str(path), IngestFormat("histogram-csv"))
        assert main(["--no-meta", "baseline", "--method", "robbins", "--input", str(path)]) == 2

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


# sha256 of --no-meta stdout for outputs that read kernel rows: the regret
# diagnostic's tables, the mix-SQP kernels of the grid baselines (on the
# insurance histogram and on one comparison job's Weibull counts) and the
# stream experiment's estimate table.  A change to the row arithmetic that
# moves one bit of any of them shows here.
_PINNED_OUTPUTS = {
    "regret": (
        ["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--gamma", "0.75",
         "--replications", "3", "--checkpoints", "50,150,400"],
        "4f4c69e5b08cd813bf6ec3ca8eee6835ded0a14a96939b9e74a266bb7fa7562c",
    ),
    "regret-benchmark": (  # the configuration of the compare-batch regret task
        ["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--gamma", "0.75", "--replications", "10"],
        "c9eaf59b9c7d51f4f0c9ba18acb01a25e6feb78176eb410d59fd37c08788b7f2",
    ),
    "npmle": (
        ["baseline", "--method", "npmle", "--input", "{accident_csv}"],
        "1d34c0514f3715aa8afe97df2e3bf690b39e490fe0545956708d66200a382e01",
    ),
    "npmd": (
        ["baseline", "--method", "npmd", "--input", "{accident_csv}"],
        "e982b30c39ee9d0136e3fcdc9c9272e6ec59090225baad568d4151c23d0c2a3b",
    ),
    "npmle-weibull": (
        ["baseline", "--method", "npmle", "--format", "counts-lines", "--input", "{weibull_counts}"],
        "74d24d758383920e6d3db047c2cbd6e16549592ae1133698c4cff42970903251",
    ),
    "npmd-weibull": (
        ["baseline", "--method", "npmd", "--format", "counts-lines", "--input", "{weibull_counts}"],
        "7eec6306c385ad69f6665aef247264817cccaaae50f3b9567e02653367e60ce7",
    ),
    "fit-weibull": (
        ["simulate", "--prior", "weibull:3,5", "--n", "500", "--seed", "7"],
        "a5ac807c6db9f86d16c9a560e1740d8fcfa7096fef14e7487be7be34b46e2cc8",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_OUTPUTS))
def test_outputs_keep_their_bytes(name, accident_csv, weibull_counts, capsys):
    args, digest = _PINNED_OUTPUTS[name]
    paths = {"accident_csv": accident_csv, "weibull_counts": weibull_counts}
    capsys.readouterr()
    assert main(["--no-meta"] + [a.format(**paths) for a in args]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


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
                "simulate", "--prior", "weibull:5,3", "--n", "60", "--eta", "0.1",
                "--dcap", "400", "--gamma", "0.99", "--alpha", "1", "--seed", "7",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,prior,n,d,eta,gamma,seed")
        assert lines[1].split(",")[1] == "weibull"

    def test_fit_is_byte_deterministic_with_no_meta(self, tmp_path):
        args = [
            "--no-meta", "simulate", "--prior", "uniform:0,3", "--n", "40",
            "--eta", "0.1", "--dcap", "200", "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--out", str(a)] + args) == 0
        assert main(["--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_meta_line_present_by_default(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(
            ["--out", str(out), "simulate", "--prior", "uniform:0,3", "--n", "20",
             "--eta", "0.2", "--dcap", "100", "--seed", "1"]
        )
        assert code == 0
        assert out.read_text().startswith("# streameb simulate generated_at=")

    def test_fit_resume_equivalence(self, tmp_path, rng):
        counts = rng.poisson(2.0, 1000)
        full = tmp_path / "full.txt"
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        full.write_text("\n".join(str(int(y)) for y in counts) + "\n")
        first.write_text("\n".join(str(int(y)) for y in counts[:500]) + "\n")
        second.write_text("\n".join(str(int(y)) for y in counts[500:]) + "\n")
        s_full, s_a, s_b = (tmp_path / n for n in ("full.bin", "a.bin", "b.bin"))
        # pin the moment bound so both fresh legs size the same grid; the resumed
        # leg reads its grid and rate from the state
        sized = ["--no-meta", "fit", "--eta", "0.1", "--dcap", "300", "--m2", "6.0"]
        assert main(sized + ["--input", str(full), "--state-out", str(s_full)]) == 0
        assert main(sized + ["--input", str(first), "--state-out", str(s_a)]) == 0
        assert (
            main(
                ["--no-meta", "fit"]
                + ["--input", str(second), "--state-in", str(s_a), "--state-out", str(s_b)]
            )
            == 0
        )
        one = deserialize_state(s_full.read_bytes())
        two = deserialize_state(s_b.read_bytes())
        assert one.n == two.n == 1000
        assert np.max(np.abs(one.g.weights - two.g.weights)) < 1e-12
        # the resumed leg is one update_stream call from the loaded state,
        # which starts at the saved weights with scale 1: its file has the
        # bytes of that call
        resumed = update_stream(deserialize_state(s_a.read_bytes()), counts[500:])
        assert s_b.read_bytes() == serialize_state(resumed)

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

    def test_fit_without_prior_or_input_fails(self, capsys):
        assert main(["fit", "--eta", "0.1"]) == 2
        assert "required: --input" in capsys.readouterr().err


def test_a_flag_given_at_its_default_changes_no_byte(tmp_path):
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n2\n1\n")
    outs = [tmp_path / f"{i}.csv" for i in range(4)]
    sim = ["--no-meta", "simulate", "--prior", "uniform:0,3", "--eta", "0.1", "--dcap", "200"]
    fit = ["--no-meta", "fit", "--input", str(counts), "--eta", "0.1"]
    assert main(["--out", str(outs[0])] + sim) == 0
    assert main(["--out", str(outs[1])] + sim + ["--n", "500", "--replications", "1"]) == 0
    assert main(["--out", str(outs[2])] + fit) == 0
    assert main(["--out", str(outs[3])] + fit + ["--format", "counts-lines"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[2].read_bytes() == outs[3].read_bytes()
    assert outs[0].read_text().splitlines()[1].split(",")[2] == "500"


# Flags that the path a call takes does not read, each with the flag the
# refusal must name: fit's fresh-grid flags and --m2 beside --state-in, --seed
# on a counts-lines input, a nonpositive --m2, and --window with a format other
# than event-window.
_UNREAD_FLAGS = [
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--m2", "5"], "--m2"),
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--gamma", "0.6"], "--gamma"),
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--alpha", "5"], "--alpha"),
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--eta", "7"], "--eta"),
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--dcap", "3"], "--dcap"),
    (["fit", "--input", "{counts}", "--state-in", "{state}", "--eta", "0.025"], "--eta"),
    (["fit", "--input", "{counts}", "--seed", "3"], "--seed"),
    (["fit", "--input", "{counts}", "--format", "counts-lines", "--seed", "0"], "--seed"),
    (["fit", "--input", "{counts}", "--m2", "0"], "--m2"),
    (["fit", "--input", "{counts}", "--m2", "-1"], "--m2"),
    (["fit", "--input", "{counts}", "--window", "30"], "--window"),
    (["fit", "--input", "{hist}", "--format", "histogram-csv", "--window", "30"], "--window"),
    (["baseline", "--method", "robbins", "--input", "{hist}", "--window", "30"], "--window"),
    (["baseline", "--method", "npmle", "--input", "{counts}", "--format", "counts-lines",
      "--window", "30"], "--window"),
]


@pytest.mark.parametrize("args, flag", _UNREAD_FLAGS,
                         ids=[" ".join(args[:1] + args[-2:]) for args, _ in _UNREAD_FLAGS])
def test_a_flag_the_path_does_not_read_is_refused(args, flag, accident_csv, tmp_path, capsys):
    paths = {"counts": tmp_path / "counts.txt", "hist": accident_csv, "state": tmp_path / "start.state"}
    paths["counts"].write_text("0\n1\n2\n1\n")
    start = init(Grid(np.linspace(0.1, 10.0, 50)), LearningRate(1.0, 0.99))
    paths["state"].write_bytes(serialize_state(start))
    before = sorted(tmp_path.iterdir())
    end = tmp_path / "end.state"
    extra = ["--state-out", str(end)] if args[0] == "fit" else []
    capsys.readouterr()
    assert main(["--no-meta"] + [a.format(**paths) for a in args] + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flag} ")
    assert sorted(tmp_path.iterdir()) == before  # no state written


# A flag that the command does not have is an unknown flag: the grid fits run
# at one configuration (``baseline_grid``, the solver defaults), so their old
# grid and solver flags are unknown, and so is each of simulate's and fit's
# flags on the other.
_BASE, _FIT = "baseline --method npmle --input {hist} ", "fit --input {counts} "
_SIM, _REG = "simulate --prior weibull:3,5 --n 50 ", "regret --atoms grid-atoms:1@0.5,5@0.5 "
_FOREIGN_FLAGS = {  # id: the call, ending in the flag and its value
    "--grid-points-10": _BASE + "--grid-points 10", "--grid-lo-0.5": _BASE + "--grid-lo 0.5",
    "--max-iters-5": _BASE + "--max-iters 5", "--tol-1e-3": _BASE + "--tol 1e-3",
    "fit --prior": _FIT + "--prior weibull:3,5",
    "fit --n 50": _FIT + "--n 50", "fit --n 500": _FIT + "--n 500",
    "fit --replications": _FIT + "--replications 5", "fit --timing": _FIT + "--timing",
    "simulate --input": _SIM + "--input {counts}", "simulate --m2": _SIM + "--m2 5",
    "simulate --format": _SIM + "--format counts-lines", "simulate --window": _SIM + "--window 30",
    "simulate --state-in": _SIM + "--state-in {tmp}/start.state",
    "simulate --state-out": _SIM + "--state-out {tmp}/end.state",
    "simulate --skip-degenerate": _SIM + "--skip-degenerate",
}


@pytest.mark.parametrize("name", _FOREIGN_FLAGS)
def test_a_removed_baseline_flag_is_refused(name, accident_csv, tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    counts.write_text("0\n1\n2\n1\n")
    args = _FOREIGN_FLAGS[name].format(hist=accident_csv, counts=counts, tmp=tmp_path).split()
    flag = [a for a in args if a.startswith("--")][-1]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["--no-meta", "--out", str(tmp_path / "out.csv")] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(args[args.index(flag):])}" in err
    assert sorted(tmp_path.iterdir()) == before  # no output or state written


# A seed below 0, fewer than one replication or an unknown format is refused by
# name when the flags are parsed, and nothing runs.
@pytest.mark.parametrize("call", [
    _SIM + "--replications 0", _SIM + "--replications -2", _REG + "--replications 0",
    _REG + "--replications -2", _SIM + "--seed -1", _REG + "--seed -1",
    "fit --input {hist} --format histogram-csv --seed -1",
    "bench --d 200 --n 30 --windows 0:10 --seed -1",
    _FIT + "--format bogus", _BASE + "--format bogus",
], ids=lambda call: " ".join(call.split()[:1] + call.split()[-2:]))
def test_a_value_outside_the_flag_range_is_refused_by_name(call, accident_csv, capsys):
    args = call.format(hist=accident_csv, counts="counts.txt").split()
    capsys.readouterr()
    assert main(["--no-meta"] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {args[-2]}: " in err


# An empty path is refused by name, not read as "no path given".
@pytest.mark.parametrize("args, flag", [
    (["--out", "", "fit", "--input", "{counts}", "--dcap", "200"], "--out"),
    (["--out", "", "estimate", "--state", "{state}", "--y", "0..1"], "--out"),
    (["fit", "--input", "{counts}", "--state-in", ""], "--state-in"),
    (["fit", "--input", "{counts}", "--dcap", "200", "--state-out", ""], "--state-out"),
], ids=["fit --out", "estimate --out", "--state-in", "--state-out"])
def test_an_empty_path_is_refused(args, flag, tmp_path, capsys):
    paths = {"counts": tmp_path / "counts.txt", "state": tmp_path / "s.state"}
    paths["counts"].write_text("0\n1\n2\n1\n")
    start = init(Grid(np.linspace(0.1, 10.0, 50)), LearningRate(1.0, 0.99))
    paths["state"].write_bytes(serialize_state(start))
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["--no-meta"] + [a.format(**paths) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: expected a path" in err
    assert sorted(tmp_path.iterdir()) == before


class TestFlagDecimals:
    """Float flags and prior numbers are ASCII decimals, as timestamps are."""

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff13"])
    def test_a_non_ascii_decimal_is_refused_by_name(self, capsys, field):
        calls = [
            (["simulate", "--prior", "weibull:3,5", "--eta", field], "--eta"),
            (["simulate", "--prior", "weibull:3,5", "--gamma", field], "--gamma"),
            (["simulate", "--prior", "weibull:3,5", "--alpha", field], "--alpha"),
            (["fit", "--input", "c.txt", "--window", field], "--window"),
            (["fit", "--input", "c.txt", "--m2", field], "--m2"),
            (["simulate", "--prior", f"weibull:{field},5"], "--prior"),
            (["simulate", "--prior", f"weibull:3,{field}"], "--prior"),
            (["estimate", "--state", "s.state", "--y", "0", "--level", field], "--level"),
            (["baseline", "--method", "robbins", "--input", "h.csv", "--window", field],
             "--window"),
            (["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--gamma", field], "--gamma"),
            (["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--alpha", field], "--alpha"),
            (["regret", "--atoms", f"grid-atoms:{field}@0.5,5@0.5"], "--atoms"),
            (["regret", "--atoms", f"grid-atoms:1@0.5,5@{field}"], "--atoms"),
        ]
        capsys.readouterr()
        for args, flag in calls:
            assert main(["--no-meta"] + args) == 2, args
            out, err = capsys.readouterr()
            assert out == "" and flag in err and field in err, args

    @pytest.mark.parametrize("text", ["weibull:3_0,5", "weibull:\u0663,5", "weibull:\uff13,5",
                                      "grid-atoms:1@0.5,5@0.5_0", "uniform:0,0x3", "weibull:3,"])
    def test_parse_prior_takes_ascii_decimals_only(self, text):
        with pytest.raises(ValueError, match="not a decimal number"):
            parse_prior(text)

    def test_every_ascii_decimal_form_is_read(self, capsys):
        assert parse_prior("weibull: 3 ,+5e0").params == (3.0, 5.0)
        assert parse_prior("uniform:.5,12.").params == (0.5, 12.0)
        capsys.readouterr()
        args = ["--no-meta", "simulate", "--prior", "uniform:0,3", "--n", "40", "--dcap", "200"]
        assert main(args + ["--eta", "0.1", "--gamma", "0.99"]) == 0
        assert main(args + ["--eta", " 1e-1", "--gamma", "+.99"]) == 0
        first, second = capsys.readouterr().out.split("method,prior")[1:]
        assert first == second


class TestParserReuse:
    """``main`` parses every call with one parser per process."""

    @pytest.fixture
    def state(self, tmp_path, rng):
        counts, state = tmp_path / "counts.txt", tmp_path / "s.bin"
        counts.write_text("\n".join(str(int(y)) for y in rng.poisson(2.0, 200)) + "\n")
        assert main(["--no-meta", "fit", "--input", str(counts), "--eta", "0.1",
                     "--dcap", "200", "--state-out", str(state)]) == 0
        return str(state)

    def test_a_flag_does_not_outlive_its_call(self, state, capsys):
        capsys.readouterr()
        assert main(["--no-meta", "estimate", "--state", state, "--y", "0,1", "--level", "0.9"]) == 0
        assert main(["--no-meta", "estimate", "--state", state, "--y", "0,1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        levels = [row.rsplit(",", 1)[1] for row in rows if not row.startswith("y,")]
        assert levels == ["0.9", "0.9", "0.95", "0.95"]

    def test_a_rejected_call_leaves_the_next_one_intact(self, state, tmp_path, capsys):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        args = ["--no-meta", "estimate", "--state", state, "--y", "0..7"]
        parsed = cli.build_parser().parse_args(["--out", str(fresh)] + args)
        assert parsed.func(parsed) == 0
        assert main(args) == 0
        assert main(["estimate", "--y", "0..7"]) == 2  # --state is missing
        assert "--state" in capsys.readouterr().err
        assert main(["--out", str(reused)] + args) == 0
        assert reused.read_bytes() == fresh.read_bytes()

    def test_main_builds_its_parser_once(self, state, monkeypatch):
        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        args = ["--no-meta", "estimate", "--state", state, "--y", "0"]
        assert [main(args), main(["frobnicate"]), main(args)] == [0, 2, 0]
        assert len(built) == 1


class TestCountLists:
    """A count list that is empty, has an empty field or a descending range is refused."""

    @pytest.fixture
    def state(self, tmp_path, rng):
        counts, state = tmp_path / "counts.txt", tmp_path / "s.bin"
        counts.write_text("\n".join(str(int(y)) for y in rng.poisson(2.0, 200)) + "\n")
        assert main(["--no-meta", "fit", "--input", str(counts), "--eta", "0.1",
                     "--dcap", "200", "--state-out", str(state)]) == 0
        return str(state)

    @pytest.mark.parametrize("ys", ["7..0", "", "0,,3", "0,", ",", "0..", "0..3,5", "1..2..3"])
    def test_estimate_refuses_the_list_and_prints_nothing(self, state, capsys, ys):
        capsys.readouterr()
        assert main(["--no-meta", "estimate", "--state", state, "--y", ys]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--y" in err

    def test_a_single_count_range_and_a_list_are_answered(self, state, capsys):
        capsys.readouterr()
        assert main(["--no-meta", "estimate", "--state", state, "--y", "3..3"]) == 0
        assert main(["--no-meta", "estimate", "--state", state, "--y", "0,3"]) == 0
        rows = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()]
        assert rows == ["y", "3", "y", "0", "3"]

    def test_bench_and_regret_name_their_flag(self, capsys):
        assert main(["bench", "--d", "200,,400", "--n", "30", "--windows", "0:10"]) == 2
        assert main(["bench", "--d", "", "--n", "30", "--windows", "0:10"]) == 2
        assert main(["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--checkpoints", "50,,400"]) == 2
        err = capsys.readouterr().err
        assert err.count("--d ") == 2 and err.count("--checkpoints ") == 1

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "\uff13"])
    def test_flag_integers_take_ascii_digits_only(self, state, capsys, field):
        # the rule of the input files: `1_0` is not 10, nor Arabic-Indic or
        # fullwidth digits 3
        calls = [
            (["estimate", "--state", state, "--y", field], "--y"),
            (["estimate", "--state", state, "--y", f"0..{field}"], "--y"),
            (["estimate", "--state", state, "--y", f"0,{field}"], "--y"),
            (["regret", "--atoms", "grid-atoms:1@0.5,5@0.5", "--checkpoints", f"50,150,{field}"],
             "--checkpoints"),
            (["bench", "--d", field, "--n", "30", "--windows", "0:10"], "--d"),
            (["bench", "--d", "200", "--n", "30", "--windows", f"0:{field}"], "--windows"),
            (["bench", "--d", "200", "--n", field, "--windows", "0:1"], "--n"),
        ]
        capsys.readouterr()
        for args, flag in calls:
            assert main(["--no-meta"] + args) == 2, args
            out, err = capsys.readouterr()
            assert out == "" and flag in err and field in err

    def test_flag_integers_keep_signs_and_blanks(self, state, capsys):
        capsys.readouterr()
        assert main(["--no-meta", "estimate", "--state", state, "--y", " +1 .. 2"]) == 0
        assert main(["--no-meta", "estimate", "--state", state, "--y", "+0, 3"]) == 0
        rows = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()]
        assert rows == ["y", "1", "2", "y", "0", "3"]

    @pytest.mark.parametrize(
        "windows", ["", "5", "0:5:9", "a:5", "0:5,", "20:10", "-5:10", "40:50", "30:30", "0:31"]
    )
    def test_bench_refuses_a_window_outside_the_updates(self, capsys, windows):
        # 30 timed updates: 0 <= lo <= hi <= 30 with lo < 30, else the window is empty
        capsys.readouterr()
        assert main(["bench", "--d", "200", "--n", "30", "--windows", windows]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--windows" in err

    def test_bench_takes_windows_up_to_the_last_update(self, capsys):
        capsys.readouterr()
        assert main(["--no-meta", "bench", "--d", "200", "--n", "30", "--windows", "0:0,20:30"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[1:3] for r in rows] == [["0", "0"], ["20", "30"]]
        assert all(float(r[3]) > 0 for r in rows)


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
