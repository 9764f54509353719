"""The names the benchmark harness resolves, its workloads' own checks,
the package's public names, and the README's account of the CLI flags
and examples."""

import argparse
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import streameb
from streameb import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name, folder=PERFBENCH):
    spec = importlib.util.spec_from_file_location(f"{folder.name}_{name}", folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_name_it_patches_and_restores_them():
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()  # getattr raises AttributeError for a missing name
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_every_public_name_resolves():
    missing = [name for name in streameb.__all__ if not hasattr(streameb, name)]
    assert missing == []


def _parser_options(parser):
    """``(prog, action)`` for every option of ``parser`` and of its subcommands, ``--help`` aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield parser.prog, action


def test_readme_command_line_section_names_exactly_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    options = _parser_options(cli.build_parser())
    defined = {o for _, action in options for o in action.option_strings if o.startswith("--")}
    assert sorted(defined - named) == []  # a flag the README never mentions
    assert sorted(named - defined) == []  # a flag the README names that no command has


def test_every_flag_value_has_an_argparse_type_or_choices():
    # so a bad value is refused, by name, when the flags are parsed, and no
    # command parses a flag's value itself
    unchecked = [f"{prog} {action.option_strings[-1]}"
                 for prog, action in _parser_options(cli.build_parser())
                 if action.nargs != 0 and action.type is None and action.choices is None]
    assert unchecked == []


def test_readme_examples_parse():
    # the flag-drift check above passes while a flag has some command; this one
    # catches an example that gives a flag to a command that lacks it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    calls = [shlex.split(line)[1:] for line in blocks.splitlines() if line.startswith("streameb ")]
    refused = []
    for argv in calls:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            refused.append(" ".join(argv))
    assert len(calls) >= 8 and refused == []


def test_synthetic_benchmark_usage_example_parses(capsys):
    # argparse converts every flag before --help, which then exits 0 and runs nothing
    script = _load("synthetic_benchmark", ROOT / "scripts")
    lines = script.__doc__.splitlines()  # the docstring's backslash joins its example's two lines
    [example] = [shlex.split(line)[2:] for line in lines if line.lstrip().startswith("python ")]
    with pytest.raises(SystemExit) as exc:
        script.main(example + ["--help"])
    assert exc.value.code == 0 and example[0] == "--priors" and example[-2] == "--out"


def test_serve_workload_passes_its_own_check(tmp_path, monkeypatch):
    # a serve-path change that breaks the benchmark's CSV or reference check
    # fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports reference.py by name
    workload = _load("workloads").ServeMixed(tmp_path)
    workload.tracer = None
    try:
        workload.setup(0)
        workload.step()
        workload.step()
        assert workload.check(2) == (0, [])
    finally:
        workload.cleanup()


def test_ingest_workload_passes_its_own_check(monkeypatch):
    # the write path, replayed against the benchmark's reference recursion
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").IngestPaper()
    workload.tracer = None
    workload.setup(0)
    for _ in range(3):
        workload.step()
    assert workload.check(3) == (0, [])


def test_compare_workload_passes_its_own_check(monkeypatch):
    # one whole comparison job: the stream experiment, four fits and regret
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").CompareBatch()
    workload.tracer = None
    workload.setup(0)
    for _ in workload.tasks:
        workload.step()
    assert workload.check(len(workload.tasks)) == (0, [])


def test_dense_workload_passes_its_own_check(monkeypatch):
    # both dense engines, the lattice against the benchmark's reference recursion
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = _load("workloads").IngestDense()
    workload.tracer = None
    workload.setup(0)
    for _ in range(3):
        workload.step()
    assert workload.check(3) == (0, [])
