"""The names the benchmark harness resolves, its workloads' own checks,
the package's public names, and the README's account of the CLI flags
and examples."""

import argparse
import importlib.util
import re
import shlex
from pathlib import Path

import streameb
from streameb import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
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


def _parser_flags(parser) -> set:
    """Every ``--flag`` of ``parser`` and of its subcommands, ``--help`` aside."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
        else:
            flags |= {o for o in action.option_strings if o.startswith("--") and o != "--help"}
    return flags


def test_readme_command_line_section_names_exactly_the_parser_flags():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    defined = _parser_flags(cli.build_parser())
    assert sorted(defined - named) == []  # a flag the README never mentions
    assert sorted(named - defined) == []  # a flag the README names that no command has


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
