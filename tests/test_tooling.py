"""The names the benchmark harness resolves, its workloads' own checks,
and the package's public names."""

import importlib.util
from pathlib import Path

import streameb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
