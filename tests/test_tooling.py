"""The names the benchmark harness resolves, and the package's public names."""

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
