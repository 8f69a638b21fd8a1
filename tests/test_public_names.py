"""Every public name and every function the benchmark traces must exist.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` by
module and attribute; a renamed or deleted one would only show up in a
benchmark run.  The benchmark's modules are read from their source
files, not imported, so nothing is written next to them.
"""
import importlib
import types
from pathlib import Path

import pytest

import minislot
from minislot import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


TRACER = load("tracer")
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("name", minislot.__all__)
def test_public_name_resolves(name):
    assert getattr(minislot, name) is not None


@pytest.mark.parametrize(
    "module_name, attr", [target[1:3] for target in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer replaces the method in the class's own namespace
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_smoke_call_reaches_the_traced_draws(tmp_path):
    """The benchmark's smoke call runs every function the tracer wraps.

    Its gate wants every layer metric non-zero, so a call that moved out
    of the traced functions would fail it.  ``main`` is read from the
    module inside the traced block, where the tracer has replaced it.
    """
    (call,) = load("workloads").SMOKE_CALLS
    tracer = TRACER.Tracer()
    with TRACER.traced(tracer):
        assert cli.main([*call, "--out", str(tmp_path / "smoke.csv")]) == 0
    for name, *_ in TARGETS:
        assert tracer.spans[name].calls >= 1, name
    assert tracer.counters["rttmodel.samples_drawn"] > 0
