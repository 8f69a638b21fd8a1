"""Every public name and every function the benchmark traces must exist.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` by
module and attribute; a renamed or deleted one would only show up in a
benchmark run.  The tracer module is read from its source file, not
imported, so nothing is written next to it.
"""
import importlib
import types
from pathlib import Path

import pytest

import minislot

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module.TARGETS


TARGETS = tracer_targets()


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
