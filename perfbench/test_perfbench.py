"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""
from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, traced  # noqa: E402
from worker import GOLDEN_SEED, Checker  # noqa: E402

FAKE_A = """
def leaf(x):
    return x + 1

class Box:
    def method(self, x):
        return leaf(x)

    @classmethod
    def make(cls):
        return cls()
"""

FAKE_B = """
from fakepkg.a import leaf

def outer(x):
    return leaf(x) + leaf(x)
"""


def _fake_package():
    modules = {}
    for name, source in (("fakepkg", ""), ("fakepkg.a", FAKE_A), ("fakepkg.b", FAKE_B)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(source, vars(module))
        modules[name] = module
    return modules


def test_smoke_mode_reports_every_metric_and_catches_corruption():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stdout


def test_tracer_wraps_every_binding_and_restores():
    mods = _fake_package()
    a, b = mods["fakepkg.a"], mods["fakepkg.b"]
    original_leaf, original_make = a.leaf, a.Box.__dict__["make"]
    targets = (
        ("b.outer", "fakepkg.b", "outer", None),
        ("a.leaf", "fakepkg.a", "leaf", lambda c, args, result: c.update(leaf_in=args[0])),
        ("a.method", "fakepkg.a", "Box.method", None),
        ("a.make", "fakepkg.a", "Box.make", None),
    )
    tracer = Tracer(clock=itertools.count().__next__)
    try:
        with traced(tracer, targets, package="fakepkg"):
            assert b.outer(1) == 4
            box = a.Box.make()
            assert isinstance(box, a.Box)
            assert box.method(5) == 6
        # each clock read advances by one: outer spans 5 ticks, its two leaves 1 each
        outer = tracer.spans["b.outer"]
        assert (outer.calls, outer.total_s, outer.self_s) == (1, 5, 3)
        assert tracer.spans["a.leaf"].calls == 3
        assert tracer.edges[("b.outer", "a.leaf")] == 2
        assert tracer.edges[("a.method", "a.leaf")] == 1
        assert tracer.spans["a.make"].calls == 1
        assert tracer.counters["leaf_in"] == 1 + 1 + 5
        assert b.leaf is original_leaf and a.leaf is original_leaf
        assert a.Box.__dict__["make"] is original_make
    finally:
        for name in ("fakepkg.b", "fakepkg.a", "fakepkg"):
            sys.modules.pop(name, None)


def test_checker_gates_bytes_structure_and_repeatability():
    call = ("--scenario", "x")
    header = "scenario,algorithm,base_delay_ms,vsta,seed"

    def csv(row: str, seed: int) -> bytes:
        return f"{header}\n{row},{seed}\n".encode()

    good = csv("x,nopolicy,0,all", GOLDEN_SEED)
    golden = {"header": header, "calls": [
        {"argv": list(call), "sha256": hashlib.sha256(good).hexdigest(), "lines": 2}]}

    checker = Checker((call,), golden)
    assert checker.judge(GOLDEN_SEED, [(0, good)]) and checker.points == 1
    assert not checker.judge(GOLDEN_SEED, [(0, csv("x,nopolicy,5,all", GOLDEN_SEED))])
    assert checker.judge(7, [(0, csv("x,nopolicy,0,all", 7))])
    assert not checker.judge(7, [(0, csv("x,nopolicy,5,all", 7))])
    assert not checker.judge(8, [(0, csv("x,nopolicy,0,all", 7))])
    assert not checker.judge(9, [(2, None)])
    assert (checker.attempted, checker.failed) == (6, 4)
