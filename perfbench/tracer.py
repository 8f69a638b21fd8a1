"""Outside-in tracer: wraps the program's public layer functions.

Each wrapped function records a span per call: the span's duration and
the part of it covered by child spans, attributed to the span that was
open when it started.  Spans are aggregated in memory as they close, so
a traced run keeps per-function call counts, total and self time, and
(parent, child) call counts, plus counters computed from the wrapped
calls' arguments and results.

A function is wrapped at every place it is bound inside the package:
``scenarios``, ``cli`` and ``allocation`` import the allocators by name,
so every ``minislot`` module attribute that *is* the original function
is replaced, and methods and classmethods are replaced on their class.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

TOP = "<top>"


def _count_emit(counters, args, result):
    counters["scenarios.csv_rows"] += len(args[0])


def _count_evaluations(counters, args, result):
    counters["allocation.schedules_evaluated"] += result.evaluations


def _count_samples_drawn(counters, args, result):
    counters["rttmodel.samples_drawn"] += result.n


def _count_kernel_samples(counters, args, result):
    counters["kernels.samples"] += len(result)


# (span name, module, attribute or Class.attribute, counter); a counter is
# called as counter(counters, args, result) after each call.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "minislot.cli", "main", None),
    ("scenarios.run_scenario", "minislot.scenarios", "run_scenario", None),
    ("scenarios.emit_csv", "minislot.scenarios", "emit_csv", _count_emit),
    ("allocation.minmax_allocate", "minislot.allocation", "minmax_allocate", _count_evaluations),
    ("allocation.blind_allocate", "minislot.allocation", "blind_allocate", _count_evaluations),
    ("allocation.upper_bound_allocate", "minislot.allocation", "upper_bound_allocate",
     _count_evaluations),
    ("rttmodel.mean_rtt", "minislot.rttmodel", "ThroughputEvaluator.mean_rtt", None),
    ("rttmodel.sample_rtts", "minislot.rttmodel", "sample_rtts", _count_samples_drawn),
    ("kernels.rtt_samples", "minislot._kernels", "rtt_samples", _count_kernel_samples),
    ("schedule.from_owners", "minislot.schedule", "SlotSchedule.from_owners", None),
    ("schedule.max_disconnection", "minislot.schedule", "max_disconnection", None),
)


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregated span statistics for one traced stretch of work."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        # open spans: [name, time covered by closed child spans]
        self._stack: list[list] = [[TOP, 0.0]]

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        stats = self.spans.setdefault(name, SpanStats())
        stack, edges, counters, clock = self._stack, self.edges, self.counters, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                edges[(parent[0], name)] += 1
            if counter is not None:
                counter(counters, args, result)
            return result

        return span


def _package_modules(package: str):
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextmanager
def traced(tracer: Tracer, targets=TARGETS, package: str = "minislot"):
    """Wrap every target for the duration of the block, then restore."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module_name, attr, counter in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(name, raw.__func__, counter))
                else:
                    replacement = tracer.wrap(name, raw, counter)
                undo.append((cls, meth, raw))
                setattr(cls, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, counter)
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
