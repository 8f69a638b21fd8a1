"""Throughput of ``sample_rtts`` and of the RTT kernel on the built-in scenarios.

The draws are every (VSTA, window pattern) of the ``SearchTable`` of
case1, case2, case3 and each fig5 scenario, each at the VSTA's sweep
delays and per-VSTA seed, as a ``run_scenario`` that reads every
pattern would draw them.  For each sample count the whole set is drawn
``REPEATS`` times; the script prints, as JSON, the shortest pass as
draws per second, and the kernel's samples per second of its own time,
with the machine and the library versions.  Run from the repository
root with the package on the path::

    PYTHONPATH=src python3 benchmarks/sample_rtts.py > out.json
"""
from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import replace

#: passes over the draws per sample count
REPEATS = 5
SAMPLE_COUNTS = (10_000, 50_000)
SCENARIOS = ("case1", "case2", "case3", "fig5")

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from search_table import cpu_model  # noqa: E402


def draws() -> list[tuple[tuple, tuple, object]]:
    """``(pattern, delays, sampler config)`` of every draw."""
    from minislot.allocation import SearchTable
    from minislot.rttmodel import ThroughputEvaluator, vsta_seed
    from minislot.scenarios import builtin_scenarios

    found = []
    for name in SCENARIOS:
        for scenario in builtin_scenarios(name):
            delays = ThroughputEvaluator(
                scenario.sampler, [[p.delay_ms for p in v] for v in zip(*scenario.paths)]
            ).delays_by_vsta
            keys = SearchTable(scenario.plan).keys
            for v, (v_keys, v_delays) in enumerate(zip(keys, delays), start=1):
                cfg = replace(scenario.sampler, seed=vsta_seed(scenario.sampler.seed, v))
                found += [(key, v_delays, cfg) for key in v_keys]
    return found


def measure(n: int, found: list) -> dict:
    """The shortest of ``REPEATS`` passes of ``sample_rtts`` over ``found``
    at ``n`` samples, and of the kernel time within them."""
    from minislot import rttmodel

    work = [(key, delays, replace(cfg, n_samples=n)) for key, delays, cfg in found]
    kernel = rttmodel.rtt_samples
    spent = [0.0]

    def timed_kernel(*args):
        start = time.perf_counter()
        result = kernel(*args)
        spent[0] += time.perf_counter() - start
        return result

    passes, kernel_passes = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for key, delays, cfg in work:
            rttmodel.sample_rtts(key, delays, cfg)
        passes.append(time.perf_counter() - start)
        # a second pass times the kernel alone, so its clock reads do not
        # weigh on the first
        spent[0] = 0.0
        rttmodel.rtt_samples = timed_kernel
        try:
            for key, delays, cfg in work:
                rttmodel.sample_rtts(key, delays, cfg)
        finally:
            rttmodel.rtt_samples = kernel
        kernel_passes.append(spent[0])
    calls = sum(len(delays) for _, delays, _ in work)
    return {
        "draws": len(work),
        "kernel_calls": calls,
        "pass_s_min": min(passes),
        "draws_per_s": len(work) / min(passes),
        "kernel_s_min": min(kernel_passes),
        "kernel_msamples_per_s": calls * n / min(kernel_passes) / 1e6,
    }


def main() -> None:
    import numpy

    found = draws()
    print(json.dumps({
        "machine": {
            "cpu": cpu_model(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": platform.release(),
        },
        "samples": {str(n): measure(n, found) for n in SAMPLE_COUNTS},
    }, indent=2))


if __name__ == "__main__":
    main()
