"""Build time and peak memory of ``SearchTable`` on a fixed set of plans.

Each plan is built ``REPEATS`` times in a fresh interpreter; the script
prints, as JSON, the shortest build and the process's peak RSS for each,
with the machine and the library versions.  Run from the repository
root with the package on the path::

    PYTHONPATH=src python3 benchmarks/search_table.py > out.json

Given a plan's name, it builds that plan in this interpreter and prints
its figures alone.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time

#: builds per plan
REPEATS = 5

# name -> (duty cycles, slot time in ms)
PLANS = {
    "case1": ([0.5, 0.125, 0.125, 0.125, 0.125], 15.0),
    "case2": ([0.5, 0.125, 0.375], 12.5),
    "case3": ([0.65, 0.25, 0.10], 10.0),
    # 277,200 and 831,600 owner vectors
    "3:3:2:2:1": ([3 / 11, 3 / 11, 2 / 11, 2 / 11, 1 / 11], 10.0),
    "4:3:2:2:1": ([4 / 12, 3 / 12, 2 / 12, 2 / 12, 1 / 12], 10.0),
    # 3,000 slots of two unequal sizes, whose exact unit sums pass 2**63
    "2999:1": ([2999 / 3000, 1 / 3000], 13.7),
}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(name: str) -> dict:
    """Build plan ``name``'s table ``REPEATS`` times in this interpreter."""
    from minislot.allocation import SearchTable
    from minislot.schedule import DutyCycleSet, derive_slot_plan

    duties, slot_time = PLANS[name]
    before = peak_rss_mib()
    times = []
    for _ in range(REPEATS):
        # a new plan each time, so no build reuses what the plan keeps
        plan = derive_slot_plan(DutyCycleSet(duties), slot_time)
        start = time.perf_counter()
        rows = SearchTable(plan).count  # the table is freed before the next build
        times.append(time.perf_counter() - start)
    return {
        "slot_counts": list(plan.slot_counts),
        "rows": rows,
        "build_s_min": min(times),
        "builds": REPEATS,
        "peak_rss_mib": round(peak_rss_mib(), 1),
        "peak_rss_mib_before_build": round(before, 1),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    if sys.argv[1:]:
        (name,) = sys.argv[1:]
        print(json.dumps(measure(name)))
        return
    import numpy

    results = {}
    for name in PLANS:
        out = subprocess.run(
            [sys.executable, __file__, name],
            check=True, capture_output=True, text=True,
        ).stdout
        results[name] = json.loads(out)
    print(json.dumps({
        "machine": {
            "cpu": cpu_model(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": platform.release(),
        },
        "plans": results,
    }, indent=2))


if __name__ == "__main__":
    main()
