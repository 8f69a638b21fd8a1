"""Build time and peak memory of ``SearchTable`` on a fixed set of plans,
and the time of one schedule's window patterns.

Each plan is built ``REPEATS`` times in a fresh interpreter; the script
prints, as JSON, the shortest build and the process's peak RSS for each,
and the median time of ``SlotSchedule.window_patterns`` on a case1 row
and on a schedule of 10,000 one-slot VSTAs, with the machine and the
library versions.  Run from the repository root with the package on the
path::

    PYTHONPATH=src python3 benchmarks/search_table.py > out.json

Given a plan's name, it builds that plan in this interpreter and prints
its figures alone.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
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

#: reads of each schedule's window patterns
READS = 101

# name -> (duty cycles, slot time in ms, whether min-max places the slots)
# of a schedule whose window patterns are timed: case1's min-max row, and
# the nopolicy row of the most slots a plan may have
SCHEDULES = {
    "case1 minmax": (*PLANS["case1"], True),
    "10000 x 1 nopolicy": ([1e-4] * 10_000, 1.0, False),
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


def window_patterns_s(name: str) -> float:
    """Median time of reading ``window_patterns`` on fresh copies of schedule ``name``."""
    from minislot.allocation import minmax_allocate
    from minislot.schedule import DutyCycleSet, SlotSchedule, derive_slot_plan

    duties, slot_time, minmax = SCHEDULES[name]
    plan = derive_slot_plan(DutyCycleSet(duties), slot_time)
    owners = minmax_allocate(plan).schedule.owners if minmax else plan.contiguous_owners
    times = []
    for _ in range(READS):
        schedule = SlotSchedule(plan, owners)  # the patterns are kept once read
        start = time.perf_counter()
        schedule.window_patterns
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    """The CPU, the Python and numpy versions and the kernel the figures come from."""
    import numpy

    return {
        "cpu": cpu_model(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
    }


def main() -> None:
    if sys.argv[1:]:
        (name,) = sys.argv[1:]
        print(json.dumps(measure(name)))
        return
    results = {}
    for name in PLANS:
        out = subprocess.run(
            [sys.executable, __file__, name],
            check=True, capture_output=True, text=True,
        ).stdout
        results[name] = json.loads(out)
    print(json.dumps({
        "machine": machine(),
        "plans": results,
        "window_patterns_s_median": {name: window_patterns_s(name) for name in SCHEDULES},
    }, indent=2))


if __name__ == "__main__":
    main()
