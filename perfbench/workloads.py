"""Workload definitions shared by the benchmark's runner and worker.

A workload is a closed loop of ``minislot`` CLI calls: one client, one
thread, each call issued after the previous one returns.  The runner
appends ``--seed`` and ``--out`` to every call; the program receives
nothing but these CLI arguments.  The reason each workload exists is
kept in ``BENCHMARK.json`` next to its name.
"""
from __future__ import annotations

ALL_ALGORITHMS = "nopolicy,minmax,eq1,eq2,upperbound"

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "exhaustive-all": tuple(
        ("--scenario", case, "--algorithms", ALL_ALGORITHMS)
        for case in ("case1", "case2", "case3")
    ),
    "blind-search": tuple(
        ("--scenario", case, "--algorithms", "nopolicy,eq1,eq2")
        for case in ("case1", "case2", "case3")
    ),
    "sampler-heavy": tuple(
        ("--scenario", case, "--samples", "50000")
        for case in ("case1", "case2", "case3", "fig5")
    ),
}

# A tiny slice for the benchmark's own smoke test and warm-up run; not a
# BENCHMARK.json workload.
SMOKE = "smoke"
# It runs every algorithm, so every traced layer metric is non-zero on it.
SMOKE_CALLS: tuple[tuple[str, ...], ...] = (
    ("--scenario", "fig5", "--algorithms", ALL_ALGORITHMS, "--samples", "2000"),
)


def calls_for(workload: str) -> tuple[tuple[str, ...], ...]:
    if workload == SMOKE:
        return SMOKE_CALLS
    return WORKLOADS[workload]


def scenario_names(workload: str) -> list[str]:
    """Built-in scenario names the workload's calls resolve."""
    return [call[call.index("--scenario") + 1] for call in calls_for(workload)]
