"""Run one workload in this (fresh) process and report on the last stdout line.

Started by ``run.py``; not meant to be run by hand.  Imports ``minislot``
from the checkout's ``src``, runs the workload's CLI calls in-process
(a discarded warm-up run of the smoke slice, then timed passes for
``--seconds``) and checks every CSV it writes.  With ``--trace 1`` one
untraced pass is followed by traced passes (at least two, alternating
the seed and seed + 1) whose call counts must all agree.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import PackageNotFoundError, version

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROGRAM = os.path.join(SRC, "minislot", "__init__.py")
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 12345

sys.path.insert(0, HERE)
from tracer import Tracer, traced  # noqa: E402
from workloads import SMOKE, calls_for  # noqa: E402

ALLOCATORS = (
    "allocation.minmax_allocate",
    "allocation.blind_allocate",
    "allocation.upper_bound_allocate",
)


def import_program():
    """``minislot.cli`` from this checkout's ``src``, never an installed copy."""
    if not os.path.isfile(PROGRAM):
        raise SystemExit(f"perfbench: no minislot package under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("minislot.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported minislot from {cli.__file__}, not {SRC}")
    return cli


def run_pass(cli, calls, seed: int, outdir: str):
    """One closed-loop pass: returns (wall seconds, [(exit code, CSV bytes)])."""
    paths = [os.path.join(outdir, f"{i}.csv") for i in range(len(calls))]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    codes = []
    start = time.perf_counter()
    for call, path in zip(calls, paths):
        argv = [*call, "--seed", str(seed), "--out", path]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = 1
        codes.append(code)
    wall = time.perf_counter() - start
    outputs = []
    for code, path in zip(codes, paths):
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        outputs.append((code, data))
    return wall, outputs


class Checker:
    """Correctness gate for every CSV a pass writes.

    A call fails when it exits non-zero, writes no CSV, writes other bytes
    than an earlier call with the same arguments in this process, does not
    match the recorded SHA-256 at seed 12345, or (at any seed) has another
    header, line count or seed column than the recorded CSV.
    """

    def __init__(self, calls, golden: dict | None):
        self.calls = calls
        self.golden = golden
        self.first_digest: dict[tuple[int, int], str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.points: int | None = None

    def judge(self, seed: int, outputs) -> bool:
        all_ok = True
        for i, (code, data) in enumerate(outputs):
            self.attempted += 1
            problem = self._problem(seed, i, code, data)
            if problem:
                self.failed += 1
                all_ok = False
                self.problems.append(f"seed {seed}, call {' '.join(self.calls[i])}: {problem}")
        if all_ok and self.points is None:
            self.points = sum(
                line.split(b",")[3] == b"all"
                for _, data in outputs for line in data.splitlines()[1:]
            )
        return all_ok

    def _problem(self, seed, i, code, data) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if data is None:
            return "no CSV written"
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest.setdefault((seed, i), digest) != digest:
            return "CSV bytes differ from an earlier run with the same seed"
        if self.golden is None:
            return "no recorded CSV for this workload in golden.json"
        ref = self.golden["calls"][i]
        if ref["argv"] != list(self.calls[i]):
            return "workload arguments changed since golden.json was recorded"
        if seed == GOLDEN_SEED and digest != ref["sha256"]:
            return f"SHA-256 {digest} differs from the recorded {ref['sha256']}"
        lines = data.decode("utf-8").split("\n")
        if lines[-1] != "" or len(lines) - 1 != ref["lines"]:
            return f"{len(lines) - 1} lines, recorded {ref['lines']}"
        if lines[0] != self.golden["header"]:
            return "CSV header differs from the recorded one"
        if any(line.rsplit(",", 1)[-1] != str(seed) for line in lines[1:-1]):
            return "a row's seed column differs from the seed"
        return None


def traced_pass(cli, calls, seed, outdir):
    tracer = Tracer()
    with traced(tracer):
        wall, outputs = run_pass(cli, calls, seed, outdir)
    return wall, outputs, tracer


def trace_counts(tracer: Tracer) -> dict:
    """Everything a traced pass counts, which must not depend on timing or seed."""
    counts = {f"{name}.calls": s.calls for name, s in tracer.spans.items()}
    counts.update({f"{p}->{c}": n for (p, c), n in tracer.edges.items()})
    counts.update(tracer.counters)
    return counts


def layer_metrics(tracers, untraced_wall: float, traced_walls) -> dict:
    """Per-layer metrics from traced passes; times are the passes' median."""

    def span(name, field):
        return statistics.median(getattr(t.spans[name], field) for t in tracers)

    t = tracers[0]
    calls = {name: s.calls for name, s in t.spans.items()}
    kernel_self = span("kernels.rtt_samples", "self_s")
    alloc_total = sum(span(name, "total_s") for name in ALLOCATORS)
    misses = t.edges[("rttmodel.mean_rtt", "rttmodel.sample_rtts")]
    lookups = calls["rttmodel.mean_rtt"]
    return {
        "kernels.rtt_samples.self_s": kernel_self,
        "kernels.rtt_samples.calls": calls["kernels.rtt_samples"],
        "kernels.msamples_per_s": t.counters["kernels.samples"] / kernel_self / 1e6
        if kernel_self else 0.0,
        "rttmodel.sample_rtts.self_s": span("rttmodel.sample_rtts", "self_s"),
        "rttmodel.sample_rtts.calls": calls["rttmodel.sample_rtts"],
        "rttmodel.samples_drawn": t.counters["rttmodel.samples_drawn"],
        "rttmodel.mean_rtt.self_s": span("rttmodel.mean_rtt", "self_s"),
        "rttmodel.mean_rtt.calls": lookups,
        "rttmodel.evaluator_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "allocation.self_s": sum(span(name, "self_s") for name in ALLOCATORS),
        "allocation.calls": sum(calls[name] for name in ALLOCATORS),
        "allocation.schedules_evaluated": t.counters["allocation.schedules_evaluated"],
        "allocation.schedules_per_s": t.counters["allocation.schedules_evaluated"] / alloc_total
        if alloc_total else 0.0,
        "schedule.from_owners.self_s": span("schedule.from_owners", "self_s"),
        "schedule.from_owners.calls": calls["schedule.from_owners"],
        "schedule.max_disconnection.self_s": span("schedule.max_disconnection", "self_s"),
        "schedule.max_disconnection.calls": calls["schedule.max_disconnection"],
        "scenarios.run_scenario.self_s": span("scenarios.run_scenario", "self_s"),
        "scenarios.emit_csv.s": span("scenarios.emit_csv", "total_s"),
        "scenarios.csv_rows": t.counters["scenarios.csv_rows"],
        "cli.main.self_s": span("cli.main", "self_s"),
        "trace_overhead_ratio": statistics.median(traced_walls) / untraced_wall,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    try:
        numba = version("numba")
    except PackageNotFoundError:
        numba = None
    kernels = sys.modules.get("minislot._kernels")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "kernel_backend": getattr(kernels, "BACKEND", "numpy"),
        "git_commit": git_commit(),
        "seed": seed,
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_golden(workload: str) -> dict | None:
    try:
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--outdir", required=True, help="scratch directory for the CSVs")
    args = parser.parse_args(argv)

    cli = import_program()
    calls = calls_for(args.workload)
    checker = Checker(calls, load_golden(args.workload))
    report: dict = {"correct": True}

    # The discarded warm-up run is the smoke slice: it pays the first-call
    # costs (numpy RNG and kernel, enumeration, CSV writing) without adding
    # a whole exhaustive-all pass, whose first pass is not measurably slower.
    run_pass(cli, calls_for(SMOKE), args.seed, args.outdir)
    # Untraced passes fill --seconds, at least two so that an exhaustive-all
    # pass near --seconds never leaves a run with one.  With --trace 1 a
    # single one is the baseline of the trace overhead and traced passes
    # fill the rest.
    walls = []
    start = time.perf_counter()
    while True:
        wall, outputs = run_pass(cli, calls, args.seed, args.outdir)
        checker.judge(args.seed, outputs)
        walls.append(wall)
        if args.trace or (len(walls) >= 2 and time.perf_counter() - start >= args.seconds):
            break
    report["walls_s"] = walls
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        # At least two traced passes, alternating the seed and seed + 1,
        # whose counts must all agree.
        traced_walls, tracers = [], []
        while len(tracers) < 2 or time.perf_counter() - start < args.seconds:
            seed = args.seed + len(tracers) % 2
            wall, outputs, tracer = traced_pass(cli, calls, seed, args.outdir)
            checker.judge(seed, outputs)
            traced_walls.append(wall)
            tracers.append(tracer)
        counts = [trace_counts(t) for t in tracers]
        diff = sorted({k for c in counts[1:] for k in c.keys() | counts[0].keys()
                       if c.get(k) != counts[0].get(k)})
        if diff:
            checker.problems.append(f"traced counts differ between passes or seeds: {diff}")
            report["correct"] = False
        report["traced_walls_s"] = traced_walls
        report["layers"] = layer_metrics(tracers, walls[0], traced_walls)
        report["spans"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in tracers[0].spans.items()
        }

    report.update(
        correct=report["correct"] and checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        points=checker.points,
        env=environment(args.seed),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
