"""minislot benchmark: end-to-end sweep time and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive-all [--seed 12345] [--seconds N] [--trace 0]
    python3 perfbench/run.py --smoke            # tiny slice; checks the benchmark itself

Each workload (see ``workloads.py``; the reasons are in ``BENCHMARK.json``)
is a closed loop of ``minislot`` CLI calls, run in-process by a fresh
worker process with one thread per numeric library.  The worker discards
a warm-up run of the smoke slice, times passes for ``--seconds`` and
checks every CSV.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
the passes, at least two), ``points_per_s`` (result points per second of
``wall_s``), ``setup_s`` (median of several fresh interpreters importing
``minislot.cli`` and resolving the workload's scenarios) and
``peak_rss_mib`` (peak RSS of the worker).  ``--trace 1`` runs one
untraced pass, then traced passes for ``--seconds``, and reports the
per-layer metrics instead.  Failed CLI calls are counted in ``failed``
against ``attempted``; the last line of stdout is the JSON result the
metric names and units of ``BENCHMARK.json`` describe.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEADLINE_S = 175.0
SETUP_REPEATS = 11
# Prints the monotonic clock (shared by all processes) once the scenarios
# are resolved, so setup time excludes interpreter teardown and the
# polling granularity of waiting on the child.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import minislot.cli; "
    "from minislot.scenarios import builtin_scenarios; "
    "[builtin_scenarios(name) for name in sys.argv[2:]]; "
    "import time; print(time.monotonic())"
)

sys.path.insert(0, HERE)
import worker  # noqa: E402
from workloads import SMOKE, calls_for, scenario_names  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def hygienic_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workload: str, env: dict) -> float:
    """Median wall time of a fresh interpreter up to resolved scenarios."""
    argv = [sys.executable, "-c", SETUP_CODE, worker.SRC, *scenario_names(workload)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
               timeout: float) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--outdir", outdir]
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Returns (metric values by name, worker report)."""
    started = time.perf_counter()
    env = hygienic_env()
    values = {}
    if not trace:
        values["setup_s"] = measure_setup(workload, env)
    report = run_worker(workload, seed, seconds, trace, env,
                        timeout=DEADLINE_S - (time.perf_counter() - started))
    if trace:
        values.update(report["layers"])
    else:
        wall = statistics.median(report["walls_s"])
        values["wall_s"] = wall
        values["points_per_s"] = (report["points"] or 0) / wall
        values["peak_rss_mib"] = report["peak_rss_kib"] / 1024.0
    return values, report


def metrics_for(spec: dict, trace: int, values: dict) -> dict:
    """The JSON ``metrics`` object: every metric the spec lists for this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def print_report(workload, seed, trace, values, report, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"perfbench: workload={workload} seed={seed} trace={trace} "
          f"(closed loop, 1 client, 1 thread)")
    print("env: " + json.dumps(report["env"], sort_keys=True))
    print(f"timed passes: {len(report['walls_s'])}, wall_s each: "
          + ", ".join(f"{w:.4f}" for w in report["walls_s"]))
    if trace:
        print(f"traced passes: {len(report['traced_walls_s'])}, wall_s each: "
              + ", ".join(f"{w:.4f}" for w in report["traced_walls_s"]))
    for name in sorted(values):
        print(f"  {name:<40} {values[name]:>16.6g} {units.get(name, 's')}")
    ratio = report["failed"] / report["attempted"]
    print(f"  {'failed_ratio':<40} {ratio:>16.6g} ({report['failed']}/{report['attempted']} "
          "CLI calls)")
    if trace:
        print("  spans (first traced pass): name, calls, total_s, self_s")
        for name, s in sorted(report["spans"].items()):
            print(f"    {name:<34} {s['calls']:>9} {s['total_s']:>12.6f} {s['self_s']:>12.6f}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def smoke(spec: dict) -> int:
    """Tiny slice through both modes, plus a check that corruption is caught."""
    for trace in (0, 1):
        values, report = measure(SMOKE, worker.GOLDEN_SEED, 0, trace)
        metrics = metrics_for(spec, trace, values)
        print_report(SMOKE, worker.GOLDEN_SEED, trace, values, report, spec)
        if not report["correct"] or report["failed"]:
            raise BenchError(f"smoke run failed: {report['problems']}")
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        if {k: v["unit"] for k, v in metrics.items()} != units:
            raise BenchError("smoke run did not report every metric with its unit")
        bad = [k for k, v in metrics.items() if not (math.isfinite(v["value"]) and v["value"] > 0)]
        if bad:
            raise BenchError(f"smoke run reported metrics that are 0 or not finite: {bad}")

    cli = worker.import_program()
    calls = calls_for(SMOKE)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        _, outputs = worker.run_pass(cli, calls, worker.GOLDEN_SEED, outdir)
    code, data = outputs[0]
    pos = next(i for i in range(len(data) // 2, len(data)) if data[i:i + 1].isdigit())
    flipped = b"1" if data[pos:pos + 1] != b"1" else b"2"
    corrupted = data[:pos] + flipped + data[pos + 1:]
    for bad in ([(code, corrupted)], [(1, data)], [(0, None)]):
        checker = worker.Checker(calls, worker.load_golden(SMOKE))
        if checker.judge(worker.GOLDEN_SEED, bad) or checker.failed != 1:
            raise BenchError(f"a bad CSV was not counted as failed: {checker.problems}")
    print("smoke: ok (every metric printed with its unit; corrupted CSV counted as failed)")
    return 0


def _terminate(signum, frame):
    # Unwind, so subprocess.run kills and reaps the worker and the scratch
    # directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=worker.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=smoke.__doc__)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(worker.PROGRAM):
            raise BenchError(f"no minislot package under {worker.SRC}")
        if args.smoke:
            return smoke(spec)
        if args.workload is None:
            parser.error("--workload is required")
        values, report = measure(args.workload, args.seed, args.seconds, args.trace)
        metrics = metrics_for(spec, args.trace, values)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, args.trace, values, report, spec)
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
