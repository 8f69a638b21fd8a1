"""Command-line experiment runner.

Runs a built-in or file-based scenario sweep and writes the result CSV
to stdout or a file.  Exit status is 0 on success, 2 on configuration
errors and 3 when an exhaustive algorithm exceeds the enumeration
budget.
"""
from __future__ import annotations

import argparse
import os
import sys

from .allocation import (
    DEFAULT_MAX_SCHEDULES,
    EnumerationBudgetError,
    blind_allocate,
    minmax_allocate,
)
from .scenarios import (
    ALGORITHMS,
    ConfigError,
    Scenario,
    apply_overrides,
    builtin_scenarios,
    emit_csv,
    load_scenario_file,
    run_scenario,
    schedule_records,
)
from .schedule import build_contiguous_schedule, derive_slot_plan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minislot",
        description=(
            "Deterministic multi-AP TDMA / TCP throughput simulator: "
            "sweeps wired delays and compares slot-allocation algorithms."
        ),
    )
    parser.add_argument(
        "--scenario", required=True,
        help="built-in name (case1, case2, case3, fig5) or path to a JSON scenario file",
    )
    parser.add_argument("--seed", type=int, default=None, help="experiment seed (echoed in the CSV)")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument(
        "--algorithms", default=None,
        help=f"comma-separated subset of {', '.join(ALGORITHMS)}",
    )
    parser.add_argument("--samples", type=int, default=None, help="RTT samples per VSTA and delay")
    parser.add_argument(
        "--mean-fraction", type=float, default=None,
        help="exponential send-offset mean as a fraction of the connected time",
    )
    parser.add_argument(
        "--max-schedules", type=int, default=DEFAULT_MAX_SCHEDULES,
        help="enumeration budget for the exhaustive algorithms",
    )
    parser.add_argument(
        "--dump-schedules", default=None, metavar="PATH",
        help="also write the delay-independent schedules as owner,duration_ms,start_ms records",
    )
    return parser


def _resolve_scenarios(args) -> list[Scenario]:
    if os.path.exists(args.scenario):
        scenarios = [load_scenario_file(args.scenario)]
    else:
        scenarios = builtin_scenarios(args.scenario)
    algorithms = None
    if args.algorithms is not None:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    return [
        apply_overrides(
            s,
            seed=args.seed,
            algorithms=algorithms,
            n_samples=args.samples,
            mean_fraction=args.mean_fraction,
        )
        for s in scenarios
    ]


def _dump_schedules(scenarios: list[Scenario], path: str, max_schedules: int) -> None:
    chunks = []
    for scenario in scenarios:
        plan = derive_slot_plan(scenario.duty_cycles, scenario.slot_time_ms)
        for alg in scenario.algorithms:
            if alg == "nopolicy":
                schedule = build_contiguous_schedule(plan)
            elif alg == "minmax":
                schedule = minmax_allocate(plan).schedule
            elif alg == "eq2":
                schedule = blind_allocate(plan, "eq2", max_schedules=max_schedules).schedule
            else:
                # eq1 and upperbound schedules depend on the swept delay
                continue
            chunks.append(f"# scenario={scenario.name} algorithm={alg}\n")
            chunks.append(schedule_records(schedule))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(chunks))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenarios = _resolve_scenarios(args)
        rows = []
        for scenario in scenarios:
            rows.extend(run_scenario(scenario, max_schedules=args.max_schedules))
        if args.dump_schedules:
            _dump_schedules(scenarios, args.dump_schedules, args.max_schedules)
    except ConfigError as exc:
        print(f"minislot: configuration error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"minislot: {exc}", file=sys.stderr)
        return 3
    text = emit_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"minislot: wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
