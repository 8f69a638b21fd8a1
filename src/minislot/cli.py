"""Command-line experiment runner.

Runs a built-in or file-based scenario sweep and writes the result CSV
to stdout or a file.  The README states the flags, the exit statuses and
the input bounds, and a test checks it against this parser.
"""
from __future__ import annotations

import argparse
import os
import sys

from .allocation import EnumerationBudgetError
from .scenarios import (
    ALGORITHMS,
    ConfigError,
    Scenario,
    builtin_configs,
    emit_csv,
    load_config,
    run_scenario,
    scenario_from_config,
    schedule_dump,
)

#: the scenario config keys that CLI flags replace; each flag's ``dest`` is its key
_FLAG_KEYS = ("seed", "n_samples", "mean_fraction", "algorithms")


def _names(text: str) -> list[str]:
    """The names of a comma-separated list, without empty entries."""
    return [a.strip() for a in text.split(",") if a.strip()]


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
        "--algorithms", type=_names, default=None,
        help=f"comma-separated subset of {', '.join(ALGORITHMS)}",
    )
    parser.add_argument(
        "--samples", dest="n_samples", type=int, default=None,
        help="RTT samples per VSTA and delay",
    )
    parser.add_argument(
        "--mean-fraction", type=float, default=None,
        help="exponential send-offset mean as a fraction of the connected time",
    )
    parser.add_argument(
        "--dump-schedules", default=None, metavar="PATH",
        help="also write the delay-independent schedules as owner,duration_ms,start_ms records",
    )
    return parser


def _resolve_scenarios(args) -> list[Scenario]:
    """The configs ``--scenario`` names, with the flags given merged in, as scenarios.

    The flags are merged before any check, so a bad flag value fails as
    the same value in a file would.
    """
    if os.path.exists(args.scenario):
        # a file scenario without a name key is named after its path
        configs = [{"name": args.scenario, **load_config(args.scenario)}]
    else:
        configs = builtin_configs(args.scenario)
    overrides = {
        key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None
    }
    return [scenario_from_config({**config, **overrides}) for config in configs]


def _write(flag: str, path: str, text: str, newline: str | None = None) -> bool:
    """Write ``text`` to the file at ``path``; False, after naming ``flag``
    and ``path`` on stderr, if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            fh.write(text)
    except OSError as exc:
        print(f"minislot: cannot write {flag} {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the CSV would overwrite the dump
    paths = [os.path.realpath(p) for p in (args.out, args.dump_schedules) if p]
    if len(set(paths)) < len(paths):
        print(f"minislot: --out and --dump-schedules name one file: {args.out}", file=sys.stderr)
        return 2
    try:
        scenarios = _resolve_scenarios(args)
        rows, dump = [], []
        for scenario in scenarios:
            run = run_scenario(scenario)
            rows.extend(run)
            if args.dump_schedules:
                dump.append(schedule_dump(scenario, run.schedules))
    except ConfigError as exc:
        print(f"minislot: configuration error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetError as exc:
        print(f"minislot: {exc}", file=sys.stderr)
        return 3
    if args.dump_schedules:
        if not _write("--dump-schedules", args.dump_schedules, "".join(dump)):
            return 2
    text = emit_csv(rows)
    if args.out:
        if not _write("--out", args.out, text, newline=""):
            return 2
        print(f"minislot: wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
