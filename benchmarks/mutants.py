"""Mutation record: whether the unit and property tests catch each of a
list of small, named faults in the package.

A mutant is one text replacement in one file of ``src/minislot``: its
old text must occur in the file exactly once.  The script copies the
repository into a temporary directory, runs ``pytest tests -x -q -k
"not acceptance"`` there once unmutated (it must pass), then once per
mutant with the replacement applied, and prints, as JSON, each mutant's
outcome with the first failing test and the seconds taken, and the
machine and the library versions.  The outcome is ``killed`` when the
tests fail, ``survived`` when they pass and ``absent`` when the old text
is not in the file, as for code that a later change deleted.  A mutant
that gives the same results as the code it replaces carries the reason
in ``equivalent``, so its survival is expected.  Hypothesis runs with a
fixed seed and no example database, so a run repeats.  Run from the
repository root::

    python3 benchmarks/mutants.py > out.json

Given a directory, it mutates the checkout there instead, so the same
list can be run on another commit.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from search_table import machine  # noqa: E402

PYTEST = ["tests", "-x", "-q", "-k", "not acceptance", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/minislot
    old: str
    new: str
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "kernel: a gap's acks wait for the window before it",
        "_kernels.py",
        "zip(edges[1::2], edges[2::2], bounds[2::2])",
        "zip(edges[1::2], edges[2::2], bounds[1::2])",
    ),
    Mutant(
        "kernel: the RTT buffer keeps the previous delay's values",
        "_kernels.py", "    rtts.fill(delay + 0.0)\n", "",
    ),
    Mutant(
        "window times rounded to 1e-8 ms",
        "schedule.py",
        "round(x, 9) for x in values.tolist()",
        "round(x, 8) for x in values.tolist()",
    ),
    Mutant(
        "the last window runs on into the first",
        "schedule.py",
        "    opens = np.ones(owners.shape, bool)\n"
        "    opens[:, 1:] = owners[:, 1:] != owners[:, :-1]\n"
        "    closes = np.ones(owners.shape, bool)\n"
        "    closes[:, :-1] = opens[:, 1:]\n",
        "    opens = owners != np.roll(owners, 1, axis=1)\n"
        "    closes = owners != np.roll(owners, -1, axis=1)\n",
    ),
    Mutant("windows ordered by quicksort", "schedule.py", 'kind="stable"', 'kind="quicksort"'),
    Mutant("windows ordered by heapsort", "schedule.py", 'kind="stable"', 'kind="heapsort"'),
    Mutant(
        "the last gap ends at the period, not at the first window",
        "schedule.py",
        "nxt[ends - 1] = plan.period_ms + start[",
        "nxt[ends - 1] = plan.period_ms + 0 * start[",
    ),
    Mutant(
        "start-time sums always Python integers",
        "schedule.py", "np.int64 if total < 2**63 else object", "object",
        equivalent="Python-integer sums are exact, as int64 sums below 2**63 are, and give "
        "the same floats; they only take longer (benchmarks/search_table.py)",
    ),
    Mutant(
        "start-time sums always int64",
        "schedule.py", "np.int64 if total < 2**63 else object", "np.int64",
    ),
    Mutant(
        "start-time sums divided without the cast to float64",
        "schedule.py", ".astype(np.float64) / den", " / den",
    ),
    Mutant(
        "a pattern key's gaps read from its lengths' indices",
        "schedule.py", "at[w + a:w + b]", "at[a:b]",
    ),
    Mutant(
        "patterns of different VSTAs share a digit row",
        "schedule.py",
        "keyed[:, 0] = np.arange(len(windows)) % n",
        "keyed[:, 0] = 0",
    ),
    Mutant(
        "a table schedule takes the first row's patterns",
        "allocation.py", "self.pattern[s].tolist()", "self.pattern[0].tolist()",
    ),
    Mutant(
        "slot bound: a smallest duty cycle at the tolerance is refused",
        "schedule.py",
        "smallest * MAX_TOTAL_SLOTS < 1.0 - DUTY_SUM_TOLERANCE",
        "smallest * MAX_TOTAL_SLOTS <= 1.0 - DUTY_SUM_TOLERANCE",
    ),
    Mutant(
        "Reno: the loss rate without its square root",
        "rttmodel.py", "math.sqrt(path.loss_rate)", "path.loss_rate",
    ),
    Mutant(
        "the merged wrap window's sends follow the first window",
        "rttmodel.py", "        anchors[0] = anchors[-1]\n", "        pass\n",
    ),
    Mutant(
        "stratification points at k / n, not (k + 1/2) / n",
        "rttmodel.py", "before[1:-1] * (n / before[-1]) - 0.5)", "before[1:-1] * (n / before[-1]))",
    ),
    Mutant("sends left in draw order", "rttmodel.py", "    offsets.sort()\n", ""),
    Mutant(
        "a draw's acks and RTTs share one array",
        "rttmodel.py",
        "acks, rtts = np.empty_like(sends), np.empty_like(sends)",
        "acks = rtts = np.empty_like(sends)",
    ),
    Mutant(
        "an offset at a window's connected-time start falls in the window before",
        "rttmodel.py",
        "offsets.searchsorted(before[1:-1])",
        'offsets.searchsorted(before[1:-1], side="right")',
    ),
    Mutant(
        "a send adds its window's start before subtracting the connected time before it",
        "rttmodel.py",
        "        part -= before[i]\n        part += starts[i]\n",
        "        part += starts[i]\n        part -= before[i]\n",
    ),
    Mutant("CSV numbers with 7 significant digits", "scenarios.py", '".6g"', '".7g"'),
    Mutant(
        "CSV prints -0.0 as -0",
        "scenarios.py", "format(value + 0.0, ", "format(value, ",
    ),
    Mutant(
        "CSV cells read with the first two swapped",
        "scenarios.py", "for cell in row", "for cell in (row[1], row[0], *row[2:])",
    ),
    Mutant(
        "a scenario file's repeated key keeps its last value",
        "scenarios.py", ", object_pairs_hook=_json_object)", ")",
    ),
    Mutant(
        "the upper bound takes the least aggregate",
        "allocation.py",
        "    ]\n    return _best_row(table, values, np.argmax)\n",
        "    ]\n    return _best_row(table, values, np.argmin)\n",
    ),
    Mutant(
        "eq1 takes the largest penalty",
        "allocation.py",
        "_best_row(table, values, np.argmin)",
        "_best_row(table, values, np.argmax)",
    ),
    Mutant(
        "min-max reach stops one position short",
        "allocation.py",
        "bisect_right(free, free[j] + d, j) - 1",
        "bisect_right(free, free[j] + d - 1, j) - 1",
    ),
)


def run_tests(repo: str) -> tuple[str, str | None, float]:
    """``(outcome, first failing test, seconds)`` of the tests in ``repo``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(repo, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *PYTEST], cwd=repo, env=env,
        capture_output=True, text=True, timeout=900,
    )
    seconds = round(time.perf_counter() - start, 1)
    shutil.rmtree(os.path.join(repo, ".hypothesis"), ignore_errors=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    outcome = {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode, "error")
    return outcome, failed[0] if failed else None, seconds


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    (root,) = sys.argv[1:] or (here,)
    with tempfile.TemporaryDirectory() as tmp:
        repo = os.path.join(tmp, "repo")
        shutil.copytree(root, repo, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        outcome, first, seconds = run_tests(repo)
        if outcome != "survived":
            sys.exit(f"the unmutated tests do not pass ({outcome}, {first})")
        records = []
        for mutant in MUTANTS:
            path = os.path.join(repo, "src", "minislot", mutant.path)
            with open(path, encoding="utf-8") as f:
                source = f.read()
            found = source.count(mutant.old)
            if found > 1:
                sys.exit(f"{mutant.name}: its old text occurs {found} times in {mutant.path}")
            record = {"name": mutant.name, "file": mutant.path}
            if found == 0:
                record["outcome"] = "absent"
            else:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(source.replace(mutant.old, mutant.new))
                try:
                    record["outcome"], record["first_failure"], record["seconds"] = run_tests(repo)
                finally:
                    with open(path, "w", encoding="utf-8") as f:
                        f.write(source)
            if mutant.equivalent:
                record["equivalent"] = mutant.equivalent
            records.append(record)
    counts = {k: sum(r["outcome"] == k for r in records) for k in ("killed", "survived", "absent")}
    print(json.dumps({
        "machine": machine(),
        "command": ["pytest", *PYTEST],
        "unmutated_seconds": seconds,
        **counts,
        "mutants": records,
    }, indent=2))


if __name__ == "__main__":
    main()
