"""Golden gate: the CSV and ``--dump-schedules`` bytes of the built-in scenarios must not move.

Each entry runs one built-in scenario at the default seed over a short
delay subset and compares the SHA-256 of its CSV with a digest recorded
from the code before the exhaustive searches were made
delay-independent, and the SHA-256 of its schedule dump
(``scenarios.schedule_dump``, the text ``--dump-schedules`` writes)
with one recorded before each VSTA's windows came from one scan of the
schedule.  A refactor keeps these bytes; only a deliberate model change
may alter them, and it re-records the digests and says so in CHANGES.md.
"""
import hashlib
from dataclasses import replace
from functools import cache

import pytest

from minislot.scenarios import builtin_scenarios, emit_csv, run_scenario, schedule_dump

ALL = ("nopolicy", "minmax", "eq1", "eq2", "upperbound")
# 0 ms gives infinite throughputs and penalties, 10 ms sits where the
# upper bound picks the contiguous schedule, 55 and 125 ms cross period
# boundaries of every case.
DELAYS = (0.0, 10.0, 55.0, 125.0)

GOLDEN = {
    "case1": "84370c3c6aa30c9fb4595851eb7447350a7c4c79a0a3163b2bc12df762c94639",
    "case2": "85f66afe7f1e3c4f0d74b2149985310b224c317bd25a89bb2afc7d79607bf9ba",
    "case3": "2b21737917aa579ec8e19cfd86e8f4fc562f1fb0209400298030ad2f5977fd6e",
    "fig5": "86f95f2ad2a580a70342c0c59bb4176bc169c3a82b4714ad8626dbc5dfe5dae5",
}

GOLDEN_DUMP = {
    "case1": "6a26d87ba58851cd6b5cc7c0f2e4c37779ee6cb99cfbb0145b4748b2303bdd6c",
    "case2": "3fdd3fec34e36cc2a4b7a7925c503bc2ed051338555b0c82343edd9146f256e6",
    "case3": "d8c9ec4b928f19ad7c46ef10d3dfeddee42e76dbc1d81efbb286e6f4f1f34a71",
    "fig5": "fb6900f5956348085d5c440b3d35ea6b323082f661adbb62dfe39c397078e06a",
}


@cache
def scenario_outputs(name):
    """The CSV and the ``--dump-schedules`` text of one built-in scenario."""
    rows, dump = [], []
    for scenario in builtin_scenarios(name):
        scenario = replace(scenario, delays_ms=DELAYS, algorithms=ALL)
        run = run_scenario(scenario)
        rows.extend(run)
        dump.append(schedule_dump(scenario, run.schedules))
    return emit_csv(rows), "".join(dump)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name):
    assert sha256(scenario_outputs(name)[0]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DUMP))
def test_dump_digest(name):
    assert sha256(scenario_outputs(name)[1]) == GOLDEN_DUMP[name]
