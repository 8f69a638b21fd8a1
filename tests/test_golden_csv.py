"""Golden-CSV gate: the CSV bytes of the built-in scenarios must not move.

Each entry runs one built-in scenario at the default seed over a short
delay subset and compares the SHA-256 of its CSV with a digest recorded
from the code before the exhaustive searches were made
delay-independent.  A refactor keeps these bytes; only a deliberate
model change may alter them, and it re-records the digests and says so
in CHANGES.md.
"""
import hashlib
from dataclasses import replace

import pytest

from minislot.scenarios import builtin_scenarios, emit_csv, run_scenario

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


def scenario_csv(name):
    rows = []
    for scenario in builtin_scenarios(name):
        rows.extend(run_scenario(replace(scenario, delays_ms=DELAYS, algorithms=ALL)))
    return emit_csv(rows)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_digest(name):
    assert hashlib.sha256(scenario_csv(name).encode()).hexdigest() == GOLDEN[name]
