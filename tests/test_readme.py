"""The README's CLI contract agrees with the code it describes.

The README keeps what a user of the CLI needs: the flags, the scenario
file keys and their defaults, the CSV header, the input bounds and an
example scenario file.  Each check reads the value from the code, so a
changed flag, key, default or bound fails here until the README follows.
"""
import importlib
import json
import re
from dataclasses import MISSING
from pathlib import Path

import pytest

from minislot import cli, scenarios

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# from the CLI section up to "Tests", which names pytest's and pip's flags
CLI_SECTION = README[README.index("\n## CLI\n"):README.index("\n## Tests\n")]
KEY_TABLE = CLI_SECTION[CLI_SECTION.index("| Key | Value | Default |"):].split("\n\n")[0]
# each scenario-file key of the table -> its Default cell
DEFAULT_CELLS = dict(re.findall(r"^\| `(\w+)` \|.*\| (.*) \|$", KEY_TABLE, re.MULTILINE))

BOUNDS = [
    "allocation.MAX_OWNER_VECTORS",
    "schedule.MAX_TOTAL_SLOTS",
    "scenarios.MAX_SWEEP_DELAYS",
    "schedule.MIN_SLOT_TIME_MS",
    "schedule.MAX_PERIOD_MS",
    "rttmodel.MAX_LOSS_RATE",
    "rttmodel.MAX_MSS_BYTES",
    "rttmodel.MAX_N_SAMPLES",
]


def readme_number(value) -> str:
    """``value`` as the README writes it: thousands separated, no needless digits."""
    if isinstance(value, int) or value.is_integer():
        return f"{value:,.0f}"
    return f"{value:g}"


def test_flags_match_the_parser():
    options = {
        option
        for action in cli.build_parser()._actions
        for option in action.option_strings
    }
    for option in options:
        assert f"`{option}" in CLI_SECTION, option
    assert set(re.findall(r"--[a-z][a-z-]*", CLI_SECTION)) <= options


def test_key_table_rows_are_the_scenario_fields():
    """The table lists ``Scenario``'s init fields, the keys, in field order."""
    assert list(DEFAULT_CELLS) == list(scenarios._CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(scenarios._CONFIG_KEYS))
def test_config_key_is_listed(key):
    """The key's Default cell is its field's default as JSON, or ``required``;
    ``name``'s gives the CLI's rule instead, which names a file by its path."""
    field = scenarios._CONFIG_KEYS[key]
    cell = DEFAULT_CELLS[key]
    if key == "name":
        assert cell == "the file's path"
    elif field.default is MISSING:
        assert cell == "required"
    else:
        assert cell.startswith(f"`{json.dumps(field.default)}`")


def test_file_without_name_is_named_by_its_path(tmp_path, capsys):
    """The rule ``name``'s Default cell states."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"duty_cycles": [1.0], "slot_time_ms": 10, "delays_ms": [5], "algorithms": ["nopolicy"]}
    ))
    assert cli.main(["--scenario", str(path), "--samples", "10"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and {row.split(",")[0] for row in rows} == {str(path)}


def test_csv_header_is_verbatim():
    assert f"\n{scenarios.CSV_HEADER}\n" in CLI_SECTION


@pytest.mark.parametrize("bound", BOUNDS)
def test_bound_row_gives_the_value(bound):
    """The bound's one table row names it and gives its value."""
    (row,) = [line for line in CLI_SECTION.splitlines() if f"| `{bound}` |" in line]
    module, name = bound.split(".")
    assert readme_number(getattr(importlib.import_module(f"minislot.{module}"), name)) in row


def test_example_file_runs_case2():
    """The README's example scenario file is ``case2`` with other algorithms and seed."""
    (block,) = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
    example = json.loads(block)
    scenarios.scenario_from_config(example)
    (case2,) = scenarios.builtin_configs("case2")
    example.pop("algorithms")
    example.pop("seed")
    example["delays_ms"] = list(scenarios.expand_delays(example["delays_ms"]))
    assert example == case2
