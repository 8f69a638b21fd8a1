import hashlib
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from minislot import rttmodel
from minislot.allocation import SearchTable, blind_allocate, upper_bound_allocate
from minislot.cli import main
from minislot.rttmodel import ThroughputEvaluator
from minislot.scenarios import (
    CSV_HEADER,
    DEFAULT_LOSS_RATE,
    ConfigError,
    Scenario,
    builtin_configs,
    builtin_scenarios,
    emit_csv,
    expand_delays,
    run_scenario,
    scenario_from_config,
    schedule_records,
)
from minislot.schedule import (
    DutyCycleSet,
    build_contiguous_schedule,
    derive_slot_plan,
    window_pattern,
)


def one_delay_evaluator(scenario, paths):
    """A fresh evaluator of the scenario's sampler for the single delay of ``paths``."""
    return ThroughputEvaluator(scenario.sampler, [[path.delay_ms] for path in paths])


class JsonDigits(str):
    """Digits that the scenario file holds as a bare JSON integer."""

    def __repr__(self):
        return f"<{len(self)}-digit integer>"


class Delays(list):
    """A delay list that test ids name by its length."""

    def __repr__(self):
        return f"<{len(self)} delays>"


def write_json(path, config):
    """``json.dumps(config)`` with each ``JsonDigits`` value unquoted.

    Python neither prints nor parses integers of more than 4,300 digits
    by default, so such a number is written as text.
    """
    text = json.dumps(config)
    for value in config.values():
        if isinstance(value, JsonDigits):
            text = text.replace(json.dumps(value), value)
    path.write_text(text)


# (scenario file fields replaced, extra CLI arguments, field the error names)
BAD_INPUTS = [
    # wrong JSON types
    ({"algorithms": "minmax"}, [], "algorithms"),
    ({"n_samples": 1.9}, [], "n_samples"),
    ({"loss_rate": "x"}, [], "loss_rate"),
    ({"delay_offsets_ms": 5}, [], "delay_offsets_ms"),
    ({"mean_fraction": None}, [], "mean_fraction"),
    ({"duty_cycles": 5}, [], "duty_cycles"),
    # out of range
    ({"slot_time_ms": math.nan}, [], "slot_time_ms"),
    ({"delays_ms": [-5]}, [], "delays_ms"),
    ({"delays_ms": {"start": 0, "stop": math.inf, "step": 5}}, [], "delays_ms"),
    ({"delays_ms": {"start": 0, "stop": 10}}, [], "delays_ms"),
    ({"delays_ms": {"start": 10, "stop": 0, "step": 5}}, [], "delays_ms"),
    # a span of -inf, which only the empty-range check keeps from math.floor
    ({"delays_ms": {"start": 1e308, "stop": -1e308, "step": 1}}, [], "delays_ms"),
    ({"loss_rate": [0.001, 0.002, 0.003]}, [], "loss_rate"),
    ({"algorithms": []}, [], "algorithms"),
    ({"delay_offsets_ms": [-20.0, 0.0]}, [], "delay_offsets_ms"),
    ({"duty_cycles": [math.nan, 1.0]}, [], "duty_cycles"),
    ({"loss_rate": 0.5}, [], "loss_rate"),
    ({"mss_bytes": 0}, [], "mss_bytes"),
    ({}, ["--samples", "-3"], "n_samples"),
    ({}, ["--mean-fraction", "2"], "mean_fraction"),
    ({}, ["--seed", "-1"], "seed"),
    # too large to build, or not finite
    ({"delays_ms": {"start": 0, "stop": 1e9, "step": 1e-9}}, [], "delays_ms"),
    ({"delays_ms": Delays(range(10_001)), "algorithms": ["nopolicy"]}, [], "delays_ms"),
    ({"duty_cycles": [1e-9, 1 - 1e-9]}, [], "duty_cycles"),
    ({"duty_cycles": [1e-320, 1.0]}, [], "duty_cycles"),
    ({"duty_cycles": [1e308, 1e308]}, [], "duty_cycles"),
    ({"slot_time_ms": 1e308}, [], "slot_time_ms"),
    ({"slot_time_ms": 1e-12}, [], "slot_time_ms"),
    ({"n_samples": 10**13}, [], "n_samples"),
    ({}, ["--samples", str(10**13)], "n_samples"),
    ({"n_samples": JsonDigits("9" * 5000)}, [], "n_samples"),
    ({"slot_time_ms": 1e307, "delays_ms": [1.7e308]}, [], "slot_time_ms"),
    ({"delays_ms": [0, 1.7e308], "delay_offsets_ms": [1.7e308, 0]}, [], "delays_ms"),
    ({"slot_time_ms": 1, "delays_ms": [1e305], "n_samples": 10_000}, [], "delays_ms"),
    ({"slot_time_ms": 1, "delays_ms": [1e305]}, ["--samples", "10000"], "delays_ms"),
    ({"mss_bytes": 65_536}, [], "mss_bytes"),
    ({"mss_bytes": 10**400}, [], "mss_bytes"),
    # periods above MAX_PERIOD_MS, where float errors outgrow the patterns' 1e-9 ms rounding
    ({"duty_cycles": [0.55, 0.45], "slot_time_ms": 7e9}, [], "slot_time_ms"),
    ({"duty_cycles": [0.7, 0.2, 0.1], "slot_time_ms": 7e7}, [], "slot_time_ms"),
    # names that would break the unquoted CSV
    ({"name": "a,b"}, [], "name"),
    ({"name": ["x", 1]}, [], "name"),
    ({"name": "a\nb"}, [], "name"),
    ({"name": "a\rb"}, [], "name"),
    ({"name": 'a"b'}, [], "name"),
    # repeats that would write the same CSV rows twice
    ({"algorithms": ["minmax", "minmax"]}, [], "algorithms"),
    ({}, ["--algorithms", "nopolicy,nopolicy"], "algorithms"),
    ({"delays_ms": [10, 10]}, [], "delays_ms"),
    ({"delays_ms": [0, -0.0]}, [], "delays_ms"),
    # distinct floats whose CSV cells both read 1e+06
    ({"delays_ms": [1000000, 1000001]}, [], "delays_ms"),
]

SMALL_CONFIG = {
    "name": "small",
    "duty_cycles": [0.5, 0.5],
    "slot_time_ms": 25.0,
    "delays_ms": [10.0, 20.0],
    "n_samples": 400,
    "seed": 42,
    "algorithms": ["nopolicy", "minmax", "eq1", "eq2", "upperbound"],
}


class TestExpandDelays:
    def test_explicit_list(self):
        assert expand_delays([0, 5, 10]) == (0.0, 5.0, 10.0)

    def test_range_mapping_inclusive(self):
        assert expand_delays({"start": 0, "stop": 20, "step": 5}) == (
            0.0, 5.0, 10.0, 15.0, 20.0,
        )

    def test_range_rejects_bad_step(self):
        with pytest.raises(ConfigError, match="step"):
            expand_delays({"start": 0, "stop": 10, "step": 0})

    def test_range_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown sweep keys"):
            expand_delays({"start": 0, "stop": 10, "step": 5, "count": 3})

    def test_rejects_scalar(self):
        with pytest.raises(ConfigError):
            expand_delays(5)


class TestScenarioFromConfig:
    def test_small_config_round_trip(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        assert scenario.name == "small"
        assert scenario.delays_ms == (10.0, 20.0)
        assert scenario.sampler.n_samples == 400
        assert scenario.sampler.seed == 42
        assert scenario.algorithms == (
            "nopolicy", "minmax", "eq1", "eq2", "upperbound",
        )

    def test_unknown_key_rejected(self):
        config = dict(SMALL_CONFIG, typo_field=1)
        with pytest.raises(ConfigError, match="typo_field"):
            scenario_from_config(config)

    def test_missing_required_field(self):
        config = dict(SMALL_CONFIG)
        del config["duty_cycles"]
        with pytest.raises(ConfigError, match="duty_cycles"):
            scenario_from_config(config)

    def test_bad_duty_cycles(self):
        config = dict(SMALL_CONFIG, duty_cycles=[0.5, 0.4])
        with pytest.raises(ConfigError, match="duty_cycles"):
            scenario_from_config(config)

    def test_unknown_algorithm(self):
        config = dict(SMALL_CONFIG, algorithms=["nopolicy", "magic"])
        with pytest.raises(ConfigError, match="magic"):
            scenario_from_config(config)

    def test_offsets_length_checked(self):
        config = dict(SMALL_CONFIG, delay_offsets_ms=[0.0])
        with pytest.raises(ConfigError, match="delay_offsets_ms"):
            scenario_from_config(config)

    def test_largest_mss_accepted(self):
        assert scenario_from_config(dict(SMALL_CONFIG, mss_bytes=65_535)).mss_bytes == 65_535

    def test_per_vsta_loss_rates(self):
        config = dict(SMALL_CONFIG, loss_rate=[0.001, 0.002])
        scenario = scenario_from_config(config)
        assert [path.loss_rate for path in scenario.paths[0]] == [0.001, 0.002]

    @pytest.mark.parametrize("lists", ({}, {"delay_offsets_ms": [], "loss_rate": []}))
    def test_missing_or_empty_lists_take_the_defaults(self, lists):
        scenario = scenario_from_config(dict(SMALL_CONFIG, **lists))
        # SMALL_CONFIG's first delay is 10 ms
        assert [(path.delay_ms, path.loss_rate) for path in scenario.paths[0]] == (
            [(10.0, DEFAULT_LOSS_RATE)] * 2
        )

    @pytest.mark.parametrize(
        "sweep", (list(range(10_000)), {"start": 0, "stop": 9_999, "step": 1}),
        ids=("list", "range"),
    )
    def test_longest_sweep_accepted_in_either_form(self, sweep):
        assert len(scenario_from_config(dict(SMALL_CONFIG, delays_ms=sweep)).delays_ms) == 10_000


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# JSON integers may lie beyond the float range
NUMBERS = st.integers(min_value=-10**400, max_value=10**400) | st.floats()
# duty cycles that sum to one, down to subnormal fractions
DUTY_CYCLES = st.lists(
    st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=5
).map(lambda ws: [w / math.fsum(ws) for w in ws] if math.fsum(ws) > 0 else ws)
CONFIG_VALUES = {
    "name": JSON_VALUES,
    "duty_cycles": DUTY_CYCLES | st.lists(NUMBERS, max_size=4) | JSON_VALUES,
    "slot_time_ms": NUMBERS | JSON_VALUES,
    "delays_ms": st.lists(NUMBERS, max_size=4)
    | st.fixed_dictionaries({"start": NUMBERS, "stop": NUMBERS, "step": NUMBERS})
    | JSON_VALUES,
    "delay_offsets_ms": st.lists(NUMBERS, max_size=5) | JSON_VALUES,
    "loss_rate": NUMBERS | st.lists(NUMBERS, max_size=5) | JSON_VALUES,
    "mss_bytes": NUMBERS | JSON_VALUES,
    "n_samples": NUMBERS | JSON_VALUES,
    "mean_fraction": NUMBERS | JSON_VALUES,
    "seed": NUMBERS | JSON_VALUES,
    "algorithms": st.lists(st.sampled_from(["nopolicy", "minmax", "eq1", "x"]), max_size=3)
    | JSON_VALUES,
}
REQUIRED = ("duty_cycles", "slot_time_ms", "delays_ms", "name")


def perturbed(key):
    """``SMALL_CONFIG`` with ``key`` given a drawn value, or left out."""
    return CONFIG_VALUES[key].map(lambda value: {**SMALL_CONFIG, key: value}) | st.just(
        {k: v for k, v in SMALL_CONFIG.items() if k != key}
    )


# a valid config with one key changed, so that the checks after the
# parsers run and some configs pass them
PERTURBED = st.sampled_from(sorted(CONFIG_VALUES)).flatmap(perturbed)
# per key of a scenario file: a value that keeps SMALL_CONFIG valid, and
# one that breaks it
ONE_KEY_CHANGES = {
    "name": ("renamed", "a,b"),
    "duty_cycles": ([0.25, 0.75], [0.5, 0.4]),
    "slot_time_ms": (12.5, 1e-4),
    "delays_ms": ({"start": 0, "stop": 30, "step": 10}, [10.0, 10.0]),
    "delay_offsets_ms": ([0.0, 5.0], [0.0]),
    "loss_rate": ([0.001, 0.002], [0.001]),
    "mss_bytes": (536, 0),
    "n_samples": (100, 0),
    "mean_fraction": (0.5, 2.0),
    "seed": (7, -1),
    "algorithms": (["eq2"], ["eq1", "eq1"]),
}
CONFIGS = (
    st.fixed_dictionaries(
        {k: CONFIG_VALUES[k] for k in REQUIRED},
        optional={k: v for k, v in CONFIG_VALUES.items() if k not in REQUIRED},
    )
    | st.fixed_dictionaries({}, optional=CONFIG_VALUES)
    | st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4)
    | PERTURBED
)


class TestScenarioFromConfigFuzz:
    @settings(max_examples=300, deadline=2000)
    @given(CONFIGS)
    def test_ends_in_a_buildable_plan_or_config_error(self, config):
        try:
            scenario = scenario_from_config(config)
        except ConfigError:
            return
        assert isinstance(scenario, Scenario)
        derive_slot_plan(scenario.duty_cycles, scenario.slot_time_ms)

    @pytest.mark.parametrize("key", sorted(CONFIG_VALUES))
    def test_one_key_keeps_or_breaks_a_valid_config(self, key):
        """Changing one key of a valid config can keep it valid, and can
        break it with an error that names the key."""
        keeps, breaks = ONE_KEY_CHANGES[key]
        assert isinstance(scenario_from_config({**SMALL_CONFIG, key: keeps}), Scenario)
        with pytest.raises(ConfigError, match=key):
            scenario_from_config({**SMALL_CONFIG, key: breaks})


class TestBuiltinScenarios:
    def test_case2_has_delay_offsets(self):
        (scenario,) = builtin_scenarios("case2")
        assert scenario.delay_offsets_ms == (0.0, 20.0, 40.0)
        assert scenario.paths[1][2].delay_ms == 45.0  # at 5 ms

    def test_fig5_expands_per_disconnection(self):
        scenarios = builtin_scenarios("fig5")
        assert [s.name for s in scenarios] == [
            "fig5_disc0", "fig5_disc15", "fig5_disc25", "fig5_disc50", "fig5_disc75",
        ]
        # disconnection d implies a 50% duty cycle with period 2d
        disc50 = scenarios[3]
        plan = derive_slot_plan(disc50.duty_cycles, disc50.slot_time_ms)
        assert plan.period_ms == 100.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown built-in"):
            builtin_scenarios("case9")


class TestRunScenario:
    def test_row_count_and_nopolicy_ratio(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        rows = run_scenario(scenario)
        # (2 VSTAs + aggregate) x 5 algorithms x 2 delays
        assert len(rows) == 3 * 5 * 2
        for row in rows:
            if row.algorithm == "nopolicy":
                assert row.ratio_vs_nopolicy == 1.0
            assert row.seed == 42

    def test_upper_bound_leaves_earlier_rows_alone(self):
        """Appending upperbound leaves the other algorithms' rows bit for bit.

        At case2 15 ms the search meets min-max's and eq2's patterns on
        other schedules than theirs, with their windows at other times.
        """
        (scenario,) = builtin_scenarios("case2")
        scenario = replace(scenario, delays_ms=(0.0, 15.0, 55.0))
        algorithms = ("nopolicy", "minmax", "eq2")
        without = run_scenario(replace(scenario, algorithms=algorithms))
        with_upper = run_scenario(replace(scenario, algorithms=algorithms + ("upperbound",)))
        assert [r for r in with_upper if r.algorithm != "upperbound"] == without

    def test_rows_do_not_depend_on_algorithm_order(self):
        """Each algorithm's rows are the same bits in any listed order.

        Sampling a pattern on whichever schedule reached it first moved
        VSTA 3's mean under min-max at case2 0 ms by an ulp
        (53.59518391201671 against 53.595183912016694).
        """
        (scenario,) = builtin_scenarios("case2")
        scenario = replace(scenario, delays_ms=(0.0, 15.0))
        forward, backward = (
            run_scenario(replace(scenario, algorithms=algorithms))
            for algorithms in (("minmax", "eq2", "upperbound"), ("upperbound", "eq2", "minmax"))
        )
        for alg in ("minmax", "eq2", "upperbound"):
            assert [r for r in forward if r.algorithm == alg] == [
                r for r in backward if r.algorithm == alg
            ]

    def test_aggregate_row_sums_vsta_rows(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        rows = run_scenario(scenario)
        by_key = {}
        for row in rows:
            by_key.setdefault((row.algorithm, row.base_delay_ms), []).append(row)
        for group in by_key.values():
            agg = [r for r in group if r.vsta == "all"]
            per = [r for r in group if r.vsta != "all"]
            assert len(agg) == 1
            assert agg[0].aggregate_bps == pytest.approx(
                sum(r.throughput_bps for r in per), rel=1e-12
            )

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_aggregate_is_the_evaluator_aggregate(self, name, aggregate):
        """The CSV aggregate adds up the VSTAs' throughputs in order, bit for
        bit, from means a fresh evaluator of one delay reads."""
        (config,) = builtin_configs(name)
        algorithms = ("nopolicy", "minmax", "eq2")
        scenario = scenario_from_config(dict(config, algorithms=list(algorithms)))
        run = run_scenario(scenario)
        aggregates = {
            (r.algorithm, r.base_delay_ms): r.aggregate_bps for r in run if r.vsta == "all"
        }
        for delay, paths in zip(scenario.delays_ms, scenario.paths):
            evaluator = one_delay_evaluator(scenario, paths)
            for alg in algorithms:
                want = aggregate(evaluator, run.schedules[alg], paths)
                assert aggregates[alg, delay] == want, (alg, delay)

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_upper_bound_rows_report_the_search_score(self, name):
        """An upperbound aggregate row is the score its search maximized, bit for bit."""
        (config,) = builtin_configs(name)
        config = dict(config, algorithms=["upperbound"], delays_ms=[0.0, 10.0, 55.0])
        scenario = scenario_from_config(config)
        run = run_scenario(scenario)
        table = SearchTable(scenario.plan)
        scores = [
            upper_bound_allocate(table, paths, one_delay_evaluator(scenario, paths)).objective_value
            for paths in scenario.paths
        ]
        rows = [r for r in run if r.algorithm == "upperbound" and r.vsta == "all"]
        assert [r.aggregate_bps for r in rows] == scores

    @pytest.mark.parametrize("algorithms", ["nopolicy,minmax", "nopolicy,eq1,eq2"])
    def test_one_draw_per_vsta_and_pattern(self, monkeypatch, algorithms):
        """Each (VSTA, window pattern) of every row's schedule, eq1's
        per-delay winners included, is sampled with one draw, whatever the
        number of swept delays."""
        sample_rtts = rttmodel.sample_rtts
        draws = []

        def counting(pattern, delays_ms, cfg):
            draws.append((cfg.seed, pattern))
            return sample_rtts(pattern, delays_ms, cfg)

        monkeypatch.setattr(rttmodel, "sample_rtts", counting)
        (config,) = builtin_configs("case2")
        scenario = scenario_from_config(dict(config, algorithms=algorithms.split(",")))
        run = run_scenario(scenario)
        schedules = list(run.schedules.values())
        if "eq1" in algorithms:
            table = SearchTable(scenario.plan)
            schedules += [
                blind_allocate(table, "eq1", paths).schedule for paths in scenario.paths
            ]
        distinct = {
            (v, window_pattern(schedule, v))
            for schedule in schedules
            for v in range(1, scenario.plan.n_vstas + 1)
        }
        assert len(scenario.delays_ms) == 41
        assert len(draws) == len(set(draws)) == len(distinct)

    def test_deterministic_bytes(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        a = emit_csv(run_scenario(scenario))
        b = emit_csv(run_scenario(scenario))
        assert a == b

    def test_seed_echoed_and_changes_output(self):
        base = scenario_from_config(dict(SMALL_CONFIG))
        other = scenario_from_config(dict(SMALL_CONFIG, seed=43))
        assert emit_csv(run_scenario(base)) != emit_csv(run_scenario(other))


class TestEmitCsv:
    def test_header_and_sorting(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        text = emit_csv(run_scenario(scenario))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        # per-delay blocks sorted by algorithm, aggregate row last per block
        body = [line.split(",") for line in lines[1:]]
        keys = [
            (row[0], float(row[2]), row[1], (1, 0) if row[3] == "all" else (0, int(row[3])))
            for row in body
        ]
        assert keys == sorted(keys)

    def test_empty_input_keeps_header(self):
        assert emit_csv([]) == CSV_HEADER + "\n"


class TestScheduleRecords:
    def test_zero_based_owner_records(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.5]), 25.0)
        text = schedule_records(build_contiguous_schedule(plan))
        assert text == (
            "owner,duration_ms,start_ms\n"
            "0,25,0\n"
            "1,25,25\n"
        )


class TestCli:
    def _write_config(self, tmp_path, config):
        path = tmp_path / "scenario.json"
        write_json(path, config)
        return str(path)

    def test_file_scenario_to_csv(self, tmp_path, capsys):
        path = self._write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "rows.csv"
        assert main(["--scenario", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 5 * 2

    def test_stdout_output(self, tmp_path, capsys):
        path = self._write_config(tmp_path, SMALL_CONFIG)
        assert main(["--scenario", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["--scenario", "case9"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--scenario", str(path)]) == 2

    @pytest.mark.parametrize("text, key", [
        ('{"duty_cycles": [0.5, 0.5], "slot_time_ms": 10, "delays_ms": [10], '
         '"seed": 1, "seed": 2}', "seed"),
        ('{"duty_cycles": [0.5, 0.5], "slot_time_ms": 10, '
         '"delays_ms": {"start": 0, "stop": 10, "step": 5, "step": 1}}', "step"),
    ], ids=["top-level", "sweep"])
    def test_repeated_key_exits_2_naming_it(self, tmp_path, capsys, text, key):
        """json.load would keep the last value, so a repeated key is refused."""
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"key {key!r} is given more than once" in err

    def test_json_list_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([SMALL_CONFIG]))
        assert main(["--scenario", str(path)]) == 2
        assert "must be a mapping" in capsys.readouterr().err

    def test_one_file_for_both_outputs_exits_2_before_the_run(self, tmp_path, capsys):
        """The CSV would overwrite the dump, so nothing runs or is written."""
        path = self._write_config(tmp_path, SMALL_CONFIG)
        target = tmp_path / "both.txt"
        alias = tmp_path / "sub" / ".." / "both.txt"
        (tmp_path / "sub").mkdir()
        assert main([
            "--scenario", path, "--out", str(target), "--dump-schedules", str(alias),
        ]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "--dump-schedules" in err
        assert not target.exists()

    @pytest.mark.parametrize("flag", ["--out", "--dump-schedules"])
    def test_output_naming_the_scenario_file_exits_2(self, tmp_path, capsys, flag):
        """Writing would replace the run's own input, so the scenario file
        keeps its bytes, also under another spelling of its path."""
        path = self._write_config(tmp_path, SMALL_CONFIG)
        before = (tmp_path / "scenario.json").read_bytes()
        (tmp_path / "sub").mkdir()
        for alias in (path, str(tmp_path / "sub" / ".." / "scenario.json")):
            assert main(["--scenario", path, flag, alias]) == 2
            err = capsys.readouterr().err
            assert f"{flag} and --scenario name one file: {alias}" in err
            assert (tmp_path / "scenario.json").read_bytes() == before

    @pytest.mark.parametrize("config", [
        {"duty_cycles": [1.0], "slot_time_ms": 10, "delays_ms": [1e-300], "loss_rate": 1e-300},
        {"duty_cycles": [0.5, 0.5], "slot_time_ms": 10, "delays_ms": [1e-200],
         "loss_rate": 5e-324, "algorithms": ["nopolicy", "eq1", "upperbound"]},
    ])
    def test_underflowing_reno_denominator_is_unbounded(self, tmp_path, capsys, config):
        """An RTT times sqrt(loss rate) that underflows to 0 is infinite throughput."""
        path = self._write_config(tmp_path, config)
        assert main(["--scenario", path]) == 0
        assert ",inf," in capsys.readouterr().out

    def test_directory_scenario_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["--scenario", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(tmp_path) in err

    def test_directory_named_like_a_builtin_runs_the_builtin(
        self, tmp_path, monkeypatch, capsys
    ):
        """Only a file is a scenario file, so a directory ``case1`` in the
        working directory leaves ``--scenario case1`` the built-in."""
        (tmp_path / "case1").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(["--scenario", "case1", "--samples", "10", "--algorithms", "nopolicy"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"case1"}

    @pytest.mark.parametrize("flag", ["--out", "--dump-schedules"])
    def test_unwritable_output_exits_2_naming_it(self, tmp_path, capsys, flag):
        path = self._write_config(tmp_path, SMALL_CONFIG)
        target = str(tmp_path / "missing" / "file")
        assert main(["--scenario", path, flag, target]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {flag} {target}" in err

    def test_budget_exit_code(self, tmp_path, capsys):
        # ten single-slot VSTAs have 10! = 3,628,800 owner vectors
        config = dict(SMALL_CONFIG, duty_cycles=[0.1] * 10, algorithms=["nopolicy", "eq2"])
        path = self._write_config(tmp_path, config)
        assert main(["--scenario", path]) == 3
        assert "exceed the enumeration budget of 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_builtin_flags_match_a_file_of_its_config(self, tmp_path, name):
        """A flag replaces its config key: a built-in with flags writes the
        bytes of a file holding the built-in's config with those keys."""
        (config,) = builtin_configs(name)
        path = self._write_config(
            tmp_path, dict(config, seed=7, n_samples=200, algorithms=["nopolicy", "minmax"])
        )
        from_builtin, from_file = tmp_path / "builtin.csv", tmp_path / "file.csv"
        assert main([
            "--scenario", name, "--out", str(from_builtin),
            "--seed", "7", "--samples", "200", "--algorithms", "nopolicy,minmax",
        ]) == 0
        assert main(["--scenario", path, "--out", str(from_file)]) == 0
        assert from_builtin.read_bytes() == from_file.read_bytes()

    def test_negative_zero_delay_writes_the_bytes_of_zero(self, tmp_path, capsys):
        """-0.0 and 0 are one delay, so they print alike in the CSV."""
        outputs = []
        for zero in (-0.0, 0):
            path = self._write_config(tmp_path, dict(SMALL_CONFIG, delays_ms=[zero, 5]))
            assert main(["--scenario", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "\nsmall,minmax,0,1," in outputs[0]

    def test_algorithm_and_seed_overrides(self, tmp_path):
        path = self._write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "rows.csv"
        assert main([
            "--scenario", path, "--out", str(out),
            "--algorithms", "nopolicy,minmax", "--seed", "7", "--samples", "200",
        ]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 3 * 2 * 2
        assert all(line.endswith(",7") for line in lines[1:])

    @pytest.mark.parametrize("fields, argv, field", BAD_INPUTS, ids=[
        " ".join(argv) or ",".join(f"{k}={v!r}" for k, v in fields.items())
        for fields, argv, _ in BAD_INPUTS
    ])
    def test_bad_input_exits_2_naming_the_field(self, tmp_path, capsys, fields, argv, field):
        path = self._write_config(tmp_path, dict(SMALL_CONFIG, **fields))
        assert main(["--scenario", path, *argv]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and field in err

    @pytest.mark.parametrize("scenario, algorithms, tables, digest", [
        ("fig5", "nopolicy,minmax,eq2", 5,
         "fb6900f5956348085d5c440b3d35ea6b323082f661adbb62dfe39c397078e06a"),
        ("case2", "minmax,eq1,eq2,upperbound", 1,
         "d78f870c7041b491ede0756a221f4c2ad3f433ce2b77b52266a68eaf761d24f2"),
    ])
    def test_dump_reuses_the_run(self, tmp_path, monkeypatch, scenario, algorithms, tables,
                                 digest):
        """The dump writes the schedules the run built: one search table per
        scenario, and the listed delay-independent schedules in listed order
        (digests recorded when the dump still searched on its own)."""
        built = []
        init = SearchTable.__init__

        def counting_init(table, *args, **kwargs):
            built.append(table)
            init(table, *args, **kwargs)

        monkeypatch.setattr(SearchTable, "__init__", counting_init)
        dump = tmp_path / "schedules.txt"
        assert main([
            "--scenario", scenario, "--algorithms", algorithms, "--samples", "200",
            "--out", str(tmp_path / "rows.csv"), "--dump-schedules", str(dump),
        ]) == 0
        assert len(built) == tables == len(builtin_scenarios(scenario))
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest

    def test_dump_schedules(self, tmp_path):
        path = self._write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "rows.csv"
        dump = tmp_path / "schedules.txt"
        assert main([
            "--scenario", path, "--out", str(out), "--dump-schedules", str(dump),
        ]) == 0
        text = dump.read_text()
        assert "# scenario=small algorithm=nopolicy" in text
        assert "owner,duration_ms,start_ms" in text
