import json
from dataclasses import replace

import pytest

from minislot.cli import main
from minislot.scenarios import (
    CSV_HEADER,
    ConfigError,
    apply_overrides,
    builtin_scenarios,
    emit_csv,
    expand_delays,
    run_scenario,
    scenario_from_config,
    schedule_records,
)
from minislot.schedule import DutyCycleSet, build_contiguous_schedule, derive_slot_plan

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

    def test_per_vsta_loss_rates(self):
        config = dict(SMALL_CONFIG, loss_rate=[0.001, 0.002])
        scenario = scenario_from_config(config)
        assert scenario.losses() == (0.001, 0.002)


class TestBuiltinScenarios:
    def test_case2_has_delay_offsets(self):
        (scenario,) = builtin_scenarios("case2")
        assert scenario.delay_offsets_ms == (0.0, 20.0, 40.0)
        assert scenario.paths_at(5.0)[2].delay_ms == 45.0

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
        """Rows listed before upperbound fill the evaluator before its search,
        so appending upperbound leaves their values bit for bit.

        At case2 15 ms the search's first rows with min-max's and eq2's
        patterns sample means an ulp away from theirs.
        """
        (scenario,) = builtin_scenarios("case2")
        scenario = replace(scenario, delays_ms=(0.0, 15.0, 55.0))
        algorithms = ("nopolicy", "minmax", "eq2")
        without = run_scenario(replace(scenario, algorithms=algorithms))
        with_upper = run_scenario(replace(scenario, algorithms=algorithms + ("upperbound",)))
        assert [r for r in with_upper if r.algorithm != "upperbound"] == without

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

    def test_deterministic_bytes(self):
        scenario = scenario_from_config(dict(SMALL_CONFIG))
        a = emit_csv(run_scenario(scenario))
        b = emit_csv(run_scenario(scenario))
        assert a == b

    def test_seed_echoed_and_changes_output(self):
        base = scenario_from_config(dict(SMALL_CONFIG))
        other = apply_overrides(base, seed=43)
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
        path.write_text(json.dumps(config))
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

    def test_budget_exit_code(self, tmp_path, capsys):
        config = dict(SMALL_CONFIG, algorithms=["nopolicy", "eq2"])
        path = self._write_config(tmp_path, config)
        assert main(["--scenario", path, "--max-schedules", "1"]) == 3

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
