"""Experiment scenarios: configuration, delay sweeps and CSV emission.

A scenario fixes the duty cycles, slot time, path parameters and
sampler, and sweeps a base wired delay.  For every swept delay and
requested algorithm the runner builds the schedule, samples per-VSTA
RTTs, maps them to model throughput and reports the aggregate and its
ratio against the contiguous no-policy baseline.  Output is a
deterministic CSV: same scenario and seed, same bytes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from .allocation import (
    DEFAULT_MAX_SCHEDULES,
    SearchTable,
    _blind_search,
    _upper_bound_search,
    minmax_allocate,
)
from .rttmodel import (
    DEFAULT_LOSS_RATE,
    DEFAULT_MSS_BYTES,
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
    mathis_throughput,
)
from .schedule import DutyCycleSet, SlotSchedule, build_contiguous_schedule, derive_slot_plan

ALGORITHMS = ("nopolicy", "minmax", "eq1", "eq2", "upperbound")

CSV_HEADER = (
    "scenario,algorithm,base_delay_ms,vsta,mean_rtt_ms,"
    "throughput_bps,aggregate_bps,ratio_vs_nopolicy,seed"
)

DEFAULT_SWEEP = tuple(float(d) for d in range(0, 201, 5))
DEFAULT_SEED = 12345


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    duty_cycles: DutyCycleSet
    slot_time_ms: float
    delays_ms: tuple[float, ...]
    delay_offsets_ms: tuple[float, ...] = ()
    loss_rates: tuple[float, ...] = ()
    mss_bytes: int = DEFAULT_MSS_BYTES
    sampler: RttSamplerConfig = field(default_factory=RttSamplerConfig)
    algorithms: tuple[str, ...] = ("nopolicy", "minmax")

    def __post_init__(self):
        n = self.duty_cycles.n_vstas
        if not self.delays_ms:
            raise ConfigError("delays_ms: sweep must be non-empty")
        if self.delay_offsets_ms and len(self.delay_offsets_ms) != n:
            raise ConfigError(
                f"delay_offsets_ms: expected {n} entries, got {len(self.delay_offsets_ms)}"
            )
        if self.loss_rates and len(self.loss_rates) != n:
            raise ConfigError(
                f"loss_rate: expected scalar or {n} entries, got {len(self.loss_rates)}"
            )
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"algorithms: unknown algorithm {alg!r}, valid: {ALGORITHMS}"
                )
        if not self.algorithms:
            raise ConfigError("algorithms: at least one algorithm required")

    def offsets(self) -> tuple[float, ...]:
        if self.delay_offsets_ms:
            return self.delay_offsets_ms
        return (0.0,) * self.duty_cycles.n_vstas

    def losses(self) -> tuple[float, ...]:
        if self.loss_rates:
            return self.loss_rates
        return (DEFAULT_LOSS_RATE,) * self.duty_cycles.n_vstas

    def paths_at(self, base_delay: float) -> list[PathParams]:
        return [
            PathParams(delay_ms=base_delay + off, loss_rate=p, mss_bytes=self.mss_bytes)
            for off, p in zip(self.offsets(), self.losses())
        ]


_CONFIG_KEYS = {
    "name",
    "duty_cycles",
    "slot_time_ms",
    "delays_ms",
    "delay_offsets_ms",
    "loss_rate",
    "mss_bytes",
    "n_samples",
    "mean_fraction",
    "seed",
    "algorithms",
}


def expand_delays(sweep) -> tuple[float, ...]:
    """A sweep is either an explicit list or {start, stop, step} (stop inclusive)."""
    if isinstance(sweep, dict):
        unknown = set(sweep) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"delays_ms: unknown sweep keys {sorted(unknown)}")
        try:
            start, stop, step = float(sweep["start"]), float(sweep["stop"]), float(sweep["step"])
        except KeyError as exc:
            raise ConfigError(f"delays_ms: sweep misses key {exc}") from exc
        if step <= 0:
            raise ConfigError("delays_ms: sweep step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ConfigError("delays_ms: empty sweep range")
        return tuple(start + k * step for k in range(n))
    if isinstance(sweep, (list, tuple)):
        return tuple(float(d) for d in sweep)
    raise ConfigError("delays_ms: expected a list or a start/stop/step mapping")


def scenario_from_config(config: dict, name: str = "custom") -> Scenario:
    """Build a scenario from a flat configuration mapping.

    Unknown keys are errors: a silent typo would corrupt an experiment.
    """
    if not isinstance(config, dict):
        raise ConfigError("scenario config must be a mapping")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        duty = DutyCycleSet(config["duty_cycles"])
    except KeyError:
        raise ConfigError("duty_cycles: field is required") from None
    except ValueError as exc:
        raise ConfigError(f"duty_cycles: {exc}") from exc
    if "slot_time_ms" not in config:
        raise ConfigError("slot_time_ms: field is required")
    if "delays_ms" not in config:
        raise ConfigError("delays_ms: field is required")
    loss = config.get("loss_rate", DEFAULT_LOSS_RATE)
    loss_rates = tuple(float(p) for p in loss) if isinstance(loss, (list, tuple)) else (
        (float(loss),) * duty.n_vstas
    )
    try:
        sampler = RttSamplerConfig(
            n_samples=int(config.get("n_samples", RttSamplerConfig.n_samples)),
            mean_fraction=float(config.get("mean_fraction", RttSamplerConfig.mean_fraction)),
            seed=int(config.get("seed", DEFAULT_SEED)),
        )
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    try:
        return Scenario(
            name=str(config.get("name", name)),
            duty_cycles=duty,
            slot_time_ms=float(config["slot_time_ms"]),
            delays_ms=expand_delays(config["delays_ms"]),
            delay_offsets_ms=tuple(float(x) for x in config.get("delay_offsets_ms", ())),
            loss_rates=loss_rates,
            mss_bytes=int(config.get("mss_bytes", DEFAULT_MSS_BYTES)),
            sampler=sampler,
            algorithms=tuple(config.get("algorithms", ("nopolicy", "minmax"))),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_config(config, name=path)


def builtin_scenarios(name: str, seed: int = DEFAULT_SEED) -> list[Scenario]:
    """Preloaded scenario families; ``fig5`` expands to one scenario
    per disconnection time of the single-AP validation sweep."""
    sampler = RttSamplerConfig(seed=seed)
    if name == "case1":
        return [Scenario(
            name="case1",
            duty_cycles=DutyCycleSet([0.5, 0.125, 0.125, 0.125, 0.125]),
            slot_time_ms=15.0,
            delays_ms=DEFAULT_SWEEP,
            sampler=sampler,
        )]
    if name == "case2":
        return [Scenario(
            name="case2",
            duty_cycles=DutyCycleSet([0.5, 0.125, 0.375]),
            slot_time_ms=12.5,
            delays_ms=DEFAULT_SWEEP,
            delay_offsets_ms=(0.0, 20.0, 40.0),
            sampler=sampler,
        )]
    if name == "case3":
        return [Scenario(
            name="case3",
            duty_cycles=DutyCycleSet([0.65, 0.25, 0.10]),
            slot_time_ms=10.0,
            delays_ms=DEFAULT_SWEEP,
            sampler=sampler,
        )]
    if name == "fig5":
        scenarios = []
        for disconnection in (0.0, 15.0, 25.0, 50.0, 75.0):
            if disconnection == 0.0:
                duty = DutyCycleSet([1.0])
                slot_time = 15.0
            else:
                # 50% duty cycle; the other half of the period is the
                # disconnection, so T = 2 * disconnection.
                duty = DutyCycleSet([0.5, 0.5])
                slot_time = disconnection
            scenarios.append(Scenario(
                name=f"fig5_disc{disconnection:g}",
                duty_cycles=duty,
                slot_time_ms=slot_time,
                delays_ms=DEFAULT_SWEEP,
                sampler=sampler,
                algorithms=("nopolicy",),
            ))
        return scenarios
    raise ConfigError(
        f"unknown built-in scenario {name!r}; valid names: case1, case2, case3, fig5"
    )


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    algorithm: str
    base_delay_ms: float
    vsta: str  # "1"-based index or "all"
    mean_rtt_ms: float | None
    throughput_bps: float | None
    aggregate_bps: float
    ratio_vs_nopolicy: float
    seed: int


def _safe_throughput(mss: int, rtt_ms: float, loss: float) -> float:
    # a zero-delay sweep point can produce a zero mean RTT; report
    # unbounded model throughput rather than refusing the row
    if rtt_ms <= 0.0:
        return math.inf
    return mathis_throughput(mss, rtt_ms, loss)


def _ratio(value: float, baseline: float) -> float:
    if value == baseline:
        return 1.0
    if baseline == 0.0 or math.isinf(baseline) or math.isinf(value):
        return math.nan
    return value / baseline


def run_scenario(
    scenario: Scenario, max_schedules: int = DEFAULT_MAX_SCHEDULES
) -> list[ResultRow]:
    """Full sweep of a scenario; fully deterministic given the seed."""
    plan = derive_slot_plan(scenario.duty_cycles, scenario.slot_time_ms)
    evaluator = ThroughputEvaluator(scenario.sampler)
    seed = scenario.sampler.seed
    n = plan.n_vstas
    algorithms = scenario.algorithms
    paths_by_delay = [scenario.paths_at(d) for d in scenario.delays_ms]
    table = None
    if {"eq1", "eq2", "upperbound"} & set(algorithms):
        table = SearchTable(plan, max_schedules)

    fixed_schedules: dict[str, SlotSchedule] = {
        "nopolicy": build_contiguous_schedule(plan),
    }
    if "minmax" in algorithms:
        fixed_schedules["minmax"] = minmax_allocate(plan).schedule
    if "eq2" in algorithms:
        fixed_schedules["eq2"] = _blind_search(table, "eq2", None).schedule

    def evaluate(schedule: SlotSchedule, paths: list[PathParams]):
        rtts = [
            evaluator.mean_rtt(schedule, v, paths[v - 1].delay_ms)
            for v in range(1, n + 1)
        ]
        ths = [
            _safe_throughput(paths[v - 1].mss_bytes, rtts[v - 1], paths[v - 1].loss_rate)
            for v in range(1, n + 1)
        ]
        return rtts, ths, math.fsum(ths)

    per_alg: list[dict] = [{} for _ in paths_by_delay]
    upper: list[SlotSchedule] = []

    def evaluate_rows(algs: Sequence[str]) -> None:
        for k, paths in enumerate(paths_by_delay):
            for alg in algs:
                if alg in per_alg[k]:
                    continue
                if alg in fixed_schedules:
                    schedule = fixed_schedules[alg]
                elif alg == "eq1":
                    schedule = _blind_search(table, "eq1", paths).schedule
                else:
                    schedule = upper[k]
                per_alg[k][alg] = evaluate(schedule, paths)

    # The evaluator keeps the first mean it computes for each (VSTA,
    # delay, pattern), so the order of evaluation decides the last bits:
    # at each delay the baseline and the rows listed before upperbound,
    # then the search, then the rest.
    cut = algorithms.index("upperbound") if "upperbound" in algorithms else len(algorithms)
    evaluate_rows(("nopolicy",) + algorithms[:cut])
    if cut < len(algorithms):
        upper = [
            result.schedule
            for result in _upper_bound_search(table, paths_by_delay, evaluator)
        ]
        evaluate_rows(algorithms[cut:])

    rows: list[ResultRow] = []
    for base_delay, results in zip(scenario.delays_ms, per_alg):
        base_rtts, base_ths, base_agg = results["nopolicy"]
        for alg in algorithms:
            rtts, ths, agg = results[alg]
            agg_ratio = 1.0 if alg == "nopolicy" else _ratio(agg, base_agg)
            for v in range(1, n + 1):
                v_ratio = 1.0 if alg == "nopolicy" else _ratio(ths[v - 1], base_ths[v - 1])
                rows.append(ResultRow(
                    scenario=scenario.name,
                    algorithm=alg,
                    base_delay_ms=base_delay,
                    vsta=str(v),
                    mean_rtt_ms=rtts[v - 1],
                    throughput_bps=ths[v - 1],
                    aggregate_bps=agg,
                    ratio_vs_nopolicy=v_ratio,
                    seed=seed,
                ))
            rows.append(ResultRow(
                scenario=scenario.name,
                algorithm=alg,
                base_delay_ms=base_delay,
                vsta="all",
                mean_rtt_ms=None,
                throughput_bps=None,
                aggregate_bps=agg,
                ratio_vs_nopolicy=agg_ratio,
                seed=seed,
            ))
    return rows


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".6g")


def emit_csv(rows: Sequence[ResultRow]) -> str:
    """Deterministic CSV text for a result table (header always present)."""

    def sort_key(row: ResultRow):
        vsta_key = (1, 0) if row.vsta == "all" else (0, int(row.vsta))
        return (row.scenario, row.base_delay_ms, row.algorithm, vsta_key)

    lines = [CSV_HEADER]
    for row in sorted(rows, key=sort_key):
        lines.append(",".join([
            row.scenario,
            row.algorithm,
            _fmt(row.base_delay_ms),
            row.vsta,
            _fmt(row.mean_rtt_ms),
            _fmt(row.throughput_bps),
            _fmt(row.aggregate_bps),
            _fmt(row.ratio_vs_nopolicy),
            str(row.seed),
        ]))
    return "\n".join(lines) + "\n"


def schedule_records(schedule: SlotSchedule) -> str:
    """Serialize a schedule as ``owner,duration_ms,start_ms`` lines.

    Owners are 0-based on the wire (internal indices are 1-based).
    """
    lines = ["owner,duration_ms,start_ms"]
    for owner, duration, start in zip(
        schedule.owners, schedule.durations_ms, schedule.start_times_ms
    ):
        lines.append(f"{owner - 1},{_fmt(duration)},{_fmt(start)}")
    return "\n".join(lines) + "\n"


def apply_overrides(
    scenario: Scenario,
    seed: int | None = None,
    algorithms: Sequence[str] | None = None,
    n_samples: int | None = None,
    mean_fraction: float | None = None,
) -> Scenario:
    """Scenario with CLI-level overrides applied."""
    sampler = scenario.sampler
    if seed is not None:
        sampler = replace(sampler, seed=seed)
    if n_samples is not None:
        sampler = replace(sampler, n_samples=n_samples)
    if mean_fraction is not None:
        sampler = replace(sampler, mean_fraction=mean_fraction)
    return replace(
        scenario,
        sampler=sampler,
        algorithms=tuple(algorithms) if algorithms is not None else scenario.algorithms,
    )
