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
from functools import cached_property
from typing import Callable, Sequence

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
    MAX_LOSS_RATE,
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
    vsta_throughput,
)
from .schedule import DutyCycleSet, SlotSchedule, build_contiguous_schedule, derive_slot_plan

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
        # chained comparisons are false for NaN
        if not 0.0 < self.slot_time_ms < math.inf:
            raise ConfigError(
                f"slot_time_ms: expected a positive finite time, got {self.slot_time_ms}"
            )
        for delay in self.delays_ms:
            if not 0.0 <= delay < math.inf:
                raise ConfigError(f"delays_ms: expected finite delays >= 0, got {delay}")
        for off in self.offsets():
            if not 0.0 <= min(self.delays_ms) + off < math.inf:
                raise ConfigError(f"delay_offsets_ms: offset {off} gives an invalid path delay")
        for p in self.losses():
            if not 0.0 < p < MAX_LOSS_RATE:
                raise ConfigError(f"loss_rate: expected rates in (0, {MAX_LOSS_RATE}), got {p}")
        if self.mss_bytes <= 0:
            raise ConfigError(f"mss_bytes: expected a positive size, got {self.mss_bytes}")

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


def _number(key: str, value, kind: type | tuple[type, ...] = (int, float)):
    """``value`` if it is a JSON number of ``kind``; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kind):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return value


def _numbers(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(float(_number(key, x)) for x in value)


def expand_delays(sweep) -> tuple[float, ...]:
    """A sweep is either an explicit list or {start, stop, step} (stop inclusive)."""
    if isinstance(sweep, dict):
        unknown = set(sweep) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"delays_ms: unknown sweep keys {sorted(unknown)}")
        try:
            start, stop, step = (
                float(_number("delays_ms", sweep[k])) for k in ("start", "stop", "step")
            )
        except KeyError as exc:
            raise ConfigError(f"delays_ms: sweep misses key {exc}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError("delays_ms: sweep start, stop and step must be finite")
        if step <= 0:
            raise ConfigError("delays_ms: sweep step must be positive")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        if n < 1:
            raise ConfigError("delays_ms: empty sweep range")
        return tuple(start + k * step for k in range(n))
    if isinstance(sweep, (list, tuple)):
        return _numbers("delays_ms", sweep)
    raise ConfigError("delays_ms: expected a list or a start/stop/step mapping")


def scenario_from_config(config: dict, name: str = "custom") -> Scenario:
    """Build a scenario from a flat configuration mapping.

    Unknown keys are errors: a silent typo would corrupt an experiment.
    So are values of the wrong JSON type, which are never coerced.
    """
    if not isinstance(config, dict):
        raise ConfigError("scenario config must be a mapping")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("duty_cycles", "slot_time_ms", "delays_ms"):
        if key not in config:
            raise ConfigError(f"{key}: field is required")
    fractions = _numbers("duty_cycles", config["duty_cycles"])
    try:
        duty = DutyCycleSet(fractions)
    except ValueError as exc:
        raise ConfigError(f"duty_cycles: {exc}") from exc
    loss = config.get("loss_rate", DEFAULT_LOSS_RATE)
    loss_rates = _numbers("loss_rate", loss) if isinstance(loss, (list, tuple)) else (
        (float(_number("loss_rate", loss)),) * duty.n_vstas
    )
    algorithms = config.get("algorithms", ("nopolicy", "minmax"))
    if not (isinstance(algorithms, (list, tuple)) and all(isinstance(a, str) for a in algorithms)):
        raise ConfigError(f"algorithms: expected a list of names, got {algorithms!r}")
    n_samples = _number("n_samples", config.get("n_samples", RttSamplerConfig.n_samples), int)
    mean_fraction = _number(
        "mean_fraction", config.get("mean_fraction", RttSamplerConfig.mean_fraction)
    )
    seed = _number("seed", config.get("seed", DEFAULT_SEED), int)
    try:
        sampler = RttSamplerConfig(n_samples, float(mean_fraction), seed)
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    return Scenario(
        name=str(config.get("name", name)),
        duty_cycles=duty,
        slot_time_ms=float(_number("slot_time_ms", config["slot_time_ms"])),
        delays_ms=expand_delays(config["delays_ms"]),
        delay_offsets_ms=_numbers("delay_offsets_ms", config.get("delay_offsets_ms", ())),
        loss_rates=loss_rates,
        mss_bytes=_number("mss_bytes", config.get("mss_bytes", DEFAULT_MSS_BYTES), int),
        sampler=sampler,
        algorithms=tuple(algorithms),
    )


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_config(config, name=path)


# built-in case -> (duty cycles, minimum slot time in ms, per-VSTA delay offsets)
_CASES = {
    "case1": ((0.5, 0.125, 0.125, 0.125, 0.125), 15.0, ()),
    "case2": ((0.5, 0.125, 0.375), 12.5, (0.0, 20.0, 40.0)),
    "case3": ((0.65, 0.25, 0.10), 10.0, ()),
}


def builtin_scenarios(name: str, seed: int = DEFAULT_SEED) -> list[Scenario]:
    """Preloaded scenario families; ``fig5`` expands to one scenario
    per disconnection time of the single-AP validation sweep."""
    sampler = RttSamplerConfig(seed=seed)
    if name in _CASES:
        duties, slot_time, offsets = _CASES[name]
        return [Scenario(
            name=name,
            duty_cycles=DutyCycleSet(duties),
            slot_time_ms=slot_time,
            delays_ms=DEFAULT_SWEEP,
            delay_offsets_ms=offsets,
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


def _ratio(value: float, baseline: float) -> float:
    if value == baseline:
        return 1.0
    if baseline == 0.0 or math.isinf(baseline) or math.isinf(value):
        return math.nan
    return value / baseline


class _Sweep:
    """What the schedulers of one ``run_scenario`` call share."""

    def __init__(self, scenario: Scenario, max_schedules: int):
        self.plan = derive_slot_plan(scenario.duty_cycles, scenario.slot_time_ms)
        self.paths_by_delay = [scenario.paths_at(d) for d in scenario.delays_ms]
        self.evaluator = ThroughputEvaluator(scenario.sampler)
        self.max_schedules = max_schedules

    @cached_property
    def table(self) -> SearchTable:
        """Every feasible owner vector, enumerated once, on first use."""
        return SearchTable(self.plan, self.max_schedules)


# Algorithm name -> scheduler, called with the run's ``_Sweep``.  A
# scheduler returns the algorithm's schedule, or one schedule per swept delay
# when the schedule depends on the delay.  Schedulers name the allocators when
# they run, so rebinding a module attribute (as the perfbench tracer does)
# reaches every call.
_SCHEDULERS: dict[str, Callable[[_Sweep], SlotSchedule | list[SlotSchedule]]] = {
    "nopolicy": lambda sweep: build_contiguous_schedule(sweep.plan),
    "minmax": lambda sweep: minmax_allocate(sweep.plan).schedule,
    "eq1": lambda sweep: [
        _blind_search(sweep.table, "eq1", paths).schedule for paths in sweep.paths_by_delay
    ],
    "eq2": lambda sweep: _blind_search(sweep.table, "eq2", None).schedule,
    "upperbound": lambda sweep: [
        result.schedule
        for result in _upper_bound_search(sweep.table, sweep.paths_by_delay, sweep.evaluator)
    ],
}
ALGORITHMS = tuple(_SCHEDULERS)


class ScenarioRun(list):
    """The rows of a scenario sweep, with the schedules behind them.

    ``schedules`` maps each delay-independent algorithm that was built,
    the nopolicy baseline included, to its schedule.
    """

    def __init__(self, rows: list[ResultRow], schedules: dict[str, SlotSchedule]):
        super().__init__(rows)
        self.schedules = schedules


def run_scenario(
    scenario: Scenario, max_schedules: int = DEFAULT_MAX_SCHEDULES
) -> ScenarioRun:
    """Full sweep of a scenario; fully deterministic given the seed.

    The nopolicy baseline and then each listed algorithm is built and
    evaluated at every swept delay in turn.  The evaluator keeps the
    first mean it computes for each (VSTA, delay, pattern), so this
    order decides the last bits of the rows.
    """
    sweep = _Sweep(scenario, max_schedules)
    n = sweep.plan.n_vstas
    seed = scenario.sampler.seed

    def evaluate(schedule: SlotSchedule, paths: list[PathParams]):
        rtts = [
            sweep.evaluator.mean_rtt(schedule, v, path.delay_ms)
            for v, path in enumerate(paths, start=1)
        ]
        ths = [vsta_throughput(path, rtt) for path, rtt in zip(paths, rtts)]
        return rtts, ths, math.fsum(ths)

    schedules: dict[str, SlotSchedule] = {}
    # results[alg][k]: (per-VSTA mean RTTs, throughputs, aggregate) at delay k
    results: dict[str, list] = {}
    for alg in ("nopolicy",) + scenario.algorithms:
        if alg in results:
            continue
        built = _SCHEDULERS[alg](sweep)
        if isinstance(built, SlotSchedule):
            schedules[alg] = built
            built = [built] * len(sweep.paths_by_delay)
        results[alg] = [evaluate(s, paths) for s, paths in zip(built, sweep.paths_by_delay)]

    rows: list[ResultRow] = []
    for k, base_delay in enumerate(scenario.delays_ms):
        _, base_ths, base_agg = results["nopolicy"][k]
        for alg in scenario.algorithms:
            rtts, ths, agg = results[alg][k]
            # one row per VSTA, then the aggregate row; _ratio of equal
            # values is 1, so every nopolicy row has ratio 1
            cells = [
                (str(v), rtts[v - 1], ths[v - 1], _ratio(ths[v - 1], base_ths[v - 1]))
                for v in range(1, n + 1)
            ]
            cells.append(("all", None, None, _ratio(agg, base_agg)))
            for vsta, rtt, th, ratio in cells:
                rows.append(ResultRow(
                    scenario=scenario.name, algorithm=alg, base_delay_ms=base_delay, vsta=vsta,
                    mean_rtt_ms=rtt, throughput_bps=th, aggregate_bps=agg,
                    ratio_vs_nopolicy=ratio, seed=seed,
                ))
    return ScenarioRun(rows, schedules)


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
    overrides = {"seed": seed, "n_samples": n_samples, "mean_fraction": mean_fraction}
    try:
        sampler = replace(
            scenario.sampler, **{k: v for k, v in overrides.items() if v is not None}
        )
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    return replace(
        scenario,
        sampler=sampler,
        algorithms=tuple(algorithms) if algorithms is not None else scenario.algorithms,
    )
