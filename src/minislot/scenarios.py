"""Experiment scenarios: configuration, delay sweeps and CSV emission.

A scenario fixes the duty cycles, slot time, path parameters and
sampler, and sweeps a base wired delay.  Each algorithm's throughputs
are reported against the contiguous no-policy baseline's.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .allocation import SearchTable, blind_allocate, minmax_allocate, upper_bound_allocate
from .rttmodel import (
    DEFAULT_LOSS_RATE,
    DEFAULT_MSS_BYTES,
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
    vsta_sum,
    vsta_throughput,
)
from .schedule import (
    RATIO_SLACK,
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
)

CSV_HEADER = (
    "scenario,algorithm,base_delay_ms,vsta,mean_rtt_ms,"
    "throughput_bps,aggregate_bps,ratio_vs_nopolicy,seed"
)

DEFAULT_SWEEP = tuple(float(d) for d in range(0, 201, 5))
#: most delays a sweep may hold, in either form.  Every algorithm is
#: evaluated at every delay, and eq1 and upperbound search once per delay,
#: so far longer sweeps would hang.
MAX_SWEEP_DELAYS = 10_000
DEFAULT_SEED = 12345


class ConfigError(ValueError):
    """Invalid or unknown scenario configuration field."""


#: characters that would break the unquoted CSV if a scenario name held them
_CSV_BREAKERS = (",", '"', "\r", "\n")


@dataclass(frozen=True)
class Scenario:
    """A delay sweep over one duty-cycle set, built by ``scenario_from_config``.

    ``plan`` is the slot plan of the duty cycles and slot time, and
    ``paths[k]`` holds each VSTA's ``PathParams`` at ``delays_ms[k]``.
    Both are derived once, on construction; a path that ``PathParams``
    refuses is a ``ConfigError``.
    """

    name: str
    duty_cycles: DutyCycleSet
    slot_time_ms: float
    delays_ms: tuple[float, ...]
    delay_offsets_ms: tuple[float, ...]
    loss_rates: tuple[float, ...]
    mss_bytes: int
    sampler: RttSamplerConfig
    algorithms: tuple[str, ...]
    plan: SlotPlan = field(init=False, compare=False, repr=False)
    paths: tuple[tuple[PathParams, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.duty_cycles.n_vstas
        if not isinstance(self.name, str) or any(c in self.name for c in _CSV_BREAKERS):
            raise ConfigError(
                f"name: expected a string without commas, quotes or line breaks, "
                f"got {self.name!r}"
            )
        if not self.delays_ms:
            raise ConfigError("delays_ms: sweep must be non-empty")
        if len(self.delays_ms) > MAX_SWEEP_DELAYS:
            raise ConfigError(f"delays_ms: sweep has more than {MAX_SWEEP_DELAYS} delays")
        if len(self.delay_offsets_ms) != n:
            raise ConfigError(
                f"delay_offsets_ms: expected {n} entries, got {len(self.delay_offsets_ms)}"
            )
        if len(self.loss_rates) != n:
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
        for key in ("algorithms", "delays_ms"):
            # a repeat would write its CSV rows twice
            if len(set(getattr(self, key))) < len(getattr(self, key)):
                raise ConfigError(f"{key}: an entry is listed more than once")
        try:
            # DutyCycleSet checked the duty cycles, so only the slot time can fail
            plan = derive_slot_plan(self.duty_cycles, self.slot_time_ms)
        except ValueError as exc:
            raise ConfigError(f"slot_time_ms: {exc}") from exc
        object.__setattr__(self, "plan", plan)
        # chained comparisons are false for NaN
        for delay in self.delays_ms:
            if not 0.0 <= delay < math.inf:
                raise ConfigError(f"delays_ms: expected finite delays >= 0, got {delay}")
        for off in self.delay_offsets_ms:
            if not 0.0 <= min(self.delays_ms) + off < math.inf:
                raise ConfigError(f"delay_offsets_ms: offset {off} gives an invalid path delay")
        # an ack lands up to a period plus the path delay after the period
        # starts, and a mean RTT sums n_samples such times
        longest = plan.period_ms + (max(self.delays_ms) + max(self.delay_offsets_ms))
        if not self.sampler.n_samples * longest < math.inf:
            raise ConfigError(
                "delays_ms: n_samples times the period plus the largest path delay "
                "is not finite"
            )
        try:
            paths = tuple(
                tuple(
                    PathParams(delay_ms=delay + off, loss_rate=p, mss_bytes=self.mss_bytes)
                    for off, p in zip(self.delay_offsets_ms, self.loss_rates)
                )
                for delay in self.delays_ms
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "paths", paths)


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


def _number(key: str, value) -> float:
    """``value`` as a float if it is a JSON number in the float range.

    Booleans are not numbers.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key}: number outside the float range") from None


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _numbers(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")
    return tuple(_number(key, x) for x in value)


def expand_delays(sweep) -> tuple[float, ...]:
    """A sweep is either an explicit list or {start, stop, step} (stop inclusive)."""
    if isinstance(sweep, dict):
        unknown = set(sweep) - {"start", "stop", "step"}
        if unknown:
            raise ConfigError(f"delays_ms: unknown sweep keys {sorted(unknown)}")
        try:
            start, stop, step = (
                _number("delays_ms", sweep[k]) for k in ("start", "stop", "step")
            )
        except KeyError as exc:
            raise ConfigError(f"delays_ms: sweep misses key {exc}") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError("delays_ms: sweep start, stop and step must be finite")
        if step <= 0:
            raise ConfigError("delays_ms: sweep step must be positive")
        span = (stop - start) / step + RATIO_SLACK
        if span < 0:
            raise ConfigError("delays_ms: empty sweep range")
        # Scenario checks the length of every sweep, but this one must not be built
        if not span < MAX_SWEEP_DELAYS:
            raise ConfigError(f"delays_ms: sweep has more than {MAX_SWEEP_DELAYS} delays")
        return tuple(start + k * step for k in range(int(math.floor(span)) + 1))
    if isinstance(sweep, (list, tuple)):
        return _numbers("delays_ms", sweep)
    raise ConfigError("delays_ms: expected a list or a start/stop/step mapping")


def scenario_from_config(config: dict) -> Scenario:
    """Build a scenario from a flat configuration mapping.

    Unknown keys are errors: a silent typo would corrupt an experiment.
    So are values of the wrong JSON type, which are never coerced.  An
    empty ``delay_offsets_ms`` or ``loss_rate`` list counts as a missing one.
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
    n = duty.n_vstas
    loss = config.get("loss_rate", ())
    loss_rates = _numbers("loss_rate", loss) if isinstance(loss, (list, tuple)) else (
        (_number("loss_rate", loss),) * n
    )
    algorithms = config.get("algorithms", ("nopolicy", "minmax"))
    if not (isinstance(algorithms, (list, tuple)) and all(isinstance(a, str) for a in algorithms)):
        raise ConfigError(f"algorithms: expected a list of names, got {algorithms!r}")
    n_samples = _integer("n_samples", config.get("n_samples", RttSamplerConfig.n_samples))
    mean_fraction = _number(
        "mean_fraction", config.get("mean_fraction", RttSamplerConfig.mean_fraction)
    )
    seed = _integer("seed", config.get("seed", DEFAULT_SEED))
    try:
        sampler = RttSamplerConfig(n_samples, mean_fraction, seed)
    except ValueError as exc:
        raise ConfigError(f"sampler: {exc}") from exc
    return Scenario(
        name=config.get("name", "custom"),
        duty_cycles=duty,
        slot_time_ms=_number("slot_time_ms", config["slot_time_ms"]),
        delays_ms=expand_delays(config["delays_ms"]),
        delay_offsets_ms=(
            _numbers("delay_offsets_ms", config.get("delay_offsets_ms", ())) or (0.0,) * n
        ),
        loss_rates=loss_rates or (DEFAULT_LOSS_RATE,) * n,
        mss_bytes=_integer("mss_bytes", config.get("mss_bytes", DEFAULT_MSS_BYTES)),
        sampler=sampler,
        algorithms=tuple(algorithms),
    )


def _json_integer(digits: str) -> int | float:
    """A JSON integer; past Python's 4,300-digit limit it is inf, beyond every
    bound here, so the field that holds it is rejected by name."""
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def load_config(path: str) -> dict:
    """The configuration mapping held by the JSON file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh, parse_int=_json_integer)
    except OSError as exc:  # a directory or an unreadable file among them
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: scenario config must be a mapping")
    return config


# built-in case -> (duty cycles, minimum slot time in ms, per-VSTA delay offsets)
_CASES = {
    "case1": ((0.5, 0.125, 0.125, 0.125, 0.125), 15.0, ()),
    "case2": ((0.5, 0.125, 0.375), 12.5, (0.0, 20.0, 40.0)),
    "case3": ((0.65, 0.25, 0.10), 10.0, ()),
}


def builtin_configs(name: str) -> list[dict]:
    """Configuration mappings of a preloaded scenario family; ``fig5``
    has one per disconnection time of the single-AP validation sweep."""
    if name in _CASES:
        duties, slot_time, offsets = _CASES[name]
        return [{
            "name": name,
            "duty_cycles": list(duties),
            "slot_time_ms": slot_time,
            "delays_ms": list(DEFAULT_SWEEP),
            "delay_offsets_ms": list(offsets),
        }]
    if name == "fig5":
        # A disconnection d > 0 is a 50% duty cycle whose other half of
        # the period is the disconnection, so T = 2 * d; at d = 0 a single
        # VSTA is always connected.
        return [
            {
                "name": f"fig5_disc{disconnection:g}",
                "duty_cycles": [0.5, 0.5] if disconnection else [1.0],
                "slot_time_ms": disconnection or 15.0,
                "delays_ms": list(DEFAULT_SWEEP),
                "algorithms": ["nopolicy"],
            }
            for disconnection in (0.0, 15.0, 25.0, 50.0, 75.0)
        ]
    raise ConfigError(
        f"unknown built-in scenario {name!r}; valid names: case1, case2, case3, fig5"
    )


def builtin_scenarios(name: str) -> list[Scenario]:
    """The scenarios of ``builtin_configs(name)``."""
    return [scenario_from_config(config) for config in builtin_configs(name)]


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
    """``value / baseline``; 1 when they are equal, ``inf / inf`` too, else NaN
    when either is infinite or the baseline is 0."""
    if value == baseline:
        return 1.0
    if baseline == 0.0 or math.isinf(baseline) or math.isinf(value):
        return math.nan
    return value / baseline


class _Sweep:
    """What the schedulers of one ``run_scenario`` call share."""

    def __init__(self, scenario: Scenario):
        self.plan = scenario.plan
        self.paths = scenario.paths
        self.evaluator = ThroughputEvaluator(
            scenario.sampler,
            [[path.delay_ms for path in v_paths] for v_paths in zip(*self.paths)],
        )

    @cached_property
    def table(self) -> SearchTable:
        """Every feasible owner vector, enumerated once, on first use."""
        return SearchTable(self.plan)


# Algorithm name -> scheduler, called with the run's ``_Sweep``.  A
# scheduler returns the algorithm's schedule, or one schedule per swept delay
# when the schedule depends on the delay.  Schedulers name the allocators when
# they run, so rebinding a module attribute (as the perfbench tracer does)
# reaches every call.
_SCHEDULERS: dict[str, Callable[[_Sweep], SlotSchedule | list[SlotSchedule]]] = {
    "nopolicy": lambda sweep: build_contiguous_schedule(sweep.plan),
    "minmax": lambda sweep: minmax_allocate(sweep.plan).schedule,
    "eq1": lambda sweep: [
        blind_allocate(sweep.table, "eq1", paths).schedule for paths in sweep.paths
    ],
    "eq2": lambda sweep: blind_allocate(sweep.table, "eq2").schedule,
    "upperbound": lambda sweep: [
        upper_bound_allocate(sweep.table, paths, sweep.evaluator).schedule
        for paths in sweep.paths
    ],
}
ALGORITHMS = tuple(_SCHEDULERS)


class ScenarioRun(list):
    """The rows of a scenario sweep, with the schedules behind them.

    ``schedules`` maps each delay-independent algorithm that was built,
    the nopolicy baseline included, to its schedule, so the CLI dumps
    them without a search of its own.
    """

    def __init__(self, rows: list[ResultRow], schedules: dict[str, SlotSchedule]):
        super().__init__(rows)
        self.schedules = schedules


def run_scenario(scenario: Scenario) -> ScenarioRun:
    """Full sweep of a scenario; fully deterministic given the seed.

    The nopolicy baseline and then each listed algorithm is built and
    evaluated at every swept delay.  The sweep's evaluator draws once
    per (VSTA, window pattern), for every delay, whichever schedule or
    search reads the pattern first.
    """
    sweep = _Sweep(scenario)
    n = sweep.plan.n_vstas
    seed = scenario.sampler.seed

    def evaluate(schedule: SlotSchedule, paths: Sequence[PathParams]):
        rtts = [
            sweep.evaluator.mean_rtt(schedule, v, path.delay_ms)
            for v, path in enumerate(paths, start=1)
        ]
        ths = [vsta_throughput(path, rtt) for path, rtt in zip(paths, rtts)]
        # the upper-bound search adds up its rows with vsta_sum too, so the
        # aggregate is the number it maximizes
        return rtts, ths, vsta_sum(ths)

    schedules: dict[str, SlotSchedule] = {}
    # results[alg][k]: (per-VSTA mean RTTs, throughputs, aggregate) at delay k
    results: dict[str, list] = {}
    for alg in ("nopolicy",) + scenario.algorithms:
        if alg in results:
            continue
        built = _SCHEDULERS[alg](sweep)
        if isinstance(built, SlotSchedule):
            schedules[alg] = built
            built = [built] * len(sweep.paths)
        results[alg] = [evaluate(s, paths) for s, paths in zip(built, sweep.paths)]

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
    """Deterministic CSV text for a result table (header always present).

    Rows are sorted by scenario, delay, algorithm and VSTA, the
    aggregate row ``all`` last, so a scenario and seed give the same bytes.
    """

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
