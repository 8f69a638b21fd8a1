"""Multi-AP TDMA slot scheduling and TCP throughput simulator."""

from .allocation import (
    AllocationResult,
    EnumerationBudgetError,
    blind_allocate,
    enumerate_schedules,
    eq1_penalty,
    eq2_objective,
    minmax_allocate,
    schedule_count,
)
from .rttmodel import (
    MathisValidityError,
    PathParams,
    RttSamplerConfig,
    RttStats,
    ThroughputEvaluator,
    mathis_throughput,
    rtt_for_send_time,
    sample_rtts,
)
from .scenarios import (
    ConfigError,
    ResultRow,
    Scenario,
    builtin_scenarios,
    emit_csv,
    run_scenario,
    scenario_from_config,
    schedule_records,
)
from .schedule import (
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    connected_intervals,
    derive_slot_plan,
    disconnection_costs,
    max_disconnection,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ConfigError",
    "DutyCycleSet",
    "EnumerationBudgetError",
    "MathisValidityError",
    "PathParams",
    "ResultRow",
    "RttSamplerConfig",
    "RttStats",
    "Scenario",
    "SlotPlan",
    "SlotSchedule",
    "ThroughputEvaluator",
    "blind_allocate",
    "build_contiguous_schedule",
    "builtin_scenarios",
    "connected_intervals",
    "derive_slot_plan",
    "disconnection_costs",
    "emit_csv",
    "enumerate_schedules",
    "eq1_penalty",
    "eq2_objective",
    "mathis_throughput",
    "max_disconnection",
    "minmax_allocate",
    "rtt_for_send_time",
    "run_scenario",
    "sample_rtts",
    "scenario_from_config",
    "schedule_count",
    "schedule_records",
]
