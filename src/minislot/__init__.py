"""Multi-AP TDMA slot scheduling and TCP throughput simulator."""

from .allocation import (
    AllocationResult,
    EnumerationBudgetError,
    SearchTable,
    blind_allocate,
    eq1_penalty,
    eq2_objective,
    minmax_allocate,
    schedule_count,
    upper_bound_allocate,
)
from .rttmodel import (
    MathisValidityError,
    PathParams,
    RttSamplerConfig,
    RttStats,
    ThroughputEvaluator,
    mathis_throughput,
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
    "SearchTable",
    "SlotPlan",
    "SlotSchedule",
    "ThroughputEvaluator",
    "blind_allocate",
    "build_contiguous_schedule",
    "builtin_scenarios",
    "derive_slot_plan",
    "disconnection_costs",
    "emit_csv",
    "eq1_penalty",
    "eq2_objective",
    "mathis_throughput",
    "max_disconnection",
    "minmax_allocate",
    "run_scenario",
    "sample_rtts",
    "scenario_from_config",
    "schedule_count",
    "schedule_records",
    "upper_bound_allocate",
]
