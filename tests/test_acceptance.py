"""Acceptance gate: one test per release criterion.

Each test prints a single ``[acceptance] criterion N: PASS|FAIL`` line
(visible with ``pytest -s`` or on failure) and its ``pytest -v`` row
doubles as the per-criterion verdict.  Criteria 5-7 compare Monte-Carlo
throughput sweeps and are the slow part of the suite.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from minislot.allocation import (
    SearchTable,
    blind_allocate,
    eq2_objective,
    minmax_allocate,
    schedule_count,
)
from minislot.rttmodel import (
    RttSamplerConfig,
    sample_rtts,
    sweep_rtt_samples,
    vsta_seed,
)
from minislot.scenarios import DEFAULT_SEED, DEFAULT_SWEEP, builtin_scenarios, run_scenario
from minislot.schedule import (
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
    disconnection_costs,
    max_disconnection,
    window_pattern,
)

CASES = ("case1", "case2", "case3")
SWEPT = ("nopolicy", "minmax", "eq2", "upperbound")


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}: FAIL{suffix}"


@pytest.fixture(scope="module")
def sweeps():
    """Aggregate throughput sweeps shared by criteria 5-7.

    For each case and swept delay: the ``vsta == "all"`` rows of
    ``run_scenario`` for the contiguous baseline, the min-max heuristic,
    the exhaustive eq2 optimum and the exhaustive Monte-Carlo upper
    bound, all under one seed, plus the eq2 objective of the min-max
    and exhaustive schedules.
    """
    data = {}
    for case in CASES:
        (scenario,) = builtin_scenarios(case)
        run = run_scenario(replace(scenario, algorithms=SWEPT))
        rows = {}
        for row in run:
            if row.vsta == "all":
                at_delay = rows.setdefault(row.base_delay_ms, {"delay": row.base_delay_ms})
                at_delay[row.algorithm] = row.aggregate_bps
        data[case] = {
            "objective": {alg: eq2_objective(run.schedules[alg]) for alg in ("minmax", "eq2")},
            "rows": list(rows.values()),
        }
    return data


def test_criterion_1_slot_plan_exactness():
    plan1 = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.125, 0.125, 0.125]), 15.0)
    plan2 = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
    plan3 = derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)
    ok = (
        abs(plan1.period_ms - 120.0) <= 1e-6
        and plan1.slot_counts == (4, 1, 1, 1, 1)
        and plan1.total_slots == 8
        and abs(plan2.period_ms - 100.0) <= 1e-6
        and plan2.slot_counts == (4, 1, 3)
        and all(abs(s - 12.5) <= 1e-6 for s in plan2.slot_sizes_ms)
        and all(
            abs(s - want) <= 1e-6
            for s, want in zip(plan3.slot_sizes_ms, (65.0 / 6.0, 12.5, 10.0))
        )
    )
    report(1, "slot-plan exactness", ok)


def test_criterion_2_cost_function_exactness():
    plan = SlotPlan(period_ms=76.0, slot_counts=(3, 2, 1), slot_sizes_ms=(12.0, 15.0, 10.0))
    schedule = SlotSchedule.from_owners(plan, (1, 2, 3, 1, 2, 1))
    c11 = disconnection_costs(schedule, 1)[0]
    report(2, "cost-function exactness", c11 == 25.0, f"c11={c11}")


def test_criterion_3_enumeration_counts():
    count2 = schedule_count(derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5))
    count3 = schedule_count(derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0))
    report(
        3, "enumeration counts",
        count2 == 280 and count3 == 252,
        f"case2={count2} case3={count3}",
    )


def test_criterion_4_minmax_disconnections():
    plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
    schedule = minmax_allocate(plan).schedule
    got = tuple(max_disconnection(schedule, v) for v in range(1, plan.n_vstas + 1))
    report(4, "min-max disconnections", got == (12.5, 87.5, 37.5), f"got={got}")


def test_criterion_5_heuristic_matches_exhaustive(sweeps):
    worst_obj_gap = 0.0
    worst_rel = 0.0
    worst_at = None
    for case in CASES:
        data = sweeps[case]
        objective = data["objective"]
        worst_obj_gap = max(worst_obj_gap, abs(objective["minmax"] - objective["eq2"]))
        for row in data["rows"]:
            a, b = row["minmax"], row["eq2"]
            if math.isinf(a) and math.isinf(b):
                continue
            rel = abs(a - b) / b
            if rel > worst_rel:
                worst_rel, worst_at = rel, (case, row["delay"])
    ok = worst_obj_gap <= 1e-9 and worst_rel <= 0.05
    report(
        5, "heuristic ~ exhaustive",
        ok,
        f"objective gap {worst_obj_gap:.2e}, worst throughput gap "
        f"{worst_rel:.1%} at {worst_at}",
    )


def test_criterion_6_improvement_magnitude(sweeps):
    rows = sweeps["case1"]["rows"]
    ratios = {
        row["delay"]: row["minmax"] / row["nopolicy"]
        for row in rows
        if math.isfinite(row["nopolicy"])
    }
    peak = max(ratios.values())
    below_one = [d for d, r in ratios.items() if d >= 10.0 and r < 1.0]
    ok = 1.3 <= peak <= 1.7 and not below_one
    report(
        6, "improvement magnitude",
        ok,
        f"peak ratio {peak:.4f}, ratio<1 at delays {below_one}",
    )


def test_criterion_7_upper_bound_gap(sweeps):
    worst = 0.0
    worst_at = None
    for case in CASES:
        for row in sweeps[case]["rows"]:
            a, b = row["upperbound"], row["minmax"]
            if math.isinf(a) and math.isinf(b):
                continue
            ratio = a / b
            if ratio > worst:
                worst, worst_at = ratio, (case, row["delay"])
    report(
        7, "upper-bound gap",
        worst <= 1.10,
        f"worst upperbound/minmax ratio {worst:.4f} at {worst_at}",
    )


def test_criterion_8_rtt_plateau():
    scenarios = {s.name: s for s in builtin_scenarios("fig5")}

    disc50 = scenarios["fig5_disc50"]
    plan = derive_slot_plan(disc50.duty_cycles, disc50.slot_time_ms)
    schedule = build_contiguous_schedule(plan)
    cfg = replace(disc50.sampler, seed=vsta_seed(disc50.sampler.seed, 1))
    mean50, mean100 = sample_rtts(window_pattern(schedule, 1), (50.0, 100.0), cfg).means_ms
    plateau = abs(mean50 - mean100) / mean100

    disc0 = scenarios["fig5_disc0"]
    plan0 = derive_slot_plan(disc0.duty_cycles, disc0.slot_time_ms)
    schedule0 = build_contiguous_schedule(plan0)
    exact = sample_rtts(window_pattern(schedule0, 1), DEFAULT_SWEEP, cfg).means_ms == DEFAULT_SWEEP
    report(
        8, "RTT plateau",
        plateau <= 0.15 and exact,
        f"mean@50={mean50:.3f} mean@100={mean100:.3f} gap {plateau:.1%}, "
        f"zero-disconnection exact: {exact}",
    )


def test_criterion_9_property_suite(rotated):
    rng = np.random.default_rng(2024)
    plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
    checks = []

    for _ in range(20):
        owners = [v for v, g in enumerate(plan.slot_counts, start=1) for _ in range(g)]
        rng.shuffle(owners)
        schedule = SlotSchedule.from_owners(plan, owners)

        # cost conservation
        for vsta, f in enumerate((0.5, 0.125, 0.375), start=1):
            total = math.fsum(disconnection_costs(schedule, vsta))
            checks.append(abs(total - (1 - f) * plan.period_ms) <= 1e-6)

        # RTT bounds and per-seed determinism
        cfg = RttSamplerConfig(n_samples=200, seed=int(rng.integers(1 << 30)))
        delay = float(rng.uniform(0.0, 150.0))
        key = window_pattern(schedule, 1)
        (rtts,) = sweep_rtt_samples(key, (delay,), cfg)
        worst = max_disconnection(schedule, 1)
        checks.append(rtts.min() >= delay - 1e-9)
        checks.append(rtts.max() <= delay + worst + 1e-6)
        stats = sample_rtts(key, (delay,), cfg)
        checks.append(sample_rtts(key, (delay,), cfg) == stats)

        # rotation invariance of the allocation objective
        k = int(rng.integers(1, len(schedule.owners)))
        checks.append(
            abs(eq2_objective(rotated(schedule, k)) - eq2_objective(schedule))
            <= 1e-9 * abs(eq2_objective(schedule))
        )

    # exhaustive dominance over the heuristic
    for duties, slot_time in (
        ([0.5, 0.125, 0.375], 12.5),
        ([0.65, 0.25, 0.10], 10.0),
    ):
        p = derive_slot_plan(DutyCycleSet(duties), slot_time)
        checks.append(
            blind_allocate(SearchTable(p), "eq2").objective_value
            >= eq2_objective(minmax_allocate(p).schedule) - 1e-12
        )

    # sampled mean vs analytic mean, contiguous f=0.5 at delay 50
    plan_half = derive_slot_plan(DutyCycleSet([0.5, 0.5]), 50.0)
    schedule_half = build_contiguous_schedule(plan_half)
    cfg = RttSamplerConfig(seed=vsta_seed(DEFAULT_SEED, 1))
    (sampled,) = sample_rtts(window_pattern(schedule_half, 1), (50.0,), cfg).means_ms
    window, mean = 50.0, 12.5
    # E[t mod window] for an exponential send offset, in closed form
    wrapped_mean = mean - window * math.exp(-window / mean) / (
        1.0 - math.exp(-window / mean)
    )
    analytic = 100.0 - wrapped_mean
    samples = 100.0 - (
        np.random.default_rng(cfg.seed).exponential(mean, cfg.n_samples) % window
    )
    stderr = float(np.std(samples, ddof=1)) / math.sqrt(cfg.n_samples)
    checks.append(abs(sampled - analytic) <= 3.0 * stderr)

    report(
        9, "property suite",
        all(checks),
        f"{sum(checks)}/{len(checks)} checks passed",
    )
