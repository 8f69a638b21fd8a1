import math
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from minislot import allocation
from minislot.allocation import (
    MAX_OWNER_VECTORS,
    EnumerationBudgetError,
    SearchTable,
    _evenly_spaced_positions,
    blind_allocate,
    eq2_objective,
    minmax_allocate,
    schedule_count,
    upper_bound_allocate,
)
from minislot.rttmodel import (
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
)
from minislot.schedule import (
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
    max_disconnection,
    window_pattern,
)


def sweep_evaluator(cfg, *paths_by_delay):
    """An evaluator for the sweep of the given per-delay path lists."""
    return ThroughputEvaluator(
        cfg, [[path.delay_ms for path in v_paths] for v_paths in zip(*paths_by_delay)]
    )


# the worked three-VSTA example: owners [1,2,3,1,2,1], slot sizes 12/15/10 ms
WORKED_PLAN = SlotPlan(period_ms=76.0, slot_counts=(3, 2, 1), slot_sizes_ms=(12.0, 15.0, 10.0))


# slot counts -> min-max owners and worst gaps (ms) at 1 ms slots
LARGER_PLANS = {
    (12, 11, 10, 1): ("1221231321312312312313213123124123", (2, 3, 5, 33)),
    (8, 7, 4, 1): ("12212131231231214123", (2, 3, 6, 19)),
    (7, 6, 4, 2, 1): ("12312314213125123124", (2, 3, 5, 11, 19)),
    (9, 7, 5, 3, 1): ("1231321412312413215123124", (2, 3, 5, 10, 24)),
}


def one_ms_plan(counts):
    """The plan with these slot counts and 1 ms slots."""
    total = sum(counts)
    plan = derive_slot_plan(DutyCycleSet([g / total for g in counts]), 1.0)
    assert plan.slot_counts == counts
    return plan


def all_owner_vectors(counts):
    """Every owner vector of these slot counts, in lexicographic order.

    Built from ``itertools.permutations``, not from the search's own
    enumeration, so it is an independent reference for ``SearchTable``.
    """
    base = [vsta for vsta, g in enumerate(counts, start=1) for _ in range(g)]
    return sorted(set(permutations(base)))


@lru_cache(maxsize=None)
def all_schedules(plan):
    """Every feasible schedule of ``plan``, in lexicographic owner order."""
    return tuple(SlotSchedule(plan, owners) for owners in all_owner_vectors(plan.slot_counts))


def table_rows(table):
    """The owner vectors of ``table``'s rows, as int tuples."""
    return [tuple(row) for row in table.owners.tolist()]


def worst_gaps(result):
    """Each VSTA's worst disconnection (ms) in ``result``'s schedule."""
    schedule = result.schedule
    return tuple(max_disconnection(schedule, v) for v in range(1, schedule.n_vstas + 1))


@st.composite
def slot_counts(draw, max_slots=7):
    """Per-VSTA slot counts, each at least one, of at most ``max_slots`` slots."""
    counts = [draw(st.integers(min_value=1, max_value=max_slots))]
    while sum(counts) < max_slots and draw(st.booleans()):
        counts.append(draw(st.integers(min_value=1, max_value=max_slots - sum(counts))))
    return tuple(counts)


def make_worked_schedule():
    return SlotSchedule.from_owners(WORKED_PLAN, (1, 2, 3, 1, 2, 1))


@pytest.fixture
def case1_plan():
    return derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.125, 0.125, 0.125]), 15.0)


@pytest.fixture
def case2_plan():
    return derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)


@pytest.fixture
def case3_plan():
    return derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)


@pytest.fixture
def ten_tenths_plan():
    """Ten single-slot VSTAs: 10! = 3,628,800 owner vectors, over the budget."""
    return derive_slot_plan(DutyCycleSet([0.1] * 10), 10.0)


class TestScheduleCount:
    def test_reference_counts(self, case1_plan, case2_plan, case3_plan):
        assert schedule_count(case1_plan) == 1680
        assert schedule_count(case2_plan) == 280
        assert schedule_count(case3_plan) == 252

    def test_single_vsta(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 10.0)
        assert schedule_count(plan) == 1


class TestEnumeration:
    """``SearchTable`` is the one enumerator of owner vectors."""

    def test_yields_exactly_count_distinct_vectors(self, case2_plan):
        table = SearchTable(case2_plan)
        owners = table_rows(table)
        assert len(owners) == table.count == 280
        assert len(set(owners)) == 280

    def test_lexicographic_order(self, case2_plan):
        owners = table_rows(SearchTable(case2_plan))
        assert owners == sorted(owners)
        assert owners[0] == (1, 1, 1, 1, 2, 3, 3, 3)

    def test_budget_enforced_before_enumeration(self, ten_tenths_plan, monkeypatch):
        def no_rows(counts):
            raise AssertionError("a row was enumerated past the budget")

        monkeypatch.setattr(allocation, "_multiset_permutations", no_rows)
        with pytest.raises(EnumerationBudgetError) as exc_info:
            SearchTable(ten_tenths_plan)
        assert exc_info.value.count == 3_628_800
        assert exc_info.value.budget == MAX_OWNER_VECTORS == 1_000_000

    def test_slot_counts_respected(self, case3_plan):
        for owners in table_rows(SearchTable(case3_plan)):
            for vsta, g in enumerate(case3_plan.slot_counts, start=1):
                assert owners.count(vsta) == g

    def test_multiset_permutation_count(self):
        plan = SlotPlan(period_ms=40.0, slot_counts=(2, 2), slot_sizes_ms=(10.0, 10.0))
        table = SearchTable(plan)
        assert table_rows(table) == [
            (1, 1, 2, 2),
            (1, 2, 1, 2),
            (1, 2, 2, 1),
            (2, 1, 1, 2),
            (2, 1, 2, 1),
            (2, 2, 1, 1),
        ]
        assert table.count == 6

    @settings(max_examples=60, deadline=None)
    @given(slot_counts())
    def test_rows_are_the_sorted_distinct_permutations(self, counts):
        plan = SlotPlan(
            period_ms=10.0 * sum(counts), slot_counts=counts, slot_sizes_ms=(10.0,) * len(counts)
        )
        assert table_rows(SearchTable(plan)) == all_owner_vectors(counts)


class TestObjectives:
    def test_eq2_worked_example(self):
        sched = make_worked_schedule()
        # 1/25 + 1/24 + 1/66
        assert eq2_objective(sched) == pytest.approx(0.0968182, abs=5e-8)

    def test_eq2_infinite_without_disconnection(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 10.0)
        assert eq2_objective(build_contiguous_schedule(plan)) == math.inf

    def test_eq2_rotation_invariant(self, rotated):
        sched = make_worked_schedule()
        base = eq2_objective(sched)
        for k in range(1, len(sched.owners)):
            assert eq2_objective(rotated(sched, k)) == pytest.approx(base, rel=1e-12)

    def test_eq1_prefers_shorter_worst_gaps(self, case2_plan):
        """On equal paths the eq1 winner spreads VSTAs 1 and 3 as min-max
        does: no worst gap longer than the contiguous schedule's."""
        paths = [PathParams(delay_ms=50.0)] * 3
        won = worst_gaps(blind_allocate(SearchTable(case2_plan), "eq1", paths))
        assert won == pytest.approx((12.5, 87.5, 37.5), abs=1e-9)
        contiguous = build_contiguous_schedule(case2_plan)
        assert all(gap <= max_disconnection(contiguous, v) for v, gap in enumerate(won, start=1))

    def test_eq1_zero_delay_is_infinite(self, case2_plan):
        """At delay 0 every schedule loses the whole unbounded throughput."""
        paths = [PathParams(delay_ms=0.0)] * 3
        assert blind_allocate(SearchTable(case2_plan), "eq1", paths).objective_value == math.inf


class TestMinmaxAllocate:
    def test_case2_reference(self, case2_plan):
        result = minmax_allocate(case2_plan)
        assert result.schedule.owners == (1, 3, 1, 3, 1, 3, 1, 2)
        assert worst_gaps(result) == pytest.approx((12.5, 87.5, 37.5), abs=1e-9)
        assert result.evaluations == 1

    def test_case1_reference(self, case1_plan):
        result = minmax_allocate(case1_plan)
        assert result.schedule.owners == (1, 2, 1, 3, 1, 4, 1, 5)
        assert result.evaluations == 1

    def test_case3_reference(self, case3_plan):
        result = minmax_allocate(case3_plan)
        assert result.schedule.owners == (1, 1, 3, 1, 2, 1, 1, 1, 2)
        assert worst_gaps(result) == pytest.approx((12.5, 42.5, 90.0), abs=1e-6)
        assert result.evaluations == 1

    def test_objective_matches_schedule(self, case2_plan):
        result = minmax_allocate(case2_plan)
        assert result.objective_value == pytest.approx(
            eq2_objective(result.schedule), rel=1e-12
        )

    def test_single_vsta(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 10.0)
        result = minmax_allocate(plan)
        assert result.schedule.owners == (1,)

    @pytest.mark.parametrize("counts", LARGER_PLANS, ids=lambda c: "-".join(map(str, c)))
    def test_larger_plans(self, counts):
        """Owners and worst gaps (ms) as recorded when every middle VSTA
        scored all of its slot combinations."""
        owners, worst = LARGER_PLANS[counts]
        result = minmax_allocate(one_ms_plan(counts))
        assert result.schedule.owners == tuple(map(int, owners))
        assert worst_gaps(result) == pytest.approx(worst, abs=1e-9)

    def test_exact_past_the_old_budget(self):
        """Past 1,000,000 combinations min-max once took the free position
        nearest each even target.  On (20, 20, 20, 1), where VSTA 2 faced
        C(41, 20), the exact pick keeps that placement.  On (16, 14, 9, 1),
        where VSTA 2 faced C(24, 14), lexicographic ties crowd VSTA 2 toward
        the first free slots, and VSTA 3's worst gap grows from 5 to 9 ms."""
        plan = one_ms_plan((20, 20, 20, 1))
        result = minmax_allocate(plan)
        assert result == minmax_allocate(plan)
        assert result.schedule.owners == (1, 2, 3) * 10 + (4,) + (1, 2, 3) * 10
        # min-max scores only the schedule it builds
        assert result.evaluations == 1
        crowded = minmax_allocate(one_ms_plan((16, 14, 9, 1)))
        assert crowded.schedule.owners == tuple(
            map(int, "1221212123123121312312312131231231214123")
        )
        assert worst_gaps(crowded) == pytest.approx((2, 3, 9, 39), abs=1e-9)
        assert crowded.evaluations == 1

    def test_evenly_spaced_positions_are_distinct(self):
        for total in range(1, 61):
            for g in range(1, total + 1):
                positions = _evenly_spaced_positions(g, total)
                assert len(positions) == g
                assert positions == sorted(set(positions))
                assert 1 <= positions[0] and positions[-1] <= total


class TestBlindAllocate:
    def test_eq2_matches_heuristic_objective(self, case2_plan):
        blind = blind_allocate(SearchTable(case2_plan), "eq2")
        heuristic = minmax_allocate(case2_plan)
        assert blind.objective_value == pytest.approx(
            heuristic.objective_value, abs=1e-9
        )
        assert blind.evaluations == 280

    def test_eq2_dominates_every_schedule(self, case3_plan):
        best = blind_allocate(SearchTable(case3_plan), "eq2").objective_value
        assert all(eq2_objective(s) <= best + 1e-12 for s in all_schedules(case3_plan))

    def test_eq1_requires_paths(self, case2_plan):
        with pytest.raises(ValueError, match="path"):
            blind_allocate(SearchTable(case2_plan), "eq1")

    def test_eq1_path_count_checked(self, case2_plan):
        with pytest.raises(ValueError, match="expected 3 paths, got 1"):
            blind_allocate(SearchTable(case2_plan), "eq1", [PathParams(delay_ms=10.0)])

    def test_eq1_dominates_every_schedule(self, case2_plan, eq1_penalty):
        paths = [PathParams(delay_ms=d) for d in (30.0, 50.0, 70.0)]
        best = blind_allocate(SearchTable(case2_plan), "eq1", paths=paths).objective_value
        assert all(eq1_penalty(s, paths) >= best - 1e-9 for s in all_schedules(case2_plan))

    def test_unknown_objective(self, case2_plan):
        with pytest.raises(ValueError, match="objective"):
            blind_allocate(SearchTable(case2_plan), "eq3")

    def test_budget_propagates(self, ten_tenths_plan):
        with pytest.raises(EnumerationBudgetError):
            blind_allocate(SearchTable(ten_tenths_plan), "eq2")

    def test_tie_break_is_lexicographic(self, case2_plan):
        # re-running with the same inputs must return the same owners
        a = blind_allocate(SearchTable(case2_plan), "eq2").schedule.owners
        b = blind_allocate(SearchTable(case2_plan), "eq2").schedule.owners
        assert a == b


class TestUpperBoundAllocate:
    CFG = RttSamplerConfig(n_samples=500, seed=3)

    def test_dominates_heuristic(self, case2_plan, aggregate):
        paths = [PathParams(delay_ms=d) for d in (40.0, 60.0, 80.0)]
        evaluator = sweep_evaluator(self.CFG, paths)
        result = upper_bound_allocate(SearchTable(case2_plan), paths, evaluator)
        heuristic = minmax_allocate(case2_plan).schedule
        assert result.objective_value >= aggregate(evaluator, heuristic, paths)
        assert result.evaluations == 280

    def test_deterministic(self, case3_plan):
        paths = [PathParams(delay_ms=d) for d in (40.0, 60.0, 80.0)]
        a = upper_bound_allocate(SearchTable(case3_plan), paths, sweep_evaluator(self.CFG, paths))
        b = upper_bound_allocate(SearchTable(case3_plan), paths, sweep_evaluator(self.CFG, paths))
        assert a.schedule.owners == b.schedule.owners
        assert a.objective_value == b.objective_value

    def test_path_count_checked(self, case2_plan):
        paths = [PathParams(delay_ms=40.0)]
        with pytest.raises(ValueError, match="expected 3 paths, got 1"):
            upper_bound_allocate(SearchTable(case2_plan), paths, sweep_evaluator(self.CFG, paths))


class TestMaxDisconnectionConsistency:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_is_the_largest_pattern_gap(self, name):
        """The searches score patterns, so the worst disconnection must be
        read from the window pattern bit for bit; case3's slot sizes are not
        exact, and a walk over the slots differs there by up to 3.3e-10 ms."""
        plan = plan_named(name)
        for schedule in all_schedules(plan):
            for v in range(1, plan.n_vstas + 1):
                gaps = [gap for _, gap in window_pattern(schedule, v)]
                assert max_disconnection(schedule, v) == max(gaps)


# (duty cycles, slot time): case1-3, a single VSTA, and two VSTAs whose
# two schedules tie on every objective
PLANS = {
    "case1": ([0.5, 0.125, 0.125, 0.125, 0.125], 15.0),
    "case2": ([0.5, 0.125, 0.375], 12.5),
    "case3": ([0.65, 0.25, 0.10], 10.0),
    "single": ([1.0], 15.0),
    "halves": ([0.5, 0.5], 25.0),
}


def plan_named(name):
    duties, slot_time = PLANS[name]
    return derive_slot_plan(DutyCycleSet(duties), slot_time)


def brute_force(plan, score, better):
    """The search as a plain loop over ``all_schedules`` (the reference)."""
    best = best_score = None
    schedules = all_schedules(plan)
    for schedule in schedules:
        value = score(schedule)
        if best is None or better(value, best_score):
            best, best_score = schedule, value
    return best.owners, best_score, len(schedules)


class TestSearchTable:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_matches_schedule_functions(self, name):
        plan = plan_named(name)
        table = SearchTable(plan)
        schedules = all_schedules(plan)
        assert table.count == len(schedules)
        for s, schedule in enumerate(schedules):
            assert tuple(table.owners[s]) == schedule.owners
            assert table.schedule(s) == schedule
            for v in range(1, plan.n_vstas + 1):
                pid = table.pattern[s, v - 1]
                assert table.keys[v - 1][pid] == window_pattern(schedule, v)
        for v in range(plan.n_vstas):
            # distinct ids have distinct keys
            assert len(set(table.keys[v])) == len(table.keys[v])

    def test_budget_enforced(self, ten_tenths_plan):
        with pytest.raises(EnumerationBudgetError) as exc_info:
            SearchTable(ten_tenths_plan)
        assert exc_info.value.count == 3_628_800


class TestTableSearchMatchesBruteForce:
    CFG = RttSamplerConfig(n_samples=300, seed=5)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_eq2(self, name):
        plan = plan_named(name)
        result = blind_allocate(SearchTable(plan), "eq2")
        want = brute_force(plan, eq2_objective, lambda a, b: a > b)
        assert (result.schedule.owners, result.objective_value, result.evaluations) == want

    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("delay", (0.0, 10.0, 55.0))
    def test_eq1(self, name, delay, eq1_penalty):
        plan = plan_named(name)
        paths = [PathParams(delay_ms=delay + 20.0 * i) for i in range(plan.n_vstas)]
        result = blind_allocate(SearchTable(plan), "eq1", paths=paths)
        want = brute_force(plan, lambda s: eq1_penalty(s, paths), lambda a, b: a < b)
        assert (result.schedule.owners, result.objective_value, result.evaluations) == want

    def test_tie_break_keeps_first_owner_vector(self):
        plan = plan_named("halves")
        paths = [PathParams(delay_ms=30.0)] * 2
        for result in (
            blind_allocate(SearchTable(plan), "eq2"),
            blind_allocate(SearchTable(plan), "eq1", paths=paths),
            upper_bound_allocate(SearchTable(plan), paths, sweep_evaluator(self.CFG, paths)),
        ):
            assert result.schedule.owners == (1, 2)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_upper_bound_sweep(self, name, aggregate):
        """Winners and scores over one sweep evaluator match a brute-force
        loop and a search over a one-delay evaluator, at each delay.

        Delay 0 gives zero mean RTTs, hence infinite aggregates; the
        repeated delay is answered from the evaluator.
        """
        plan = plan_named(name)
        paths_by_delay = [
            [PathParams(delay_ms=base + 20.0 * i) for i in range(plan.n_vstas)]
            for base in (0.0, 10.0, 55.0, 10.0)
        ]
        table = SearchTable(plan)
        swept = sweep_evaluator(self.CFG, *paths_by_delay)
        looped = sweep_evaluator(self.CFG, *paths_by_delay)
        for paths in paths_by_delay:
            result = upper_bound_allocate(table, paths, swept)
            want = brute_force(
                plan, lambda s: aggregate(looped, s, paths), lambda a, b: a > b
            )
            assert (result.schedule.owners, result.objective_value, result.evaluations) == want
            assert upper_bound_allocate(table, paths, sweep_evaluator(self.CFG, paths)) == result
