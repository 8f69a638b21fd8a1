import math
import random
import tracemalloc

import pytest

from minislot.allocation import minmax_allocate
from minislot.schedule import (
    MAX_PERIOD_MS,
    MAX_TOTAL_SLOTS,
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
    disconnection_costs,
    max_disconnection,
    window_pattern,
)


# the worked three-VSTA example: owners [1,2,3,1,2,1], slot sizes 12/15/10 ms
WORKED_PLAN = SlotPlan(period_ms=76.0, slot_counts=(3, 2, 1), slot_sizes_ms=(12.0, 15.0, 10.0))
WORKED_OWNERS = (1, 2, 3, 1, 2, 1)


@pytest.fixture
def worked_schedule():
    return SlotSchedule.from_owners(WORKED_PLAN, WORKED_OWNERS)


class TestDutyCycleSet:
    def test_normalizes_rounded_input(self):
        duty = DutyCycleSet([0.3333333, 0.3333333, 0.3333334])
        assert math.isclose(sum(duty.fractions), 1.0, abs_tol=1e-12)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DutyCycleSet([0.5, 0.4])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            DutyCycleSet([1.5, -0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DutyCycleSet([])


class TestDeriveSlotPlan:
    def test_case2_values(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
        assert plan.period_ms == pytest.approx(100.0, abs=1e-9)
        assert plan.slot_counts == (4, 1, 3)
        assert plan.slot_sizes_ms == pytest.approx([12.5, 12.5, 12.5], abs=1e-9)
        assert plan.total_slots == 8

    def test_case3_uneven_slot_sizes(self):
        plan = derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)
        assert plan.period_ms == pytest.approx(100.0, abs=1e-6)
        assert plan.slot_counts == (6, 2, 1)
        assert plan.slot_sizes_ms == pytest.approx([65 / 6, 12.5, 10.0], abs=1e-9)
        assert plan.total_slots == 9

    def test_single_vsta(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 15.0)
        assert plan.period_ms == 15.0
        assert plan.slot_counts == (1,)
        assert plan.slot_sizes_ms == (15.0,)

    def test_case1_period(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.125, 0.125, 0.125]), 15.0)
        assert plan.period_ms == pytest.approx(120.0, abs=1e-9)
        assert plan.slot_counts == (4, 1, 1, 1, 1)
        assert plan.total_slots == 8

    def test_rejects_nonpositive_slot_time(self):
        with pytest.raises(ValueError, match="slot time"):
            derive_slot_plan(DutyCycleSet([1.0]), 0.0)

    def test_period_bound(self):
        assert derive_slot_plan(DutyCycleSet([0.5, 0.5]), MAX_PERIOD_MS / 2).period_ms == MAX_PERIOD_MS
        with pytest.raises(ValueError, match="period"):
            derive_slot_plan(DutyCycleSet([0.5, 0.5]), math.nextafter(MAX_PERIOD_MS / 2, math.inf))

    def test_plan_identity(self):
        # f_i * T == g_i * SlotTime_i for every VSTA
        duty = DutyCycleSet([0.4, 0.35, 0.25])
        plan = derive_slot_plan(duty, 11.0)
        for f, g, size in zip(duty.fractions, plan.slot_counts, plan.slot_sizes_ms):
            assert f * plan.period_ms == pytest.approx(g * size, abs=1e-9)


class TestContiguousSchedule:
    def test_case2_owner_order(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
        sched = build_contiguous_schedule(plan)
        assert sched.owners == (1, 1, 1, 1, 2, 3, 3, 3)

    def test_case1_owner_order(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.125, 0.125, 0.125]), 15.0)
        assert build_contiguous_schedule(plan).owners == (1, 1, 1, 1, 2, 3, 4, 5)

    def test_single_vsta(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 15.0)
        assert build_contiguous_schedule(plan).owners == (1,)

    def test_start_times_tile_period(self):
        plan = derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)
        sched = build_contiguous_schedule(plan)
        assert sched.start_times_ms[0] == 0.0
        for j in range(len(sched.owners) - 1):
            assert sched.start_times_ms[j + 1] == pytest.approx(
                sched.start_times_ms[j] + sched.durations_ms[j], abs=1e-9
            )
        closing = sched.start_times_ms[-1] + sched.durations_ms[-1]
        assert closing == pytest.approx(plan.period_ms, abs=1e-9)

    def test_single_gap_cost(self):
        # contiguous placement gives each VSTA exactly one gap of (1-f_i)*T
        duty = DutyCycleSet([0.5, 0.3, 0.2])
        plan = derive_slot_plan(duty, 10.0)
        sched = build_contiguous_schedule(plan)
        for vsta, f in enumerate(duty.fractions, start=1):
            assert max_disconnection(sched, vsta) == pytest.approx(
                (1 - f) * plan.period_ms, abs=1e-6
            )


class TestDisconnectionCosts:
    def test_worked_example_first_entry(self, worked_schedule):
        costs = disconnection_costs(worked_schedule, 1)
        assert costs[0] == pytest.approx(25.0, abs=1e-12)

    def test_worked_example_full_vector(self, worked_schedule):
        assert disconnection_costs(worked_schedule, 1) == pytest.approx(
            [25.0, 15.0, 0.0], abs=1e-12
        )

    def test_worked_example_single_slot_vsta(self, worked_schedule):
        costs = disconnection_costs(worked_schedule, 3)
        assert costs == pytest.approx([66.0], abs=1e-12)
        assert costs[0] + 10.0 == pytest.approx(WORKED_PLAN.period_ms, abs=1e-12)

    def test_cost_conservation(self, worked_schedule):
        # sum of costs plus own airtime equals the period, per VSTA
        for vsta, g, size in ((1, 3, 12.0), (2, 2, 15.0), (3, 1, 10.0)):
            total = sum(disconnection_costs(worked_schedule, vsta))
            assert total + g * size == pytest.approx(76.0, abs=1e-9)

    def test_unknown_vsta(self, worked_schedule):
        with pytest.raises(ValueError, match="unknown VSTA"):
            disconnection_costs(worked_schedule, 4)


class TestMaxDisconnection:
    def test_case2_contiguous(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
        sched = build_contiguous_schedule(plan)
        assert max_disconnection(sched, 1) == pytest.approx(50.0, abs=1e-9)
        assert max_disconnection(sched, 2) == pytest.approx(87.5, abs=1e-9)

    def test_owner_of_all_slots(self):
        plan = derive_slot_plan(DutyCycleSet([1.0]), 20.0)
        assert max_disconnection(build_contiguous_schedule(plan), 1) == 0.0

    def test_worked_example(self, worked_schedule):
        assert max_disconnection(worked_schedule, 1) == pytest.approx(25.0)

    @pytest.mark.parametrize("read", [window_pattern, max_disconnection, disconnection_costs])
    @pytest.mark.parametrize("vsta", [0, 4])
    def test_unknown_vsta(self, worked_schedule, read, vsta):
        # window_patterns[-1] would be VSTA 3's pattern
        with pytest.raises(ValueError, match="unknown VSTA"):
            read(worked_schedule, vsta)


class TestSlotScheduleValidation:
    def test_from_owners_rejects_wrong_counts(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.5]), 10.0)
        with pytest.raises(ValueError, match="must own"):
            SlotSchedule.from_owners(plan, [1, 1])

    def test_from_owners_rejects_wrong_length(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.5]), 10.0)
        with pytest.raises(ValueError, match="owners"):
            SlotSchedule.from_owners(plan, [1, 2, 1])

    def test_worked_example_derived_times(self, worked_schedule):
        assert worked_schedule.durations_ms == (12.0, 15.0, 10.0, 12.0, 15.0, 12.0)
        assert worked_schedule.start_times_ms == (0.0, 12.0, 27.0, 37.0, 49.0, 64.0)
        assert (worked_schedule.period_ms, worked_schedule.n_vstas) == (76.0, 3)

    def test_from_owners_rejects_unknown_owner(self):
        with pytest.raises(ValueError, match="must own"):
            SlotSchedule.from_owners(WORKED_PLAN, (1, 2, 4, 1, 2, 1))

    def test_equal_plan_and_owners_are_equal(self, worked_schedule, rotated):
        again = SlotSchedule.from_owners(WORKED_PLAN, list(WORKED_OWNERS))
        assert again == worked_schedule and hash(again) == hash(worked_schedule)
        # the cached window patterns take no part in equality or hashing
        assert worked_schedule.window_patterns
        assert again == worked_schedule and hash(again) == hash(worked_schedule)
        assert rotated(worked_schedule, 1) != worked_schedule

    def test_rotations_of_case3_minmax(self):
        plan = derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)
        owners = minmax_allocate(plan).schedule.owners
        for k in range(len(owners)):
            rotated = SlotSchedule.from_owners(plan, owners[k:] + owners[:k])
            assert rotated.start_times_ms == tuple(
                math.fsum(rotated.durations_ms[:j]) for j in range(len(rotated.owners))
            )

    def test_rotation_preserves_cost_multiset(self, worked_schedule, rotated):
        base = sorted(disconnection_costs(worked_schedule, 1))
        for k in range(1, len(worked_schedule.owners)):
            assert sorted(disconnection_costs(rotated(worked_schedule, k), 1)) == pytest.approx(
                base, abs=1e-9
            )


class TestManyOneSlotVstas:
    """Each of a thousand or more one-slot VSTAs has one window, its slot."""

    @staticmethod
    def one_window_patterns(schedule, reference_pattern):
        slots = sorted(zip(schedule.owners, schedule.start_times_ms, schedule.durations_ms))
        return tuple(
            reference_pattern([(start, start + size)], schedule.period_ms)
            for _, start, size in slots
        )

    def test_shuffled_unequal_slots(self, reference_pattern):
        rng = random.Random(30)
        # weights below twice the least give every VSTA one slot, of its own size
        weights = [rng.uniform(1.0, 1.99) for _ in range(1_000)]
        plan = derive_slot_plan(DutyCycleSet([w / math.fsum(weights) for w in weights]), 10.0)
        assert plan.slot_counts == (1,) * 1_000
        owners = list(plan.contiguous_owners)
        rng.shuffle(owners)
        schedule = SlotSchedule.from_owners(plan, owners)
        assert schedule.window_patterns == self.one_window_patterns(schedule, reference_pattern)

    def test_most_slots_nopolicy(self, reference_pattern):
        """The nopolicy schedule of ``MAX_TOTAL_SLOTS`` VSTAs, in memory
        linear in the slots: a VSTA-by-slot array would take 100 MB."""
        plan = derive_slot_plan(DutyCycleSet([1 / MAX_TOTAL_SLOTS] * MAX_TOTAL_SLOTS), 1.0)
        assert plan.slot_counts == (1,) * MAX_TOTAL_SLOTS
        tracemalloc.start()
        try:
            schedule = build_contiguous_schedule(plan)
            patterns = schedule.window_patterns
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert patterns == self.one_window_patterns(schedule, reference_pattern)
