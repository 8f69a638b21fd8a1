"""Randomized invariants of the schedule, RTT and allocation layers."""
import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from minislot.allocation import (
    SearchTable,
    _minmax_pick,
    blind_allocate,
    eq2_objective,
    minmax_allocate,
)
from minislot.rttmodel import (
    MAX_LOSS_RATE,
    MAX_MSS_BYTES,
    PathParams,
    RttSamplerConfig,
    sample_rtts,
    sweep_rtt_samples,
    vsta_throughput,
)
from minislot.schedule import (
    MAX_PERIOD_MS,
    MIN_SLOT_TIME_MS,
    DutyCycleSet,
    SlotPlan,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
    disconnection_costs,
    max_disconnection,
    window_pattern,
)


@st.composite
def plans(draw, max_vstas=4):
    """A random feasible slot plan with a modest slot count."""
    n = draw(st.integers(min_value=2, max_value=max_vstas))
    weights = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=6.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    total = math.fsum(weights)
    duty = DutyCycleSet([w / total for w in weights])
    slot_time = draw(st.floats(min_value=5.0, max_value=20.0))
    return derive_slot_plan(duty, slot_time)


@st.composite
def schedules(draw):
    """A random owner permutation of a random plan."""
    plan = draw(plans())
    owners = []
    for vsta, g in enumerate(plan.slot_counts, start=1):
        owners.extend([vsta] * g)
    owners = draw(st.permutations(owners))
    return plan, SlotSchedule.from_owners(plan, owners)


@st.composite
def sized_schedules(draw, max_size=1e6):
    """A random owner permutation of a plan with arbitrary slot sizes.

    The sizes span up to nine decades and are not derived from duty
    cycles, so a start time rounded from intermediate sums would show.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(st.lists(
        st.floats(min_value=MIN_SLOT_TIME_MS, max_value=max_size), min_size=n, max_size=n
    ))
    counts = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n))
    owners = [vsta for vsta, g in enumerate(counts, start=1) for _ in range(g)]
    period = math.fsum(g * size for g, size in zip(counts, sizes))
    plan = SlotPlan(period_ms=period, slot_counts=tuple(counts), slot_sizes_ms=tuple(sizes))
    return SlotSchedule.from_owners(plan, draw(st.permutations(owners)))


@st.composite
def free_positions(draw):
    """A period of at most 16 slots, an ascending free subset of its
    positions 1..G and a slot count the subset can hold."""
    total = draw(st.integers(min_value=1, max_value=16))
    free = sorted(draw(st.sets(st.integers(min_value=1, max_value=total), min_size=1)))
    g = draw(st.integers(min_value=1, max_value=len(free)))
    return free, g, total


def brute_force_minmax(free, g, total_slots):
    """The first of the ``g``-combinations of ``free``, in lexicographic
    order, with the smallest largest circular index gap."""
    def largest_gap(combo):
        return max(b - a for a, b in zip(combo, combo[1:] + (combo[0] + total_slots,)))
    return list(min(combinations(free, g), key=largest_gap))


def slot_walk_costs(schedule: SlotSchedule, vsta: int) -> list[float]:
    """Disconnection costs summed slot by slot, not read from the window pattern.

    Entry ``l`` adds up the durations of the slots strictly between the
    VSTA's ``l``-th and ``(l+1)``-th owned positions, circularly.
    """
    owned = [j for j, owner in enumerate(schedule.owners) if owner == vsta]
    n = len(schedule.owners)
    costs = []
    for here, nxt in zip(owned, owned[1:] + owned[:1]):
        total = 0.0
        j = (here + 1) % n
        while j != nxt:
            total += schedule.durations_ms[j]
            j = (j + 1) % n
        costs.append(total)
    return costs


def reference_pattern(intervals, period):
    """``window_pattern`` of the [start, end) ``intervals`` of one period."""
    nexts = [start for start, _ in intervals[1:]] + [period + intervals[0][0]]
    return tuple(
        (round(end - start, 9), round(nxt - end, 9))
        for (start, end), nxt in zip(intervals, nexts)
    )


def oracle_costs(schedule: SlotSchedule, vsta: int) -> list[float]:
    """Disconnection costs recomputed from slot boundary times.

    Independent route: the gap after the l-th owned slot is the modular
    distance from that slot's end to the next owned slot's start.
    """
    period = schedule.period_ms
    owned = [j for j, owner in enumerate(schedule.owners) if owner == vsta]
    costs = []
    for idx, j in enumerate(owned):
        end = schedule.start_times_ms[j] + schedule.durations_ms[j]
        if idx + 1 < len(owned):
            gap = schedule.start_times_ms[owned[idx + 1]] - end
        else:
            gap = period + schedule.start_times_ms[owned[0]] - end
        costs.append(gap)
    return costs


class TestScheduleProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(schedules().map(lambda plan_schedule: plan_schedule[1]), sized_schedules()))
    def test_start_times_are_exact_prefix_sums(self, schedule):
        durations = schedule.durations_ms
        assert schedule.start_times_ms == tuple(
            math.fsum(durations[:j]) for j in range(len(durations))
        )

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_cost_conservation(self, plan_schedule):
        plan, schedule = plan_schedule
        for vsta in range(1, plan.n_vstas + 1):
            connected = plan.slot_counts[vsta - 1] * plan.slot_sizes_ms[vsta - 1]
            total_cost = math.fsum(disconnection_costs(schedule, vsta))
            assert total_cost + connected == pytest.approx(plan.period_ms, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_costs_match_boundary_oracle(self, plan_schedule):
        plan, schedule = plan_schedule
        for vsta in range(1, plan.n_vstas + 1):
            got = sorted(disconnection_costs(schedule, vsta))
            want = sorted(oracle_costs(schedule, vsta))
            assert got == pytest.approx(want, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(schedules())
    def test_max_disconnection_is_the_largest_cost(self, plan_schedule):
        """The worst gap read from the window pattern is the largest per-slot
        cost, up to the pattern's rounding to 1e-9 ms."""
        plan, schedule = plan_schedule
        for vsta in range(1, plan.n_vstas + 1):
            worst = max(disconnection_costs(schedule, vsta))
            assert abs(max_disconnection(schedule, vsta) - worst) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(sized_schedules(max_size=100.0))
    def test_one_scan_matches_per_vsta_references(self, connected_intervals, schedule):
        """``window_patterns`` is the per-VSTA reference scan, bit for bit,
        and the costs read from it are the slot-by-slot sums.

        Slot sizes of at most 100 ms keep the period below 2e4 ms, where
        the slot walk's float sums and the pattern's 1e-9 ms rounding
        together stay under 1e-9 ms.
        """
        assert schedule.window_patterns == tuple(
            reference_pattern(connected_intervals(schedule, vsta), schedule.period_ms)
            for vsta in range(1, schedule.n_vstas + 1)
        )
        for vsta in range(1, schedule.n_vstas + 1):
            got = disconnection_costs(schedule, vsta)
            want = slot_walk_costs(schedule, vsta)
            assert len(got) == len(want)
            assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want))

    @settings(max_examples=100, deadline=None)
    @given(sized_schedules(max_size=MAX_PERIOD_MS / 160))
    def test_windows_are_runs_of_owned_slots(self, connected_intervals, schedule):
        """Up to periods of ``MAX_PERIOD_MS`` (160 slots of up to 6,250 ms),
        windows that start where another owner's slot ends are the reference
        scan's windows, whose ends meet starts within ``TIME_TOLERANCE``,
        bit for bit; and a VSTA's last gap is 0 exactly when it owns both
        the first and the last slot."""
        assert schedule.window_patterns == tuple(
            reference_pattern(connected_intervals(schedule, vsta), schedule.period_ms)
            for vsta in range(1, schedule.n_vstas + 1)
        )
        first, last = schedule.owners[0], schedule.owners[-1]
        for vsta, pattern in enumerate(schedule.window_patterns, start=1):
            assert (pattern[-1][1] == 0.0) == (vsta == first == last)

    @settings(max_examples=40, deadline=None)
    @given(schedules(), st.integers(min_value=1, max_value=8))
    def test_rotation_preserves_cost_multiset_and_eq2(self, rotated, plan_schedule, shift):
        plan, schedule = plan_schedule
        turned = rotated(schedule, shift % len(schedule.owners))
        for vsta in range(1, plan.n_vstas + 1):
            assert sorted(disconnection_costs(turned, vsta)) == pytest.approx(
                sorted(disconnection_costs(schedule, vsta)), abs=1e-6
            )
        assert eq2_objective(turned) == pytest.approx(
            eq2_objective(schedule), rel=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(plans())
    def test_plan_identities(self, plan):
        assert sum(plan.slot_counts) == plan.total_slots
        duties = [
            g * size / plan.period_ms
            for g, size in zip(plan.slot_counts, plan.slot_sizes_ms)
        ]
        assert math.fsum(duties) == pytest.approx(1.0, abs=1e-9)
        assert min(plan.slot_counts) >= 1

    @settings(max_examples=150, deadline=None)
    @given(plans(), st.data())
    def test_owner_check_is_the_count_check(self, plan, data):
        """A schedule is refused exactly when some VSTA's slot count is
        wrong, and the error names the smallest such VSTA.

        Owner vectors are permutations of a valid one with up to three
        entries overwritten by values in 0..n + 1, so both outcomes occur.
        """
        n, total = plan.n_vstas, plan.total_slots
        owners = list(data.draw(st.permutations(plan.contiguous_owners)))
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, n + 1)), max_size=3
        ))
        for position, owner in edits:
            owners[position] = owner
        seen = Counter(owners)
        wrong = [(v, g) for v, g in enumerate(plan.slot_counts, start=1) if seen[v] != g]
        if seen == Counter(dict(enumerate(plan.slot_counts, start=1))):
            assert SlotSchedule(plan, tuple(owners)).owners == tuple(owners)
        else:
            with pytest.raises(ValueError) as exc_info:
                SlotSchedule(plan, tuple(owners))
            v, g = wrong[0]
            assert str(exc_info.value) == (
                f"VSTA {v} must own {g} slots, owner vector gives it {seen[v]}"
            )


class TestRttProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        schedules(),
        st.floats(min_value=0.0, max_value=250.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rtt_bounds_and_determinism(self, plan_schedule, delay, seed):
        plan, schedule = plan_schedule
        cfg = RttSamplerConfig(n_samples=300, seed=seed)
        for vsta in range(1, plan.n_vstas + 1):
            key = window_pattern(schedule, vsta)
            (rtts,) = sweep_rtt_samples(key, (delay,), cfg)
            worst = max_disconnection(schedule, vsta)
            assert rtts.min() >= delay - 1e-9
            assert rtts.max() <= delay + worst + 1e-6
            stats = sample_rtts(key, (delay,), cfg)
            assert sample_rtts(key, (delay,), cfg) == stats

    @settings(max_examples=40, deadline=None)
    @given(
        schedules(),
        st.lists(st.floats(min_value=0.0, max_value=250.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_sweep_mean_is_the_one_delay_mean(self, plan_schedule, delays, seed):
        """One draw for a sweep gives each delay the bits of a one-delay draw."""
        plan, schedule = plan_schedule
        cfg = RttSamplerConfig(n_samples=300, seed=seed)
        for vsta in range(1, plan.n_vstas + 1):
            key = window_pattern(schedule, vsta)
            swept = sample_rtts(key, delays, cfg).means_ms
            assert len(swept) == len(delays)
            for mean, delay in zip(swept, delays):
                assert mean == sample_rtts(key, (delay,), cfg).means_ms[0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=MAX_LOSS_RATE, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=MAX_MSS_BYTES),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    @example(1e-300, 1460, 1e-300)
    @example(5e-324, 1460, 1e-200)
    @example(5e-324, MAX_MSS_BYTES, 5e-324)
    @example(MAX_LOSS_RATE * (1 - 2**-53), 1, 1.7e308)
    def test_reno_estimate_is_positive_or_unbounded(self, loss_rate, mss, rtt):
        """Every path ``PathParams`` accepts and every finite mean RTT >= 0
        give a positive throughput or ``inf``, even where the denominator underflows."""
        throughput = vsta_throughput(PathParams(0.0, loss_rate, mss), rtt)
        assert throughput == math.inf or 0.0 < throughput < math.inf


class TestAllocationProperties:
    @settings(max_examples=15, deadline=None)
    @given(plans(max_vstas=3))
    def test_exhaustive_dominates_heuristic_and_contiguous(self, plan):
        if plan.total_slots > 9:
            return  # keep the exhaustive sweep cheap
        best = blind_allocate(SearchTable(plan), "eq2").objective_value
        assert best >= eq2_objective(minmax_allocate(plan).schedule) - 1e-12
        assert best >= eq2_objective(build_contiguous_schedule(plan)) - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(free_positions())
    def test_minmax_pick_matches_brute_force(self, case):
        free, g, total = case
        chosen = _minmax_pick(free, g, total)
        assert chosen == brute_force_minmax(free, g, total)

