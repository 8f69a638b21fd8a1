"""Randomized invariants of the schedule, RTT and allocation layers."""
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minislot import allocation
from minislot._kernels import _least_double_above, rtt_samples
from minislot.allocation import (
    SearchTable,
    _evenly_spaced_positions,
    _minmax_pick,
    _smallest_within,
    blind_allocate,
    eq2_objective,
    minmax_allocate,
    schedule_count,
)
from minislot.rttmodel import (
    MAX_LOSS_RATE,
    MAX_MSS_BYTES,
    PathParams,
    RttSamplerConfig,
    _send_times,
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


def reference_smallest_within(free, g, total_slots, d):
    """``_smallest_within`` as first written: ``reach`` at every free
    position, and ``need`` at every one from the first chosen on."""
    m = len(free)
    reach = [bisect_right(free, f + d) - 1 for f in free]
    for first in range(m):
        if free[first] > d:
            return None
        end = free[first] + total_slots - d
        j = first
        for _ in range(g - 1):
            if free[j] >= end or reach[j] == j:
                break
            j = reach[j]
        if free[j] >= end:
            break
    else:
        return None
    need = [0] * m
    for j in reversed(range(first, m)):
        if free[j] < end:
            need[j] = m if reach[j] == j else 1 + need[reach[j]]
    chosen = [first]
    for k in range(2, g + 1):
        j = chosen[-1] + 1
        while k + need[j] > g:
            j += 1
        chosen.append(j)
    return [free[j] for j in chosen]


def reference_minmax_owners(plan):
    """``minmax_allocate``'s owners as first written: the free positions
    listed anew for each VSTA, each pick made with ``reference_smallest_within``."""
    total = plan.total_slots
    order = sorted(range(1, plan.n_vstas + 1), key=lambda v: (-plan.slot_counts[v - 1], v))
    g_first = plan.slot_counts[order[0] - 1]
    owner_of = dict.fromkeys(_evenly_spaced_positions(g_first, total), order[0])
    with mock.patch.object(allocation, "_smallest_within", reference_smallest_within):
        for vsta in order[1:-1]:
            free = [p for p in range(1, total + 1) if p not in owner_of]
            chosen = _minmax_pick(free, plan.slot_counts[vsta - 1], total)
            owner_of.update(dict.fromkeys(chosen, vsta))
    return tuple(owner_of.get(p, order[-1]) for p in range(1, total + 1))


def reference_multiset_permutations(first):
    """Every permutation of the ascending vector ``first``, in lexicographic order."""
    arr = list(first)
    n = len(arr)
    while True:
        yield tuple(arr)
        i = n - 2
        while i >= 0 and arr[i] >= arr[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
        arr[i + 1:] = reversed(arr[i + 1:])


def reference_search_table(plan, connected_intervals, reference_pattern):
    """``SearchTable``'s ``owners``, ``pattern`` and ``keys`` as first built:
    row by row, one ``SlotSchedule`` per row and one reference scan of
    each VSTA's windows."""
    count = schedule_count(plan)
    n = plan.n_vstas
    owners = np.empty((count, plan.total_slots), np.min_scalar_type(n))
    pattern = np.empty((count, n), np.int32)
    interned = [{} for _ in range(n)]
    for s, row in enumerate(reference_multiset_permutations(plan.contiguous_owners)):
        owners[s] = row
        schedule = SlotSchedule(plan, row)
        pattern[s] = [
            ids.setdefault(
                reference_pattern(connected_intervals(schedule, vsta), plan.period_ms), len(ids)
            )
            for vsta, ids in enumerate(interned, start=1)
        ]
    return owners, pattern, [list(ids) for ids in interned]


@st.composite
def search_plans(draw):
    """A plan derived from random duty cycles and slot time, of at most
    630 owner vectors.

    The slot sizes of its VSTAs are mostly unequal and not round, and
    every VSTA with two or more slots owns the first and the last slot
    in some rows, so that its last window runs across the period boundary.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    # a VSTA gets floor(weight / least weight) slots
    most = {1: 1.0, 2: 9.99, 3: 4.99, 4: 2.99, 5: 1.99}[n]
    weights = draw(st.lists(
        st.floats(min_value=1.0, max_value=most), min_size=n, max_size=n
    ))
    duty = DutyCycleSet([w / math.fsum(weights) for w in weights])
    slot_time = draw(st.floats(min_value=MIN_SLOT_TIME_MS, max_value=1e4))
    return derive_slot_plan(duty, slot_time)


def reference_rtt_samples(starts, ends, sends, delay, period):
    """``_kernels.rtt_samples`` as first written, for sends in any order:
    each ack's phase by ``fmod`` and its window by counting the window
    starts at or below it."""
    # sends and delay are >= 0, where fmod equals % bit for bit
    phase = np.fmod(sends + delay, period)
    # i counts the windows opening at or before the ack, so window i is
    # the next to open (i == len(starts): the first one of the next period)
    i = np.zeros(phase.shape, np.intp)
    for start in starts.tolist():
        i += phase >= start
    next_starts = np.append(starts, period + starts[0])
    # the ack lands connected when it falls before the end of window i - 1
    prev_ends = np.concatenate(([-np.inf], ends))
    wait = np.where(phase < prev_ends.take(i), 0.0, next_starts.take(i) - phase)
    return delay + wait


def reference(bounds, sends, delay):
    """``reference_rtt_samples`` on the windows of a kernel's ``bounds``."""
    return reference_rtt_samples(bounds[:-1:2], bounds[1::2], sends, delay, bounds[-1])


def bits(values):
    """The float64 bit patterns of ``values``, so -0.0 and 0.0 differ."""
    return np.asarray(values, np.float64).view(np.int64).tolist()


@st.composite
def window_patterns(draw):
    """A window pattern of 1-9 (length, gap) pairs; only the last gap may
    be 0, when the last window runs on into the first across the period
    boundary."""
    w = draw(st.integers(min_value=1, max_value=9))
    lengths = draw(st.lists(st.floats(0.001, 40.0), min_size=w, max_size=w))
    gaps = draw(st.lists(st.floats(0.001, 40.0), min_size=w - 1, max_size=w - 1))
    last_gap = draw(st.one_of(st.just(0.0), st.floats(0.001, 40.0)))
    return tuple(zip(lengths, [*gaps, last_gap]))


@st.composite
def kernel_cases(draw):
    """A laid-out pattern's bounds, ascending sends at its edges and within
    it, and a delay."""
    pattern = draw(window_patterns())
    bounds, _ = _send_times(pattern, RttSamplerConfig(n_samples=1, mean_fraction=0.25, seed=0))
    period = float(bounds[-1])
    edges = []
    for bound in bounds.tolist():
        edges += [bound, math.nextafter(bound, 0.0)]
    sends = draw(st.lists(st.sampled_from(edges), max_size=30))
    sends += draw(st.lists(st.floats(0.0, period), max_size=30))
    k = draw(st.integers(min_value=1, max_value=10**6))
    multiple = k * period
    delay = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e15]),
        st.floats(0.0, 1e6),
        st.sampled_from([
            multiple, math.nextafter(multiple, 0.0), math.nextafter(multiple, math.inf)
        ]),
    ))
    return bounds, np.sort(np.array(sends + [0.0])), delay


@st.composite
def stale_buffer_sweeps(draw):
    """A window pattern, a sampler config and a sweep of delays that falls
    and rises and repeats one delay.  It mixes 0, delays below the period
    and delays of 1, 2 or many periods, so a delay's acks fall in one or
    two runs, numbered 0 to about 10**6, and each delay finds the buffers
    as a delay of very different runs left them."""
    pattern = draw(window_patterns())
    cfg = RttSamplerConfig(
        n_samples=draw(st.integers(min_value=1, max_value=400)),
        mean_fraction=0.25,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )
    period = float(_send_times(pattern, cfg)[0][-1])
    fraction = st.floats(0.001, 0.999)
    below = fraction.map(lambda f: f * period)
    periods = st.builds(
        lambda k, f: k * period + f * period,
        st.sampled_from([1, 2]) | st.integers(min_value=3, max_value=10**6),
        st.just(0.0) | fraction,
    )
    # below, then 0, then some periods: the sweep falls, then rises
    delays = [draw(below), 0.0, draw(periods)]
    delays += draw(st.lists(st.just(0.0) | below | periods, max_size=4))
    delays.insert(draw(st.integers(0, len(delays))), draw(st.sampled_from(delays)))
    return pattern, cfg, delays


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
    def test_one_scan_matches_per_vsta_references(
        self, connected_intervals, reference_pattern, schedule
    ):
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
    def test_windows_are_runs_of_owned_slots(self, connected_intervals, reference_pattern, schedule):
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
        cfg = RttSamplerConfig(n_samples=300, mean_fraction=0.25, seed=seed)
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
        cfg = RttSamplerConfig(n_samples=300, mean_fraction=0.25, seed=seed)
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


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    @example((np.array([0.0, 50.0, 100.00000000000001]),
              np.array([0.0, 49.99999999999999, 50.0, 100.00000000000001]),
              100.00000000000001 * 3))
    @example((np.array([0.0, 10.0, 30.0, 100.0, 100.0]),
              np.array([0.0, 9.999999999999998, 10.0, 30.0, 99.99999999999999, 100.0]),
              5e-324))
    def test_kernel_is_the_fmod_kernel_bit_for_bit(self, case):
        """On ascending sends the kernel gives the reference's floats
        exactly: its phases are ``fmod``'s and its waits round alike."""
        bounds, sends, delay = case
        got = rtt_samples(bounds, sends, delay, np.empty_like(sends), np.empty_like(sends))
        assert bits(got) == bits(reference(bounds, sends, delay))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**18), st.floats(0.001, 1e6))
    def test_least_double_above_a_period_multiple(self, k, period):
        num, den = period.as_integer_ratio()
        least = _least_double_above(k * num, den)
        below = math.nextafter(least, -math.inf)
        assert Fraction(below) < k * Fraction(period) <= Fraction(least)

    @settings(max_examples=60, deadline=None)
    @given(
        window_patterns(),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=4),
    )
    def test_sweep_yields_draw_order(self, pattern, n, seed, delays):
        """Sorting the sends for the kernel leaves each delay's RTTs in
        draw order: the reference kernel's on the unsorted sends."""
        cfg = RttSamplerConfig(n_samples=n, mean_fraction=0.25, seed=seed)
        bounds, sends = _send_times(pattern, cfg)
        swept = sweep_rtt_samples(pattern, delays, cfg)
        for delay, rtts in zip(delays, swept, strict=True):
            assert bits(rtts) == bits(reference(bounds, sends, delay))


    @settings(max_examples=60, deadline=None)
    @given(stale_buffer_sweeps())
    def test_sweep_buffers_keep_no_stale_values(self, case):
        """A sweep's working arrays carry nothing from one delay to the
        next: each delay's RTTs, copied before the next, are the reference
        kernel's on the unsorted sends, and each mean is their mean."""
        pattern, cfg, delays = case
        bounds, sends = _send_times(pattern, cfg)
        expected = [reference(bounds, sends, delay) for delay in delays]
        swept = [rtts.copy() for rtts in sweep_rtt_samples(pattern, delays, cfg)]
        assert [bits(rtts) for rtts in swept] == [bits(rtts) for rtts in expected]
        means = sample_rtts(pattern, delays, cfg).means_ms
        assert bits(means) == bits([float(rtts.mean()) for rtts in expected])

        ascending = np.sort(sends)
        acks, rtts = np.full_like(sends, np.nan), np.full_like(sends, np.nan)
        for delay in delays:
            fresh = rtt_samples(
                bounds, ascending, delay, np.empty_like(sends), np.empty_like(sends)
            )
            assert rtt_samples(bounds, ascending, delay, acks, rtts) is rtts
            assert bits(rtts) == bits(fresh)


class TestAllocationProperties:
    @settings(max_examples=15, deadline=None)
    @given(plans(max_vstas=3))
    def test_exhaustive_dominates_heuristic_and_contiguous(self, plan):
        if plan.total_slots > 9:
            return  # keep the exhaustive sweep cheap
        best = blind_allocate(SearchTable(plan), "eq2").objective_value
        assert best >= eq2_objective(minmax_allocate(plan).schedule) - 1e-12
        assert best >= eq2_objective(build_contiguous_schedule(plan)) - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(search_plans(), st.integers(min_value=1, max_value=64) | st.just(allocation._BLOCK))
    @example(derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0), allocation._BLOCK)
    @example(derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5), 5)
    def test_search_table_matches_reference(
        self, connected_intervals, reference_pattern, plan, block
    ):
        """The array build gives the row-by-row build's owners, pattern
        ids and keys, in blocks of any size."""
        owners, pattern, keys = reference_search_table(plan, connected_intervals, reference_pattern)
        with mock.patch.object(allocation, "_BLOCK", block):
            table = SearchTable(plan)
        assert table.owners.dtype == owners.dtype
        assert np.array_equal(table.owners, owners)
        assert table.pattern.dtype == np.int32
        assert np.array_equal(table.pattern, pattern)
        assert repr(table.keys) == repr(keys)  # which also tells -0.0 from 0.0

    @settings(max_examples=300, deadline=None)
    @given(free_positions())
    def test_minmax_pick_matches_brute_force(self, case):
        free, g, total = case
        chosen = _minmax_pick(free, g, total)
        assert chosen == brute_force_minmax(free, g, total)

    @settings(max_examples=300, deadline=None)
    @given(free_positions(), st.integers(min_value=1, max_value=16))
    def test_smallest_within_matches_reference(self, case, d):
        free, g, total = case
        assert _smallest_within(free, g, total, d) == reference_smallest_within(free, g, total, d)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=8))
    def test_minmax_owners_match_reference(self, counts):
        """One free list updated by each pick gives the owners that listing
        the free positions anew for each VSTA gave."""
        plan = SlotPlan(float(sum(counts)), tuple(counts), (1.0,) * len(counts))
        assert minmax_allocate(plan).schedule.owners == reference_minmax_owners(plan)
