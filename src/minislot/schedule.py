"""Slot-plan arithmetic and periodic slot schedules.

A single-radio station shares one wireless period ``T`` between ``N``
virtual stations (VSTAs), one per access point.  Each VSTA ``i`` is
granted a duty cycle ``f_i`` (fractions sum to one) and receives
``g_i`` slots per period.  This module derives the slot plan from a
duty-cycle set, builds concrete schedules (ordered slot-to-VSTA
assignments with wall-clock start times) and reads what each VSTA
sees of a schedule from one scan of its slots: the pattern of its
connected windows' lengths and of the gaps between them, and from that
its circular disconnection costs (how long it stays off the air between
two of its consecutive slots).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

#: tolerance accepted on a duty-cycle sum before rejecting the input
DUTY_SUM_TOLERANCE = 1e-6
#: slack added to a ratio before it is floored, so that ratios such as
#: 6.499999999999999 that are integers in real arithmetic floor to them
RATIO_SLACK = 1e-9
#: most slots a plan may have.  One scan of the slots gives every VSTA's
#: windows, and one sort checks a schedule's owners.  At this bound on a
#: 2-core machine, one delay and 100 samples, in-process: ``nopolicy,minmax``
#: on slot counts 5000,3000,1999,1 took 0.12-0.20 s; ``nopolicy`` on 10,000
#: one-slot VSTAs 1.7-2.5 s, most of it in 10,000 separate RTT draws, one
#: per VSTA (building the schedule takes 10-25 ms of it).
MAX_TOTAL_SLOTS = 10_000
#: shortest slot time; ``window_pattern`` rounds window times to 1e-9 ms,
#: a millionth of this
MIN_SLOT_TIME_MS = 1e-3
#: longest period.  Below it every float error in a window pattern stays
#: under half of its 1e-9 ms rounding (floats near this bound are 1.2e-10 ms
#: apart), so the gap of a window that runs on across the period boundary
#: rounds to exactly 0.
MAX_PERIOD_MS = 1_000_000.0


@dataclass(frozen=True)
class DutyCycleSet:
    """Per-VSTA fractions of the wireless period.

    Fractions must be positive and sum to one.  Inputs whose sum is
    within ``DUTY_SUM_TOLERANCE`` of one (rounded user configs) are
    renormalized; anything further off is rejected.  The smallest
    fraction must be at least ``1 / MAX_TOTAL_SLOTS``, which bounds the
    slot count of the derived plan.
    """

    fractions: tuple[float, ...]

    def __init__(self, fractions: Iterable[float]):
        fracs = tuple(float(f) for f in fractions)
        if len(fracs) < 1:
            raise ValueError("duty-cycle set needs at least one VSTA")
        if any(not f > 0.0 for f in fracs):  # NaN is not positive either
            raise ValueError(f"duty cycles must be positive, got {fracs}")
        try:
            total = math.fsum(fracs)
        except OverflowError:  # a sum past the float range is far from one
            total = math.inf
        if abs(total - 1.0) > DUTY_SUM_TOLERANCE:
            raise ValueError(
                f"duty cycles must sum to 1 (got {total!r}, "
                f"tolerance {DUTY_SUM_TOLERANCE})"
            )
        smallest = min(fracs) / total
        # derive_slot_plan gives VSTA i floor(f_i / smallest) slots
        if smallest * MAX_TOTAL_SLOTS < 1.0 - DUTY_SUM_TOLERANCE:
            raise ValueError(
                f"the smallest duty cycle, {smallest!r}, gives a plan of more than "
                f"{MAX_TOTAL_SLOTS} slots"
            )
        object.__setattr__(self, "fractions", tuple(f / total for f in fracs))

    @property
    def n_vstas(self) -> int:
        return len(self.fractions)


@dataclass(frozen=True)
class SlotPlan:
    """Derived slotting quantities for a duty-cycle set.

    ``slot_sizes_ms[i]`` is the per-VSTA slot duration ``f_i*T/g_i``;
    slot sizes may differ between VSTAs when ``f_i*T`` is not an exact
    multiple of the global minimum slot time.
    """

    period_ms: float
    slot_counts: tuple[int, ...]
    slot_sizes_ms: tuple[float, ...]

    @property
    def n_vstas(self) -> int:
        return len(self.slot_counts)

    @property
    def total_slots(self) -> int:
        return sum(self.slot_counts)

    @cached_property
    def contiguous_owners(self) -> tuple[int, ...]:
        """Each VSTA's slots in index order: every owner vector of the plan, sorted.

        Built on first read and kept in the instance ``__dict__``, so it
        takes no part in equality or hashing.
        """
        return tuple(vsta for vsta, g in enumerate(self.slot_counts, start=1) for _ in range(g))


def derive_slot_plan(duty: DutyCycleSet, slot_time_ms: float) -> SlotPlan:
    """Derive the slot plan for ``duty`` at minimum slot size ``slot_time_ms``.

    The wireless period is sized from the smallest duty cycle,
    ``T = slot_time / min_i f_i``, each VSTA gets
    ``g_i = floor(f_i * T / slot_time)`` slots, and its actual slot
    duration is ``f_i * T / g_i``.
    """
    if not slot_time_ms >= MIN_SLOT_TIME_MS:
        raise ValueError(f"slot time must be at least {MIN_SLOT_TIME_MS} ms, got {slot_time_ms}")
    min_f = min(duty.fractions)
    period = slot_time_ms / min_f
    if not period <= MAX_PERIOD_MS:
        raise ValueError(
            f"slot time {slot_time_ms} ms gives a period of {period} ms, "
            f"above {MAX_PERIOD_MS:,.0f} ms"
        )
    # f_i*T/slot_time == f_i/min_f
    counts = tuple(int(math.floor(f / min_f + RATIO_SLACK)) for f in duty.fractions)
    assert all(g >= 1 for g in counts)
    sizes = tuple(f * period / g for f, g in zip(duty.fractions, counts))
    return SlotPlan(period_ms=period, slot_counts=counts, slot_sizes_ms=sizes)


@dataclass(frozen=True)
class SlotSchedule:
    """An ordered assignment of ``plan``'s slots to VSTAs.

    ``owners`` holds 1-based VSTA indices, one per slot position.  Each
    slot lasts its owner's slot size, and ``start_times_ms[j]`` is the
    wall-clock offset of slot ``j`` within one period: the exact sum of
    the durations before it, never of rounded intermediates.
    """

    plan: SlotPlan
    owners: tuple[int, ...]
    durations_ms: tuple[float, ...] = field(init=False, compare=False, repr=False)
    start_times_ms: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        plan, owners = self.plan, self.owners
        if len(owners) != plan.total_slots:
            raise ValueError(
                f"expected {plan.total_slots} slot owners, got {len(owners)}"
            )
        if tuple(sorted(owners)) != plan.contiguous_owners:
            # with the count above, some VSTA in 1..n_vstas owns the wrong number
            for vsta, g in enumerate(plan.slot_counts, start=1):
                seen = owners.count(vsta)
                if seen != g:
                    raise ValueError(
                        f"VSTA {vsta} must own {g} slots, owner vector gives it {seen}"
                    )
        durations = tuple(plan.slot_sizes_ms[o - 1] for o in owners)
        # exact running sums in units of the sizes' finest power-of-two step
        ratios = [size.as_integer_ratio() for size in plan.slot_sizes_ms]
        den = max(q for _, q in ratios)
        units = [p * (den // q) for p, q in ratios]
        sums = accumulate((units[o - 1] for o in owners[:-1]), initial=0)
        starts = tuple(t / den for t in sums)  # int / int rounds once, as math.fsum does
        object.__setattr__(self, "durations_ms", durations)
        object.__setattr__(self, "start_times_ms", starts)

    @property
    def period_ms(self) -> float:
        return self.plan.period_ms

    @property
    def n_vstas(self) -> int:
        return self.plan.n_vstas

    @classmethod
    def from_owners(cls, plan: SlotPlan, owners: Sequence[int]) -> "SlotSchedule":
        """Build a schedule for ``plan`` from an owner-per-slot vector."""
        return cls(plan, tuple(int(o) for o in owners))

    @cached_property
    def window_patterns(self) -> tuple[tuple, ...]:
        """Every VSTA's ``window_pattern``, by VSTA index, from one scan of the slots.

        A VSTA's windows are its runs of consecutive owned slots, in one
        period from time 0.  Built on first read and kept in the instance
        ``__dict__``, so it takes no part in equality or hashing.
        """
        # starts[v - 1], ends[v - 1]: where VSTA v's windows so far begin and end
        starts: list[list[float]] = [[] for _ in range(self.n_vstas)]
        ends: list[list[float]] = [[] for _ in range(self.n_vstas)]
        previous = 0  # no VSTA owns the slot before the first
        for owner, start, duration in zip(self.owners, self.start_times_ms, self.durations_ms):
            if owner == previous:
                ends[owner - 1][-1] = start + duration
            else:
                starts[owner - 1].append(start)
                ends[owner - 1].append(start + duration)
                previous = owner
        period = self.period_ms
        patterns = []
        for own_starts, own_ends in zip(starts, ends):
            nexts = own_starts[1:] + [period + own_starts[0]]
            # a tuple of a list, not of a generator: that one grows by
            # resizing and, freed, fills the tuple free lists (0.3 MiB of RSS)
            patterns.append(tuple([
                (round(end - start, 9), round(nxt - end, 9))
                for start, end, nxt in zip(own_starts, own_ends, nexts)
            ]))
        return tuple(patterns)


def build_contiguous_schedule(plan: SlotPlan) -> SlotSchedule:
    """No-policy baseline: each VSTA's slots placed consecutively, in index order."""
    return SlotSchedule.from_owners(plan, plan.contiguous_owners)


def window_pattern(schedule: SlotSchedule, vsta: int) -> tuple:
    """Each window's (length, gap to the next window) in ms, rounded, from the first window."""
    if not 1 <= vsta <= schedule.n_vstas:
        raise ValueError(
            f"unknown VSTA index {vsta} (schedule has {schedule.n_vstas} VSTAs)"
        )
    return schedule.window_patterns[vsta - 1]


def disconnection_costs(schedule: SlotSchedule, vsta: int) -> list[float]:
    """The off-air time after each of ``vsta``'s owned slots, in ms, from the first.

    Entry ``l`` covers the time between the VSTA's ``l``-th and
    ``(l+1)``-th owned slots; the last entry wraps circularly back to
    the first.  Read from the window pattern: a VSTA's slots all have
    one size, so a window of ``k`` slots gives ``k - 1`` zeros and then
    its gap.
    """
    pattern = window_pattern(schedule, vsta)
    size = schedule.plan.slot_sizes_ms[vsta - 1]
    costs: list[float] = []
    for length, gap in pattern:
        costs.extend([0.0] * (round(length / size) - 1))
        costs.append(gap)
    return costs


def worst_gap(pattern: tuple) -> float:
    """Largest gap of a ``window_pattern``: the worst disconnection time in ms."""
    return max(gap for _, gap in pattern)


def max_disconnection(schedule: SlotSchedule, vsta: int) -> float:
    """Worst-case off-air time of ``vsta``, read from its window pattern; 0 if it owns every slot."""
    return worst_gap(window_pattern(schedule, vsta))
