"""Slot-plan arithmetic and periodic slot schedules.

A single-radio station shares one wireless period ``T`` between ``N``
virtual stations (VSTAs), one per access point.  Each VSTA ``i`` is
granted a duty cycle ``f_i`` (fractions sum to one) and receives
``g_i`` slots per period.  This module derives the slot plan from a
duty-cycle set, builds concrete schedules (ordered slot-to-VSTA
assignments with wall-clock start times) and computes what one VSTA
sees of a schedule: its connected windows, their pattern of lengths
and gaps, and its circular disconnection costs (how long it stays off
the air between two of its consecutive slots).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Sequence

#: tolerance accepted on a duty-cycle sum before rejecting the input
DUTY_SUM_TOLERANCE = 1e-6
#: tolerance used for exact time comparisons (milliseconds)
TIME_TOLERANCE = 1e-9
#: most slots a plan may have.  Each VSTA's windows come from a scan of
#: every slot, so a run costs about VSTAs x slots.  At this bound on a 2-core
#: machine, one delay and 100 samples: ``nopolicy,minmax`` on slot counts
#: 5000,3000,1999,1 took 0.2 s, ``nopolicy`` on 10,000 one-slot VSTAs 9-10 s.
MAX_TOTAL_SLOTS = 10_000
#: shortest slot time; ``window_pattern`` rounds window times to 1e-9 ms,
#: a millionth of this
MIN_SLOT_TIME_MS = 1e-3
#: longest period.  Adjacent slots merge, and window patterns round, within
#: ``TIME_TOLERANCE``.  Floats near this bound are 1.2e-10 ms apart; above
#: about 8e6 ms they are more than 1e-9 ms apart and adjacent slots split.
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
    # f_i*T/slot_time == f_i/min_f; the epsilon guards ratios such as
    # 6.499999999999999 that are exact integers in real arithmetic.
    counts = tuple(int(math.floor(f / min_f + TIME_TOLERANCE)) for f in duty.fractions)
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
        # with the count above, these imply every owner is in 1..n_vstas
        for vsta in range(1, plan.n_vstas + 1):
            seen = owners.count(vsta)
            if seen != plan.slot_counts[vsta - 1]:
                raise ValueError(
                    f"VSTA {vsta} must own {plan.slot_counts[vsta - 1]} slots, "
                    f"owner vector gives it {seen}"
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

    @property
    def n_slots(self) -> int:
        return len(self.owners)

    @classmethod
    def from_owners(cls, plan: SlotPlan, owners: Sequence[int]) -> "SlotSchedule":
        """Build a schedule for ``plan`` from an owner-per-slot vector."""
        return cls(plan, tuple(int(o) for o in owners))

    def positions(self, vsta: int) -> tuple[int, ...]:
        """1-based slot positions owned by ``vsta``, ascending."""
        _check_vsta(self, vsta)
        return tuple(j + 1 for j, o in enumerate(self.owners) if o == vsta)

    def rotated(self, k: int) -> "SlotSchedule":
        """Schedule with its owners rotated circularly by ``k`` slots."""
        k %= self.n_slots
        return SlotSchedule(self.plan, self.owners[k:] + self.owners[:k])


def _check_vsta(schedule: SlotSchedule, vsta: int) -> None:
    if not 1 <= vsta <= schedule.n_vstas:
        raise ValueError(
            f"unknown VSTA index {vsta} (schedule has {schedule.n_vstas} VSTAs)"
        )


def build_contiguous_schedule(plan: SlotPlan) -> SlotSchedule:
    """No-policy baseline: each VSTA's slots placed consecutively, in index order."""
    owners: list[int] = []
    for vsta in range(1, plan.n_vstas + 1):
        owners.extend([vsta] * plan.slot_counts[vsta - 1])
    return SlotSchedule.from_owners(plan, owners)


def disconnection_costs(schedule: SlotSchedule, vsta: int) -> list[float]:
    """Summed durations of the slots between consecutive owned positions.

    Entry ``l`` covers the slots strictly between the VSTA's ``l``-th
    and ``(l+1)``-th owned positions; the last entry wraps circularly
    back to the first owned position.
    """
    positions = schedule.positions(vsta)
    if not positions:
        raise ValueError(f"VSTA {vsta} owns no slot")
    g = len(positions)
    n = schedule.n_slots
    costs = []
    for l in range(g):
        here = positions[l] - 1
        nxt = positions[(l + 1) % g] - 1
        total = 0.0
        j = (here + 1) % n
        while j != nxt:
            total += schedule.durations_ms[j]
            j = (j + 1) % n
        costs.append(total)
    return costs


def connected_intervals(schedule: SlotSchedule, vsta: int) -> list[tuple[float, float]]:
    """Sorted, disjoint half-open [start, end) windows of ``vsta`` in one period.

    Adjacent owned slots merge into a single window.
    """
    _check_vsta(schedule, vsta)
    intervals: list[tuple[float, float]] = []
    for j, owner in enumerate(schedule.owners):
        if owner != vsta:
            continue
        start = schedule.start_times_ms[j]
        end = start + schedule.durations_ms[j]
        if intervals and abs(intervals[-1][1] - start) <= TIME_TOLERANCE:
            intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))
    if not intervals:
        raise ValueError(f"VSTA {vsta} owns no slot")
    return intervals


def window_pattern(schedule: SlotSchedule, vsta: int) -> tuple:
    """Each window's (length, gap to the next window) in ms, rounded, from the first window."""
    intervals = connected_intervals(schedule, vsta)
    period = schedule.period_ms
    windows = []
    for i, (start, end) in enumerate(intervals):
        nxt = intervals[(i + 1) % len(intervals)][0]
        gap = nxt - end if i + 1 < len(intervals) else (period + nxt) - end
        windows.append((round(end - start, 9), round(gap, 9)))
    return tuple(windows)


def worst_gap(pattern: tuple) -> float:
    """Largest gap of a ``window_pattern``: the worst disconnection time in ms."""
    return max(gap for _, gap in pattern)


def max_disconnection(schedule: SlotSchedule, vsta: int) -> float:
    """Worst-case off-air time of ``vsta``, read from its window pattern; 0 if it owns every slot."""
    return worst_gap(window_pattern(schedule, vsta))
