"""Slot-plan arithmetic and periodic slot schedules.

A single-radio station shares one wireless period ``T`` between ``N``
virtual stations (VSTAs), one per access point: VSTA ``i`` gets a duty
cycle ``f_i`` of the period in ``g_i`` slots.  This module derives slot
plans, builds schedules (which VSTA owns each slot) and reads what each
VSTA sees of a schedule: its window pattern and its disconnection costs
(how long it stays off the air between two of its consecutive slots).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

#: tolerance accepted on a duty-cycle sum before rejecting the input
DUTY_SUM_TOLERANCE = 1e-6
#: slack added to a ratio before it is floored, so that ratios such as
#: 6.499999999999999 that are integers in real arithmetic floor to them
RATIO_SLACK = 1e-9
#: most slots a plan may have.  Every schedule built scans all its slots,
#: and every VSTA draws its RTTs on its own, so a run's work grows with it.
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

        It is also the nopolicy schedule and the first ``SearchTable`` row.
        Built on first read and kept in the instance ``__dict__``, so it
        takes no part in equality or hashing.
        """
        return tuple(vsta for vsta, g in enumerate(self.slot_counts, start=1) for _ in range(g))

    @cached_property
    def slot_units(self) -> tuple[tuple[int, ...], int]:
        """Each VSTA's slot size as an exact integer count of ``1 / den`` ms, and ``den``.

        ``den`` is the sizes' finest power-of-two step, so a slot's start
        time is its exact integer sum of units divided by ``den``, which
        rounds once.  Built on first read and kept in the instance
        ``__dict__``, so it takes no part in equality or hashing.
        """
        ratios = [size.as_integer_ratio() for size in self.slot_sizes_ms]
        den = max(q for _, q in ratios)
        return tuple(p * (den // q) for p, q in ratios), den

    @cached_property
    def start_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Start time of a slot by the slots of each VSTA before it, as ``SlotSchedule`` has it.

        Returns ``(times, strides)``: a slot after ``c[v]`` slots of each
        VSTA ``v`` starts at ``times[sum(c[v] * strides[v])]``, the exact
        integer sum of their units divided by ``den`` (``slot_units``);
        ``strides[0]`` is 0, so an owner vector indexes ``strides``.  The
        sums are Python integers, for they can pass 2**63, one per count
        vector, not one per slot.  Built on first read and kept in the
        instance ``__dict__``, so it takes no part in equality or hashing.
        """
        units, den = self.slot_units
        sums = [0]
        for u, g in zip(units, self.slot_counts):
            sums = [s + c * u for s in sums for c in range(g + 1)]
        strides = np.cumprod([1, *(g + 1 for g in self.slot_counts[:0:-1])])[::-1]
        return np.array([s / den for s in sums]), np.append(0, strides)


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

    ``owners`` holds 1-based VSTA indices, one per slot position; sorted,
    they must be the plan's ``contiguous_owners``.  Everything else is
    derived from the plan and the owners, so an inconsistent schedule
    cannot be built, and schedules with equal plans and owners are equal.
    Each slot lasts its owner's slot size, and ``start_times_ms[j]`` is the
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
        units, den = plan.slot_units
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
        """Every VSTA's ``window_pattern``, by VSTA index: ``row_windows`` of this one row.

        Built on first read and kept in the instance ``__dict__``, so it
        takes no part in equality or hashing.
        """
        windows, at, values = row_windows(
            self.plan, np.array([self.owners]), np.array([self.start_times_ms])
        )
        rounded = [values[i] for i in at.tolist()]
        w = len(rounded) // 2
        pairs = list(zip(rounded[:w], rounded[w:]))
        ends = np.cumsum(windows).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0, *ends], ends))


def row_windows(
    plan: SlotPlan, owners: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The windows of the owner vectors ``owners``, one per row, whose
    slots start at ``times`` (of ``owners``' shape).

    Returns ``(windows, at, values)``.  ``windows`` holds each (row, VSTA)'s
    window count, by row and then by VSTA; every VSTA has a window in
    every row.  The ``w`` windows come in that order, each VSTA's in time
    order, and window ``i`` has length ``values[at[i]]`` and gap to the
    next window ``values[at[w + i]]``.

    A window is a run of one VSTA's consecutive slots, in one period from
    time 0: it opens where the previous slot has another owner and closes
    before the next such slot, with no time tolerance, and it never runs
    on from the last slot into the first.  It lasts from its first slot's
    start to its last slot's start plus the slot size; the last window's
    next start is the period plus the first window's start, so a VSTA
    that owns the first and the last slot gets a last gap of exactly 0
    (see ``MAX_PERIOD_MS``).  Python's ``round(x, 9)`` is applied once to
    each distinct difference.
    """
    n = plan.n_vstas
    opens = np.ones(owners.shape, bool)
    opens[:, 1:] = owners[:, 1:] != owners[:, :-1]
    closes = np.ones(owners.shape, bool)
    closes[:, :-1] = opens[:, 1:]
    row, first = np.nonzero(opens)
    last = np.nonzero(closes)[1]
    group = row * n + (owners[row, first] - 1)
    order = np.argsort(group, kind="stable")
    row, first, last, group = row[order], first[order], last[order], group[order]
    start = times[row, first]
    end = times[row, last] + np.array(plan.slot_sizes_ms)[group % n]
    windows = np.bincount(group)
    ends = np.cumsum(windows)
    nxt = np.empty_like(start)
    nxt[:-1] = start[1:]
    nxt[ends - 1] = plan.period_ms + start[ends - windows]
    values, at = np.unique(np.concatenate([end - start, nxt - end]), return_inverse=True)
    return windows, at, [round(x, 9) for x in values.tolist()]


def build_contiguous_schedule(plan: SlotPlan) -> SlotSchedule:
    """No-policy baseline: each VSTA's slots placed consecutively, in index order."""
    return SlotSchedule.from_owners(plan, plan.contiguous_owners)


def window_pattern(schedule: SlotSchedule, vsta: int) -> tuple:
    """Each window's (length, gap to the next window) in ms, rounded to 1e-9 ms, from the first."""
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
    """Largest gap of a ``window_pattern``, with its rounding: the worst disconnection in ms."""
    return max(gap for _, gap in pattern)


def max_disconnection(schedule: SlotSchedule, vsta: int) -> float:
    """Worst-case off-air time of ``vsta``, read from its window pattern; 0 if it owns every slot."""
    return worst_gap(window_pattern(schedule, vsta))
