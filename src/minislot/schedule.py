"""Slot-plan arithmetic and periodic slot schedules.

A single-radio station shares one wireless period ``T`` between ``N``
virtual stations (VSTAs), one per access point.  Each VSTA ``i`` is
granted a duty cycle ``f_i`` (fractions sum to one) and receives
``g_i`` slots per period.  This module derives the slot plan from a
duty-cycle set, builds concrete schedules (ordered slot-to-VSTA
assignments with wall-clock start times) and computes the circular
disconnection cost of a VSTA, i.e. how long it stays off the air
between two of its consecutive slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: tolerance accepted on a duty-cycle sum before rejecting the input
DUTY_SUM_TOLERANCE = 1e-6
#: tolerance used for exact time comparisons (milliseconds)
TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DutyCycleSet:
    """Per-VSTA fractions of the wireless period.

    Fractions must be positive and sum to one.  Inputs whose sum is
    within ``DUTY_SUM_TOLERANCE`` of one (rounded user configs) are
    renormalized; anything further off is rejected.
    """

    fractions: tuple[float, ...]

    def __init__(self, fractions: Iterable[float]):
        fracs = tuple(float(f) for f in fractions)
        if len(fracs) < 1:
            raise ValueError("duty-cycle set needs at least one VSTA")
        if any(not f > 0.0 for f in fracs):  # NaN is not positive either
            raise ValueError(f"duty cycles must be positive, got {fracs}")
        total = math.fsum(fracs)
        if abs(total - 1.0) > DUTY_SUM_TOLERANCE:
            raise ValueError(
                f"duty cycles must sum to 1 (got {total!r}, "
                f"tolerance {DUTY_SUM_TOLERANCE})"
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
    slot_time_ms: float
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
    if not slot_time_ms > 0.0:
        raise ValueError(f"slot time must be positive, got {slot_time_ms}")
    min_f = min(duty.fractions)
    period = slot_time_ms / min_f
    # f_i*T/slot_time == f_i/min_f; the epsilon guards ratios such as
    # 6.499999999999999 that are exact integers in real arithmetic.
    counts = tuple(int(math.floor(f / min_f + TIME_TOLERANCE)) for f in duty.fractions)
    assert all(g >= 1 for g in counts)
    sizes = tuple(f * period / g for f, g in zip(duty.fractions, counts))
    return SlotPlan(
        period_ms=period,
        slot_time_ms=slot_time_ms,
        slot_counts=counts,
        slot_sizes_ms=sizes,
    )


@dataclass(frozen=True)
class SlotSchedule:
    """An ordered assignment of the period's slots to VSTAs.

    ``owners`` holds 1-based VSTA indices, one per slot position;
    ``start_times_ms[j]`` is the wall-clock offset of slot ``j`` within
    one period.  Start times are cumulative sums of the exact slot
    durations, never rounded intermediates.
    """

    owners: tuple[int, ...]
    durations_ms: tuple[float, ...]
    start_times_ms: tuple[float, ...]
    period_ms: float
    n_vstas: int

    def __post_init__(self):
        if not (len(self.owners) == len(self.durations_ms) == len(self.start_times_ms)):
            raise ValueError("owners, durations and start times must align")
        if min(self.owners) < 1 or max(self.owners) > self.n_vstas:
            raise ValueError("slot owners must be valid 1-based VSTA indices")
        closing = self.start_times_ms[-1] + self.durations_ms[-1]
        if abs(closing - self.period_ms) > 1e-6:
            raise ValueError(
                f"slots must tile the period: last slot closes at {closing}, "
                f"period is {self.period_ms}"
            )

    @property
    def n_slots(self) -> int:
        return len(self.owners)

    @classmethod
    def from_owners(cls, plan: SlotPlan, owners: Sequence[int]) -> "SlotSchedule":
        """Build a schedule for ``plan`` from an owner-per-slot vector."""
        owners = tuple(int(o) for o in owners)
        if len(owners) != plan.total_slots:
            raise ValueError(
                f"expected {plan.total_slots} slot owners, got {len(owners)}"
            )
        for vsta in range(1, plan.n_vstas + 1):
            seen = owners.count(vsta)
            if seen != plan.slot_counts[vsta - 1]:
                raise ValueError(
                    f"VSTA {vsta} must own {plan.slot_counts[vsta - 1]} slots, "
                    f"owner vector gives it {seen}"
                )
        durations = tuple(plan.slot_sizes_ms[o - 1] for o in owners)
        starts = []
        for j in range(len(owners)):
            starts.append(math.fsum(durations[:j]))
        return cls(
            owners=owners,
            durations_ms=durations,
            start_times_ms=tuple(starts),
            period_ms=plan.period_ms,
            n_vstas=plan.n_vstas,
        )

    def positions(self, vsta: int) -> tuple[int, ...]:
        """1-based slot positions owned by ``vsta``, ascending."""
        _check_vsta(self, vsta)
        return tuple(j + 1 for j, o in enumerate(self.owners) if o == vsta)

    def rotated(self, k: int) -> "SlotSchedule":
        """Schedule with owners/durations rotated circularly by ``k`` slots."""
        n = self.n_slots
        k %= n
        owners = self.owners[k:] + self.owners[:k]
        durations = self.durations_ms[k:] + self.durations_ms[:k]
        starts = tuple(math.fsum(durations[:j]) for j in range(n))
        return SlotSchedule(
            owners=owners,
            durations_ms=durations,
            start_times_ms=starts,
            period_ms=self.period_ms,
            n_vstas=self.n_vstas,
        )


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


def max_disconnection(schedule: SlotSchedule, vsta: int) -> float:
    """Worst-case off-air time of ``vsta``; 0 when it owns every slot."""
    return max(disconnection_costs(schedule, vsta))
