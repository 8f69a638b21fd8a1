"""Slot-allocation strategies.

Three ways to place the slots of a plan into the period:

* ``minmax_allocate`` -- serves the VSTAs in descending slot-count
  order; each takes the free positions that minimize its worst index
  gap, exactly at every plan size and with no combination budget (the
  pick runs in polynomial time), ties to the lexicographically smallest
  choice.
* ``blind_allocate`` -- exhaustive search over every feasible owner
  vector, maximizing the sum of inverse worst disconnection times
  (``eq2``) or minimizing the total model-throughput penalty (``eq1``,
  needs per-path delay and loss estimates).
* ``upper_bound_allocate`` -- exhaustive search scored by the
  Monte-Carlo throughput model; unattainable in practice, used as the
  comparison ceiling.

The exhaustive searches score a ``SearchTable``: every feasible owner
vector with each VSTA's window pattern, built once by the caller and
shared across objectives and delays.  Every objective is a sum over
VSTAs of a value that depends on the row only through the VSTA's
pattern, so each search computes one value per (VSTA, pattern) and
gathers them into the rows; the upper bound reads those values from a
sweep's ``ThroughputEvaluator``, which draws once per (VSTA, pattern).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .rttmodel import PathParams, ThroughputEvaluator, vsta_sum, vsta_throughput
from .schedule import SlotPlan, SlotSchedule, max_disconnection, worst_gap

#: most owner vectors an exhaustive search enumerates; the table is built
#: row by row in Python (277,200 rows take about 12 s), so one at this
#: bound already takes most of a minute
MAX_OWNER_VECTORS = 1_000_000


class EnumerationBudgetError(RuntimeError):
    """Feasible-schedule count exceeds the enumeration budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(
            f"{count} feasible schedules exceed the enumeration budget of {budget}"
        )
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class AllocationResult:
    """An allocator's schedule, its score and the work done.

    ``evaluations`` counts the schedules scored: every ``SearchTable``
    row for the exhaustive searches, and 1 for min-max, which scores
    only the schedule it builds.
    """

    schedule: SlotSchedule
    objective_value: float
    evaluations: int


def schedule_count(plan: SlotPlan) -> int:
    """Number of distinct owner vectors: G! / prod(g_i!)."""
    count = math.factorial(plan.total_slots)
    for g in plan.slot_counts:
        count //= math.factorial(g)
    return count


def _multiset_permutations(first: Sequence[int]) -> Iterator[tuple[int, ...]]:
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


class SearchTable:
    """Every feasible owner vector of a plan, with what the searches score.

    Rows are owner vectors in lexicographic order, so a first argmax or
    argmin over a row score keeps the lexicographically smallest
    winner; more than ``MAX_OWNER_VECTORS`` rows raise
    ``EnumerationBudgetError`` before any is built.  The table holds
    numpy arrays, not one ``SlotSchedule`` per row:

    * ``owners[s]`` -- owner vector ``s`` (1-based VSTA per slot);
    * ``pattern[s, v - 1]`` -- id of VSTA ``v``'s window pattern, where
      ``keys[v - 1][id]`` is its ``window_pattern``.
    """

    def __init__(self, plan: SlotPlan):
        count = schedule_count(plan)
        if count > MAX_OWNER_VECTORS:
            raise EnumerationBudgetError(count, MAX_OWNER_VECTORS)
        self.plan = plan
        self.count = count
        n = plan.n_vstas
        self.owners = np.empty((count, plan.total_slots), np.min_scalar_type(n))
        self.pattern = np.empty((count, n), np.int32)
        interned: list[dict[tuple, int]] = [{} for _ in range(n)]
        for s, owners in enumerate(_multiset_permutations(plan.contiguous_owners)):
            self.owners[s] = owners
            self.pattern[s] = [
                ids.setdefault(key, len(ids))
                for ids, key in zip(interned, SlotSchedule(plan, owners).window_patterns)
            ]
        self.keys = [list(ids) for ids in interned]

    def schedule(self, s: int) -> SlotSchedule:
        """The ``SlotSchedule`` of row ``s``."""
        return SlotSchedule.from_owners(self.plan, self.owners[s])


def eq2_objective(schedule: SlotSchedule) -> float:
    """Sum over VSTAs of 1 / worst disconnection time (1/ms).

    Infinite when some VSTA is never disconnected, which only happens
    in the degenerate single-VSTA plan.
    """
    return vsta_sum(
        _eq2_term(max_disconnection(schedule, vsta)) for vsta in range(1, schedule.n_vstas + 1)
    )


def _check_path_count(n_vstas: int, paths: Sequence[PathParams]) -> None:
    if len(paths) != n_vstas:
        raise ValueError(f"expected {n_vstas} paths, got {len(paths)}")


# The per-VSTA terms of the objectives, summed by ``vsta_sum`` both in
# ``eq2_objective`` and in the search over a ``SearchTable``.
def _eq2_term(worst: float) -> float:
    return 1.0 / worst if worst > 0.0 else math.inf


def _eq1_term(path: PathParams, worst: float) -> float:
    """Throughput lost to a worst disconnection; none if there is none."""
    if worst <= 0.0:  # inf - inf would be NaN at delay 0
        return 0.0
    return vsta_throughput(path, path.delay_ms) - vsta_throughput(path, path.delay_ms + worst)


def _evenly_spaced_positions(g: int, total_slots: int) -> list[int]:
    # for g <= G the step G/g is at least 1, so the rounded positions
    # strictly increase within 1..G
    return [round(1 + k * total_slots / g) for k in range(g)]


def minmax_allocate(plan: SlotPlan) -> AllocationResult:
    """Min-max disconnection-time allocation.

    The VSTA with the most slots is placed first on maximally even
    positions; each following VSTA takes, among the still-free
    positions, the choice minimizing its maximum circular index gap,
    exactly at every plan size with no combination budget (ties to the
    lexicographically smallest choice); the last VSTA takes the leftovers.
    """
    total_slots = plan.total_slots
    order = sorted(
        range(1, plan.n_vstas + 1),
        key=lambda v: (-plan.slot_counts[v - 1], v),
    )
    first = order[0]
    owner_of = dict.fromkeys(
        _evenly_spaced_positions(plan.slot_counts[first - 1], total_slots), first
    )
    for vsta in order[1:-1]:
        free = [p for p in range(1, total_slots + 1) if p not in owner_of]
        chosen = _minmax_pick(free, plan.slot_counts[vsta - 1], total_slots)
        owner_of.update(dict.fromkeys(chosen, vsta))
    # the last VSTA takes the leftovers
    owners = [owner_of.get(p, order[-1]) for p in range(1, total_slots + 1)]
    schedule = SlotSchedule.from_owners(plan, owners)
    return AllocationResult(schedule, eq2_objective(schedule), 1)


def _minmax_pick(free: Sequence[int], g: int, total_slots: int) -> list[int]:
    """The ``g`` of the ascending ``free`` positions with the smallest
    largest circular index gap, ties to the lexicographically smallest
    choice.

    Bisects on the largest gap: every ``g`` positions have one of at
    least ``ceil(total_slots / g)`` and at most ``total_slots``.
    """
    lo, hi = -(-total_slots // g), total_slots
    best = _smallest_within(free, g, total_slots, hi)
    while lo < hi:
        mid = (lo + hi) // 2
        chosen = _smallest_within(free, g, total_slots, mid)
        if chosen is None:
            lo = mid + 1
        else:
            best, hi = chosen, mid
    return best  # type: ignore[return-value]


def _smallest_within(free: Sequence[int], g: int, total_slots: int, d: int) -> list[int] | None:
    """The lexicographically smallest ``g`` of the ascending ``free``
    positions with every circular index gap at most ``d``, or None if
    there is none.

    Some choice qualifies iff, from some ``free[i]``, greedy furthest
    jumps of at most ``d`` reach ``free[i] + total_slots - d``, which
    closes the wrap gap, in at most ``g - 1`` more positions: a further
    position never widens a gap, so any free ones pad the choice to
    ``g``.  The smallest such ``free[i]`` starts the smallest choice, for
    padding below it would start a smaller one.  Each following position
    is the first whose jumps still fit into the positions left.  It comes
    no later than the one some completion of the choice so far takes, so
    it keeps both the gap from the previous position and the room to pad.
    """
    m = len(free)
    # reach[j]: index of the furthest free position at most d after free[j]
    reach = [bisect_right(free, f + d) - 1 for f in free]
    for first in range(m):
        if free[first] > d:  # the wrap gap is at least the first position
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
    # need[j]: fewest jumps from free[j] to a position at least end; it
    # only falls as j grows
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


def blind_allocate(
    table: SearchTable,
    objective: str = "eq2",
    paths: Sequence[PathParams] | None = None,
) -> AllocationResult:
    """Exhaustive search over every feasible schedule of ``table``.

    ``objective="eq2"`` maximizes the sum of inverse worst
    disconnection times; ``objective="eq1"`` minimizes the total
    throughput penalty and requires ``paths``.  Enumeration is
    lexicographic, so ties keep the lexicographically smallest owner
    vector.
    """
    if objective == "eq2":
        values = [[_eq2_term(worst_gap(key)) for key in keys] for keys in table.keys]
        return _best_row(table, values, np.argmax)
    if objective != "eq1":
        raise ValueError(f"objective must be 'eq1' or 'eq2', got {objective!r}")
    if paths is None:
        raise ValueError("objective 'eq1' requires per-VSTA path parameters")
    _check_path_count(table.plan.n_vstas, paths)
    values = [
        [_eq1_term(path, worst_gap(key)) for key in keys]
        for keys, path in zip(table.keys, paths)
    ]
    return _best_row(table, values, np.argmin)


def _best_row(
    table: SearchTable, values: Sequence[Sequence[float]], pick: Callable
) -> AllocationResult:
    """The first row ``pick`` (``np.argmax`` or ``np.argmin``) takes by score.

    A row's score is the ``vsta_sum`` of ``values[v - 1][id]``, where
    ``id`` is VSTA ``v``'s pattern in that row.
    """
    scores = vsta_sum(
        np.asarray(by_pattern)[table.pattern[:, v]] for v, by_pattern in enumerate(values)
    )
    best = int(pick(scores))
    return AllocationResult(table.schedule(best), float(scores[best]), table.count)


def upper_bound_allocate(
    table: SearchTable, paths: Sequence[PathParams], evaluator: ThroughputEvaluator
) -> AllocationResult:
    """Best Monte-Carlo aggregate throughput over every feasible schedule of ``table``.

    Each row scores the ``run_scenario`` aggregate bit for bit.  Scored
    by ``evaluator``, whose sampler config fixes the seed, so the
    maximizer is reproducible; ties keep the lexicographically smallest
    owner vector.
    """
    _check_path_count(table.plan.n_vstas, paths)
    values = [
        [vsta_throughput(path, evaluator.pattern_mean(v, key, path.delay_ms)) for key in keys]
        for v, (keys, path) in enumerate(zip(table.keys, paths), start=1)
    ]
    return _best_row(table, values, np.argmax)
