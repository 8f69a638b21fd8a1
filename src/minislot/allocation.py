"""Slot-allocation strategies: min-max spreading (``minmax_allocate``),
the blind exhaustive searches (``blind_allocate``) and the Monte-Carlo
upper bound (``upper_bound_allocate``).

The exhaustive searches score a ``SearchTable``, which the caller builds
once and shares across objectives and delays.  Every objective is a sum
over VSTAs of a value that depends on the row only through the VSTA's
window pattern, so each search computes one value per (VSTA, pattern)
and gathers them into the rows (``_best_row``).
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rttmodel import PathParams, ThroughputEvaluator, vsta_sum, vsta_throughput
from .schedule import SlotPlan, SlotSchedule, max_disconnection, pattern_ids, worst_gap

#: most owner vectors an exhaustive search enumerates; ten duty cycles of
#: 0.1 give 10! = 3,628,800.  ``benchmarks/search_table.py`` (2-core Xeon,
#: Python 3.11.7, numpy 2.4.6) builds the 277,200 rows of duties 3:3:2:2:1
#: in 0.94 s at 38.9 MiB peak RSS and the 831,600 of 4:3:2:2:1 in 3.12 s at
#: 56.5 MiB; built row by row in Python they took 7.62 s at 37.1 MiB and
#: 21.64 s at 54.4 MiB.
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


#: entries in one working array of the ``SearchTable`` build: it builds
#: owner vectors ``_BLOCK // n_vstas`` rows and reads window patterns
#: ``_BLOCK // total_slots`` rows at a time, so its working memory stays
#: a few MiB whatever the table's size
_BLOCK = 1 << 12


class SearchTable:
    """Every feasible owner vector of a plan, with what the searches score.

    Rows are owner vectors in lexicographic order, so a first argmax or
    argmin over a row score keeps the lexicographically smallest
    winner; more than ``MAX_OWNER_VECTORS`` rows raise
    ``EnumerationBudgetError`` before any is built.  The table holds
    numpy arrays, not one ``SlotSchedule`` per row:

    * ``owners[s]`` -- owner vector ``s`` (1-based VSTA per slot);
    * ``pattern[s, v - 1]`` -- id of VSTA ``v``'s window pattern, where
      ``keys[v - 1][id]`` is its ``window_pattern``.  Ids are numbered
      in the order the rows first show the patterns;
    * ``gaps[v - 1][id]`` -- the ``worst_gap`` of ``keys[v - 1][id]``,
      which both blind objectives read at every delay.
    """

    def __init__(self, plan: SlotPlan):
        count = schedule_count(plan)
        if count > MAX_OWNER_VECTORS:
            raise EnumerationBudgetError(count, MAX_OWNER_VECTORS)
        self.plan = plan
        self.count = count
        self.owners = _owner_vectors(plan, count)
        self.pattern = np.empty((count, plan.n_vstas), np.int32)
        interned: list[dict[tuple, int]] = [{} for _ in range(plan.n_vstas)]
        rows = max(1, _BLOCK // plan.total_slots)
        for s in range(0, count, rows):
            self.pattern[s:s + rows] = pattern_ids(plan, self.owners[s:s + rows], interned)
        self.keys = [list(ids) for ids in interned]
        self.gaps = [[worst_gap(key) for key in keys] for keys in self.keys]

    def schedule(self, s: int) -> SlotSchedule:
        """The ``SlotSchedule`` of row ``s``, with the row's patterns as its ``window_patterns``."""
        schedule = SlotSchedule.from_owners(self.plan, self.owners[s])
        vars(schedule)["window_patterns"] = tuple(
            keys[i] for keys, i in zip(self.keys, self.pattern[s].tolist())
        )
        return schedule


def _owner_vectors(plan: SlotPlan, count: int) -> np.ndarray:
    """The plan's ``count`` owner vectors, one per row, in lexicographic order.

    Built slot by slot: the rows that share a prefix are one run, and
    at the next slot it splits into one run per VSTA with slots left, in
    VSTA order.  A prefix with ``left[v]`` slots of each VSTA ``v`` left
    and ``m`` rows gives VSTA ``v``'s run ``m * left[v] / sum(left)``
    rows, exactly, as the multinomial counts do.  The prefixes are
    followed for ``_BLOCK // n_vstas`` rows at a time.
    """
    n, total = plan.n_vstas, plan.total_slots
    owners = np.empty((count, total), np.min_scalar_type(n))
    vstas = np.arange(1, n + 1, dtype=owners.dtype)
    step = max(1, _BLOCK // n)
    for a in range(0, count, step):
        b = min(a + step, count)
        # each prefix that reaches rows a..b-1: its first row, its row
        # count and its slots left per VSTA
        first = np.zeros(1, np.int64)
        size = np.array([count], np.int64)
        left = np.array([plan.slot_counts], np.int64)
        for j in range(total):
            runs = size[:, None] * left // (total - j)
            lo = (first[:, None] + np.cumsum(runs, axis=1) - runs).ravel()
            runs = runs.ravel()
            span = np.clip(lo + runs, a, b) - np.clip(lo, a, b)
            kept = np.flatnonzero(span)
            prefix, owner = np.divmod(kept, n)
            owners[a:b, j] = np.repeat(vstas[owner], span[kept])
            first, size, left = lo[kept], runs[kept], left[prefix]
            left[np.arange(len(kept)), owner] -= 1
    return owners


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
    exactly at every plan size, in polynomial time with no combination
    budget (ties to the lexicographically smallest choice); the last
    VSTA takes the leftovers.
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
    free = [p for p in range(1, total_slots + 1) if p not in owner_of]
    for vsta in order[1:-1]:
        chosen = _minmax_pick(free, plan.slot_counts[vsta - 1], total_slots)
        owner_of.update(dict.fromkeys(chosen, vsta))
        for p in chosen:
            del free[bisect_left(free, p)]
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

    def reach(j: int) -> int:
        """Index of the furthest free position at most ``d`` after ``free[j]``."""
        return bisect_right(free, free[j] + d, j) - 1

    for first in range(m):
        if free[first] > d:  # the wrap gap is at least the first position
            return None
        end = free[first] + total_slots - d
        j = first
        for _ in range(g - 1):
            furthest = reach(j)
            if free[j] >= end or furthest == j:
                break
            j = furthest
        if free[j] >= end:
            break
    else:
        return None
    # need[j]: fewest jumps from free[j] to a position at least end; it
    # only falls as j grows.  Only the positions the choice scans and
    # their jumps are visited.
    need: dict[int, int] = {}

    def need_of(j: int) -> int:
        path = []  # the jumps from j to a position whose need is known
        while j not in need:
            furthest = reach(j)
            if free[j] >= end:
                need[j] = 0
            elif furthest == j:
                need[j] = m
            else:
                path.append(j)
                j = furthest
        for i in reversed(path):
            need[i] = 1 + need[j]
            j = i
        return need[j]

    chosen = [first]
    for k in range(2, g + 1):
        j = chosen[-1] + 1
        while k + need_of(j) > g:
            j += 1
        chosen.append(j)
    return [free[j] for j in chosen]


def blind_allocate(
    table: SearchTable,
    objective: str,
    paths: Sequence[PathParams] | None = None,
) -> AllocationResult:
    """Exhaustive search over every feasible schedule of ``table``.

    ``objective`` names the score: ``"eq2"`` maximizes the sum of
    inverse worst disconnection times, and ``"eq1"`` minimizes the total
    throughput penalty and requires ``paths``.  Ties keep the first row
    in ``SearchTable`` order.
    """
    if objective == "eq2":
        values = [[_eq2_term(gap) for gap in gaps] for gaps in table.gaps]
        return _best_row(table, values, np.argmax)
    if objective != "eq1":
        raise ValueError(f"objective must be 'eq1' or 'eq2', got {objective!r}")
    if paths is None:
        raise ValueError("objective 'eq1' requires per-VSTA path parameters")
    _check_path_count(table.plan.n_vstas, paths)
    values = [[_eq1_term(path, gap) for gap in gaps] for gaps, path in zip(table.gaps, paths)]
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

    Unattainable in practice, as it needs the sampled RTTs; it is the
    comparison ceiling.  Each row scores the ``run_scenario`` aggregate
    bit for bit.  Scored by ``evaluator``, whose sampler config fixes the
    seed, so the maximizer is reproducible; ties keep the first row in
    ``SearchTable`` order.
    """
    _check_path_count(table.plan.n_vstas, paths)
    values = [
        [vsta_throughput(path, evaluator.pattern_mean(v, key, path.delay_ms)) for key in keys]
        for v, (keys, path) in enumerate(zip(table.keys, paths), start=1)
    ]
    return _best_row(table, values, np.argmax)
