"""Slot-allocation strategies.

Three ways to place the slots of a plan into the period:

* ``minmax_allocate`` -- cheap heuristic that spreads each VSTA's
  slots to minimize its worst index gap, serving VSTAs in descending
  slot-count order.
* ``blind_allocate`` -- exhaustive search over every feasible owner
  vector, maximizing the sum of inverse worst disconnection times
  (``eq2``) or minimizing the total model-throughput penalty (``eq1``,
  needs per-path delay and loss estimates).
* ``upper_bound_allocate`` -- exhaustive search scored by the
  Monte-Carlo throughput model; unattainable in practice, used as the
  comparison ceiling.  ``upper_bound_sweep`` runs it for a whole delay
  sweep at once.

The exhaustive searches score a ``SearchTable``: every feasible owner
vector with its per-VSTA worst disconnection and RTT pattern, built once
and shared across objectives and delays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .rttmodel import (
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
    _pattern_key,
    mathis_throughput,
    vsta_throughput,
)
from .schedule import SlotPlan, SlotSchedule, max_disconnection

DEFAULT_MAX_SCHEDULES = 1_000_000
DEFAULT_COMBINATION_BUDGET = 1_000_000


class EnumerationBudgetError(RuntimeError):
    """Feasible-schedule count exceeds the configured enumeration budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(
            f"{count} feasible schedules exceed the enumeration budget of {budget}"
        )
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class AllocationResult:
    schedule: SlotSchedule
    per_vsta_max_disconnection: tuple[float, ...]
    objective_value: float
    evaluations: int


def schedule_count(plan: SlotPlan) -> int:
    """Number of distinct owner vectors: G! / prod(g_i!)."""
    count = math.factorial(plan.total_slots)
    for g in plan.slot_counts:
        count //= math.factorial(g)
    return count


def _multiset_permutations(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All owner vectors in ascending lexicographic order."""
    arr: list[int] = []
    for vsta, g in enumerate(counts, start=1):
        arr.extend([vsta] * g)
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


def enumerate_schedules(
    plan: SlotPlan, max_schedules: int = DEFAULT_MAX_SCHEDULES
) -> tuple[Iterator[SlotSchedule], int]:
    """Stream of every feasible schedule, plus the total count.

    Rotations of the same cyclic arrangement are enumerated as
    distinct owner vectors.
    """
    count = schedule_count(plan)
    if count > max_schedules:
        raise EnumerationBudgetError(count, max_schedules)

    def gen() -> Iterator[SlotSchedule]:
        for owners in _multiset_permutations(plan.slot_counts):
            yield SlotSchedule.from_owners(plan, owners)

    return gen(), count


class SearchTable:
    """Every feasible owner vector of a plan, with what the searches score.

    Rows are owner vectors in lexicographic order, so a first argmax or
    argmin over a row score keeps the lexicographically smallest
    winner.  The table holds numpy arrays, not one ``SlotSchedule`` per
    row:

    * ``owners[s]`` -- owner vector ``s`` (1-based VSTA per slot);
    * ``worst[s, v - 1]`` -- ``max_disconnection`` of VSTA ``v``;
    * ``pattern[s, v - 1]`` -- id of VSTA ``v``'s window pattern, where
      ``keys[v - 1][id]`` is its ``_pattern_key`` and ``reps[v - 1][id]``
      the first row that has it.
    """

    def __init__(self, plan: SlotPlan, max_schedules: int = DEFAULT_MAX_SCHEDULES):
        schedules, count = enumerate_schedules(plan, max_schedules)
        self.plan = plan
        self.count = count
        n = plan.n_vstas
        self.owners = np.empty((count, plan.total_slots), np.min_scalar_type(n))
        self.worst = np.empty((count, n))
        self.pattern = np.empty((count, n), np.int32)
        interned: list[dict[tuple, int]] = [{} for _ in range(n)]
        for s, schedule in enumerate(schedules):
            self.owners[s] = schedule.owners
            for v, ids in enumerate(interned, start=1):
                self.worst[s, v - 1] = max_disconnection(schedule, v)
                self.pattern[s, v - 1] = ids.setdefault(_pattern_key(schedule, v), len(ids))
        self.keys = [list(ids) for ids in interned]
        self.reps = [
            np.unique(self.pattern[:, v], return_index=True)[1] for v in range(n)
        ]

    def schedule(self, s: int) -> SlotSchedule:
        """The ``SlotSchedule`` of row ``s``."""
        return SlotSchedule.from_owners(self.plan, self.owners[s])


def eq2_objective(schedule: SlotSchedule) -> float:
    """Sum over VSTAs of 1 / worst disconnection time (1/ms).

    Infinite when some VSTA is never disconnected, which only happens
    in the degenerate single-VSTA plan.
    """
    total = 0.0
    for vsta in range(1, schedule.n_vstas + 1):
        worst = max_disconnection(schedule, vsta)
        if worst <= 0.0:
            return math.inf
        total += 1.0 / worst
    return total


def eq1_penalty(schedule: SlotSchedule, paths: Sequence[PathParams]) -> float:
    """Total throughput lost to disconnections versus the bare wired paths."""
    penalty = 0.0
    for vsta, path in enumerate(paths, start=1):
        worst = max_disconnection(schedule, vsta)
        if worst <= 0.0:
            continue
        if path.delay_ms <= 0.0:
            return math.inf
        ideal = mathis_throughput(path.mss_bytes, path.delay_ms, path.loss_rate)
        degraded = mathis_throughput(
            path.mss_bytes, path.delay_ms + worst, path.loss_rate
        )
        penalty += ideal - degraded
    return penalty


def _circular_index_gaps(positions: Sequence[int], total_slots: int) -> list[int]:
    pos = sorted(positions)
    if len(pos) == 1:
        return [total_slots]
    gaps = [pos[i + 1] - pos[i] for i in range(len(pos) - 1)]
    gaps.append(pos[0] + total_slots - pos[-1])
    return gaps


def _evenly_spaced_positions(g: int, total_slots: int) -> list[int]:
    positions: list[int] = []
    for k in range(1, g + 1):
        p = round(1 + (k - 1) * total_slots / g)
        if p not in positions:
            positions.append(p)
    # rounding collisions are only possible for pathological g/G ratios;
    # top up with the smallest unused positions to keep exactly g slots
    fill = 1
    while len(positions) < g:
        if fill not in positions:
            positions.append(fill)
        fill += 1
    return sorted(positions)


def minmax_allocate(
    plan: SlotPlan, combination_budget: int = DEFAULT_COMBINATION_BUDGET
) -> AllocationResult:
    """Min-max disconnection-time heuristic.

    The VSTA with the most slots is placed first on maximally even
    positions; each following VSTA picks, among the still-free
    positions, the combination minimizing its maximum circular index
    gap (ties to the lexicographically smallest choice); the last VSTA
    takes the leftovers.
    """
    total_slots = plan.total_slots
    order = sorted(
        range(1, plan.n_vstas + 1),
        key=lambda v: (-plan.slot_counts[v - 1], v),
    )
    owner_of: dict[int, int] = {}
    free = list(range(1, total_slots + 1))
    evaluations = 0

    first = order[0]
    chosen = _evenly_spaced_positions(plan.slot_counts[first - 1], total_slots)
    evaluations += 1
    for p in chosen:
        owner_of[p] = first
        free.remove(p)

    for vsta in order[1:-1]:
        g = plan.slot_counts[vsta - 1]
        n_combos = math.comb(len(free), g)
        if n_combos <= combination_budget:
            best: tuple[int, ...] | None = None
            best_gap = None
            for combo in combinations(free, g):
                evaluations += 1
                gap = max(_circular_index_gaps(combo, total_slots))
                if best_gap is None or gap < best_gap:
                    best, best_gap = combo, gap
            chosen = list(best)  # type: ignore[arg-type]
        else:
            chosen = _greedy_even_pick(free, g, total_slots)
            evaluations += len(free)
        for p in chosen:
            owner_of[p] = vsta
            free.remove(p)

    if len(order) > 1:
        last = order[-1]
        evaluations += 1
        for p in free:
            owner_of[p] = last

    owners = [owner_of[p] for p in range(1, total_slots + 1)]
    schedule = SlotSchedule.from_owners(plan, owners)
    return _result(schedule, eq2_objective(schedule), evaluations)


def _greedy_even_pick(free: Sequence[int], g: int, total_slots: int) -> list[int]:
    """Budget fallback: nearest free position to each ideal even target."""
    remaining = list(free)
    anchor = remaining[0]
    chosen: list[int] = []
    for k in range(g):
        target = anchor + k * total_slots / g

        def circ_dist(p: int) -> float:
            d = abs(p - target) % total_slots
            return min(d, total_slots - d)
        pick = min(remaining, key=circ_dist)
        chosen.append(pick)
        remaining.remove(pick)
    return sorted(chosen)


def blind_allocate(
    plan: SlotPlan,
    objective: str = "eq2",
    paths: Sequence[PathParams] | None = None,
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
) -> AllocationResult:
    """Exhaustive search over every feasible schedule.

    ``objective="eq2"`` maximizes the sum of inverse worst
    disconnection times; ``objective="eq1"`` minimizes the total
    throughput penalty and requires ``paths``.  Enumeration is
    lexicographic, so ties keep the lexicographically smallest owner
    vector.
    """
    if objective not in ("eq1", "eq2"):
        raise ValueError(f"objective must be 'eq1' or 'eq2', got {objective!r}")
    if objective == "eq1":
        if paths is None:
            raise ValueError("objective 'eq1' requires per-VSTA path parameters")
        if len(paths) != plan.n_vstas:
            raise ValueError(f"expected {plan.n_vstas} paths, got {len(paths)}")
    return _blind_search(SearchTable(plan, max_schedules), objective, paths)


def _blind_search(
    table: SearchTable, objective: str, paths: Sequence[PathParams] | None
) -> AllocationResult:
    """``blind_allocate`` over a prebuilt table, with arguments already checked."""
    if objective == "eq2":
        scores = _eq2_scores(table)
        best = int(np.argmax(scores))
    else:
        scores = _eq1_penalties(table, paths)  # type: ignore[arg-type]
        best = int(np.argmin(scores))
    return _result(table.schedule(best), float(scores[best]), table.count)


def _eq2_scores(table: SearchTable) -> np.ndarray:
    """``eq2_objective`` of every row, summed over VSTAs in order."""
    scores = np.zeros(table.count)
    for worst in table.worst.T:
        inverse = np.full(table.count, math.inf)
        np.divide(1.0, worst, out=inverse, where=worst > 0.0)
        scores += inverse
    return scores


def _eq1_penalties(table: SearchTable, paths: Sequence[PathParams]) -> np.ndarray:
    """``eq1_penalty`` of every row, summed over VSTAs in order."""
    penalties = np.zeros(table.count)
    for worst, path in zip(table.worst.T, paths):
        if path.delay_ms <= 0.0:
            terms = np.full(table.count, math.inf)
        else:
            levels, which = np.unique(worst, return_inverse=True)
            ideal = mathis_throughput(path.mss_bytes, path.delay_ms, path.loss_rate)
            terms = np.array([
                ideal - mathis_throughput(path.mss_bytes, path.delay_ms + w, path.loss_rate)
                for w in levels.tolist()
            ])[which]
        # a VSTA that is never disconnected adds no penalty
        penalties = np.where(worst > 0.0, penalties + terms, penalties)
    return penalties


def _result(schedule: SlotSchedule, objective_value: float, evaluations: int) -> AllocationResult:
    return AllocationResult(
        schedule=schedule,
        per_vsta_max_disconnection=tuple(
            max_disconnection(schedule, v) for v in range(1, schedule.n_vstas + 1)
        ),
        objective_value=objective_value,
        evaluations=evaluations,
    )


def upper_bound_allocate(
    plan: SlotPlan,
    paths: Sequence[PathParams],
    cfg: RttSamplerConfig,
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
    evaluator: ThroughputEvaluator | None = None,
) -> AllocationResult:
    """Best Monte-Carlo aggregate throughput over all feasible schedules.

    Scored with a fixed seed so the maximizer is reproducible; ties
    keep the lexicographically smallest owner vector.  Pass a shared
    ``evaluator`` to reuse RTT statistics across repeated calls; for a
    whole delay sweep, ``upper_bound_sweep`` is cheaper.
    """
    (result,) = upper_bound_sweep(plan, [paths], cfg, max_schedules, evaluator)
    return result


def upper_bound_sweep(
    plan: SlotPlan,
    paths_by_delay: Sequence[Sequence[PathParams]],
    cfg: RttSamplerConfig,
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
    evaluator: ThroughputEvaluator | None = None,
) -> list[AllocationResult]:
    """``upper_bound_allocate`` for each entry of ``paths_by_delay``.

    Each schedule scores ``evaluator.aggregate``, bit for bit and with
    the evaluator's cache filled in the same order as one
    ``upper_bound_allocate`` call per entry would: at each delay, the
    rows in lexicographic order and each row's VSTAs in order, up to
    the first VSTA with a zero mean RTT (whose infinite throughput ends
    the sum).  The work is shared: each VSTA is sampled once per RTT
    pattern, on the pattern's first row, with one draw of send times for
    every delay the cache does not already answer.
    """
    for paths in paths_by_delay:
        if len(paths) != plan.n_vstas:
            raise ValueError(f"expected {plan.n_vstas} paths, got {len(paths)}")
    if evaluator is None:
        evaluator = ThroughputEvaluator(cfg)
    return _upper_bound_search(SearchTable(plan, max_schedules), paths_by_delay, evaluator)


def _upper_bound_search(
    table: SearchTable,
    paths_by_delay: Sequence[Sequence[PathParams]],
    evaluator: ThroughputEvaluator,
) -> list[AllocationResult]:
    """``upper_bound_sweep`` over a prebuilt table, with paths already checked."""
    plan = table.plan
    # sampled[v - 1][id, k]: mean RTT of pattern id on its first row at
    # delay k, NaN where the cache already held the entry
    sampled = []
    for v in range(1, plan.n_vstas + 1):
        delays = [paths[v - 1].delay_ms for paths in paths_by_delay]
        means = np.full((len(table.keys[v - 1]), len(delays)), np.nan)
        for pid, key in enumerate(table.keys[v - 1]):
            todo = [k for k, d in enumerate(delays) if evaluator.lookup(v, d, key) is None]
            if todo:
                rep = table.schedule(int(table.reps[v - 1][pid]))
                means[pid, todo] = evaluator.sampled_means(rep, v, [delays[k] for k in todo])
        sampled.append(means)

    results = []
    for k, paths in enumerate(paths_by_delay):
        scores = np.zeros(table.count)
        live = np.ones(table.count, bool)  # rows whose sum is still finite
        for v, path in enumerate(paths, start=1):
            ids = table.pattern[:, v - 1]
            rows = np.flatnonzero(live)
            needed, at = np.unique(ids[rows], return_index=True)
            means = np.full(len(table.keys[v - 1]), np.nan)
            throughputs = np.zeros(len(means))
            for pid, first in zip(needed.tolist(), rows[at].tolist()):
                key = table.keys[v - 1][pid]
                mean = evaluator.lookup(v, path.delay_ms, key)
                if mean is None and first == table.reps[v - 1][pid]:
                    mean = float(sampled[v - 1][pid, k])
                    evaluator.remember(v, path.delay_ms, key, mean)
                elif mean is None:
                    # the pattern's first row stopped at an earlier VSTA
                    mean = evaluator.mean_rtt(table.schedule(first), v, path.delay_ms)
                means[pid] = mean
                throughputs[pid] = vsta_throughput(path, mean)
            scores += throughputs[ids]
            live &= (means > 0.0)[ids]
        best = int(np.argmax(scores))
        results.append(_result(table.schedule(best), float(scores[best]), table.count))
    return results
