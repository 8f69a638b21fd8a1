"""Helpers shared by the test modules."""
import pytest

from minislot.rttmodel import vsta_sum, vsta_throughput
from minislot.schedule import SlotSchedule, max_disconnection

#: how far apart two slot boundaries may lie and still count as one
#: instant in the reference scan (milliseconds)
TIME_TOLERANCE = 1e-9


def _aggregate(evaluator, schedule, paths):
    """Sum of the VSTAs' model throughputs in order, as a CSV ``all`` row adds them."""
    return vsta_sum(
        vsta_throughput(path, evaluator.mean_rtt(schedule, vsta, path.delay_ms))
        for vsta, path in enumerate(paths, start=1)
    )


def _eq1_penalty(schedule, paths):
    """Brute-force eq1: each VSTA's throughput lost to its worst
    disconnection versus the bare wired path, summed in VSTA order."""
    assert len(paths) == schedule.n_vstas
    losses = []
    for vsta, path in enumerate(paths, start=1):
        worst = max_disconnection(schedule, vsta)
        if worst <= 0.0:  # inf - inf would be NaN at delay 0
            losses.append(0.0)
        else:
            losses.append(
                vsta_throughput(path, path.delay_ms) - vsta_throughput(path, path.delay_ms + worst)
            )
    return vsta_sum(losses)


def _rotated(schedule, k):
    return SlotSchedule(schedule.plan, schedule.owners[k:] + schedule.owners[:k])


def _connected_intervals(schedule, vsta):
    """Reference scan of one VSTA's windows, independent of ``SlotSchedule.window_patterns``.

    Its sorted, disjoint half-open [start, end) windows in one period:
    every slot is visited, and an owned slot that starts within
    ``TIME_TOLERANCE`` of the previous window's end extends it.
    """
    intervals = []
    for owner, start, duration in zip(
        schedule.owners, schedule.start_times_ms, schedule.durations_ms
    ):
        if owner != vsta:
            continue
        end = start + duration
        if intervals and abs(intervals[-1][1] - start) <= TIME_TOLERANCE:
            intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))
    return intervals


def _reference_pattern(intervals, period):
    """``window_pattern`` of the [start, end) ``intervals`` of one period."""
    nexts = [start for start, _ in intervals[1:]] + [period + intervals[0][0]]
    return tuple(
        (round(end - start, 9), round(nxt - end, 9))
        for (start, end), nxt in zip(intervals, nexts)
    )


@pytest.fixture
def aggregate():
    """``aggregate(evaluator, schedule, paths)``: a schedule's aggregate throughput."""
    return _aggregate


@pytest.fixture
def eq1_penalty():
    """``eq1_penalty(schedule, paths)``: the brute-force eq1 reference."""
    return _eq1_penalty


@pytest.fixture(scope="session")
def rotated():
    """``rotated(schedule, k)``: ``schedule`` with its owners rotated left by ``k`` slots."""
    return _rotated


@pytest.fixture(scope="session")
def connected_intervals():
    """``connected_intervals(schedule, vsta)``: the reference scan of one VSTA's windows."""
    return _connected_intervals


@pytest.fixture(scope="session")
def reference_pattern():
    """``reference_pattern(intervals, period)``: the window pattern of [start, end) intervals."""
    return _reference_pattern
