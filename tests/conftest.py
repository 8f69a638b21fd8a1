"""Helpers shared by the test modules."""
import pytest

from minislot.rttmodel import vsta_sum, vsta_throughput
from minislot.schedule import TIME_TOLERANCE, SlotSchedule


def _aggregate(evaluator, schedule, paths):
    """Sum of the VSTAs' model throughputs in order, as a CSV ``all`` row adds them."""
    return vsta_sum(
        vsta_throughput(path, evaluator.mean_rtt(schedule, vsta, path.delay_ms))
        for vsta, path in enumerate(paths, start=1)
    )


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


@pytest.fixture
def aggregate():
    """``aggregate(evaluator, schedule, paths)``: a schedule's aggregate throughput."""
    return _aggregate


@pytest.fixture(scope="session")
def rotated():
    """``rotated(schedule, k)``: ``schedule`` with its owners rotated left by ``k`` slots."""
    return _rotated


@pytest.fixture(scope="session")
def connected_intervals():
    """``connected_intervals(schedule, vsta)``: the reference scan of one VSTA's windows."""
    return _connected_intervals
