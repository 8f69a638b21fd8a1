"""Helpers shared by the test modules."""
import pytest

from minislot.rttmodel import vsta_sum, vsta_throughput


def _aggregate(evaluator, schedule, paths):
    """Sum of the VSTAs' model throughputs in order, as a CSV ``all`` row adds them."""
    return vsta_sum(
        vsta_throughput(path, evaluator.mean_rtt(schedule, vsta, path.delay_ms))
        for vsta, path in enumerate(paths, start=1)
    )


@pytest.fixture
def aggregate():
    """``aggregate(evaluator, schedule, paths)``: a schedule's aggregate throughput."""
    return _aggregate
