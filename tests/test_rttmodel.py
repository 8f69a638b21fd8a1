import math
from dataclasses import replace

import numpy as np
import pytest

from minislot import rttmodel
from minislot._kernels import rtt_samples
from minislot.allocation import minmax_allocate
from minislot.rttmodel import (
    PathParams,
    RttSamplerConfig,
    ThroughputEvaluator,
    sample_rtts,
    sweep_rtt_samples,
    vsta_seed,
    vsta_throughput,
)
from minislot.schedule import (
    DutyCycleSet,
    SlotSchedule,
    build_contiguous_schedule,
    derive_slot_plan,
    max_disconnection,
    window_pattern,
)


@pytest.fixture
def half_duty_schedule():
    """Two VSTAs at 50% duty, T = 100 ms: windows [0, 50) and [50, 100)."""
    plan = derive_slot_plan(DutyCycleSet([0.5, 0.5]), 50.0)
    return build_contiguous_schedule(plan)


@pytest.fixture
def case2_contiguous():
    plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
    return build_contiguous_schedule(plan)


def rtt_for_send_time(intervals, period, send_ms, delay_ms):
    """Scalar reference for ``rtt_samples``: the RTT of one send at ``send_ms``.

    The ack lands ``delay_ms`` after the send; if the VSTA is disconnected
    at that instant the ack waits in the AP buffer until the next of its
    [start, end) ``intervals`` opens (periodic extension).
    """
    assert any(s <= send_ms % period < e for s, e in intervals), "send while disconnected"
    phase = (send_ms + delay_ms) % period
    return delay_ms + _wait_until_connected(intervals, phase, period)


def _wait_until_connected(intervals, phase, period):
    for start, end in intervals:
        if start <= phase:
            if phase < end:
                return 0.0
        else:
            return start - phase
    return (period + intervals[0][0]) - phase


def kernel_rtt(schedule, vsta, send_ms, delay_ms):
    """``rtt_samples`` at the single send time ``send_ms``, on ``vsta``'s
    windows laid out from its pattern with the first at time 0, as
    ``sweep_rtt_samples`` lays them out."""
    bounds = np.concatenate(([0.0], np.cumsum(window_pattern(schedule, vsta))))
    starts, ends = bounds[:-1:2], bounds[1::2]
    (rtt,) = rtt_samples(starts, ends, np.array([send_ms]), delay_ms, schedule.period_ms)
    return float(rtt)


class TestConnectedIntervals:
    """The windows a schedule gives one VSTA, as its window pattern reports them."""

    def test_adjacent_slots_merge(self, case2_contiguous):
        # [0, 50) and [62.5, 100): one window each
        assert window_pattern(case2_contiguous, 1) == ((50.0, 50.0),)
        assert window_pattern(case2_contiguous, 3) == ((37.5, 62.5),)

    def test_scattered_slots_stay_separate(self):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
        sched = SlotSchedule.from_owners(plan, (1, 3, 1, 3, 1, 3, 1, 2))
        # [0, 12.5), [25, 37.5), [50, 62.5), [75, 87.5)
        assert window_pattern(sched, 1) == ((12.5, 12.5),) * 4

    def test_total_connected_time(self, case2_contiguous):
        for vsta, f in ((1, 0.5), (2, 0.125), (3, 0.375)):
            total = sum(length for length, _ in window_pattern(case2_contiguous, vsta))
            assert total == pytest.approx(f * 100.0, abs=1e-9)


class TestRttForSendTime:
    """The kernel's RTT at single send times of VSTA 1's window [0, 50) of a 100 ms period."""

    def test_ack_lands_connected(self, half_duty_schedule):
        # send at 10 ms, ack back 30 ms later at 40 ms: still connected
        assert kernel_rtt(half_duty_schedule, 1, 10.0, 30.0) == 30.0

    def test_ack_waits_for_next_window(self, half_duty_schedule):
        # ack lands at 60 ms during the other VSTA's half; it waits in
        # the AP buffer until the window restarts at 100 ms
        assert kernel_rtt(half_duty_schedule, 1, 10.0, 50.0) == pytest.approx(90.0)

    def test_delay_of_full_period(self, half_duty_schedule):
        assert kernel_rtt(half_duty_schedule, 1, 10.0, 100.0) == pytest.approx(100.0)

    def test_window_end_is_exclusive(self, half_duty_schedule):
        # ack at exactly 50 ms is already disconnected
        assert kernel_rtt(half_duty_schedule, 1, 0.0, 50.0) == pytest.approx(100.0)

    def test_periodic_extension_of_send_time(self, half_duty_schedule):
        base = kernel_rtt(half_duty_schedule, 1, 10.0, 37.0)
        shifted = kernel_rtt(half_duty_schedule, 1, 10.0 + 300.0, 37.0)
        assert shifted == base

    def test_bounds(self, half_duty_schedule):
        worst = max_disconnection(half_duty_schedule, 1)
        for send in np.linspace(0.0, 49.9, 23):
            for delay in (0.0, 13.0, 50.0, 77.0, 212.0):
                rtt = kernel_rtt(half_duty_schedule, 1, float(send), delay)
                assert delay <= rtt <= delay + worst + 1e-9


class TestSampleRtts:
    CFG = RttSamplerConfig(n_samples=4000, seed=7)

    def test_deterministic_per_seed(self, half_duty_schedule):
        key = window_pattern(half_duty_schedule, 1)
        a = sample_rtts(key, (50.0,), self.CFG)
        b = sample_rtts(key, (50.0,), self.CFG)
        assert a == b

    def test_seed_changes_samples(self, half_duty_schedule):
        key = window_pattern(half_duty_schedule, 1)
        a = sample_rtts(key, (50.0,), self.CFG)
        c = sample_rtts(key, (50.0,), replace(self.CFG, seed=8))
        assert a.means_ms != c.means_ms

    def test_bounds(self, half_duty_schedule):
        worst = max_disconnection(half_duty_schedule, 1)
        key = window_pattern(half_duty_schedule, 1)
        delays = (0.0, 25.0, 50.0, 130.0)
        stats = sample_rtts(key, delays, self.CFG)
        assert stats.n == self.CFG.n_samples
        assert len(stats.means_ms) == len(delays)
        samples = sweep_rtt_samples(key, delays, self.CFG)
        for delay, rtts, mean in zip(delays, samples, stats.means_ms):
            assert rtts.min() >= delay
            assert rtts.max() <= delay + worst + 1e-9
            assert mean == float(rtts.mean())

    def test_delay_multiple_of_period_is_exact(self, half_duty_schedule):
        # the ack phase equals the send phase, so every sample is connected
        key = window_pattern(half_duty_schedule, 1)
        assert sample_rtts(key, (100.0,), self.CFG).means_ms == (100.0,)
        (rtts,) = sweep_rtt_samples(key, (100.0,), self.CFG)
        assert rtts.min() == 100.0 == rtts.max()

    #: nine windows whose widths, laid out as ``sweep_rtt_samples`` lays
    #: them out, sum pairwise (``np.sum``) above their running sum: the 30th
    #: draw of nine (length, gap) pairs from ``random.Random(2024)``, each
    #: uniform in [0.001, 40] ms and rounded to 1e-9 ms, and the first with
    #: that property
    NINE_WINDOWS = (
        (23.222356033, 5.023309187), (5.620056354, 18.416655866),
        (24.290421442, 15.960734211), (28.823678293, 22.571961754),
        (16.388060003, 17.513805119), (35.934899897, 12.899956793),
        (22.933740609, 33.683006625), (20.964382917, 33.613359611),
        (39.044975143, 24.539748646),
    )

    def test_every_send_lies_in_a_window(self, monkeypatch):
        """An offset drawn just below the pairwise sum of the widths still
        wraps into a window, for the running sum is the connected time."""
        bounds = np.concatenate(([0.0], np.cumsum(self.NINE_WINDOWS)))
        widths = bounds[1::2] - bounds[:-1:2]
        pairwise = float(np.sum(widths))
        assert pairwise > float(np.cumsum(widths)[-1])

        class Draws:
            """Exponential draws: the first just below ``pairwise``, the rest 0."""

            def __init__(self, seed):
                pass

            def exponential(self, scale, size):
                draws = np.zeros(size)
                draws[0] = np.nextafter(pairwise, 0.0)
                return draws

        monkeypatch.setattr(np.random, "default_rng", Draws)
        (rtts,) = sweep_rtt_samples(self.NINE_WINDOWS, (0.0,), RttSamplerConfig(n_samples=100))
        # at delay 0 a send inside a window is acknowledged at once
        assert rtts.tolist() == [0.0] * 100

    def test_matches_scalar_model(self, case2_contiguous, connected_intervals):
        """The vectorized kernel must agree with the scalar RTT function."""
        vsta, delay = 3, 37.0
        intervals = connected_intervals(case2_contiguous, vsta)
        widths = [e - s for s, e in intervals]
        total = sum(widths)
        rng = np.random.default_rng(123)
        offsets = rng.exponential(0.25 * total, 200) % total

        starts = np.array([s for s, _ in intervals])
        ends = np.array([e for _, e in intervals])
        # each offset's window, and its wall-clock send time
        cum = np.concatenate(([0.0], np.cumsum(widths)))
        idx = np.searchsorted(cum[1:], offsets, side="right")
        sends = starts[idx] + (offsets - cum[idx])
        got = rtt_samples(starts, ends, sends, delay, case2_contiguous.period_ms)

        for rtt, send in zip(got, sends):
            expected = rtt_for_send_time(intervals, case2_contiguous.period_ms, float(send), delay)
            assert rtt == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("vsta", (1, 2))
    @pytest.mark.parametrize("delay", (20.0, 55.0))
    def test_rotation_moves_mean_only_by_noise(self, vsta, delay, rotated):
        """Sends follow reconnections, not the period's origin.

        Every rotation of case3's min-max schedule is the same cyclic
        arrangement, so the mean RTT may differ between rotations only by
        sampling noise, here bounded by 4 (max - min) / sqrt(n) for RTTs
        confined to [delay, delay + worst gap].
        """
        plan = derive_slot_plan(DutyCycleSet([0.65, 0.25, 0.10]), 10.0)
        schedule = minmax_allocate(plan).schedule
        means = [
            sample_rtts(window_pattern(rotated(schedule, k), vsta), (delay,), self.CFG).means_ms[0]
            for k in range(len(schedule.owners))
        ]
        spread = max_disconnection(schedule, vsta)
        assert max(means) - min(means) <= 4.0 * spread / math.sqrt(self.CFG.n_samples)


class TestMathisThroughput:
    """``vsta_throughput`` is the Reno estimate; ``PathParams`` bounds its loss rate."""

    PATH = PathParams(delay_ms=0.0, loss_rate=0.0032, mss_bytes=1460)

    def test_reference_value(self):
        # 1460-byte MSS, 100 ms RTT, p = 0.0032
        assert vsta_throughput(self.PATH, 100.0) == pytest.approx(2064751.80, abs=0.01)

    def test_scales_inverse_with_rtt(self):
        assert vsta_throughput(self.PATH, 50.0) == pytest.approx(
            2.0 * vsta_throughput(self.PATH, 100.0)
        )

    def test_loss_rate_validity_window(self):
        for loss_rate in (0.02, 0.0):
            with pytest.raises(ValueError, match="loss rate must be in"):
                PathParams(delay_ms=0.0, loss_rate=loss_rate)

    def test_nonpositive_rtt_rejected(self):
        """A nonpositive RTT never enters the Reno expression.

        At 0 it would divide by zero, below 0 it would give a negative
        rate; either way the estimate is unbounded.  The smallest RTTs
        just above 0 still take the formula.
        """
        for rtt in (0.0, -0.0, -1e-9):
            assert vsta_throughput(self.PATH, rtt) == math.inf
        assert 0.0 < vsta_throughput(self.PATH, 1e-9) < math.inf


class TestPathParams:
    def test_defaults(self):
        path = PathParams(delay_ms=20.0)
        assert path.loss_rate == 0.0032
        assert path.mss_bytes == 1460

    def test_invalid_loss(self):
        with pytest.raises(ValueError, match="loss rate"):
            PathParams(delay_ms=20.0, loss_rate=0.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            PathParams(delay_ms=-1.0)

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_invalid_delay(self, delay):
        with pytest.raises(ValueError, match="path delay must be finite and >= 0"):
            PathParams(delay_ms=delay)


class TestVstaThroughput:
    def test_positive_rtt_is_mathis(self):
        path = PathParams(delay_ms=0.0, loss_rate=0.001, mss_bytes=1000)
        assert vsta_throughput(path, 40.0) == (1000 * 8.0) / ((40.0 / 1000.0) * math.sqrt(0.001))

    def test_zero_rtt_is_unbounded(self):
        """A nonpositive mean RTT maps to infinite throughput, not an error."""
        for rtt in (0.0, -1.0):
            assert vsta_throughput(PathParams(delay_ms=0.0), rtt) == math.inf


class TestAggregateThroughput:
    CFG = RttSamplerConfig(n_samples=2000, seed=11)

    def test_deterministic(self, half_duty_schedule, aggregate):
        paths = [PathParams(delay_ms=40.0), PathParams(delay_ms=60.0)]
        delays = [[40.0], [60.0]]
        a = aggregate(ThroughputEvaluator(self.CFG, delays), half_duty_schedule, paths)
        b = aggregate(ThroughputEvaluator(self.CFG, delays), half_duty_schedule, paths)
        assert a == b

    def test_per_vsta_seed_streams_differ(self):
        assert vsta_seed(12345, 1) != vsta_seed(12345, 2)
        assert vsta_seed(12345, 1) == 12345 ^ 1


class TestThroughputEvaluator:
    CFG = RttSamplerConfig(n_samples=2000, seed=11)

    def test_matches_direct_sampling(self, case2_contiguous):
        evaluator = ThroughputEvaluator(self.CFG, [[35.0]] * 3)
        for vsta in (1, 2, 3):
            per_vsta = replace(self.CFG, seed=vsta_seed(self.CFG.seed, vsta))
            key = window_pattern(case2_contiguous, vsta)
            (direct,) = sample_rtts(key, (35.0,), per_vsta).means_ms
            assert evaluator.mean_rtt(case2_contiguous, vsta, 35.0) == direct

    def test_aggregate_matches_direct(self, case2_contiguous, aggregate):
        evaluator = ThroughputEvaluator(self.CFG, [[20.0], [40.0], [60.0]])
        paths = [PathParams(delay_ms=d) for d in (20.0, 40.0, 60.0)]
        direct = 0.0
        for vsta, path in enumerate(paths, start=1):
            per_vsta = replace(self.CFG, seed=vsta_seed(self.CFG.seed, vsta))
            key = window_pattern(case2_contiguous, vsta)
            (mean,) = sample_rtts(key, (path.delay_ms,), per_vsta).means_ms
            direct += (path.mss_bytes * 8.0) / ((mean / 1000.0) * math.sqrt(path.loss_rate))
        assert aggregate(evaluator, case2_contiguous, paths) == direct

    @pytest.fixture
    def draws(self, monkeypatch):
        """The (VSTA seed, delays) of every ``sample_rtts`` call."""
        calls = []

        def counting(pattern, delays_ms, cfg):
            calls.append((cfg.seed, tuple(delays_ms)))
            return sample_rtts(pattern, delays_ms, cfg)

        monkeypatch.setattr(rttmodel, "sample_rtts", counting)
        return calls

    def test_pattern_mean_draws_once_per_sweep(self, case2_contiguous, draws):
        """The first read of a pattern draws all of the VSTA's sweep delays;
        later reads, at any of them, draw nothing."""
        sweep = (10.0, 35.0, 10.0, 60.0)
        evaluator = ThroughputEvaluator(self.CFG, [(0.0,), sweep, (0.0,)])
        key = window_pattern(case2_contiguous, 2)
        mean = evaluator.pattern_mean(2, key, 35.0)
        seed = vsta_seed(self.CFG.seed, 2)
        assert draws == [(seed, (10.0, 35.0, 60.0))]
        assert evaluator.mean_rtt(case2_contiguous, 2, 35.0) == mean
        for delay in sweep:
            (direct,) = sample_rtts(key, (delay,), replace(self.CFG, seed=seed)).means_ms
            assert evaluator.pattern_mean(2, key, delay) == direct
        assert len(draws) == 1
        with pytest.raises(KeyError):
            evaluator.pattern_mean(2, key, 80.0)

    def test_cache_hits_on_shifted_pattern(self, draws):
        plan = derive_slot_plan(DutyCycleSet([0.5, 0.125, 0.375]), 12.5)
        scattered = SlotSchedule.from_owners(plan, (1, 3, 1, 3, 1, 3, 1, 2))
        shifted = SlotSchedule.from_owners(plan, (2, 1, 3, 1, 3, 1, 3, 1))
        evaluator = ThroughputEvaluator(self.CFG, [[35.0]] * 3)
        evaluator.mean_rtt(scattered, 1, 35.0)
        cached = evaluator.mean_rtt(shifted, 1, 35.0)
        assert len(draws) == 1
        per_vsta = replace(self.CFG, seed=vsta_seed(self.CFG.seed, 1))
        (direct,) = sample_rtts(window_pattern(shifted, 1), (35.0,), per_vsta).means_ms
        assert cached == direct

    def test_zero_rtt_reports_unbounded(self):
        # a VSTA that owns the whole period sees RTT = delay; at delay 0
        # the model throughput diverges
        plan = derive_slot_plan(DutyCycleSet([1.0]), 15.0)
        sched = build_contiguous_schedule(plan)
        evaluator = ThroughputEvaluator(self.CFG, [[0.0]])
        path = PathParams(delay_ms=0.0)
        assert vsta_throughput(path, evaluator.mean_rtt(sched, 1, 0.0)) == math.inf
