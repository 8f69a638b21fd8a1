"""TCP round-trip-time model under a periodic slot schedule.

A VSTA only sends while connected; the acknowledgement returns after
the wired path delay and, if the VSTA is disconnected at that instant,
sits in the AP buffer until the next owned slot starts.  Acks pile up
in the AP buffer while the VSTA is disconnected, so sends cluster right
after each reconnection: a send starts at one of the VSTA's
reconnections, picked in proportion to the length of the window it
opens, and follows it by an exponential offset measured in connected
time.  The period's origin plays no part, so rotating a schedule moves
the sampled mean RTT only by sampling noise.  Throughput follows from
the mean observed RTT via the steady-state Reno approximation
``MSS / (RTT * sqrt(p))``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import rtt_samples, send_times
from .schedule import SlotSchedule, _check_vsta

#: loss rates at or above this bound invalidate the Reno throughput model
MAX_LOSS_RATE = 0.02

DEFAULT_LOSS_RATE = 0.0032
DEFAULT_MSS_BYTES = 1460
DEFAULT_N_SAMPLES = 10000
DEFAULT_MEAN_FRACTION = 0.25


class MathisValidityError(ValueError):
    """Loss rate outside the validity range of the throughput model."""


@dataclass(frozen=True)
class PathParams:
    """End-to-end wired path of one VSTA."""

    delay_ms: float
    loss_rate: float = DEFAULT_LOSS_RATE
    mss_bytes: int = DEFAULT_MSS_BYTES

    def __post_init__(self):
        if self.delay_ms < 0.0:
            raise ValueError(f"path delay must be >= 0, got {self.delay_ms}")
        if not 0.0 < self.loss_rate < MAX_LOSS_RATE:
            raise MathisValidityError(
                f"loss rate must be in (0, {MAX_LOSS_RATE}), got {self.loss_rate}"
            )
        if self.mss_bytes <= 0:
            raise ValueError(f"MSS must be positive, got {self.mss_bytes}")


@dataclass(frozen=True)
class RttSamplerConfig:
    """Monte-Carlo sampling knobs.

    A send offset starts at a reconnection of the VSTA: the start of one
    of its connected windows, where a window that runs on across the
    period boundary counts as one.  Reconnections are weighted by the
    length of their window and assigned stratified, not drawn, so the
    exponential draws are the only randomness.  The model's sources do
    not say how to weight reconnections; under length weighting a VSTA
    with a single window draws plain wrapped exponential offsets from
    the start of that window.  The offset is exponential with mean
    ``mean_fraction`` times the VSTA's per-period connected time.  An
    offset longer than its window carries on through the following
    windows and wraps around the connected time (a send that misses the
    current connectivity period happens in the next one).
    """

    n_samples: int = DEFAULT_N_SAMPLES
    mean_fraction: float = DEFAULT_MEAN_FRACTION
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 < self.mean_fraction <= 1.0:
            raise ValueError(
                f"mean_fraction must be in (0, 1], got {self.mean_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RttStats:
    """Summary of sampled RTTs for one VSTA, in milliseconds."""

    mean_ms: float
    min_ms: float
    max_ms: float
    n: int


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
        if intervals and abs(intervals[-1][1] - start) <= 1e-9:
            intervals[-1] = (intervals[-1][0], end)
        else:
            intervals.append((start, end))
    if not intervals:
        raise ValueError(f"VSTA {vsta} owns no slot")
    return intervals


def rtt_for_send_time(
    schedule: SlotSchedule, vsta: int, send_ms: float, delay_ms: float
) -> float:
    """Observed RTT of a packet sent at ``send_ms`` (periodic extension).

    The ack lands ``delay_ms`` after the send; if the VSTA is
    disconnected at that instant the ack waits in the AP buffer until
    the next owned slot starts.  The send instant must fall inside a
    connected interval: a disconnected VSTA has no pending ack to
    trigger new data in TCP steady state.
    """
    if delay_ms < 0.0:
        raise ValueError(f"delay must be >= 0, got {delay_ms}")
    intervals = connected_intervals(schedule, vsta)
    period = schedule.period_ms
    send_phase = send_ms % period
    if not any(s <= send_phase < e for s, e in intervals):
        raise ValueError(
            f"send time {send_ms} ms falls outside the connected time of VSTA {vsta}"
        )
    phase = (send_ms + delay_ms) % period
    return delay_ms + _wait_until_connected(intervals, phase, period)


def _wait_until_connected(
    intervals: list[tuple[float, float]], phase: float, period: float
) -> float:
    for start, end in intervals:
        if start <= phase:
            if phase < end:
                return 0.0
        else:
            return start - phase
    return (period + intervals[0][0]) - phase


def sample_rtts(
    schedule: SlotSchedule, vsta: int, path: PathParams, cfg: RttSamplerConfig
) -> RttStats:
    """Monte-Carlo RTT summary for ``vsta``; deterministic per seed."""
    (rtts,) = sweep_rtt_samples(schedule, vsta, (path.delay_ms,), cfg)
    return RttStats(
        mean_ms=float(rtts.mean()),
        min_ms=float(rtts.min()),
        max_ms=float(rtts.max()),
        n=cfg.n_samples,
    )


def sweep_rtt_samples(
    schedule: SlotSchedule, vsta: int, delays_ms: Sequence[float], cfg: RttSamplerConfig
) -> Iterator[np.ndarray]:
    """Sampled RTTs of ``vsta`` at each delay, from one draw of send times.

    The send times depend on the seed and the schedule only, so every
    delay sees the same sends, exactly as separate ``sample_rtts`` calls
    with the same seed would.
    """
    intervals = connected_intervals(schedule, vsta)
    starts = np.array([s for s, _ in intervals])
    ends = np.array([e for _, e in intervals])
    total = float(np.sum(ends - starts))
    rng = np.random.default_rng(cfg.seed)
    raw = rng.exponential(cfg.mean_fraction * total, cfg.n_samples)
    offsets = _reconnection_anchors(starts, ends, schedule.period_ms, cfg.n_samples)
    offsets += raw
    # for offsets >= 0, fmod equals % bit for bit and is cheaper
    np.fmod(offsets, total, out=offsets)
    sends = send_times(starts, ends, offsets)
    for delay in delays_ms:
        yield rtt_samples(starts, ends, sends, delay, schedule.period_ms)


def _reconnection_anchors(
    starts: np.ndarray, ends: np.ndarray, period: float, n: int
) -> np.ndarray:
    """Connected-time start of the window each of ``n`` sends follows.

    Reconnections are weighted by window length, stratified rather than
    drawn: send ``k`` follows the reconnection of the window holding the
    point ``(k + 1/2) / n`` of the connected time.
    """
    cum = np.cumsum(ends - starts)
    window_starts = np.concatenate(([0.0], cum[:-1]))
    if abs(ends[-1] - (period + starts[0])) <= 1e-9:
        # the last window runs on into the first across the period
        # boundary, so both follow the last window's reconnection
        window_starts[0] = window_starts[-1]
    # window i + 1 starts with the first k whose point reaches cum[i]
    firsts = np.clip(np.ceil(cum[:-1] * (n / cum[-1]) - 0.5), 0, n).astype(np.intp)
    return np.repeat(window_starts, np.diff(firsts, prepend=0, append=n))


def mathis_throughput(mss_bytes: int, rtt_ms: float, loss_rate: float) -> float:
    """Steady-state Reno throughput estimate ``MSS/(RTT*sqrt(p))`` in bit/s."""
    if not 0.0 < loss_rate < MAX_LOSS_RATE:
        raise MathisValidityError(
            f"loss rate must be in (0, {MAX_LOSS_RATE}), got {loss_rate}"
        )
    if not rtt_ms > 0.0:
        raise ValueError(f"RTT must be positive, got {rtt_ms}")
    return (mss_bytes * 8.0) / ((rtt_ms / 1000.0) * math.sqrt(loss_rate))


def vsta_throughput(path: PathParams, mean_rtt_ms: float) -> float:
    """Model throughput (bit/s) of one VSTA from its mean RTT.

    A zero mean RTT (delay 0 and an ack that always lands connected)
    maps to infinite throughput instead of an error, so delay sweeps
    may start at 0.
    """
    if mean_rtt_ms <= 0.0:
        return math.inf
    return mathis_throughput(path.mss_bytes, mean_rtt_ms, path.loss_rate)


def vsta_seed(base_seed: int, vsta: int) -> int:
    """Per-VSTA seed stream derived from the experiment seed."""
    return base_seed ^ vsta


class ThroughputEvaluator:
    """Caches per-VSTA mean RTTs across schedules that share geometry.

    Two schedules give a VSTA the same RTT statistics, up to rounding,
    whenever the cyclic pattern of its connected windows and the gaps
    between them is the same, anchored at the first window of the
    period.  The cache is keyed on (VSTA, delay, pattern) and keeps the
    mean of the first schedule evaluated for each key; every later
    schedule with that pattern reads the same value.  Schedules that
    share a pattern place their windows at other start times, so their
    own sampled means may differ from the cached one by an ulp or two:
    what a schedule reads depends on which schedule filled the entry.
    ``run_scenario`` therefore fills the cache algorithm by algorithm:
    the nopolicy baseline first, then the requested algorithms in the
    order they are listed, each at every swept delay.  The upper-bound
    search fills its entries in lexicographic order of the owner
    vectors.
    """

    def __init__(self, cfg: RttSamplerConfig):
        self.cfg = cfg
        self._mean_rtt_cache: dict[tuple, float] = {}

    def mean_rtt(self, schedule: SlotSchedule, vsta: int, delay_ms: float) -> float:
        key = _pattern_key(schedule, vsta)
        cached = self.lookup(vsta, delay_ms, key)
        if cached is None:
            path = PathParams(delay_ms=delay_ms)
            cached = sample_rtts(schedule, vsta, path, self._vsta_cfg(vsta)).mean_ms
            self.remember(vsta, delay_ms, key, cached)
        return cached

    def lookup(self, vsta: int, delay_ms: float, key: tuple) -> float | None:
        """Cached mean RTT for the pattern ``key`` (see ``_pattern_key``), if any."""
        return self._mean_rtt_cache.get((vsta, delay_ms, key))

    def remember(self, vsta: int, delay_ms: float, key: tuple, mean_ms: float) -> None:
        self._mean_rtt_cache[(vsta, delay_ms, key)] = mean_ms

    def sampled_means(
        self, schedule: SlotSchedule, vsta: int, delays_ms: Sequence[float]
    ) -> list[float]:
        """Sampled mean RTT at each delay, from one draw; bypasses the cache."""
        return [
            float(rtts.mean())
            for rtts in sweep_rtt_samples(schedule, vsta, delays_ms, self._vsta_cfg(vsta))
        ]

    def _vsta_cfg(self, vsta: int) -> RttSamplerConfig:
        return replace(self.cfg, seed=vsta_seed(self.cfg.seed, vsta))

    def aggregate(self, schedule: SlotSchedule, paths: Sequence[PathParams]) -> float:
        """Sum of ``vsta_throughput`` over the VSTAs, in order.

        The first infinite term ends the sum, so later VSTAs are not
        sampled.
        """
        if len(paths) != schedule.n_vstas:
            raise ValueError(f"expected {schedule.n_vstas} paths, got {len(paths)}")
        total = 0.0
        for vsta, path in enumerate(paths, start=1):
            throughput = vsta_throughput(path, self.mean_rtt(schedule, vsta, path.delay_ms))
            if math.isinf(throughput):
                return throughput
            total += throughput
        return total


def _pattern_key(schedule: SlotSchedule, vsta: int) -> tuple:
    intervals = connected_intervals(schedule, vsta)
    period = schedule.period_ms
    windows = []
    for i, (start, end) in enumerate(intervals):
        nxt = intervals[(i + 1) % len(intervals)][0]
        gap = nxt - end if i + 1 < len(intervals) else (period + nxt) - end
        windows.append((end - start, gap))
    return _round_pattern(windows)


def _round_pattern(windows: Iterable[tuple[float, float]]) -> tuple:
    """Pattern key from each window's (length, gap to the next window) in ms."""
    return tuple((round(length, 9), round(gap, 9)) for length, gap in windows)
