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
from typing import Iterator, Sequence

import numpy as np

from ._kernels import rtt_samples, send_times
from .schedule import SlotSchedule, _pattern_key, connected_intervals

#: loss rates at or above this bound invalidate the Reno throughput model
MAX_LOSS_RATE = 0.02

DEFAULT_LOSS_RATE = 0.0032
DEFAULT_MSS_BYTES = 1460
#: the largest MSS the 16-bit TCP MSS option carries
MAX_MSS_BYTES = 65_535
DEFAULT_N_SAMPLES = 10000
#: most RTT samples per (VSTA, delay).  A draw holds several float64
#: arrays of this length at once, about 60 MB at this bound, so far larger
#: counts would exhaust memory.
MAX_N_SAMPLES = 1_000_000
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
        if not 0 < self.mss_bytes <= MAX_MSS_BYTES:
            raise ValueError(f"MSS must be in 1..{MAX_MSS_BYTES}, got {self.mss_bytes}")


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
        if not 1 <= self.n_samples <= MAX_N_SAMPLES:
            raise ValueError(
                f"n_samples must be in [1, {MAX_N_SAMPLES}], got {self.n_samples}"
            )
        if not 0.0 < self.mean_fraction <= 1.0:
            raise ValueError(
                f"mean_fraction must be in (0, 1], got {self.mean_fraction}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RttStats:
    """Mean sampled RTT of one VSTA in milliseconds, over ``n`` samples."""

    mean_ms: float
    n: int


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
    """Monte-Carlo RTT summary for ``vsta``; deterministic per seed.

    The samples depend on the schedule only through the window pattern
    of ``vsta`` (see ``sweep_rtt_samples``).
    """
    (rtts,) = sweep_rtt_samples(_pattern_key(schedule, vsta), (path.delay_ms,), cfg)
    return RttStats(mean_ms=float(rtts.mean()), n=cfg.n_samples)


def sweep_rtt_samples(
    pattern: tuple, delays_ms: Sequence[float], cfg: RttSamplerConfig
) -> Iterator[np.ndarray]:
    """Sampled RTTs under a window pattern at each delay, from one draw of send times.

    ``pattern`` is a ``_pattern_key``.  Its windows are laid out from
    time 0: each window starts where the previous one's gap ends, and
    the last gap closes the period.  Every schedule with the pattern
    thus gets the same samples, and every delay sees the same sends,
    exactly as separate ``sample_rtts`` calls with the same seed would.
    """
    # 0, end of window 0, start of window 1, ..., end of the last window, period
    bounds = np.concatenate(([0.0], np.cumsum(pattern)))
    starts, ends, period = bounds[:-1:2], bounds[1::2], float(bounds[-1])
    total = float(np.sum(ends - starts))
    rng = np.random.default_rng(cfg.seed)
    raw = rng.exponential(cfg.mean_fraction * total, cfg.n_samples)
    offsets = _reconnection_anchors(starts, ends, period, cfg.n_samples)
    offsets += raw
    # for offsets >= 0, fmod equals % bit for bit and is cheaper
    np.fmod(offsets, total, out=offsets)
    sends = send_times(starts, ends, offsets)
    for delay in delays_ms:
        yield rtt_samples(starts, ends, sends, delay, period)


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
    """Memo of per-VSTA mean RTTs, keyed on (VSTA, delay, window pattern).

    A VSTA's sampled RTTs depend on the schedule only through the cyclic
    pattern of its connected windows and the gaps between them
    (``_pattern_key``), so every schedule with that pattern reads the
    same mean, whichever schedule asked first.  The order in which
    algorithms or search rows are evaluated moves no bit.
    """

    def __init__(self, cfg: RttSamplerConfig):
        self.cfg = cfg
        self._mean_rtt_cache: dict[tuple, float] = {}

    def mean_rtt(self, schedule: SlotSchedule, vsta: int, delay_ms: float) -> float:
        key = (vsta, delay_ms, _pattern_key(schedule, vsta))
        if key not in self._mean_rtt_cache:
            path = PathParams(delay_ms=delay_ms)
            stats = sample_rtts(schedule, vsta, path, self._vsta_cfg(vsta))
            self._mean_rtt_cache[key] = stats.mean_ms
        return self._mean_rtt_cache[key]

    def pattern_means(self, vsta: int, pattern: tuple, delays_ms: Sequence[float]) -> list[float]:
        """Mean RTT of ``vsta`` under ``pattern`` at each delay.

        The delays not cached yet are sampled from one draw of send times.
        """
        cache = self._mean_rtt_cache
        missing = [d for d in dict.fromkeys(delays_ms) if (vsta, d, pattern) not in cache]
        if missing:
            samples = sweep_rtt_samples(pattern, missing, self._vsta_cfg(vsta))
            for delay, rtts in zip(missing, samples):
                cache[vsta, delay, pattern] = float(rtts.mean())
        return [cache[vsta, d, pattern] for d in delays_ms]

    def _vsta_cfg(self, vsta: int) -> RttSamplerConfig:
        return replace(self.cfg, seed=vsta_seed(self.cfg.seed, vsta))

    def aggregate(self, schedule: SlotSchedule, paths: Sequence[PathParams]) -> float:
        """Sum of ``vsta_throughput`` over the VSTAs, in order."""
        if len(paths) != schedule.n_vstas:
            raise ValueError(f"expected {schedule.n_vstas} paths, got {len(paths)}")
        total = 0.0
        for vsta, path in enumerate(paths, start=1):
            total += vsta_throughput(path, self.mean_rtt(schedule, vsta, path.delay_ms))
        return total
