"""TCP round-trip-time model under a periodic slot schedule.

A VSTA only sends while connected, and an acknowledgement that returns
while it is disconnected sits in the AP buffer until it reconnects
(``_kernels.rtt_samples``).  Acks pile up there, so sends cluster right
after each reconnection (``RttSamplerConfig``).  Anchoring sends at
reconnections, not at the period's origin, makes the sampled mean RTT of
a rotated schedule differ only by sampling noise.  Throughput follows
from the mean RTT (``vsta_throughput``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import rtt_samples
from .schedule import SlotSchedule, window_pattern

#: loss rates at or above this bound invalidate the Reno throughput model
MAX_LOSS_RATE = 0.02

DEFAULT_LOSS_RATE = 0.0032
DEFAULT_MSS_BYTES = 1460
#: the largest MSS the 16-bit TCP MSS option carries
MAX_MSS_BYTES = 65_535
DEFAULT_N_SAMPLES = 10000
#: most RTT samples per (VSTA, delay).  A draw holds several float64
#: arrays of this length at once, so far larger counts would exhaust memory.
MAX_N_SAMPLES = 1_000_000
DEFAULT_MEAN_FRACTION = 0.25


@dataclass(frozen=True)
class PathParams:
    """End-to-end wired path of one VSTA; the package's one check of a path.

    It refuses with a ``ValueError`` a delay that is negative or not
    finite, an ``mss_bytes`` outside ``1..MAX_MSS_BYTES`` and a
    ``loss_rate`` outside ``(0, MAX_LOSS_RATE)``, where
    ``vsta_throughput``'s Reno estimate is valid.
    """

    delay_ms: float
    loss_rate: float = DEFAULT_LOSS_RATE
    mss_bytes: int = DEFAULT_MSS_BYTES

    def __post_init__(self):
        # chained comparisons are false for NaN
        if not 0.0 <= self.delay_ms < math.inf:
            raise ValueError(f"path delay must be finite and >= 0, got {self.delay_ms}")
        if not 0.0 < self.loss_rate < MAX_LOSS_RATE:
            raise ValueError(
                f"loss_rate must be in (0, {MAX_LOSS_RATE}), got {self.loss_rate}"
            )
        if not 0 < self.mss_bytes <= MAX_MSS_BYTES:
            raise ValueError(f"mss_bytes must be in 1..{MAX_MSS_BYTES}, got {self.mss_bytes}")


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
    """Mean sampled RTT in ms at each delay of a sweep, each over the same ``n`` sends."""

    means_ms: tuple[float, ...]
    n: int


def sample_rtts(
    pattern: tuple, delays_ms: Sequence[float], cfg: RttSamplerConfig
) -> RttStats:
    """Monte-Carlo mean RTT under a window pattern at each delay; deterministic per seed.

    The package draws send times only here: one draw serves every delay,
    and each mean is, bit for bit, that of a one-delay call with the same seed.
    """
    means = tuple(float(rtts.mean()) for rtts in sweep_rtt_samples(pattern, delays_ms, cfg))
    return RttStats(means_ms=means, n=cfg.n_samples)


def sweep_rtt_samples(
    pattern: tuple, delays_ms: Sequence[float], cfg: RttSamplerConfig
) -> Iterator[np.ndarray]:
    """Sampled RTTs under a window pattern at each delay, from one draw of send times.

    The package lays out a pattern's windows only here.  ``pattern`` is a
    ``window_pattern``.  Its windows are laid out from
    time 0: each window starts where the previous one's gap ends, and
    the last gap closes the period.  Every schedule with the pattern
    thus gets the same samples, and every delay sees the same sends,
    exactly as separate one-delay calls with the same seed would.  Send
    ``k`` of ``n`` follows the reconnection of the window holding the
    point ``(k + 1/2) / n`` of the connected time; a last window whose
    gap is 0 runs on into the first across the period boundary, and the
    sends of both follow its reconnection.
    """
    # 0, end of window 0, start of window 1, ..., end of the last window, period
    bounds = np.concatenate(([0.0], np.cumsum(pattern)))
    starts, ends, period = bounds[:-1:2], bounds[1::2], float(bounds[-1])
    # the windows laid end to end: connected time before each window, then in
    # all.  It gives the anchors, the stratification points and the map to
    # wall-clock sends; its total is the exponential's scale and wrap modulus.
    before = np.concatenate(([0.0], np.cumsum(ends - starts)))
    n = cfg.n_samples
    anchors = before[:-1].copy()  # the send times below still read before[0]
    if pattern[-1][1] == 0.0:
        anchors[0] = anchors[-1]
    # window i + 1's sends start with the first k whose point reaches before[i + 1]
    firsts = np.clip(np.ceil(before[1:-1] * (n / before[-1]) - 0.5), 0, n).astype(np.intp)
    offsets = np.repeat(anchors, np.diff(firsts, prepend=0, append=n))
    offsets += np.random.default_rng(cfg.seed).exponential(cfg.mean_fraction * before[-1], n)
    # for offsets >= 0, fmod equals % bit for bit and is cheaper; every
    # offset lands below before[-1], so in a window
    np.fmod(offsets, before[-1], out=offsets)
    # the window each connected-time offset falls in, and its wall-clock time
    idx = np.searchsorted(before[1:], offsets, side="right")
    sends = starts[idx] + (offsets - before[idx])
    for delay in delays_ms:
        yield rtt_samples(starts, ends, sends, delay, period)


def vsta_sum(values: Iterable):
    """Sum of per-VSTA floats or numpy columns, added one at a time in VSTA order.

    The objectives, the searches' row scores and the CSV aggregate all
    sum here, so a search scores each row with the float the CSV
    reports.  A plain loop on purpose: from Python 3.12 ``sum()``
    compensates float sums and ``math.fsum`` rounds once, and either
    would split the CSV aggregate from the search's score.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def vsta_throughput(path: PathParams, mean_rtt_ms: float) -> float:
    """Steady-state Reno throughput estimate ``MSS/(RTT*sqrt(p))`` of one VSTA, in bit/s.

    The package's one per-VSTA throughput rule: the CSV rows, the eq1
    penalty and the upper-bound search all read it.  The estimate of
    Mathis et al. (CCR 1997) at the mean RTT, valid for the loss rates
    ``PathParams`` accepts.  A denominator of 0 or less (a zero mean RTT,
    or an RTT and loss rate whose product underflows) is unbounded
    throughput, so delay sweeps may start at 0.
    """
    denominator = (mean_rtt_ms / 1000.0) * math.sqrt(path.loss_rate)
    if denominator <= 0.0:
        return math.inf
    return (path.mss_bytes * 8.0) / denominator


def vsta_seed(base_seed: int, vsta: int) -> int:
    """Per-VSTA seed stream derived from the experiment seed."""
    return base_seed ^ vsta


class ThroughputEvaluator:
    """Per-VSTA mean RTTs of one delay sweep, keyed on (VSTA, window pattern).

    ``delays_by_vsta[v - 1]`` lists VSTA ``v``'s path delays over the
    sweep.  A VSTA's sampled RTTs depend on the schedule only through the
    cyclic pattern of its connected windows and the gaps between them
    (``window_pattern``), so the first read of a (VSTA, pattern) draws
    once, with one ``sample_rtts`` call, for all of the VSTA's sweep
    delays, and every later read, from whichever schedule or search, is
    a lookup.  The order in which algorithms or search rows are
    evaluated moves no bit.
    """

    def __init__(self, cfg: RttSamplerConfig, delays_by_vsta: Sequence[Sequence[float]]):
        self.cfg = cfg
        self.delays_by_vsta = [tuple(dict.fromkeys(delays)) for delays in delays_by_vsta]
        self._means: dict[tuple[int, tuple], dict[float, float]] = {}

    def mean_rtt(self, schedule: SlotSchedule, vsta: int, delay_ms: float) -> float:
        """``pattern_mean`` of ``vsta``'s pattern in ``schedule``: a CSV row's read."""
        return self.pattern_mean(vsta, window_pattern(schedule, vsta), delay_ms)

    def pattern_mean(self, vsta: int, pattern: tuple, delay_ms: float) -> float:
        """Mean RTT of ``vsta`` under ``pattern`` at ``delay_ms``, one of its sweep delays.

        The upper-bound search reads its rows here.
        """
        means = self._means.get((vsta, pattern))
        if means is None:
            delays = self.delays_by_vsta[vsta - 1]
            cfg = replace(self.cfg, seed=vsta_seed(self.cfg.seed, vsta))
            means = dict(zip(delays, sample_rtts(pattern, delays, cfg).means_ms))
            self._means[vsta, pattern] = means
        return means[delay_ms]
