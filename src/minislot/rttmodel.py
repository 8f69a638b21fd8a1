"""TCP round-trip-time model under a periodic slot schedule.

A VSTA only sends while connected, and an acknowledgement that returns
while it is disconnected sits in the AP buffer until it reconnects
(``_kernels.rtt_samples``).  Acks pile up there, so sends cluster right
after each reconnection (``RttSamplerConfig``).  Anchoring sends at
reconnections, not at the period's origin, makes the sampled mean RTT of
a rotated schedule differ only by sampling noise.  One draw of send
times, made ascending as the kernel takes them, serves every delay of a
sweep (``sample_rtts``), which owns the kernel's working arrays: it
allocates them once and every delay writes into them.  Throughput
follows from the mean RTT (``vsta_throughput``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._kernels import rtt_samples
from .schedule import SlotSchedule, window_pattern

#: loss rates at or above this bound invalidate the Reno throughput model
MAX_LOSS_RATE = 0.02
#: the largest MSS the 16-bit TCP MSS option carries
MAX_MSS_BYTES = 65_535
#: most RTT samples per (VSTA, delay).  A draw holds at most three arrays of
#: this length, of 8-byte entries, at once, however many delays it serves:
#: the ascending sends and the kernel's acks and RTTs.  So far larger counts
#: would exhaust memory.
MAX_N_SAMPLES = 1_000_000


@dataclass(frozen=True)
class PathParams:
    """End-to-end wired path of one VSTA; the package's one check of a path.

    It refuses with a ``ValueError`` a delay that is negative or not
    finite, an ``mss_bytes`` outside ``1..MAX_MSS_BYTES`` and a
    ``loss_rate`` outside ``(0, MAX_LOSS_RATE)``, where
    ``vsta_throughput``'s Reno estimate is valid.
    """

    delay_ms: float
    loss_rate: float
    mss_bytes: int

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

    n_samples: int
    mean_fraction: float
    seed: int

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

    The package draws send times only here: one draw (``_send_times``)
    serves every delay, and the kernel overwrites the draw's two working
    arrays at each.  Each mean is, bit for bit, that of a one-delay call
    with the same seed, computed as ``ndarray.mean`` computes it, numpy's
    pairwise ``add.reduce`` divided by ``n``, without its wrapper's cost,
    over the RTTs in the order of the ascending sends.
    """
    n = cfg.n_samples
    bounds, sends = _send_times(pattern, cfg)
    acks, rtts = np.empty_like(sends), np.empty_like(sends)
    means = tuple(
        float(np.add.reduce(rtt_samples(bounds, sends, delay, acks, rtts)) / n)
        for delay in delays_ms
    )
    return RttStats(means_ms=means, n=n)


def _send_times(pattern: tuple, cfg: RttSamplerConfig):
    """``(bounds, sends)``: a pattern's windows and its draw of send times, ascending.

    The package lays out a pattern's windows only here.  ``pattern`` is a
    ``window_pattern``.  Its windows are laid out from time 0: each
    window starts where the previous one's gap ends, and the last gap
    closes the period, as ``bounds`` lists them for
    ``_kernels.rtt_samples``.  Every schedule with the pattern thus gets
    the same samples.  Send ``k`` of ``n`` follows the reconnection of
    the window holding the point ``(k + 1/2) / n`` of the connected time;
    a last window whose gap is 0 runs on into the first across the
    period boundary, and the sends of both follow its reconnection.
    The sends come out ascending, laid out window by window.
    """
    # 0, end of window 0, start of window 1, ..., end of the last window, period
    bounds = np.concatenate(([0.0], np.cumsum(pattern)))
    starts, ends = bounds[:-1:2], bounds[1::2]
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
    # ascending offsets fall window by window, an offset at before[j] in window
    # j; each slice maps to wall-clock time in place, with the two roundings
    # of starts[i] + (offset - before[i])
    offsets.sort()
    cuts = (0, *offsets.searchsorted(before[1:-1]).tolist(), n)
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        part = offsets[a:b]
        part -= before[i]
        part += starts[i]
    return bounds, offsets


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
