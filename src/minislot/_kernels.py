"""Hot RTT-sampling kernel, in numpy, run once per delay of a sweep into arrays its caller owns."""
from __future__ import annotations

import math

import numpy as np


def rtt_samples(bounds, sends, delay: float, acks: np.ndarray, rtts: np.ndarray) -> np.ndarray:
    """RTT of each wall-clock send time in the ascending ``sends``, in ms.

    ``bounds`` is a VSTA's window layout from ``rttmodel._send_times``:
    ``0, end 0, start 1, end 1, ..., end of the last window, period``.
    The first window must open at 0; window ``i`` is ``[bounds[2i],
    bounds[2i + 1])``.  Each ack lands ``delay`` after its send and, if
    the VSTA is disconnected then, waits in the AP buffer until its next
    window opens.  ``sends`` and ``delay`` are >= 0, and ``sends`` must
    ascend.

    The caller owns the working arrays: ``acks`` and ``rtts`` are float64
    arrays of the length of ``sends``, whatever they held is overwritten,
    and the RTTs are written into ``rtts``, which is returned.
    ``rttmodel.sample_rtts`` owns a draw's two and passes them for each delay.

    Ascending sends give ascending acks, which fall into runs of whole
    periods ``k``.  Within a run the ack phases ascend too, so each
    window and each gap holds one slice of them: a window's acks get
    ``delay``, and those of the gap before window ``i`` (for the last
    gap, the first window again, at the period) ``delay + (bounds[2i] -
    phase)``.  Each phase is the ack minus ``k * period`` exactly, so it
    equals ``fmod(ack, period)`` bit for bit.
    """
    delay, period = float(delay), float(bounds[-1])
    np.add(sends, delay, out=acks)
    rtts.fill(delay + 0.0)
    num, den = period.as_integer_ratio()
    first, last = (_periods_below(float(ack), num, den) for ack in (acks[0], acks[-1]))
    # run k holds the acks >= k * period: those >= the least double >= it
    least = [_least_double_above(k * num, den) for k in range(first + 1, last + 1)]
    cuts = [0, *acks.searchsorted(least).tolist(), acks.size]
    for k, a, b in zip(range(first, last + 1), cuts, cuts[1:]):
        if a == b:
            continue
        phases = acks[a:b]
        if k:
            # ack - head is exact by Sterbenz (head <= ack < 2 * head), and
            # adding head's phase gives ack - k * period, itself a double
            head = float(acks[a])
            hn, hd = head.as_integer_ratio()
            phases -= head
            phases += (hn * den - k * num * hd) / (hd * den)
        edges = phases.searchsorted(bounds).tolist()
        for lower, upper, start in zip(edges[1::2], edges[2::2], bounds[2::2]):
            if lower < upper:
                waits = rtts[a + lower:a + upper]
                np.subtract(start, phases[lower:upper], out=waits)
                waits += delay
    return rtts


def _periods_below(x: float, num: int, den: int) -> int:
    """``floor(x / period)`` for ``period == num / den``, in exact arithmetic."""
    xn, xd = x.as_integer_ratio()
    return (xn * den) // (xd * num)


def _least_double_above(num: int, den: int) -> float:
    """The least double >= ``num / den``; Python's int division rounds correctly."""
    nearest = num / den
    nn, nd = nearest.as_integer_ratio()
    return nearest if nn * den >= num * nd else math.nextafter(nearest, math.inf)
