"""Hot RTT-sampling kernel, in numpy.

Sampling is split in two halves.  ``send_times`` maps connected-time
send offsets to wall-clock send times; it does not depend on the wired
delay, so a delay sweep runs it once.  ``rtt_samples`` lands each
acknowledgement ``delay`` after its send and charges the wait until the
VSTA's next connected instant; it runs once per delay.
"""
from __future__ import annotations

import numpy as np


def send_times(starts, ends, offsets) -> np.ndarray:
    """Wall-clock send time of each connected-time offset, in ms.

    ``starts``/``ends`` are the VSTA's sorted, disjoint connected
    intervals within one period (half-open).  ``offsets`` are send
    offsets in connected-time coordinates, already wrapped into
    ``[0, sum(ends - starts))``.
    """
    cum = np.cumsum(ends - starts)
    cum0 = np.concatenate(([0.0], cum))
    idx = np.searchsorted(cum, offsets, side="right")
    return starts[idx] + (offsets - cum0[idx])


def rtt_samples(starts, ends, sends, delay: float, period: float) -> np.ndarray:
    """RTT of each send in ``sends`` (from ``send_times``), in ms."""
    # sends and delay are >= 0, where fmod equals % bit for bit
    phase = np.fmod(sends + delay, period)
    # i counts the windows opening at or before the ack, so window i is
    # the next to open (i == len(starts): the first one of the next
    # period).  A VSTA has few windows, and counting them is cheaper
    # than np.searchsorted.
    i = np.zeros(phase.shape, np.intp)
    for start in starts.tolist():
        i += phase >= start
    next_starts = np.append(starts, period + starts[0])
    # the ack lands connected when it falls before the end of window i - 1
    prev_ends = np.concatenate(([-np.inf], ends))
    wait = np.where(phase < prev_ends.take(i), 0.0, next_starts.take(i) - phase)
    return delay + wait
