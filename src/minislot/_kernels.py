"""Hot RTT-sampling kernel, in numpy, run once per delay of a sweep."""
from __future__ import annotations

import numpy as np


def rtt_samples(starts, ends, sends, delay: float, period: float) -> np.ndarray:
    """RTT of each wall-clock send time in ``sends``, in ms.

    Each ack lands ``delay`` after its send and, if the VSTA is
    disconnected then, waits in the AP buffer until its next window
    opens.  ``starts``/``ends`` are the VSTA's sorted, disjoint connected
    intervals within one ``period`` (half-open).
    """
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
