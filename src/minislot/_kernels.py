"""Hot RTT-sampling kernel, in numpy.

``rtt_samples`` lands each acknowledgement ``delay`` after its send and
charges the wait until the VSTA's next connected instant.  It runs once
per delay of a sweep, on send times ``rttmodel.sweep_rtt_samples`` draws
once for the whole sweep.
"""
from __future__ import annotations

import numpy as np


def rtt_samples(starts, ends, sends, delay: float, period: float) -> np.ndarray:
    """RTT of each wall-clock send time in ``sends``, in ms.

    ``starts``/``ends`` are the VSTA's sorted, disjoint connected
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
