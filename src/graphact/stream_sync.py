"""Multi-rate stream alignment to head-camera timestamps.

Matching is latest-at-or-before (causal): a reading from the future never
explains a camera frame. Head samples missing any match within max_gap are
dropped, not interpolated. Alignment is library-only: the CLI reads
episode files, whose frames are aligned already.
"""

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

from .core import FrameRecord, InvalidSetting

CONTROL_STREAM = "control"


@dataclass
class SampleStream:
    """Time-ordered (timestamp, payload) samples from one source."""

    name: str
    rate_hz: float
    samples: list  # list[(float, payload)]


def _check_stream(s: SampleStream) -> list:
    """s's timestamps, which must be finite and strictly increasing (else
    InvalidSetting, as for no samples). A NaN fails every comparison, so one
    between two samples fails the order check, and finite ends bound every
    timestamp between them."""
    if not s.samples:
        raise InvalidSetting(f"stream '{s.name}' has no samples")
    ts = [t for t, _ in s.samples]
    if not (math.isfinite(ts[0]) and math.isfinite(ts[-1])
            and all(map(operator.lt, ts, ts[1:]))):
        raise InvalidSetting(f"stream '{s.name}' timestamps not finite and strictly increasing")
    return ts


def align_streams(head: SampleStream, others: list, max_gap: float) -> list:
    """One FrameRecord per head sample that every other stream matches within
    max_gap.

    Head payloads are mappings with 'detections' and 'depth' entries; a
    matched one that is not raises KeyError or TypeError. frame.q is the
    matched sample of the stream named CONTROL_STREAM (empty without that
    stream); the other streams only decide which head samples match.
    """
    if not 0 < max_gap < math.inf:
        raise InvalidSetting(f"max_gap must be finite and > 0, got {max_gap!r}")
    _check_stream(head)
    others = [(s, _check_stream(s)) for s in others]
    frames = []
    for t, payload in head.samples:
        q = ()
        for s, ts in others:
            idx = bisect_right(ts, t) - 1
            if idx < 0 or t - ts[idx] > max_gap:
                break
            if s.name == CONTROL_STREAM:
                q = s.samples[idx][1]
        else:
            frames.append(FrameRecord(t, payload["detections"], payload["depth"], q))
    return frames
