"""Multi-rate stream alignment to head-camera timestamps.

Matching is latest-at-or-before (causal): a reading from the future never
explains a camera frame. Head samples missing any match within max_gap are
dropped, not interpolated. Alignment is library-only: the CLI reads
episode files, whose frames are aligned already.
"""

import operator
from bisect import bisect_right
from dataclasses import dataclass

from .core import FrameRecord, PipelineError

CONTROL_STREAM = "control"


class EmptyStream(PipelineError):
    pass


class NonMonotoneTimestamps(PipelineError):
    pass


@dataclass
class SampleStream:
    """Time-ordered (timestamp, payload) samples from one source."""

    name: str
    rate_hz: float
    samples: list  # list[(float, payload)]

    def timestamps(self) -> list:
        return [t for t, _ in self.samples]


def _check_stream(s: SampleStream) -> list:
    if not s.samples:
        raise EmptyStream(f"stream '{s.name}' has no samples")
    ts = s.timestamps()
    if any(map(operator.le, ts[1:], ts)):
        raise NonMonotoneTimestamps(f"stream '{s.name}' timestamps not strictly increasing")
    return ts


def align_streams(head: SampleStream, others: list, max_gap: float) -> list:
    """One FrameRecord per head sample fully matched within max_gap.

    Head payloads are mappings with 'detections' and 'depth' entries; a
    matched one that is not raises KeyError or TypeError. The stream named
    CONTROL_STREAM carries joint vectors, surfaced as frame.q (empty
    without that stream). Every matched payload also lands in
    frame.aux, and its timestamp in frame.source_t, under its stream name.
    """
    if max_gap <= 0:
        raise ValueError("max_gap must be positive")
    head_ts = _check_stream(head)
    other_ts = {s.name: _check_stream(s) for s in others}

    frames = []
    for t, payload in head.samples:
        matches = {}
        times = {}
        complete = True
        for s in others:
            ts = other_ts[s.name]
            idx = bisect_right(ts, t) - 1
            if idx < 0 or t - ts[idx] > max_gap:
                complete = False
                break
            matches[s.name] = s.samples[idx][1]
            times[s.name] = ts[idx]
        if not complete:
            continue
        frames.append(FrameRecord(t, payload["detections"], payload["depth"],
                                  matches.get(CONTROL_STREAM, ()), aux=matches, source_t=times))
    return frames

