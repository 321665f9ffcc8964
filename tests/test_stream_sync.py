import numpy as np
import pytest

from graphact import (BoundingBox, DepthGrid, FrameRecord, SampleStream, align_streams,
                      build_graph, default_config)
from graphact.core import InvalidSetting
from graphact.kinematics import DofMismatch
from graphact.stream_sync import CONTROL_STREAM


def _head(ts):
    return SampleStream("head", 30.0, [(t, {"detections": [], "depth": None}) for t in ts])


def _control(ts):
    return SampleStream(CONTROL_STREAM, 150.0, [(t, [float(t)] * 2) for t in ts])


def test_align_30hz_head_with_150hz_control():
    # head {0, 1/30, 2/30}; control k/150: frame at 1/30 matches 5/150 exactly
    head = _head([k / 30 for k in range(3)])
    control = _control([k / 150 for k in range(20)])
    frames = align_streams(head, [control], max_gap=2 / 150)
    assert len(frames) == 3
    assert frames[1].t - frames[1].q[0] == 0.0
    assert np.array_equal(frames[1].q, [5 / 150, 5 / 150])


def test_coincident_timestamps_match_with_zero_gap():
    frames = align_streams(_head([0.0]), [_control([0.0])], max_gap=0.01)
    assert len(frames) == 1
    assert frames[0].t - frames[0].q[0] == 0.0


def test_frame_dropped_when_no_match_within_gap():
    # control stream exists only after the head sample
    frames = align_streams(_head([0.5]), [_control([0.6, 0.7])],
                           max_gap=1 / 150 + 1e-6)
    assert frames == []
    # control sample exists before but too stale
    frames = align_streams(_head([0.5]), [_control([0.3])], max_gap=1 / 150 + 1e-6)
    assert frames == []


def test_output_ordering_and_count():
    head = _head([k / 30 for k in range(10)])
    control = _control([k / 150 for k in range(5, 60)])  # starts at 1/30
    frames = align_streams(head, [control], max_gap=2 / 150)
    assert len(frames) <= 10
    ts = [f.t for f in frames]
    assert ts == sorted(ts)


def test_matched_gap_bound_150hz_vs_30hz():
    rng = np.random.default_rng(3)
    for _ in range(20):
        offset = rng.uniform(0, 1 / 150)
        head = _head([offset + k / 30 for k in range(30)])
        control = _control([k / 150 for k in range(200)])
        frames = align_streams(head, [control], max_gap=2 / 150)
        assert len(frames) == 30
        for f in frames:
            gap = f.t - f.q[0]
            assert 0 <= gap < 1 / 150 + 1e-12


def test_align_is_idempotent():
    head = _head([k / 30 + 0.001 for k in range(8)])
    control = _control([k / 150 for k in range(50)])
    first = align_streams(head, [control], max_gap=2 / 150)
    rehead = SampleStream("head", 30.0, [(f.t, {"detections": f.detections,
                                                "depth": f.depth}) for f in first])
    recontrol = SampleStream(CONTROL_STREAM, 150.0,
                             [(f.t, list(f.q)) for f in first])
    second = align_streams(rehead, [recontrol], max_gap=2 / 150)
    assert [f.t for f in second] == [f.t for f in first]
    for a, b in zip(first, second):
        assert np.array_equal(a.q, b.q)


@pytest.mark.parametrize("payload,error", [(None, TypeError),
                                           ({"detections": []}, KeyError)])
def test_head_payload_without_detections_and_depth_is_refused(payload, error):
    """A matched head sample must carry both entries; it does not become a
    frame with no detections and no depth."""
    head = SampleStream("head", 30.0, [(0.0, payload)])
    with pytest.raises(error):
        align_streams(head, [_control([0.0])], max_gap=0.1)


@pytest.mark.parametrize("max_gap", [0.0, -1.0, float("nan"), float("inf")])
def test_max_gap_must_be_finite_and_positive(max_gap):
    """A NaN gap is not a gap that every sample passes; it is refused."""
    with pytest.raises(InvalidSetting):
        align_streams(_head([5.0]), [_control([0.0])], max_gap=max_gap)


@pytest.mark.parametrize("ts", [[0.0, float("nan"), 0.01], [float("nan")],
                                [0.0, float("inf")], [float("-inf"), 0.0]])
def test_non_finite_timestamps_are_refused(ts):
    """A NaN between two samples passes no ordering test, so it cannot
    pass for increasing; the t = 0 frame does not get the NaN sample's q."""
    with pytest.raises(InvalidSetting, match="not finite and strictly increasing"):
        align_streams(_head([0.0]), [_control(ts)], max_gap=0.1)
    with pytest.raises(InvalidSetting, match="not finite and strictly increasing"):
        align_streams(_head(ts), [_control([0.0])], max_gap=0.1)


def test_empty_and_non_monotone_errors():
    with pytest.raises(InvalidSetting, match="has no samples"):
        align_streams(_head([]), [_control([0.0])], max_gap=0.1)
    with pytest.raises(InvalidSetting, match="not finite and strictly increasing"):
        align_streams(_head([0.0, 0.0]), [_control([0.0])], max_gap=0.1)
    with pytest.raises(InvalidSetting, match="not finite and strictly increasing"):
        align_streams(_head([0.0]), [_control([0.1, 0.05])], max_gap=0.1)


def test_other_streams_only_gate():
    """A stream other than CONTROL_STREAM decides which head samples match:
    its early end drops the later frames, and it adds nothing to a frame."""
    head = _head([k / 30 for k in range(6)])
    control = _control([k / 150 for k in range(30)])
    imu = SampleStream("imu", 100.0, [(k / 100, {"w": k}) for k in range(8)])
    alone = align_streams(head, [control], max_gap=0.05)
    gated = align_streams(head, [control, imu], max_gap=0.05)
    assert [f.t for f in alone] == [k / 30 for k in range(6)]
    assert [f.t for f in gated] == [k / 30 for k in range(4)]
    for a, b in zip(alone, gated):
        assert vars(a).keys() == vars(b).keys() == {"t", "detections", "depth", "q"}
        assert np.array_equal(a.q, b.q)


def test_head_without_control_stream_has_empty_q():
    """Without a joint stream q is empty, not None, so build_graph still
    reports the missing joints as a DofMismatch."""
    cfg = default_config()
    K = cfg.intrinsics
    head = SampleStream("head", 30.0, [(0.0, {
        "detections": [BoundingBox("egg", 100.0, 100.0, 120.0, 120.0)],
        "depth": DepthGrid(K.width, K.height, 2.0)})])
    frames = align_streams(head, [], max_gap=0.1)
    assert len(frames) == 1 and isinstance(frames[0], FrameRecord)
    assert frames[0].q.size == 0
    with pytest.raises(DofMismatch):
        build_graph(frames[0], K, cfg.extrinsics, cfg.chains)
