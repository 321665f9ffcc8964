"""Align a 150 Hz control stream to 30 Hz head-camera timestamps.

Cameras and joint telemetry run at different rates; every emitted frame
takes its joints from the latest control sample at or before the camera
timestamp. Every other stream only gates: a head sample that some stream
cannot match within max_gap is dropped rather than interpolated.
"""

import numpy as np

from graphact import SampleStream, align_streams
from graphact.stream_sync import CONTROL_STREAM

# 30 Hz camera with a small phase offset; control telemetry at 150 Hz
head = SampleStream("head", 30.0, [
    (0.004 + k / 30, {"detections": [], "depth": None}) for k in range(6)
])
control = SampleStream(CONTROL_STREAM, 150.0, [
    (k / 150, np.array([np.sin(k / 150), np.cos(k / 150)])) for k in range(40)
])
# a gripper stream that reports once and stops, so late frames drop
gripper = SampleStream("gripper", 10.0, [(0.0, {"open": True})])

frames = align_streams(head, [control, gripper], max_gap=2 / 15)
control_only = align_streams(head, [control], max_gap=2 / 15)
print(f"{len(head.samples)} head samples -> {len(frames)} aligned frames "
      f"({len(control_only) - len(frames)} dropped by the gripper stream)\n")
for f in frames:
    print(f"t={f.t:.4f}  control q={np.round(f.q, 3)}")

print("\nmatched control gap never exceeds one control period:")
# the demo's q is (sin t, cos t), so its control timestamp is arctan2(q)
gaps = [f.t - np.arctan2(*f.q) for f in control_only]
print(f"  max gap {max(gaps):.5f}s < {1 / 150:.5f}s + slack")
