"""Pinhole geometry: box centers, depth lookup, backprojection, and the
forward-projection oracle used to verify it."""

import math

import numpy as np

from .core import BoundingBox, CameraIntrinsics, DepthGrid, InvalidSetting, PipelineError


class NoValidDepth(PipelineError):
    pass


class BehindCamera(PipelineError):
    pass


def bbox_center(b: BoundingBox) -> tuple:
    """Pixel center ((x_min+x_max)/2, (y_min+y_max)/2), two floats."""
    return (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0


def depth_at(depth: DepthGrid, p) -> float:
    """Depth at the nearest integer pixel; median fallback over a 3x3 window.

    A p off [0, width] x [0, height], or not finite, raises InvalidSetting.
    Invalid depths are non-positive (or non-finite). When the depth at the
    pixel is invalid, returns the median of valid ones in its 3x3
    neighborhood, clipped to the image, or raises NoValidDepth if there are
    none. Reads only that pixel and neighborhood, never the whole image.
    """
    u, v = float(p[0]), float(p[1])
    if not (0.0 <= u <= depth.width and 0.0 <= v <= depth.height):
        raise InvalidSetting(f"pixel {u, v} is off the {depth.width}x{depth.height} image")
    u, v = min(int(round(u)), depth.width - 1), min(int(round(v)), depth.height - 1)
    val = depth.at(u, v)
    if math.isfinite(val) and val > 0:
        return val
    near = [depth.at(x, y) for y in range(max(v - 1, 0), min(v + 2, depth.height))
            for x in range(max(u - 1, 0), min(u + 2, depth.width))]
    valid = [d for d in near if math.isfinite(d) and d > 0]
    if not valid:
        raise NoValidDepth(f"no valid depth near pixel ({u}, {v})")
    return float(np.median(valid))


def backproject(p, depth, K: CameraIntrinsics) -> np.ndarray:
    """Pixel + metric depth -> 3D point in the camera frame. p is one pixel
    (2,) with a scalar depth, or a stack (N, 2) with (N,) depths -> (N, 3).
    A depth that is not positive is invalid and raises NoValidDepth."""
    p, depth = np.asarray(p, dtype=float), np.asarray(depth, dtype=float)
    if (depth <= 0).any():
        raise NoValidDepth(f"depth must be positive, got {depth}")
    out = np.empty(depth.shape + (3,))
    out[..., 0] = (p[..., 0] - K.cx) / K.fx * depth
    out[..., 1] = (p[..., 1] - K.cy) / K.fy * depth
    out[..., 2] = depth
    return out


def project(p_cam, K: CameraIntrinsics):
    """Camera-frame point -> (pixel, depth). Inverse of backproject."""
    x, y, z = (float(c) for c in p_cam)
    if z <= 0:
        raise BehindCamera(f"point has non-positive camera depth z={z}")
    return np.array([K.fx * x / z + K.cx, K.fy * y / z + K.cy]), z
