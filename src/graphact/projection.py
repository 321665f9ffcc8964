"""Pinhole geometry: box centers, depth lookup, backprojection, and the
forward-projection oracle used to verify it."""

import math

import numpy as np

from .core import BoundingBox, CameraIntrinsics, DepthGrid, PipelineError, RigidTransform


class NoValidDepth(PipelineError):
    pass


class NonPositiveDepth(PipelineError):
    pass


class BehindCamera(PipelineError):
    pass


def bbox_center(b: BoundingBox) -> np.ndarray:
    """Pixel center ((x_min+x_max)/2, (y_min+y_max)/2)."""
    return np.array([(b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0])


def depth_at(depth: DepthGrid, p) -> float:
    """Depth at the nearest integer pixel; median fallback over a 3x3 window.

    Invalid values are non-positive (or non-finite). When the center pixel is
    invalid, returns the median of valid values in its 3x3 neighborhood,
    clipped to the image; raises NoValidDepth when the whole neighborhood is
    invalid. Reads only that pixel and neighborhood, never the whole image.
    """
    u = int(round(float(p[0])))
    v = int(round(float(p[1])))
    u = min(max(u, 0), depth.width - 1)
    v = min(max(v, 0), depth.height - 1)
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
    (2,) with a scalar depth, or a stack (N, 2) with (N,) depths -> (N, 3)."""
    p, depth = np.asarray(p, dtype=float), np.asarray(depth, dtype=float)
    if (depth <= 0).any():
        raise NonPositiveDepth(f"depth must be positive, got {depth}")
    out = np.empty(depth.shape + (3,))
    out[..., 0] = (p[..., 0] - K.cx) / K.fx * depth
    out[..., 1] = (p[..., 1] - K.cy) / K.fy * depth
    out[..., 2] = depth
    return out


def transform_point(T: RigidTransform, p) -> np.ndarray:
    """rotation @ p + translation, for one point (3,) or each row of (N, 3)."""
    p = np.asarray(p, dtype=float)
    return (T.rotation @ p[..., None])[..., 0] + T.translation


def project(p_cam, K: CameraIntrinsics):
    """Camera-frame point -> (pixel, depth). Inverse of backproject."""
    x, y, z = (float(c) for c in p_cam)
    if z <= 0:
        raise BehindCamera(f"point has non-positive camera depth z={z}")
    return np.array([K.fx * x / z + K.cx, K.fy * y / z + K.cy]), z
