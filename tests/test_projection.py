import math

import numpy as np
import pytest

from graphact import (BoundingBox, CameraIntrinsics, DepthGrid, RigidTransform,
                      backproject, bbox_center, depth_at, make_rng, project)
from graphact.core import InvalidSetting
from graphact.projection import BehindCamera, NoValidDepth
from conftest import random_rotation

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.mark.parametrize("box,expected", [
    ((0, 0, 10, 10), (5.0, 5.0)),
    ((100, 40, 140, 80), (120.0, 60.0)),
    ((3, 3, 4, 4), (3.5, 3.5)),
])
def test_bbox_center(box, expected):
    b = BoundingBox("x", *map(float, box))
    assert tuple(bbox_center(b)) == expected


def test_depth_at_uniform_grid():
    grid = DepthGrid(64, 48, 2.0)
    assert depth_at(grid, (10.2, 30.7)) == 2.0
    assert depth_at(grid, (0, 0)) == 2.0


def test_depth_at_median_fallback_unanimous():
    grid = DepthGrid(9, 9, 1.0)
    grid.patches.append((4, 4, 5, 5, 0.0))  # invalid center
    assert depth_at(grid, (4, 4)) == 1.0


def test_depth_at_median_of_valid_multiset():
    # neighborhood {1.0, 1.2, 5.0, invalid x6} -> median 1.2
    grid = DepthGrid(3, 3, 0.0)
    grid.patches += [(0, 0, 1, 1, 1.0), (1, 0, 2, 1, 1.2), (2, 0, 3, 1, 5.0)]
    assert depth_at(grid, (1, 1)) == 1.2


def test_depth_at_no_valid_depth():
    grid = DepthGrid(5, 5, -1.0)
    with pytest.raises(NoValidDepth):
        depth_at(grid, (2, 2))


def test_backproject_principal_point():
    assert np.allclose(backproject((320.0, 240.0), 1.5, K), [0.0, 0.0, 1.5], atol=0)


def test_backproject_offset_pixel():
    # (420-320)/500 * 1.0 = 0.2
    assert np.allclose(backproject((420.0, 240.0), 1.0, K), [0.2, 0.0, 1.0])


def test_backproject_unit_intrinsics():
    K1 = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10)
    assert np.allclose(backproject((0.0, 0.0), 2.0, K1), [0.0, 0.0, 2.0], atol=0)


def test_backproject_rejects_nonpositive_depth():
    with pytest.raises(NoValidDepth):
        backproject((320.0, 240.0), 0.0, K)


def test_project_optical_axis():
    pix, z = project((0.0, 0.0, 1.5), K)
    assert tuple(pix) == (320.0, 240.0) and z == 1.5


def test_project_inverse_of_backproject_example():
    pix, z = project((0.2, 0.0, 1.0), K)
    assert np.allclose(pix, [420.0, 240.0]) and z == 1.0


def test_project_behind_camera():
    with pytest.raises(BehindCamera):
        project((0.0, 0.0, -0.1), K)


def test_backproject_scaling():
    rng = make_rng(12)
    for _ in range(100):
        pix = rng.uniform(0, 640), rng.uniform(0, 480)
        d = rng.uniform(0.1, 5.0)
        lam = rng.uniform(0.1, 10.0)
        assert np.abs(backproject(pix, lam * d, K) -
                      lam * backproject(pix, d, K)).max() < 1e-12


def test_apply_cases():
    identity = RigidTransform(np.eye(3), np.zeros(3))
    assert np.array_equal(identity.apply((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0])
    T = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
    assert np.allclose(T.apply((1.0, 2.0, 3.0)), [1.0, 2.0, 4.0], atol=0)
    Rz90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    got = RigidTransform(Rz90, np.zeros(3)).apply((1.0, 0.0, 0.0))
    assert np.abs(got - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_transform_preserves_pairwise_distances():
    rng = make_rng(13)
    for _ in range(50):
        T = RigidTransform(random_rotation(rng), rng.normal(size=3))
        a, b = rng.normal(size=3), rng.normal(size=3)
        da = np.linalg.norm(T.apply(a) - T.apply(b))
        assert abs(da - np.linalg.norm(a - b)) < 1e-12


def test_stacked_backproject_and_transform_bit_equal_to_one_point_calls():
    rng = make_rng(14)
    T = RigidTransform(random_rotation(rng), rng.normal(size=3))
    pix = rng.uniform(0, 640, size=(16, 2))
    depth = rng.uniform(0.2, 4.0, size=16)
    cam = backproject(pix, depth, K)
    base = T.apply(cam)
    assert cam.shape == base.shape == (16, 3)
    for i in range(16):
        one = backproject(tuple(pix[i]), float(depth[i]), K)
        assert cam[i].tobytes() == one.tobytes()
        assert base[i].tobytes() == T.apply(one).tobytes()


def test_depth_at_refuses_pixels_off_the_image_and_keeps_its_edges():
    """The accepted pixels are the closed [0, width] x [0, height]: an
    episode's zero-width box may sit on the right or bottom edge."""
    grid = DepthGrid(8, 6, 2.0)
    for p in ((0.0, 0.0), (8.0, 6.0), (8.0, 0.0), (0.0, 6.0)):
        assert depth_at(grid, p) == 2.0
    for p in ((-1e-9, 3.0), (8.000001, 3.0), (3.0, 6.5), (3.0, -2.0), (math.nan, 1.0),
              (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(InvalidSetting, match="off the 8x6 image"):
            depth_at(grid, p)
