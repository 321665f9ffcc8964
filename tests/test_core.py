import numpy as np
import pytest

from graphact import (BoundingBox, CameraIntrinsics, DepthGrid, FrameRecord,
                      PipelineConfig, RigidTransform, derive_seed, make_rng,
                      validate_frame)
from conftest import random_rotation


def test_rigid_transform_inverse_roundtrip():
    rng = make_rng(0)
    for _ in range(200):
        T = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.abs(T.inverse().apply(T.apply(p)) - p).max() < 1e-12


def test_rigid_transform_compose_matches_sequential():
    rng = make_rng(1)
    A = RigidTransform(random_rotation(rng), rng.normal(size=3))
    B = RigidTransform(random_rotation(rng), rng.normal(size=3))
    p = rng.normal(size=3)
    assert np.allclose(A.compose(B).apply(p), A.apply(B.apply(p)), atol=1e-12)


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.01, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=500.0, cx=320, cy=240, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=700, cy=240, width=640, height=480)


def test_equal_seeds_equal_streams():
    a = make_rng(987654321)
    b = make_rng(987654321)
    assert np.array_equal(a.random(10_000), b.random(10_000))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 1, 3)
    assert derive_seed(7, 1, 2) != derive_seed(8, 1, 2)


def _frame(cfg, q=None, detections=None, depth=None):
    K = cfg.intrinsics
    return FrameRecord(
        t=0.0,
        detections=detections if detections is not None else
        [BoundingBox("egg", 100.0, 100.0, 120.0, 120.0)],
        depth=depth if depth is not None else DepthGrid.constant(K.width, K.height, 2.0),
        q=q if q is not None else np.zeros(cfg.j_total),
    )


def test_validate_wellformed_frame_empty_report(cfg):
    assert validate_frame(_frame(cfg), cfg).ok


def test_validate_degenerate_box(cfg):
    frame = _frame(cfg, detections=[BoundingBox("egg", 50.0, 50.0, 50.0, 80.0)])
    report = validate_frame(frame, cfg)
    assert any("degenerate" in v for v in report.violations)


def test_validate_joint_limit_breach(cfg):
    lo, hi = cfg.joint_limits
    q = np.zeros(cfg.j_total)
    q[3] = hi + 0.1
    report = validate_frame(_frame(cfg, q=q), cfg)
    assert any("joint limit" in v for v in report.violations)


def test_validate_nan_depth_and_dof_mismatch(cfg):
    K = cfg.intrinsics
    bad_depth = DepthGrid.constant(K.width, K.height, 2.0)
    bad_depth.patches.append((5, 5, np.array([[np.nan]])))
    report = validate_frame(_frame(cfg, depth=bad_depth), cfg)
    assert any("NaN" in v for v in report.violations)
    report = validate_frame(_frame(cfg, q=np.zeros(cfg.j_total - 1)), cfg)
    assert any("dof mismatch" in v for v in report.violations)


def test_validate_nan_far_depth(cfg):
    K = cfg.intrinsics
    report = validate_frame(_frame(cfg, depth=DepthGrid.constant(K.width, K.height, np.nan)), cfg)
    assert any("NaN" in v for v in report.violations)


def test_config_json_roundtrip(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = PipelineConfig.load(path)
    assert loaded.j_total == cfg.j_total
    assert np.allclose(loaded.extrinsics.rotation, cfg.extrinsics.rotation)
    assert [c.name for c in loaded.chains] == [c.name for c in cfg.chains]
    assert loaded.chains[0].links == cfg.chains[0].links
    assert loaded.gnn_dims == cfg.gnn_dims
