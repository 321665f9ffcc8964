import math

import numpy as np
import pytest

from graphact import (SCENARIOS, build_graph, default_config, episode_text, gen_episode,
                      gen_scene, load_episode, make_rng, render_frame)
from graphact.projection import BehindCamera
from graphact.sim import (_TABLE, DEFAULT_FAR, TRANSLATE_JITTER, YAW_JITTER, InvalidVariant,
                          Scene, SceneObject, look_at)

CFG = default_config()


def test_sim_reads_the_one_scenario_registry():
    """core holds the task families; sim and the package name the same objects."""
    import graphact
    assert graphact.sim.SCENARIOS is graphact.core.SCENARIOS is graphact.SCENARIOS
    assert graphact.sim.InstructionScenario is graphact.core.InstructionScenario


def test_table_one_availability_rows():
    food = SCENARIOS["food"]
    assert food.variants[0] == ("egg", "tomato", "fish", "pepper")
    assert "fish" not in food.variants[1] and "pepper" in food.variants[1]
    assert food.variants[2] == ("egg", "tomato")
    outfit = SCENARIOS["outfit"]
    assert outfit.variants[0] == ("sweater", "t-shirt", "shorts")
    assert outfit.variants[1] == ("sweater", "t-shirt")
    assert outfit.variants[2] == ("sweater",)
    # 100 demonstrations per variant over both families totals 600
    n_variants = sum(len(s.variants) for s in SCENARIOS.values())
    assert n_variants * 100 == 600


def test_gen_scene_jitter_bounds():
    scen = SCENARIOS["food"]
    rng = make_rng(0)
    for _ in range(200):
        scene = gen_scene(scen, 0, rng)
        for obj in scene.objects:
            nominal = np.array(scen.nominal[obj.label])
            offset = obj.position - nominal
            assert abs(offset[0]) <= 0.10 and abs(offset[1]) <= 0.10
            assert offset[2] == 0.0
            assert abs(obj.yaw) <= math.radians(30.0) + 1e-12


def test_gen_scene_objects_inside_table():
    scen = SCENARIOS["outfit"]
    rng = make_rng(1)
    (x0, x1), (y0, y1), _ = _TABLE
    for _ in range(100):
        for obj in gen_scene(scen, 0, rng).objects:
            assert x0 <= obj.position[0] <= x1
            assert y0 <= obj.position[1] <= y1


def test_gen_scene_variant_availability():
    scene = gen_scene(SCENARIOS["food"], 1, make_rng(2))
    assert "fish" not in scene.labels()
    assert set(scene.labels()) == {"egg", "tomato", "pepper"}


def test_gen_scene_zero_jitter_exact_nominal():
    """Each object sits exactly at nominal + (dx, dy, 0) with yaw, the draws
    replayed from a twin generator."""
    scen = SCENARIOS["food"]
    scene = gen_scene(scen, 0, make_rng(3))
    twin = make_rng(3)
    for obj in scene.objects:
        dx, dy = twin.uniform(-TRANSLATE_JITTER, TRANSLATE_JITTER, size=2)
        yaw = float(twin.uniform(-YAW_JITTER, YAW_JITTER))
        assert np.array_equal(obj.position, np.array(scen.nominal[obj.label]) + (dx, dy, 0.0))
        assert obj.yaw == yaw


def test_gen_scene_invalid_variant():
    with pytest.raises(InvalidVariant):
        gen_scene(SCENARIOS["food"], 3, make_rng(4))


def test_render_object_on_optical_axis():
    K, T = CFG.intrinsics, CFG.extrinsics
    pos = T.apply(np.array([0.0, 0.0, 1.5]))  # 1.5 m along the optical axis
    scene = Scene(objects=[SceneObject("egg", pos, 0.0)], table_bounds=((0, 1),) * 3)
    frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
    box = frame.detections[0]
    # 1-ulp slack: the object position goes through T and back through T^-1
    assert abs((box.x_min + box.x_max) / 2 - K.cx) < 1e-9
    assert abs((box.y_min + box.y_max) / 2 - K.cy) < 1e-9
    assert abs(frame.depth.at(int(K.cx), int(K.cy)) - 1.5) < 1e-12


def test_render_build_graph_roundtrip():
    ep = gen_episode(SCENARIOS["food"], 0, 3, seed=9, cfg=CFG)
    for frame in ep.frames:
        g = build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains)
        for obj in ep.scene.objects:
            node = next(n for n in g.nodes if n.label == obj.label)
            assert np.abs(node.position - obj.position).max() < 1e-6


def test_render_two_objects_disjoint_boxes():
    K, T = CFG.intrinsics, CFG.extrinsics
    a = T.apply(np.array([-0.2, -0.15, 1.2]))
    b = T.apply(np.array([0.25, 0.2, 0.9]))
    scene = Scene(objects=[SceneObject("a", a, 0.0), SceneObject("b", b, 0.0)],
                  table_bounds=((0, 1),) * 3)
    frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
    assert len(frame.detections) == 2
    (ua, va), (ub, vb) = [((d.x_min + d.x_max) / 2, (d.y_min + d.y_max) / 2)
                          for d in frame.detections]
    assert abs(frame.depth.at(int(round(ua)), int(round(va))) - 1.2) < 1e-12
    assert abs(frame.depth.at(int(round(ub)), int(round(vb))) - 0.9) < 1e-12


def test_render_overlap_keeps_nearer_depth():
    K, T = CFG.intrinsics, CFG.extrinsics
    near = T.apply(np.array([0.0, 0.0, 1.0]))
    far_obj = T.apply(np.array([0.002, 0.002, 2.0]))  # nearly same pixel
    scene = Scene(objects=[SceneObject("far", far_obj, 0.0),
                           SceneObject("near", near, 0.0)],
                  table_bounds=((0, 1),) * 3)
    frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
    assert frame.depth.at(int(K.cx), int(K.cy)) == 1.0


def test_render_behind_camera_raises():
    K, T = CFG.intrinsics, CFG.extrinsics
    pos = T.apply(np.array([0.0, 0.0, -0.5]))
    scene = Scene(objects=[SceneObject("x", pos, 0.0)], table_bounds=((0, 1),) * 3)
    with pytest.raises(BehindCamera):
        render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)


def test_render_off_image_omitted():
    """The omitted objects are the scene's objects less the frame's
    detections: here the one object."""
    K, T = CFG.intrinsics, CFG.extrinsics
    pos = T.apply(np.array([5.0, 0.0, 1.0]))  # far outside the frustum
    scene = Scene(objects=[SceneObject("gone", pos, 0.0)], table_bounds=((0, 1),) * 3)
    frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
    assert scene.labels() == ["gone"] and frame.detections == []
    assert frame.depth.far == DEFAULT_FAR and frame.depth.patches == []


def test_depth_fallback_via_injected_invalid_pixels():
    from graphact import depth_at
    ep = gen_episode(SCENARIOS["food"], 0, 1, seed=11, cfg=CFG)
    frame = ep.frames[0]
    box = frame.detections[0]
    u = int(round((box.x_min + box.x_max) / 2))
    v = int(round((box.y_min + box.y_max) / 2))
    true_depth = frame.depth.at(u, v)
    frame.depth.patches.append((u, v, u + 1, v + 1, 0.0))  # punch a hole at the center pixel
    assert depth_at(frame.depth, ((box.x_min + box.x_max) / 2,
                                  (box.y_min + box.y_max) / 2)) == true_depth


def test_gen_episode_single_frame_home():
    ep = gen_episode(SCENARIOS["outfit"], 0, 1, seed=12, cfg=CFG)
    assert len(ep.frames) == 1
    assert np.array_equal(ep.trajectory[0], np.zeros(CFG.j_total))


def test_gen_episode_trajectory_endpoints():
    ep = gen_episode(SCENARIOS["food"], 0, 25, seed=13, cfg=CFG)
    assert np.array_equal(ep.trajectory[0], np.zeros(CFG.j_total))
    lo, hi = CFG.joint_limits
    assert (ep.trajectory[-1] >= lo).all() and (ep.trajectory[-1] <= hi).all()
    # goal differs from home because a required object is present
    assert np.abs(ep.trajectory[-1]).max() > 0.01
    # cubic is monotone between the endpoints for each joint
    traj = np.stack(ep.trajectory)
    deltas = np.diff(traj, axis=0) * np.sign(ep.trajectory[-1])[None, :]
    assert (deltas >= -1e-12).all()


def test_gen_episode_no_required_objects_stays_home():
    ep = gen_episode(SCENARIOS["food"], 2, 10, seed=14, cfg=CFG)
    assert np.array_equal(ep.trajectory[-1], np.zeros(CFG.j_total))


def test_episode_timestamps_at_camera_rate():
    ep = gen_episode(SCENARIOS["food"], 0, 8, seed=15, cfg=CFG)
    for i, frame in enumerate(ep.frames):
        assert frame.t == i / CFG.camera_rate_hz


def test_episode_file_roundtrip(tmp_path):
    ep = gen_episode(SCENARIOS["food"], 1, 6, seed=16, cfg=CFG)
    path = tmp_path / "ep.jsonl"
    path.write_text(episode_text(ep))
    loaded = load_episode(path)
    assert len(loaded.frames) == len(ep.frames)
    assert loaded.scenario.name == "food" and loaded.variant == 1
    # scene reproduced exactly from the recorded seed
    for a, b in zip(loaded.scene.objects, ep.scene.objects):
        assert a.label == b.label and np.array_equal(a.position, b.position)
        assert a.yaw == b.yaw
    for fa, fb in zip(loaded.frames, ep.frames):
        assert fa.t == fb.t
        assert np.array_equal(fa.q, fb.q)
        assert fa.detections == fb.detections
        w, h = fb.depth.width, fb.depth.height
        assert (fa.depth.width, fa.depth.height) == (w, h)
        assert fa.depth.far == fb.depth.far and fa.depth.patches == fb.depth.patches


def test_episode_files_byte_identical_across_runs(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    p1.write_text(episode_text(gen_episode(SCENARIOS["outfit"], 1, 5, seed=17, cfg=CFG)))
    p2.write_text(episode_text(gen_episode(SCENARIOS["outfit"], 1, 5, seed=17, cfg=CFG)))
    assert p1.read_bytes() == p2.read_bytes()


def test_scene_generation_at_paper_scale():
    # 6 variants x 100 seeds: the full training-set layout sweep stays cheap
    count = 0
    for scen in SCENARIOS.values():
        for variant in range(len(scen.variants)):
            for i in range(100):
                scene = gen_scene(scen, variant, make_rng(1000 + count))
                assert scene.labels() == list(scen.variants[variant])
                count += 1
    assert count == 600


def test_look_at_rejects_degenerate_direction():
    with pytest.raises(ValueError):
        look_at(eye=(0, 0, 1), target=(0, 0, 2))  # parallel to up
