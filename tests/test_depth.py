"""Sparse DepthGrid against a dense oracle, and the memory it costs per frame.

The oracle is a dense (height, width) array built the way depth used to be
held: np.full of the far background, then one write per box, np.minimum at
render time (nearer surface wins) and plain assignment when read from a file.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from graphact import (SCENARIOS, backproject, bbox_center, default_config, depth_at,
                      episode_text, gen_episode, load_episode, make_rng, render_frame)
from graphact.projection import NoValidDepth, project
from graphact.sim import DEFAULT_BOX_SIZE, DEFAULT_FAR, Scene, SceneObject, _box_region

CFG = default_config()
K, T = CFG.intrinsics, CFG.extrinsics
DENSE_GRID_BYTES = K.width * K.height * 8


def dense_render(scene, box_size=DEFAULT_BOX_SIZE, far=DEFAULT_FAR):
    dense = np.full((K.height, K.width), far)
    T_inv = T.inverse()
    for obj in scene.objects:
        pix, z = project(T_inv.apply(obj.position), K)
        u, v = float(pix[0]), float(pix[1])
        hu = min(box_size / 2.0, u, K.width - u)
        hv = min(box_size / 2.0, v, K.height - v)
        if hu < 1.0 or hv < 1.0:
            continue
        x0 = max(int(math.floor(u - hu)), 0)
        y0 = max(int(math.floor(v - hv)), 0)
        x1 = min(int(math.ceil(u + hu)), K.width)
        y1 = min(int(math.ceil(v + hv)), K.height)
        dense[y0:y1, x0:x1] = np.minimum(dense[y0:y1, x0:x1], z)
    return dense


def dense_from_file(path):
    """One dense grid per frame line, of the header's image size, rectangles
    written in file order."""
    grids = []
    with open(path) as f:
        header, *lines = f
        size = json.loads(header)["K"]
        for line in lines:
            rec = json.loads(line)
            dense = np.full((size["height"], size["width"]), float(rec["far"]))
            for x0, y0, x1, y1, z in rec["depth"]:
                dense[y0:y1, x0:x1] = z
            grids.append(dense)
    return grids


def dense_depth_at(dense, p, window=3):
    h, w = dense.shape
    u = min(max(int(round(float(p[0]))), 0), w - 1)
    v = min(max(int(round(float(p[1]))), 0), h - 1)
    val = dense[v, u]
    if np.isfinite(val) and val > 0:
        return float(val)
    r = window // 2
    patch = dense[max(v - r, 0):v + r + 1, max(u - r, 0):u + r + 1]
    valid = patch[np.isfinite(patch) & (patch > 0)]
    if valid.size == 0:
        raise NoValidDepth("oracle")
    return float(np.median(valid))


def ring_pixels(box):
    """Every pixel of the box's depth region and its 1-pixel ring, clipped."""
    x0, y0, x1, y1 = _box_region(box, K.width, K.height)
    for v in range(max(y0 - 1, 0), min(y1 + 1, K.height)):
        for u in range(max(x0 - 1, 0), min(x1 + 1, K.width)):
            yield u, v


def assert_matches_dense(frame, dense):
    grid = frame.depth
    assert (grid.width, grid.height) == (K.width, K.height)
    for box in frame.detections:
        for u, v in ring_pixels(box):
            assert np.array_equal(grid.at(u, v), dense[v, u], equal_nan=True)
            try:
                expected = dense_depth_at(dense, (u, v))
            except NoValidDepth:
                with pytest.raises(NoValidDepth):
                    depth_at(grid, (u, v))
            else:
                assert depth_at(grid, (u, v)) == expected


def punch_holes(frame, dense, rng):
    """Invalidate the center pixel of every box (so lookups fall back to the
    window median), a random pixel per box, and one whole 3x3 neighborhood."""
    for i, box in enumerate(frame.detections):
        c = bbox_center(box)
        u, v = int(round(c[0])), int(round(c[1]))
        x0, y0, x1, y1 = _box_region(box, K.width, K.height)
        ru, rv = int(rng.integers(x0, x1)), int(rng.integers(y0, y1))
        bad = -1.0 if i % 2 else np.nan
        for pu, pv in ((u, v), (ru, rv)):
            frame.depth.patches.append((pu, pv, pu + 1, pv + 1, bad))
            dense[pv, pu] = bad
    box = frame.detections[0]
    c = bbox_center(box)
    u, v = int(round(c[0])), int(round(c[1]))
    frame.depth.patches.append((u - 1, v - 1, u + 2, v + 2, 0.0))
    dense[v - 1:v + 2, u - 1:u + 2] = 0.0


def scene_at_pixels(pixels):
    objs = [SceneObject(f"o{i}", T.apply(backproject((u, v), z, K)), 0.0)
            for i, (u, v, z) in enumerate(pixels)]
    return Scene(objects=objs, table_bounds=((0, 1),) * 3)


def frustum_scene(n=16):
    rng = make_rng(11)
    pixels = []
    while len(pixels) < n:
        u, v = float(rng.uniform(40, K.width - 40)), float(rng.uniform(40, K.height - 40))
        if all(abs(u - a) > 40 or abs(v - b) > 40 for a, b, _ in pixels):
            pixels.append((u, v, float(rng.uniform(0.5, 3.0))))
    return scene_at_pixels(pixels)


SCENES = {
    "frustum16": frustum_scene,
    # chained overlaps: a nearer box drawn over a farther one, then a farther
    # box drawn over that nearer one
    "overlap": lambda: scene_at_pixels([(300.0, 200.0, 2.0), (310.3, 207.6, 1.0),
                                        (318.2, 214.9, 1.5)]),
    # boxes cut by the left/top and the right/bottom image borders
    "border": lambda: scene_at_pixels([(3.4, 240.0, 1.2), (320.0, 2.2, 0.8),
                                       (636.5, 477.3, 1.7)]),
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_render_matches_dense_oracle(name):
    scene = SCENES[name]()
    frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
    dense = dense_render(scene)
    assert len(frame.detections) == len(scene.objects)
    assert_matches_dense(frame, dense)
    punch_holes(frame, dense, make_rng(5))
    assert_matches_dense(frame, dense)


@pytest.mark.parametrize("name", sorted(SCENES))
def test_scene_file_roundtrip_matches_dense_oracle(name, tmp_path):
    frame = render_frame(SCENES[name](), np.zeros(CFG.j_total), 0.0, K, T)
    ep = gen_episode(SCENARIOS["food"], 0, 1, seed=3, cfg=CFG)
    ep.frames = [frame]
    path = tmp_path / "ep.jsonl"
    path.write_text(episode_text(ep))
    (dense,) = dense_from_file(path)
    assert np.array_equal(dense, dense_render(SCENES[name]()))
    assert_matches_dense(load_episode(path).frames[0], dense)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_episode_matches_dense_oracle(scenario, tmp_path):
    ep = gen_episode(SCENARIOS[scenario], 0, 4, seed=21, cfg=CFG)
    path = tmp_path / "ep.jsonl"
    path.write_text(episode_text(ep))
    loaded = load_episode(path)
    dense_grids = dense_from_file(path)
    rng = make_rng(6)
    for frame, loaded_frame, dense in zip(ep.frames, loaded.frames, dense_grids):
        assert np.array_equal(dense, dense_render(ep.scene))
        assert_matches_dense(frame, dense)
        assert_matches_dense(loaded_frame, dense)
        punch_holes(loaded_frame, dense, rng)
        assert_matches_dense(loaded_frame, dense)


def test_window_clips_to_image_and_later_patch_wins():
    from graphact import DepthGrid
    grid = DepthGrid(4, 3, 7.0)
    # two 2x2 blocks of 1x1 rectangles, the second drawn over the first
    grid.patches += [(1, 0, 2, 1, 1.0), (2, 0, 3, 1, 2.0), (1, 1, 2, 2, 3.0), (2, 1, 3, 2, 4.0),
                     (2, 1, 3, 2, 9.0), (3, 1, 4, 2, 8.0), (2, 2, 3, 3, 6.0), (3, 2, 4, 3, 5.0)]
    dense = np.array([[7.0, 1.0, 2.0, 7.0],
                      [7.0, 3.0, 9.0, 8.0],
                      [7.0, 7.0, 6.0, 5.0]])
    assert [grid.at(u, v) for v in range(3) for u in range(4)] == dense.ravel().tolist()


def _load_peak_bytes(path):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ep = load_episode(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(ep.frames), peak


@pytest.mark.parametrize("n_frames,limit", [
    (600, 600 * 0.1e6),          # under 0.1 MB per frame at 640x480
    (60, DENSE_GRID_BYTES),      # a whole episode under one dense 640x480 grid
    (600, 600 * 5e3),            # under 5 KB per frame: a few numbers per box
])
def test_load_episode_memory_is_bounded_by_box_pixels(n_frames, limit, tmp_path):
    path = tmp_path / "ep.jsonl"
    path.write_text(episode_text(gen_episode(SCENARIOS["food"], 0, n_frames, seed=8, cfg=CFG)))
    frames, peak = _load_peak_bytes(path)
    assert frames == n_frames
    assert peak < limit, f"load_episode peak {peak / 1e6:.2f} MB for {n_frames} frames"


def test_episode_file_is_under_2kb_per_frame(tmp_path):
    """A frame line holds t, q, the detections and one rectangle per box,
    not the pixels under each box."""
    path = tmp_path / "ep.jsonl"
    path.write_text(episode_text(gen_episode(SCENARIOS["food"], 0, 60, seed=8, cfg=CFG)))
    assert path.stat().st_size < 60 * 2e3
