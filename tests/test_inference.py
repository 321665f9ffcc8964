import collections
import ctypes
import dataclasses
import importlib
import json
import sys
import tracemalloc

import numpy as np
import pytest

from graphact import (FrameRecord, InferenceSchedule, SCENARIOS, SampleStream, align_streams,
                      build_default_vocab, build_graph, default_config, detokenize, encode,
                      episode_contexts, gen_episode, generate_cot, init_cot_head,
                      init_flow_expert, init_gnn_weights, make_context, make_rng,
                      pooled_embedding, run_inference_loop, sample_actions, scenario_onehot)
from graphact import cli
from graphact.core import InvalidSetting, ShapeMismatch, to_json, write_files
from graphact.flow import FlowExpert
from graphact.inference import (BLOCK_FRAMES, action_basis, check_artifacts, chunk_coefficients,
                                decode_chunks, frame_json, output_text)
from graphact.sim import EmptyEpisode, Episode
from graphact.stream_sync import CONTROL_STREAM

CFG = default_config()


@pytest.fixture(scope="module")
def artifacts():
    d, h, d_out = CFG.gnn_dims
    gnn_w = init_gnn_weights(make_rng(0), d=d, h=h, d_out=d_out)
    expert = init_flow_expert(make_rng(1), horizon=4, j_dim=CFG.j_total,
                              context_dim=CFG.context_dim, sigma=CFG.sigma)
    head = init_cot_head(build_default_vocab(), context_dim=CFG.context_dim,
                         window=CFG.cot_window, rng=make_rng(2))
    return gnn_w, expert, head


def test_a_library_configs_list_gnn_dims_matches_the_gnn():
    """check_artifacts compares values, not types: a config built in the
    library with gnn_dims as a list accepts a GNN of those dims."""
    cfg = dataclasses.replace(CFG, gnn_dims=list(CFG.gnn_dims))
    check_artifacts(cfg, init_gnn_weights(make_rng(0), *CFG.gnn_dims))


def test_default_schedule_single_cot(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 10, seed=30, cfg=CFG)
    outputs, report = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert len(outputs) == 10
    assert outputs[0].cot_text is not None
    assert all(o.cot_text is None for o in outputs[1:])
    assert all(o.actions.shape == (CFG.flow_horizon, CFG.j_total) for o in outputs)
    assert set(report.stage_samples) == {"graph_build", "encode", "cot_generation",
                                         "action_sampling"}
    assert len(report.stage_samples["cot_generation"]) == 1


def test_action_basis_is_the_orthonormal_dct_ii():
    """The basis rows are orthonormal, read-only and the DCT-II's; a chunk
    whose offset lies in their span comes back from its coefficients to
    rounding, and a horizon shorter than the terms is refused."""
    basis = action_basis(4, 30)
    assert np.abs(basis @ basis.T - np.eye(4)).max() < 1e-15
    assert not basis.flags.writeable and action_basis(4, 30) is basis
    t = np.arange(30)
    assert np.allclose(basis[2], np.sqrt(2 / 30) * np.cos(np.pi * (t + 0.5) * 2 / 30),
                       rtol=0, atol=1e-15)
    q = make_rng(3).normal(size=(5, 14))
    coefs = make_rng(4).normal(size=(5, 4, 14))
    chunks = decode_chunks(coefs, q, 30)
    assert chunks.shape == (5, 30, 14)
    assert np.abs(chunk_coefficients(chunks, q, 4) - coefs).max() < 1e-14
    with pytest.raises(ShapeMismatch, match="5 cosine terms do not fit a 4-step horizon"):
        decode_chunks(make_rng(5).normal(size=(1, 5, 2)), np.zeros((1, 2)), 4)


def test_report_samples_are_measured_once_and_add_up(artifacts):
    """One sample per block for each block stage and one per decode; the
    per-frame samples share the loop's time and add up to the stage samples."""
    for n_frames, blocks in ((9, 1), (BLOCK_FRAMES + 5, 2)):
        ep = gen_episode(SCENARIOS["food"], 0, n_frames, seed=38, cfg=CFG)
        _, report = run_inference_loop(ep, *artifacts, InferenceSchedule(cot_period=4), CFG)
        stages = report.stage_samples
        assert all(len(stages[name]) == blocks
                   for name in ("graph_build", "encode", "action_sampling"))
        assert len(stages["cot_generation"]) == 1 + (n_frames - 1) // 4
        assert len(report.frame_samples) == n_frames
        total = sum(sum(ts) for ts in stages.values())
        assert sum(report.frame_samples) == pytest.approx(total, rel=1e-9, abs=0)


def test_report_counts_the_objects_skipped_in_every_block(artifacts):
    """A depth hole over one box centre in each of two blocks: the report
    counts both detections that got no graph node."""
    ep = gen_episode(SCENARIOS["food"], 0, BLOCK_FRAMES + 2, seed=38, cfg=CFG)
    _, report = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert report.objects_skipped == 0
    for frame in (ep.frames[0], ep.frames[BLOCK_FRAMES + 1]):
        box = frame.detections[0]
        cx, cy = round((box.x_min + box.x_max) / 2), round((box.y_min + box.y_max) / 2)
        frame.depth.patches.append((cx - 3, cy - 3, cx + 4, cy + 4, 0.0))
    _, report = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert report.objects_skipped == 2


def test_blocks_give_the_bits_of_a_frame_by_frame_reference(artifacts):
    """Over two blocks and three frames, with decodes in every block, each
    chunk and text equals a reference built from build_graph and encode frame
    by frame, one sample_actions call over the whole context stack and each
    frame's own decode of its coefficients."""
    gnn_w, expert, head = artifacts
    n = 2 * BLOCK_FRAMES + 3
    ep = gen_episode(SCENARIOS["outfit"], 0, n, seed=39, cfg=CFG)
    schedule = InferenceSchedule(cot_period=11)
    outputs, _ = run_inference_loop(ep, gnn_w, expert, head, schedule, CFG, seed=5)
    onehot = scenario_onehot(ep.scenario.name)
    contexts = np.stack([
        make_context(pooled_embedding(encode(build_graph(f, ep.K, ep.T, CFG.chains), gnn_w)),
                     f.q, onehot)
        for f in ep.frames])
    coefs = sample_actions(expert, contexts, CFG.euler_steps, make_rng(5))
    chunks = [decode_chunks(c[None], f.q[None], CFG.flow_horizon)[0]
              for c, f in zip(coefs, ep.frames)]
    assert [o.index for o in outputs] == list(range(n))
    assert max(i for i in range(n) if schedule.wants_cot(i)) >= 2 * BLOCK_FRAMES
    for o, context, chunk in zip(outputs, contexts, chunks):
        assert np.array_equal(o.actions, chunk)
        assert o.cot_text == (detokenize(generate_cot(head, context, CFG.cot_max_len), head.vocab)
                              if schedule.wants_cot(o.index) else None)


def test_chunks_do_not_depend_on_the_blas_thread_count(artifacts):
    """Over two blocks, the loop's chunks have the same bits with numpy's
    BLAS on one thread and on two: every product is one frame's."""
    get = cli._openblas("get_num_threads", [], ctypes.c_int)
    set_threads = cli._openblas("set_num_threads", [ctypes.c_int], None)
    if get is None or set_threads is None:
        pytest.skip("numpy's BLAS has no thread-count setter")
    ep = gen_episode(SCENARIOS["food"], 0, BLOCK_FRAMES + 8, seed=41, cfg=CFG)
    threads, chunks = get(), []
    try:
        for n in (1, 2):
            set_threads(n)
            outputs, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=4)
            chunks.append(np.array([o.actions for o in outputs]))
    finally:
        set_threads(threads)
    assert chunks[0].tobytes() == chunks[1].tobytes()


def _infer_peaks(artifacts, n_frames, path):
    """tracemalloc peaks of one episode's loop and output write: (the peak
    less the bytes of the returned chunks, the write's own peak, the length
    of the first frame's JSON)."""
    ep = gen_episode(SCENARIOS["food"], 0, n_frames, seed=40, cfg=CFG)
    tracemalloc.start()
    try:
        outputs, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
        held, loop_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_files([(path, output_text(outputs))])
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = sum(o.actions.nbytes for o in outputs)
    return (max(loop_peak, write_peak) - chunk_bytes, write_peak - held,
            len(frame_json(outputs[0])))


def test_infer_memory_is_bounded_by_a_block(artifacts, tmp_path):
    """Past the returned chunks, the loop and the write hold one block of
    frames at a time, and the write one frame's text and values (its Python
    floats, its text and its encoded bytes, under 8 times the text) plus the
    file's buffers."""
    gnn_w, _, head = artifacts
    expert = init_flow_expert(make_rng(1), horizon=CFG.flow_horizon, j_dim=CFG.j_total,
                              context_dim=CFG.context_dim, sigma=CFG.sigma)
    small, small_write, _ = _infer_peaks((gnn_w, expert, head), 2 * BLOCK_FRAMES,
                                         tmp_path / "small.json")
    large, large_write, frame_text = _infer_peaks((gnn_w, expert, head), 8 * BLOCK_FRAMES,
                                                  tmp_path / "large.json")
    assert large < 1.25 * small, f"peak {small / 1e6:.2f} -> {large / 1e6:.2f} MB"
    for write in (small_write, large_write):
        assert write < 8 * frame_text + 32_000, f"write peak {write} B"


def test_cot_period_schedule(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 12, seed=31, cfg=CFG)
    outputs, _ = run_inference_loop(ep, *artifacts,
                                    InferenceSchedule(cot_period=5), CFG)
    emitted = [o.index for o in outputs if o.cot_text is not None]
    assert emitted == [0, 5, 10]


def test_no_first_cot_with_period(artifacts):
    """Frame 0 follows cot_on_first_frame, later frames the period."""
    ep = gen_episode(SCENARIOS["food"], 0, 12, seed=31, cfg=CFG)
    outputs, _ = run_inference_loop(
        ep, *artifacts, InferenceSchedule(cot_on_first_frame=False, cot_period=5), CFG)
    assert [o.index for o in outputs if o.cot_text is not None] == [5, 10]


def test_cot_emission_count_formula(artifacts):
    n = 11
    ep = gen_episode(SCENARIOS["outfit"], 0, n, seed=32, cfg=CFG)
    for period in (1, 2, 3, 7):
        outputs, _ = run_inference_loop(ep, *artifacts,
                                        InferenceSchedule(cot_period=period), CFG)
        emitted = sum(1 for o in outputs if o.cot_text is not None)
        assert emitted == 1 + (n - 1) // period


def test_no_first_cot(artifacts):
    ep = gen_episode(SCENARIOS["food"], 1, 4, seed=33, cfg=CFG)
    outputs, report = run_inference_loop(
        ep, *artifacts, InferenceSchedule(cot_on_first_frame=False), CFG)
    assert all(o.cot_text is None for o in outputs)
    assert report.stage_samples["cot_generation"] == []


def test_outputs_deterministic_given_seed(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 6, seed=34, cfg=CFG)
    a, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=9)
    b, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=9)
    assert [frame_json(o) for o in a] == [frame_json(o) for o in b]
    c, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=10)
    assert [frame_json(o) for o in c] != [frame_json(o) for o in a]


def test_aligned_frames_feed_the_loop_directly(artifacts):
    """align_streams returns FrameRecords: the loop and build_graph take them
    as they are, and they give the same outputs as the episode's own frames."""
    ep = gen_episode(SCENARIOS["food"], 0, 5, seed=38, cfg=CFG)
    head = SampleStream("head", CFG.camera_rate_hz,
                        [(f.t, {"detections": f.detections, "depth": f.depth})
                         for f in ep.frames])
    control = SampleStream(CONTROL_STREAM, CFG.control_rate_hz,
                           [(f.t, list(f.q)) for f in ep.frames])
    frames = align_streams(head, [control], CFG.max_gap)
    assert len(frames) == len(ep.frames)
    assert all(isinstance(f, FrameRecord) for f in frames)
    for a, b in zip(frames, ep.frames):
        assert (json.dumps(to_json(build_graph(a, CFG.intrinsics, CFG.extrinsics, CFG.chains)))
                == json.dumps(to_json(build_graph(b, CFG.intrinsics, CFG.extrinsics, CFG.chains))))
    aligned = Episode(frames=frames, scene=ep.scene, scenario=ep.scenario,
                      trajectory=[f.q for f in frames], K=ep.K, T=ep.T)
    got, _ = run_inference_loop(aligned, *artifacts, InferenceSchedule(), CFG, seed=3)
    want, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=3)
    assert [frame_json(o) for o in got] == [frame_json(o) for o in want]


def test_scenario_onehot_follows_the_registry(artifacts):
    """The task one-hot is over tuple(SCENARIOS), in its order, and the
    config's context_dim counts it; a library-built Episode whose scenario is
    not registered is refused as InvalidSetting."""
    names = tuple(SCENARIOS)
    for i, name in enumerate(names):
        assert scenario_onehot(name).tolist() == [float(k == i) for k in range(len(names))]
    assert CFG.context_dim == CFG.gnn_dims[2] + CFG.j_total + len(names) == 48
    ep = gen_episode(SCENARIOS["food"], 0, 2, seed=35, cfg=CFG)
    ep.scenario = dataclasses.replace(ep.scenario, name="laundry")
    for run in (lambda: run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG),
                lambda: episode_contexts(ep, artifacts[0], CFG, ep.frames)):
        with pytest.raises(InvalidSetting, match="'laundry' is not among the registered"):
            run()


def test_empty_episode_raises(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 2, seed=35, cfg=CFG)
    ep.frames = []
    with pytest.raises(EmptyEpisode):
        run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)


def test_zero_counts_are_rejected_not_defaulted(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 2, seed=37, cfg=CFG)
    for euler_steps in (0, -1):
        with pytest.raises(ValueError, match="euler_steps"):
            dataclasses.replace(CFG, euler_steps=euler_steps)
    one, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(),
                                dataclasses.replace(CFG, cot_max_len=1, euler_steps=1))
    default, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert [frame_json(o) for o in one] != [frame_json(o) for o in default]
    assert len(one[0].cot_text.split()) <= 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        InferenceSchedule(cot_period=0)


# Functions perfbench/tracing.py traces by name on every control tick; a
# tick that stops calling one leaves that layer's figures empty.
TICK_TRACE_POINTS = [("graphact.kinematics", "fk_positions"), ("graphact.projection", "depth_at"),
                     ("graphact.graph", "build_graph"), ("graphact.gnn", "encode"),
                     ("graphact.gnn", "graph_conv"), ("graphact.flow", "sample_actions"),
                     ("graphact.cot", "generate_cot")]


def test_one_frame_tick_calls_every_traced_function(artifacts, monkeypatch):
    """A one-frame loop with reasoning on frame 0 calls each traced function
    at least once, counted as the tracer installs itself: in every graphact
    namespace that binds the function, and on FlowExpert for forward."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for owner, attr in TICK_TRACE_POINTS:
        fn = getattr(importlib.import_module(owner), attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "graphact" and getattr(mod, attr, None) is fn:
                monkeypatch.setattr(mod, attr, counting(attr, fn))
    monkeypatch.setattr(FlowExpert, "forward", counting("forward", FlowExpert.forward))
    ep = gen_episode(SCENARIOS["food"], 0, 1, seed=30, cfg=CFG)
    assert ep.frames[0].detections
    outputs, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert outputs[0].cot_text is not None
    wanted = [attr for _, attr in TICK_TRACE_POINTS] + ["forward"]
    assert {name: counts[name] for name in wanted if counts[name] < 1} == {}
