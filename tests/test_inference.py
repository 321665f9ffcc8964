import dataclasses

import pytest

from graphact import (FrameRecord, InferenceSchedule, SCENARIOS, SampleStream, align_streams,
                      build_default_vocab, build_graph, default_config, gen_episode,
                      graph_to_json, init_cot_head, init_flow_expert, init_gnn_weights,
                      make_rng, run_inference_loop)
from graphact.core import InvalidSetting
from graphact.inference import outputs_to_dict
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


def test_default_schedule_single_cot(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 10, seed=30, cfg=CFG)
    outputs, report = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert len(outputs) == 10
    assert outputs[0].cot_text is not None
    assert all(o.cot_text is None for o in outputs[1:])
    assert all(o.actions.shape == (4, CFG.j_total) for o in outputs)
    assert set(report.stage_samples) == {"graph_build", "encode", "cot_generation",
                                         "action_sampling"}
    assert len(report.stage_samples["cot_generation"]) == 1


def test_report_samples_are_measured_once_and_add_up(artifacts):
    """One sample per episode-wide stage and one per decode; the per-frame
    samples share the loop's time and add up to the stage samples."""
    ep = gen_episode(SCENARIOS["food"], 0, 9, seed=38, cfg=CFG)
    _, report = run_inference_loop(ep, *artifacts, InferenceSchedule(cot_period=4), CFG)
    stages = report.stage_samples
    assert all(len(stages[name]) == 1 for name in ("graph_build", "encode", "action_sampling"))
    assert len(stages["cot_generation"]) == 3
    assert len(report.frame_samples) == 9
    total = sum(sum(ts) for ts in stages.values())
    assert sum(report.frame_samples) == pytest.approx(total, rel=1e-9, abs=0)


def test_cot_period_schedule(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 12, seed=31, cfg=CFG)
    outputs, _ = run_inference_loop(ep, *artifacts,
                                    InferenceSchedule(cot_period=5), CFG)
    emitted = [o.index for o in outputs if o.cot_text is not None]
    assert emitted == [0, 5, 10]


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
    assert outputs_to_dict(a) == outputs_to_dict(b)
    c, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=10)
    assert outputs_to_dict(c) != outputs_to_dict(a)


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
        assert (graph_to_json(build_graph(a, CFG.intrinsics, CFG.extrinsics, CFG.chains))
                == graph_to_json(build_graph(b, CFG.intrinsics, CFG.extrinsics, CFG.chains)))
    aligned = Episode(frames=frames, scene=ep.scene, scenario=ep.scenario,
                      trajectory=ep.trajectory, K=ep.K, T=ep.T)
    got, _ = run_inference_loop(aligned, *artifacts, InferenceSchedule(), CFG, seed=3)
    want, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, seed=3)
    assert outputs_to_dict(got) == outputs_to_dict(want)


def test_empty_episode_raises(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 2, seed=35, cfg=CFG)
    ep.frames = []
    with pytest.raises(EmptyEpisode):
        run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)


def test_zero_counts_are_rejected_not_defaulted(artifacts):
    ep = gen_episode(SCENARIOS["food"], 0, 2, seed=37, cfg=CFG)
    for euler_steps in (0, -1):
        with pytest.raises(InvalidSetting):
            run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG, euler_steps=euler_steps)
    one, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(),
                                dataclasses.replace(CFG, cot_max_len=1), euler_steps=1)
    default, _ = run_inference_loop(ep, *artifacts, InferenceSchedule(), CFG)
    assert outputs_to_dict(one) != outputs_to_dict(default)
    assert len(one[0].cot_text.split()) <= 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        InferenceSchedule(cot_period=0)
