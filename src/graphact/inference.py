"""Hybrid-reasoning inference: reasoning text is generated only on scheduled
frames (by default the first), every frame gets a sampled action chunk, the
frames run in blocks of BLOCK_FRAMES, and per-stage wall-clock timings are
collected into a benchmark report.

The expert samples a chunk's offset from the current joints q in cosine
coefficients: the (H, J) chunk is q + B.T @ C for the (k, J) sample C, with
B the first k orthonormal DCT-II rows over the H-step horizon (k =
PipelineConfig.action_terms for a trained expert), and train-expert fits C
= B @ (chunk - q). This departs from the paper, which samples the chunk
itself; FAST (arXiv:2501.09747) compresses action chunks with the same
transform.
"""

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (SCENARIOS, InvalidSetting, Model, PipelineConfig, PipelineError,
                   ShapeMismatch, check_count, check_finite, make_rng)
from .cot import CotHead, detokenize, generate_cot
from .flow import FlowExpert, sample_actions
from .gnn import GnnWeights, encode_pooled
from .graph import episode_graphs, joint_matrix, objects_skipped
from .sim import EmptyEpisode, Episode


# Frames per block of the inference loop. The loop holds one block's graphs,
# contexts and noise at a time, so its memory does not grow with the
# episode; 16 to 64 frames gave the same peak RSS and loop time on a
# 300-frame episode, 128 a higher peak.
BLOCK_FRAMES = 32


class ArtifactLoadError(PipelineError):
    pass


class ArtifactMismatch(PipelineError):
    """A loaded artifact's dimensions disagree with the pipeline config."""


class NonFiniteWeight(PipelineError):
    """A loaded artifact holds a NaN or infinite parameter entry."""


def check_artifacts(cfg: PipelineConfig, model: Model) -> None:
    """Raise ArtifactMismatch naming the first of the model's TIES that
    differs from cfg, or NonFiniteWeight naming its first non-finite
    parameter. Weight shapes are checked at build or load; this ties an
    artifact to cfg before any frame runs."""
    for attr, key in model.TIES.items():
        got, want = getattr(model, attr), getattr(cfg, key)
        if not np.array_equal(got, want):  # a library config's gnn_dims may be a list
            raise ArtifactMismatch(f"{model.NAME} {attr} {got} does not match config {key} {want}")
    model.check_finite_params(model.NAME, NonFiniteWeight)


@dataclass
class InferenceSchedule:
    """Reasoning cadence: frame 0 when cot_on_first_frame, and every
    cot_period-th frame after it when cot_period is set."""

    cot_on_first_frame: bool = True
    cot_period: int = None

    def __post_init__(self):
        if self.cot_period is not None:
            check_count("cot_period", self.cot_period)

    def wants_cot(self, frame_index: int) -> bool:
        if frame_index == 0:
            return self.cot_on_first_frame
        return self.cot_period is not None and frame_index % self.cot_period == 0


@dataclass
class BenchReport:
    """Measured wall-clock timings in milliseconds: stage -> one sample per
    run of the stage (one per block of frames for graph_build, encode and
    action_sampling, one per reasoning decode), and one sample per frame.
    objects_skipped counts the detections that got no graph node."""

    stage_samples: dict = field(default_factory=dict)  # stage -> [ms]
    frame_samples: list = field(default_factory=list)  # [ms], one per frame
    objects_skipped: int = 0


@dataclass
class FrameOutput:
    index: int
    t: float
    actions: np.ndarray       # (H_a, J)
    cot_text: str = None


def scenario_onehot(name: str) -> np.ndarray:
    """One-hot of name over SCENARIOS, in its order; InvalidSetting if absent."""
    if name not in SCENARIOS:
        raise InvalidSetting(f"episode scenario {name!r} is not among the registered "
                             f"scenarios {list(SCENARIOS)}")
    return np.array([float(n == name) for n in SCENARIOS])


def make_context(pooled: np.ndarray, q: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Conditioning vector: pooled graph embedding + joint state + task one-hot.
    pooled (d,) and q (J,) give one context; (F, d) and (F, J) give an
    (F, context_dim) stack, every row with the same onehot."""
    pooled, q = np.asarray(pooled, dtype=float), np.asarray(q, dtype=float)
    onehots = np.empty(pooled.shape[:-1] + np.shape(onehot))
    onehots[...] = onehot
    return np.concatenate([pooled, q, onehots], axis=-1)


@functools.lru_cache(maxsize=8)
def action_basis(terms: int, horizon: int) -> np.ndarray:
    """The first terms orthonormal DCT-II rows over horizon steps, (terms,
    horizon), read-only. Built from math.cos, so its bits do not depend on
    numpy's SIMD loops."""
    if terms > horizon:
        raise ShapeMismatch(f"{terms} cosine terms do not fit a {horizon}-step horizon")
    basis = np.array([[math.sqrt((2.0 if m else 1.0) / horizon)
                       * math.cos(math.pi * (t + 0.5) * m / horizon) for t in range(horizon)]
                      for m in range(terms)])
    basis.flags.writeable = False
    return basis


def chunk_coefficients(chunks: np.ndarray, q: np.ndarray, terms: int) -> np.ndarray:
    """B @ (chunk - q) for each (H, J) chunk of an (F, H, J) stack and the
    (F, J) joints it starts from: the (F, terms, J) targets of train-expert."""
    return np.matmul(action_basis(terms, chunks.shape[-2]), chunks - q[:, None, :])


def decode_chunks(coefs: np.ndarray, q: np.ndarray, horizon: int) -> np.ndarray:
    """q + B.T @ C for each (k, J) sample of an (F, k, J) stack and the (F, J)
    joints: the (F, horizon, J) chunks. One product per frame, so a frame's
    bits do not depend on F."""
    chunks = np.matmul(action_basis(coefs.shape[-2], horizon).T, coefs)
    chunks += q[:, None, :]
    return chunks


def frame_blocks(frames: list):
    """(lo, frames[lo:lo + BLOCK_FRAMES]) for each block of the frames, in
    order: the unit in which inference and the graph command hold frames."""
    return ((lo, frames[lo:lo + BLOCK_FRAMES]) for lo in range(0, len(frames), BLOCK_FRAMES))


def _block_contexts(episode: Episode, gnn_w: GnnWeights, cfg: PipelineConfig, frames: list,
                    onehot: np.ndarray):
    """For each of frame_blocks(frames), yield (lo, q, contexts, t_graphs,
    skipped): the block's (len(block), j_total) joints and (len(block),
    context_dim) contexts, the perf_counter time at which its graphs were
    built and their objects_skipped. Forward kinematics, graph building and
    encoding run once per block, and the block's graphs are dropped before
    the next block is built."""
    for lo, block in frame_blocks(frames):
        graphs = episode_graphs(block, episode.K, episode.T, cfg.chains)
        skipped = objects_skipped(block, graphs, cfg.chains)
        t_graphs = time.perf_counter()
        q = joint_matrix(block, cfg.chains)
        contexts = make_context(encode_pooled(graphs, gnn_w), q, onehot)
        del graphs
        yield lo, q, contexts, t_graphs, skipped


def episode_contexts(episode: Episode, gnn_w: GnnWeights, cfg: PipelineConfig,
                     frames: list) -> np.ndarray:
    """(F, context_dim) contexts of frames, some or all of the episode's,
    built block by block as run_inference_loop builds them."""
    out = np.empty((len(frames), cfg.context_dim))
    for lo, _, contexts, *_ in _block_contexts(episode, gnn_w, cfg, frames,
                                               scenario_onehot(episode.scenario.name)):
        out[lo:lo + len(contexts)] = contexts
    return out


def run_inference_loop(episode: Episode, gnn_w: GnnWeights, expert: FlowExpert,
                       cot_head: CotHead, schedule: InferenceSchedule,
                       cfg: PipelineConfig, seed: int = 0) -> tuple:
    """Run the pipeline over an episode, through its camera (episode.K,
    episode.T); reasoning decodes at most cfg.cot_max_len tokens, and each
    action chunk takes cfg.euler_steps Euler steps and is decoded from
    expert.horizon cosine terms to cfg.flow_horizon steps (decode_chunks).

    The frames go through in blocks of at most BLOCK_FRAMES: forward
    kinematics, graph building, encoding and Euler sampling each run once
    per block, with the bits a frame-by-frame loop would give, and the
    reasoning decodes run on the block's scheduled frames. The Euler noise
    of block after block is the stream one draw for all F frames would give,
    so the outputs do not depend on the block size, and a control tick is
    the F = 1 case. Returns (outputs, report): one FrameOutput per frame
    (reasoning text only on scheduled frames) and a BenchReport with one
    sample per block for each block stage, one per decode, and one per
    frame: the frame's share (1/B of a B-frame block) of its block's time
    outside the decodes, plus its own decode. Its objects_skipped counts the
    episode's detections that got no graph node (no valid depth).
    """
    frames = episode.frames
    if not frames:
        raise EmptyEpisode("cannot run inference on an empty episode")
    onehot = scenario_onehot(episode.scenario.name)
    rng = make_rng(seed)
    stages = {"graph_build": [], "encode": [], "cot_generation": [], "action_sampling": []}
    outputs, frame_samples, n_skipped = [], [], 0

    t_block = time.perf_counter()
    for lo, q, contexts, t_graphs, skipped in _block_contexts(episode, gnn_w, cfg, frames,
                                                              onehot):
        t_encode = time.perf_counter()
        block = range(lo, lo + len(contexts))
        texts, cot_ms, t_cot = {}, {}, t_encode
        for i in filter(schedule.wants_cot, block):
            texts[i] = detokenize(generate_cot(cot_head, contexts[i - lo], cfg.cot_max_len),
                                  cot_head.vocab)
            # each decode's sample starts where the one before ended
            t_prev, t_cot = t_cot, time.perf_counter()
            cot_ms[i] = (t_cot - t_prev) * 1e3
        chunks = decode_chunks(sample_actions(expert, contexts, cfg.euler_steps, rng), q,
                               cfg.flow_horizon)
        outputs += [FrameOutput(index=i, t=frames[i].t, actions=chunk, cot_text=texts.get(i))
                    for i, chunk in zip(block, chunks)]
        t_end = time.perf_counter()

        # The stages tile the block's time. Each frame carries 1/B of the
        # time no single frame owns, so the frame samples add up to it too.
        stages["graph_build"].append((t_graphs - t_block) * 1e3)
        stages["encode"].append((t_encode - t_graphs) * 1e3)
        stages["cot_generation"] += cot_ms.values()
        stages["action_sampling"].append((t_end - t_cot) * 1e3)
        shared = ((t_end - t_block) * 1e3 - sum(cot_ms.values())) / len(block)
        frame_samples += [shared + cot_ms.get(i, 0.0) for i in block]
        n_skipped += skipped
        t_block = t_end
    return outputs, BenchReport(stage_samples=stages, frame_samples=frame_samples,
                                objects_skipped=n_skipped)


def frame_json(o: FrameOutput) -> str:
    """One frame of the infer output as strict JSON text (no timings)."""
    return json.dumps({"index": o.index, "t": float(o.t), "actions": o.actions.tolist(),
                       "cot": o.cot_text}, allow_nan=False)


def output_text(outputs: list):
    """The infer output file's text in pieces of one frame each: {"frames":
    [...]} and a newline, the bytes json.dumps of the whole document gives.
    A non-finite chunk raises NonFiniteOutput here, before the first piece."""
    for o in outputs:
        check_finite(f"expert chunk of frame {o.index}", o.actions)
    return itertools.chain(['{"frames": ['], (", " + frame_json(o) if k else frame_json(o)
                                               for k, o in enumerate(outputs)), ["]}\n"])
