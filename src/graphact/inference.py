"""Hybrid-reasoning inference: reasoning text is generated only on scheduled
frames (by default the first), every frame gets a sampled action chunk, and
per-stage wall-clock timings are collected into a benchmark report."""

import time
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidSetting, PipelineConfig, PipelineError, make_rng
from .cot import CotHead, detokenize, generate_cot
from .flow import FlowExpert, sample_actions
from .gnn import GnnWeights, encode_pooled
from .graph import episode_graphs, joint_matrix
from .sim import EmptyEpisode, Episode


class ArtifactLoadError(PipelineError):
    pass


class ArtifactMismatch(PipelineError):
    """A loaded artifact's dimensions disagree with the pipeline config."""


class NonFiniteWeight(PipelineError):
    """A loaded artifact holds a NaN or infinite parameter entry."""


class UnknownScenario(PipelineError):
    """An episode's scenario is not one of the config's scenario_names."""


def check_artifacts(cfg: PipelineConfig, gnn_w: GnnWeights, expert: FlowExpert = None,
                    cot_head: CotHead = None) -> None:
    """Raise ArtifactMismatch naming the first artifact setting that differs
    from cfg, or NonFiniteWeight naming the first non-finite parameter; the
    expert and head are checked when given. Weight shapes are checked at
    build or load; this ties the artifacts to cfg before any frame runs."""
    pairs = [("gnn dims", gnn_w.dims, tuple(cfg.gnn_dims), "gnn_dims")]
    if expert is not None:
        pairs += [("expert horizon", expert.horizon, cfg.flow_horizon, "flow_horizon"),
                  ("expert j_dim", expert.j_dim, cfg.j_total, "j_total"),
                  ("expert context_dim", expert.context_dim, cfg.context_dim, "context_dim"),
                  ("expert sigma", expert.sigma, cfg.sigma, "sigma")]
    if cot_head is not None:
        pairs += [("cot head context_dim", cot_head.context_dim, cfg.context_dim, "context_dim"),
                  ("cot head window", cot_head.window, cfg.cot_window, "cot_window")]
    for what, got, want, key in pairs:
        if got != want:
            raise ArtifactMismatch(f"{what} {got} does not match config {key} {want}")
    for what, model in (("gnn", gnn_w), ("expert", expert), ("cot head", cot_head)):
        for name, p in model.params() if model is not None else ():
            if not np.isfinite(p).all():
                raise NonFiniteWeight(f"{what} parameter {name} has a non-finite entry")


@dataclass
class InferenceSchedule:
    """Reasoning cadence: first frame by default, every cot_period frames
    when set."""

    cot_on_first_frame: bool = True
    cot_period: int = None

    def __post_init__(self):
        if self.cot_period is not None and self.cot_period < 1:
            raise InvalidSetting(f"cot_period must be >= 1 when set, got {self.cot_period}")

    def wants_cot(self, frame_index: int) -> bool:
        if self.cot_period is not None:
            return frame_index % self.cot_period == 0
        return self.cot_on_first_frame and frame_index == 0


@dataclass
class BenchReport:
    """Measured wall-clock timings in milliseconds: stage -> one sample per
    run of the stage (one for each episode-wide stage, one per reasoning
    decode), and one sample per frame."""

    stage_samples: dict = field(default_factory=dict)  # stage -> [ms]
    frame_samples: list = field(default_factory=list)  # [ms], one per frame


@dataclass
class FrameOutput:
    index: int
    t: float
    actions: np.ndarray       # (H_a, J)
    cot_text: str = None


def scenario_onehot(cfg: PipelineConfig, name: str) -> np.ndarray:
    """One-hot of name over cfg.scenario_names; UnknownScenario if absent."""
    if name not in cfg.scenario_names:
        raise UnknownScenario(f"episode scenario {name!r} is not among the configured "
                              f"scenario_names {list(cfg.scenario_names)}")
    return np.array([float(n == name) for n in cfg.scenario_names])


def make_context(pooled: np.ndarray, q: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Conditioning vector: pooled graph embedding + joint state + task one-hot.
    pooled (d,) and q (J,) give one context; (F, d) and (F, J) give an
    (F, context_dim) stack, every row with the same onehot."""
    pooled, q = np.asarray(pooled, dtype=float), np.asarray(q, dtype=float)
    onehots = np.empty(pooled.shape[:-1] + np.shape(onehot))
    onehots[...] = onehot
    return np.concatenate([pooled, q, onehots], axis=-1)


def episode_contexts(episode: Episode, gnn_w: GnnWeights, cfg: PipelineConfig,
                     frames: list = None) -> np.ndarray:
    """(F, context_dim) contexts of the episode's frames (all of them unless
    frames is given), each stage run once for all F frames."""
    frames = episode.frames if frames is None else frames
    graphs = episode_graphs(frames, episode.K, episode.T, cfg.chains)
    return make_context(encode_pooled(graphs, gnn_w), joint_matrix(frames, cfg.chains),
                        scenario_onehot(cfg, episode.scenario.name))


def run_inference_loop(episode: Episode, gnn_w: GnnWeights, expert: FlowExpert,
                       cot_head: CotHead, schedule: InferenceSchedule,
                       cfg: PipelineConfig, seed: int = 0, euler_steps: int = None) -> tuple:
    """Run the pipeline over an episode, through its camera (episode.K,
    episode.T); reasoning decodes at most cfg.cot_max_len tokens.

    Forward kinematics, graph building, encoding and Euler sampling each run
    once for all F frames, with the bits a frame-by-frame loop would give;
    reasoning decodes run on the scheduled frames. A control tick is the
    F = 1 case. Returns (outputs, report): one FrameOutput per frame
    (reasoning text only on scheduled frames) and a BenchReport with one
    sample per episode-wide stage, one per decode, and one per frame: the
    frame's share (1/F) of the episode-wide time plus its own decode.
    """
    frames = episode.frames
    if not frames:
        raise EmptyEpisode("cannot run inference on an empty episode")
    euler_steps = cfg.euler_steps if euler_steps is None else euler_steps
    if euler_steps < 1:
        raise InvalidSetting(f"euler_steps must be >= 1, got {euler_steps}")
    onehot = scenario_onehot(cfg, episode.scenario.name)
    rng = make_rng(seed)
    n = len(frames)
    due = [i for i in range(n) if schedule.wants_cot(i)]

    loop_start = time.perf_counter()
    graphs = episode_graphs(frames, episode.K, episode.T, cfg.chains)
    t_graphs = time.perf_counter()
    contexts = make_context(encode_pooled(graphs, gnn_w), joint_matrix(frames, cfg.chains),
                            onehot)
    t_encode = time.perf_counter()
    texts, cot_ms, t_cot = {}, {}, t_encode
    for i in due:  # each decode's sample starts where the one before ended
        texts[i] = detokenize(generate_cot(cot_head, contexts[i], cfg.cot_max_len),
                              cot_head.vocab)
        t_prev, t_cot = t_cot, time.perf_counter()
        cot_ms[i] = (t_cot - t_prev) * 1e3
    chunks = sample_actions(expert, contexts, euler_steps, rng)
    outputs = [FrameOutput(index=i, t=frame.t, actions=chunks[i], cot_text=texts.get(i))
               for i, frame in enumerate(frames)]
    t_end = time.perf_counter()

    # The stages tile the loop's time. Each frame carries 1/F of the time no
    # single frame owns, so the frame samples add up to it too.
    shared = ((t_end - loop_start) * 1e3 - sum(cot_ms.values())) / n
    report = BenchReport(
        stage_samples={"graph_build": [(t_graphs - loop_start) * 1e3],
                       "encode": [(t_encode - t_graphs) * 1e3],
                       "cot_generation": list(cot_ms.values()),
                       "action_sampling": [(t_end - t_cot) * 1e3]},
        frame_samples=[shared + cot_ms.get(i, 0.0) for i in range(n)],
    )
    return outputs, report


def outputs_to_dict(outputs: list) -> dict:
    """Deterministic serialization of loop outputs (no timings)."""
    return {"frames": [{"index": o.index, "t": float(o.t),
                        "actions": o.actions.tolist(),
                        "cot": o.cot_text}
                       for o in outputs]}
