"""Hybrid-reasoning inference: reasoning text is generated only on scheduled
frames (by default the first), every frame gets a sampled action chunk, and
per-stage wall-clock timings are collected into a benchmark report."""

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidSetting, PipelineConfig, PipelineError, make_rng
from .cot import CotHead, detokenize, generate_cot
from .flow import FlowExpert, sample_actions
from .gnn import GnnWeights, encode, pooled_embedding
from .graph import build_graph
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
    when set. rate_budget_hz paces the loop only when pace is on."""

    cot_on_first_frame: bool = True
    cot_period: int = None
    rate_budget_hz: float = 10.0
    pace: bool = False

    def __post_init__(self):
        if self.cot_period is not None and self.cot_period < 1:
            raise InvalidSetting(f"cot_period must be >= 1 when set, got {self.cot_period}")
        if not (self.rate_budget_hz > 0 and 1.0 / self.rate_budget_hz <= threading.TIMEOUT_MAX):
            raise InvalidSetting(f"rate_budget_hz must be positive with a period of at most "
                                 f"{threading.TIMEOUT_MAX:.3g} s, got {self.rate_budget_hz}")

    def wants_cot(self, frame_index: int) -> bool:
        if self.cot_period is not None:
            return frame_index % self.cot_period == 0
        return self.cot_on_first_frame and frame_index == 0


@dataclass
class BenchReport:
    """Raw per-stage and per-frame timings in milliseconds plus the achieved
    frame rate. The summaries (mean, p95, count) are computed when read, so
    a loop pays only for appending its samples."""

    stage_samples: dict = field(default_factory=dict)  # stage -> [ms]
    frame_samples: list = field(default_factory=list)  # [ms], one per frame
    achieved_hz: float = 0.0

    @property
    def stages(self) -> dict:
        """stage -> {mean_ms, p95_ms, count}, for stages that ran."""
        return {name: _summarize(ts) for name, ts in self.stage_samples.items() if ts}

    @property
    def frame_ms(self) -> dict:
        return _summarize(self.frame_samples)

    def to_dict(self) -> dict:
        return {"stages": self.stages, "frame_ms": self.frame_ms,
                "achieved_hz": self.achieved_hz}


def _summarize(samples: list) -> dict:
    arr = np.asarray(samples, dtype=float)
    return {"mean_ms": float(arr.mean()), "p95_ms": float(np.percentile(arr, 95)),
            "count": int(arr.size)}


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
    """Conditioning vector: pooled graph embedding + joint state + task one-hot."""
    return np.concatenate([np.ravel(pooled), np.ravel(q), np.ravel(onehot)])


def run_inference_loop(episode: Episode, gnn_w: GnnWeights, expert: FlowExpert,
                       cot_head: CotHead, schedule: InferenceSchedule,
                       cfg: PipelineConfig, seed: int = 0, euler_steps: int = None) -> tuple:
    """Run the per-frame pipeline over an episode, through its camera
    (episode.K, episode.T); reasoning decodes at most cfg.cot_max_len tokens.

    Returns (outputs, report): one FrameOutput per frame (reasoning text only
    on scheduled frames) and a BenchReport of per-stage timings.
    """
    if not episode.frames:
        raise EmptyEpisode("cannot run inference on an empty episode")
    euler_steps = cfg.euler_steps if euler_steps is None else euler_steps
    if euler_steps < 1:
        raise InvalidSetting(f"euler_steps must be >= 1, got {euler_steps}")
    onehot = scenario_onehot(cfg, episode.scenario.name)
    rng = make_rng(seed)
    stage_times = {"graph_build": [], "encode": [], "cot_generation": [], "action_sampling": []}
    frame_times = []
    outputs = []
    loop_start = time.perf_counter()
    for i, frame in enumerate(episode.frames):
        frame_start = time.perf_counter()

        t0 = time.perf_counter()
        g = build_graph(frame, episode.K, episode.T, cfg.chains)
        stage_times["graph_build"].append((time.perf_counter() - t0) * 1e3)

        t0 = time.perf_counter()
        pooled = pooled_embedding(encode(g, gnn_w))
        stage_times["encode"].append((time.perf_counter() - t0) * 1e3)

        context = make_context(pooled, frame.q, onehot)

        cot_text = None
        if schedule.wants_cot(i):
            t0 = time.perf_counter()
            ids = generate_cot(cot_head, context, cfg.cot_max_len)
            cot_text = detokenize(ids, cot_head.vocab)
            stage_times["cot_generation"].append((time.perf_counter() - t0) * 1e3)

        t0 = time.perf_counter()
        actions = sample_actions(expert, context, euler_steps, rng)
        stage_times["action_sampling"].append((time.perf_counter() - t0) * 1e3)

        frame_times.append((time.perf_counter() - frame_start) * 1e3)
        outputs.append(FrameOutput(index=i, t=frame.t, actions=actions, cot_text=cot_text))

        if schedule.pace:
            budget = 1.0 / schedule.rate_budget_hz
            elapsed = time.perf_counter() - frame_start
            if elapsed < budget:
                time.sleep(budget - elapsed)

    total = time.perf_counter() - loop_start
    report = BenchReport(
        stage_samples=stage_times, frame_samples=frame_times,
        achieved_hz=float(len(episode.frames) / total) if total > 0 else 0.0,
    )
    return outputs, report


def outputs_to_dict(outputs: list) -> dict:
    """Deterministic serialization of loop outputs (no timings)."""
    return {"frames": [{"index": o.index, "t": float(o.t),
                        "actions": o.actions.tolist(),
                        "cot": o.cot_text}
                       for o in outputs]}
