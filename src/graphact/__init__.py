"""graphact: scene-graph conditioned action pipeline at desk scale.

Builds per-frame 3D scene graphs from synchronized detections, depth, and
joint streams; encodes them with a small graph network; generates action
chunks with a flow-matching expert; and supervises a structured reasoning
head (the paper's Bernoulli-dropout loss combiner is a formula here, not a
training path). A synthetic scene generator provides exact ground truth.
"""

from .core import (BoundingBox, CameraIntrinsics, DepthGrid, FrameRecord,
                   PipelineConfig, PipelineError, RigidTransform, ShapeMismatch,
                   derive_seed, make_rng)
from .stream_sync import SampleStream, align_streams
from .kinematics import (DhLink, KinematicChain, chain_positions, default_chains, dh_transform,
                         fk_positions)
from .projection import backproject, bbox_center, depth_at, project
from .graph import GraphNode, PoseObjectGraph, adjacency_matrix, build_graph, episode_graphs
from .gnn import (GnnWeights, encode, encode_pooled, graph_conv, init_gnn_weights, layer_norm,
                  pooled_embedding)
from .flow import (FlowExpert, fm_loss, grad_check, init_flow_expert, interpolate,
                   sample_actions, sample_tau, train_step)
from .cot import (CotHead, CotLabel, TokenVocab, build_default_vocab, ce_loss,
                  detokenize, future_indices, generate_cot, grad_check_cot,
                  init_cot_head, make_cot_label, sample_dropout, tokenize, total_loss,
                  train_cot_head)
from .sim import (SCENARIOS, Episode, InstructionScenario, Scene, default_config,
                  episode_text, gen_episode, gen_scene, load_episode, render_frame)
from .inference import (BenchReport, FrameOutput, InferenceSchedule, episode_contexts,
                        make_context, run_inference_loop, scenario_onehot)
from .selfcheck import run_selfcheck

__version__ = "0.1.0"
