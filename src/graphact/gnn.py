"""Two-layer graph encoder: per layer, layer normalization, symmetric-normalized
graph convolution with self-loops, then ReLU. Inference only; weights are
loaded from file and never trained here."""

from dataclasses import dataclass

import numpy as np

from .core import (GNN_INPUT_DIM, NODE_KINDS, Model, PipelineError, ShapeMismatch, check_count,
                   check_shapes, fan_in_normal)
from .graph import PoseObjectGraph, adjacency_matrix

LN_EPS = 1e-5


class EmptyGraph(PipelineError):
    pass


@dataclass
class GnnWeights(Model):
    lift_w: np.ndarray   # (GNN_INPUT_DIM, d)
    lift_b: np.ndarray   # (d,)
    layer1_w: np.ndarray  # (d, h)
    layer1_b: np.ndarray  # (h,)
    layer2_w: np.ndarray  # (h, d_out)
    layer2_b: np.ndarray  # (d_out,)

    PARAMS = ("lift_w", "lift_b", "layer1_w", "layer1_b", "layer2_w", "layer2_b")
    NAME = "gnn"
    TIES = {"dims": "gnn_dims"}

    @property
    def dims(self) -> tuple:
        return self.lift_w.shape[1], self.layer1_w.shape[1], self.layer2_w.shape[1]

    def __post_init__(self):
        d, h, d_out = np.size(self.lift_b), np.size(self.layer1_b), np.size(self.layer2_b)
        check_shapes(self.NAME, {
            "lift_w": (self.lift_w, (GNN_INPUT_DIM, d)), "lift_b": (self.lift_b, (d,)),
            "layer1_w": (self.layer1_w, (d, h)), "layer1_b": (self.layer1_b, (h,)),
            "layer2_w": (self.layer2_w, (h, d_out)), "layer2_b": (self.layer2_b, (d_out,))})


def init_gnn_weights(rng: np.random.Generator, d: int = 32, h: int = 32,
                     d_out: int = 32) -> GnnWeights:
    """Seeded random init, 1/sqrt(fan_in) scale, zero biases."""
    for name, v in (("d", d), ("h", h), ("d_out", d_out)):
        check_count(f"gnn {name}", v)
    return GnnWeights(lift_w=fan_in_normal(rng, GNN_INPUT_DIM, d), lift_b=np.zeros(d),
                      layer1_w=fan_in_normal(rng, d, h), layer1_b=np.zeros(h),
                      layer2_w=fan_in_normal(rng, h, d_out), layer2_b=np.zeros(d_out))


def node_inputs(g: PoseObjectGraph) -> np.ndarray:
    """Raw per-node inputs: [x, y, z, one-hot(kind)] in NODE_KINDS order."""
    if not g.nodes:
        raise EmptyGraph("graph has no nodes")
    X = np.zeros((len(g.nodes), GNN_INPUT_DIM))
    X[:, :3] = [n.position for n in g.nodes]
    X[np.arange(len(g.nodes)), [3 + NODE_KINDS.index(n.kind) for n in g.nodes]] = 1.0
    return X


def layer_norm(H: np.ndarray) -> np.ndarray:
    """Per-row (x - mean) / sqrt(var + eps) over the last axis; no learned
    affine. The mean and variance are the sums np.mean and np.var take."""
    n = H.shape[-1]
    centered = H - H.sum(axis=-1, keepdims=True) / n
    var = np.square(centered).sum(axis=-1, keepdims=True) / n
    return centered / np.sqrt(var + LN_EPS)


def normalized_adjacency(A: np.ndarray) -> np.ndarray:
    """D^(-1/2) (A + I) D^(-1/2) with D the row-degree of (A + I)."""
    A_hat = A + np.eye(A.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(A_hat.sum(axis=1))
    return A_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def graph_conv(H: np.ndarray, A_hat: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A_hat @ H @ W + b, with A_hat the normalized adjacency
    (normalized_adjacency of the graph's adjacency matrix). H is (n, d), or
    a stack (G, n, d) of graphs that share A_hat."""
    if A_hat.shape[0] != A_hat.shape[1] or A_hat.shape[0] != H.shape[-2]:
        raise ShapeMismatch(f"adjacency {A_hat.shape} does not match features {H.shape}")
    if H.shape[-1] != W.shape[0]:
        raise ShapeMismatch(f"features {H.shape} do not match weight {W.shape}")
    return A_hat @ H @ W + b


# Read-only normalized adjacencies by (node count, edges), first in first out
# past 16; a process of the benchmark meets at most 3 (19, 20 and 32 nodes).
_ADJACENCIES = {}


def encode(g: PoseObjectGraph, w: GnnWeights, X: np.ndarray = None) -> np.ndarray:
    """H1 = ReLU(conv(LN(H0))); H2 = ReLU(conv(LN(H1))); returns H2.
    Both layers share the normalized adjacency of g's shape (node count,
    edges). X defaults to g's node inputs (n, GNN_INPUT_DIM) and gives (n, d_out);
    a stack (G, n, GNN_INPUT_DIM) of graphs with g's edges gives (G, n, d_out),
    each graph with the bits of its own call."""
    shape = (len(g.nodes), tuple(g.edges))
    if (A_hat := _ADJACENCIES.get(shape)) is None:
        if len(_ADJACENCIES) >= 16:
            _ADJACENCIES.pop(next(iter(_ADJACENCIES)))
        A_hat = _ADJACENCIES[shape] = normalized_adjacency(adjacency_matrix(g))
        A_hat.flags.writeable = False
    H = (node_inputs(g) if X is None else X) @ w.lift_w + w.lift_b
    H = np.maximum(graph_conv(layer_norm(H), A_hat, w.layer1_w, w.layer1_b), 0.0)
    H = np.maximum(graph_conv(layer_norm(H), A_hat, w.layer2_w, w.layer2_b), 0.0)
    return H


def encode_pooled(graphs: list, w: GnnWeights) -> np.ndarray:
    """pooled_embedding(encode(g, w)) of every graph, (len(graphs), d_out).

    Graphs with the same edge list share one normalized adjacency, so each
    such group goes through encode as one (G, n, GNN_INPUT_DIM) stack.
    """
    groups = {}
    for i, g in enumerate(graphs):
        groups.setdefault((len(g.nodes), tuple(g.edges)), []).append(i)
    out = np.empty((len(graphs), w.dims[2]))
    for members in groups.values():
        X = np.array([node_inputs(graphs[i]) for i in members])
        out[members] = pooled_embedding(encode(graphs[members[0]], w, X))
    return out


def pooled_embedding(H: np.ndarray) -> np.ndarray:
    """Mean over nodes, axis -2: (n, d) gives (d,), a stack (G, n, d) gives
    (G, d). Permutation invariant."""
    if H.shape[-2] < 1:
        raise EmptyGraph("no node features to pool")
    return H.mean(axis=-2)
