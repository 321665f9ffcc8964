"""Encode a scene graph with the two-layer graph network.

Each layer applies layer normalization, a symmetric-normalized graph
convolution with self-loops, and ReLU. Node features start as 3D positions
plus a node-kind one-hot, lifted into d dimensions. The mean over node
features is the pooled conditioning vector consumed by the action expert.
Relabeling the nodes permutes the features without changing them, and the
pooled vector is invariant.
"""

import numpy as np

from graphact import (SCENARIOS, adjacency_matrix, build_graph, default_config,
                      encode, gen_episode, init_gnn_weights, make_rng,
                      pooled_embedding)

cfg = default_config()
episode = gen_episode(SCENARIOS["outfit"], variant=0, n_frames=1, seed=3, cfg=cfg)
graph = build_graph(episode.frames[0], episode.K, episode.T, cfg.chains)

A = adjacency_matrix(graph)
print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges")
print(f"adjacency is symmetric: {np.array_equal(A, A.T)}")

weights = init_gnn_weights(make_rng(0), *cfg.gnn_dims)
H = encode(graph, weights)
print(f"\nnode features: {H.shape}, ReLU keeps them non-negative "
      f"(min {H.min():.3f})")

pooled = pooled_embedding(H)
print(f"pooled embedding ({pooled.size} dims): {np.round(pooled[:6], 4)} ...")

# permute the node order and re-encode: features permute, pooling is invariant
rng = make_rng(1)
perm = rng.permutation(len(graph.nodes))
inv = np.argsort(perm)
from graphact import GraphNode, PoseObjectGraph
permuted = PoseObjectGraph(
    t=graph.t,
    nodes=[GraphNode(id=i, kind=graph.nodes[inv[i]].kind,
                     label=graph.nodes[inv[i]].label,
                     position=graph.nodes[inv[i]].position)
           for i in range(len(graph.nodes))],
    edges=[tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in graph.edges],
)
H_perm = encode(permuted, weights)
print(f"\npermutation equivariance error: {np.abs(H_perm - H[inv]).max():.2e}")
print(f"pooled invariance error:         "
      f"{np.abs(pooled_embedding(H_perm) - pooled).max():.2e}")
