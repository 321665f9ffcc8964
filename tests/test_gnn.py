import math

import numpy as np
import pytest

from graphact import (BoundingBox, DepthGrid, FrameRecord, GnnWeights,
                      PoseObjectGraph, build_graph, default_config, encode, graph_conv,
                      init_gnn_weights, layer_norm, make_rng, pooled_embedding)
from graphact.gnn import LN_EPS, EmptyGraph, encode_pooled, node_inputs, normalized_adjacency
from graphact.graph import adjacency_matrix, episode_graphs
from graphact.sim import SCENARIOS, gen_episode
from graphact.core import GNN_INPUT_DIM, NODE_KINDS, ShapeMismatch


def _graph(positions, kinds, edges):
    return PoseObjectGraph(t=0.0, positions=np.asarray(positions, dtype=float).reshape(-1, 3),
                           kinds=np.array([NODE_KINDS.index(k) for k in kinds], dtype=np.intp),
                           labels=[f"n{i}" for i in range(len(kinds))], edges=list(edges))


def _random_graph(rng, n):
    kinds = [NODE_KINDS[rng.integers(len(NODE_KINDS))] for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return _graph(rng.normal(size=(n, 3)), kinds, edges)


def _zero_weights(d=4, h=4, d_out=4):
    return GnnWeights(lift_w=np.zeros((GNN_INPUT_DIM, d)), lift_b=np.zeros(d),
                      layer1_w=np.zeros((d, h)), layer1_b=np.zeros(h),
                      layer2_w=np.zeros((h, d_out)), layer2_b=np.zeros(d_out))


# --- independent dense oracle: explicit loops, no shared code paths ---

def _oracle_norm_adj(A):
    n = A.shape[0]
    Ah = [[A[i][j] + (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    deg = [sum(row) for row in Ah]
    return np.array([[Ah[i][j] / math.sqrt(deg[i] * deg[j]) for j in range(n)]
                     for i in range(n)])


def _oracle_layer_norm(H):
    out = np.zeros_like(H)
    for i, row in enumerate(H):
        mu = sum(row) / len(row)
        var = sum((x - mu) ** 2 for x in row) / len(row)
        out[i] = [(x - mu) / math.sqrt(var + LN_EPS) for x in row]
    return out


def _oracle_encode(g, w):
    A = np.zeros((len(g.nodes), len(g.nodes)))
    for i, j in g.edges:
        A[i][j] = A[j][i] = 1.0
    X = np.zeros((len(g.nodes), GNN_INPUT_DIM))
    for i, node in enumerate(g.nodes):
        X[i, :3] = node.position
        X[i, 3 + NODE_KINDS.index(node.kind)] = 1.0
    H = X @ w.lift_w + w.lift_b
    Abar = _oracle_norm_adj(A)
    H = np.maximum(Abar @ _oracle_layer_norm(H) @ w.layer1_w + w.layer1_b, 0.0)
    H = np.maximum(Abar @ _oracle_layer_norm(H) @ w.layer2_w + w.layer2_b, 0.0)
    return H


def test_node_inputs_positions_in_columns_0_to_2():
    positions = [(1.0, 2.0, 3.0), (-4.0, 0.5, 6.0)]
    X = node_inputs(_graph(positions, ["object", "joint"], [(0, 1)]))
    assert X.shape == (2, GNN_INPUT_DIM)
    assert np.array_equal(X[:, :3], positions)


def test_node_inputs_kind_onehot_in_kind_order():
    rng = make_rng(2)
    kinds = ["object", "object", "joint", "joint", "end_effector", "end_effector"]
    X = node_inputs(_graph(rng.normal(size=(6, 3)), kinds, []))
    assert np.array_equal(X[:, 3:], [[k == kind for kind in NODE_KINDS] for k in kinds])


def test_layer_norm_constant_row():
    assert np.array_equal(layer_norm(np.ones((1, 4))), np.zeros((1, 4)))


def test_layer_norm_two_element_row():
    got = layer_norm(np.array([[1.0, -1.0]]))
    expected = 1.0 / math.sqrt(1.0 + LN_EPS)
    assert np.abs(got - [[expected, -expected]]).max() < 1e-15


def test_layer_norm_row_statistics():
    rng = make_rng(3)
    H = rng.normal(size=(10, 16)) * 5 + 2
    out = layer_norm(H)
    assert np.abs(out.mean(axis=1)).max() < 1e-9
    assert (out.var(axis=1) <= 1.0 + 1e-12).all()


def test_layer_norm_bit_equal_to_numpy_mean_and_var():
    """The one-pass form gives the bits of np.mean/np.var, on one graph's
    features and on a stack of them."""
    H = make_rng(4).normal(size=(3, 30, 32)) * 3 + 1
    want = (H - H.mean(axis=-1, keepdims=True)) / np.sqrt(H.var(axis=-1, keepdims=True) + LN_EPS)
    assert layer_norm(H).tobytes() == want.tobytes()
    assert layer_norm(H[1]).tobytes() == want[1].tobytes()


def test_graph_conv_single_node_identity():
    H = np.array([[0.3, -0.7]])
    got = graph_conv(H, normalized_adjacency(np.zeros((1, 1))), np.eye(2), np.zeros(2))
    assert np.abs(got - H).max() < 1e-15


def test_graph_conv_symmetry_of_equal_features():
    H = np.array([[1.0, 2.0], [1.0, 2.0]])
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = graph_conv(H, A, np.eye(2), np.zeros(2))
    assert np.array_equal(got[0], got[1])


def test_graph_conv_path_graph_against_oracle():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 0] = A[1, 2] = A[2, 1] = 1.0
    H = np.eye(3)
    got = graph_conv(H, normalized_adjacency(A), np.eye(3), np.zeros(3))
    assert np.abs(got - _oracle_norm_adj(A) @ H).max() < 1e-12


def test_graph_conv_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        graph_conv(np.ones((2, 3)), np.zeros((3, 3)), np.eye(3), np.zeros(3))


def test_encode_zero_weights_gives_zeros():
    g = _graph([(1, 2, 3), (0, 0, 1)], ["object", "joint"], [(0, 1)])
    assert np.array_equal(encode(g, _zero_weights()), np.zeros((2, 4)))


def test_encode_golden_feature_matrix():
    # frozen output of _oracle_encode for this graph and seed-40 weights
    w = init_gnn_weights(make_rng(40), d=4, h=4, d_out=4)
    g = _graph([(0.5, -0.2, 0.1), (0.0, 0.3, 0.8), (-0.4, 0.0, 0.2)],
               ["object", "end_effector", "joint"],
               [(0, 1), (1, 2)])
    golden = np.array([
        [0.0, 0.9905391371863445, 0.0, 0.2405241809456726],
        [0.0, 1.1230824705512825, 0.0, 0.36301067702812734],
        [0.12068574149900131, 0.6909324756230539, 0.0, 0.38212527909067645],
    ])
    assert np.abs(encode(g, w) - golden).max() < 1e-12
    assert np.abs(_oracle_encode(g, w) - golden).max() < 1e-15


def test_encode_matches_dense_oracle():
    rng = make_rng(4)
    w = init_gnn_weights(rng, d=8, h=8, d_out=8)
    for _ in range(100):
        g = _random_graph(rng, int(rng.integers(1, 9)))
        assert np.abs(encode(g, w) - _oracle_encode(g, w)).max() < 1e-12


def test_encode_permutation_equivariance():
    rng = make_rng(5)
    w = init_gnn_weights(rng, d=8, h=8, d_out=8)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        g = _random_graph(rng, n)
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        pg = _graph([g.nodes[inv[i]].position for i in range(n)],
                    [g.nodes[inv[i]].kind for i in range(n)],
                    [tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g.edges])
        assert np.abs(encode(pg, w) - encode(g, w)[inv]).max() < 1e-9


def test_encode_nonnegative():
    rng = make_rng(6)
    w = init_gnn_weights(rng)
    g = _random_graph(rng, 6)
    assert encode(g, w).min() >= 0.0


def test_pooled_embedding():
    assert np.array_equal(pooled_embedding(np.array([[3.0, 4.0]])), [3.0, 4.0])
    assert np.array_equal(pooled_embedding(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])
    rng = make_rng(7)
    H = rng.normal(size=(5, 4))
    assert np.allclose(pooled_embedding(H[rng.permutation(5)]), pooled_embedding(H),
                       atol=1e-15)
    stack = rng.normal(size=(3, 5, 4))  # a stack pools each graph on its own
    assert np.array_equal(pooled_embedding(stack), [pooled_embedding(Hg) for Hg in stack])


def test_empty_graph_errors():
    g = PoseObjectGraph(t=0.0, positions=np.empty((0, 3)), kinds=np.empty(0, dtype=np.intp),
                        labels=[], edges=[])
    with pytest.raises(EmptyGraph):
        node_inputs(g)
    with pytest.raises(EmptyGraph):
        pooled_embedding(np.zeros((0, 4)))


def test_encode_pooled_bit_equal_to_per_graph_encode():
    """Frames with different object counts form groups of different sizes;
    the grouped encoder gives every graph the bits of its own encode call."""
    cfg = default_config()
    K = cfg.intrinsics
    w = init_gnn_weights(make_rng(9), *cfg.gnn_dims)
    rng = make_rng(10)
    graphs = []
    for n_obj in (3, 0, 1, 3, 2, 1, 3):
        dets = [BoundingBox(f"o{i}", 50.0 + 40 * i, 60.0, 80.0 + 40 * i, 90.0)
                for i in range(n_obj)]
        depth = DepthGrid(K.width, K.height, 1.0 + rng.random())
        frame = FrameRecord(t=0.0, detections=dets, depth=depth,
                            q=rng.uniform(-1, 1, size=cfg.j_total))
        graphs.append(build_graph(frame, K, cfg.extrinsics, cfg.chains))
    pooled = encode_pooled(graphs, w)
    assert pooled.shape == (len(graphs), cfg.gnn_dims[2])
    for g, row in zip(graphs, pooled):
        assert (row == pooled_embedding(encode(g, w))).all()


def _fresh_encode(g, w):
    """encode's operations on a normalized adjacency built for this call."""
    A_hat = normalized_adjacency(adjacency_matrix(g))
    H = node_inputs(g) @ w.lift_w + w.lift_b
    H = np.maximum(graph_conv(layer_norm(H), A_hat, w.layer1_w, w.layer1_b), 0.0)
    return np.maximum(graph_conv(layer_norm(H), A_hat, w.layer2_w, w.layer2_b), 0.0)


def test_encode_shares_a_read_only_adjacency_per_graph_shape(monkeypatch):
    """Graphs with 0-4 objects in both graph modes encode to the bits of an
    encode on a freshly built adjacency, through a read-only shared one, and
    over a 64-frame episode the adjacency is built once per distinct shape
    (node count, edges)."""
    import graphact.gnn as gnn
    cfg = default_config()
    K = cfg.intrinsics
    w = init_gnn_weights(make_rng(11), *cfg.gnn_dims)
    rng = make_rng(12)
    monkeypatch.setattr(gnn, "_ADJACENCIES", {})
    seen = []
    conv = gnn.graph_conv
    monkeypatch.setattr(gnn, "graph_conv", lambda H, A, W, b: seen.append(A) or conv(H, A, W, b))
    for paper_literal in (False, True):
        for n_obj in range(5):
            dets = [BoundingBox(f"o{i}", 50.0 + 40 * i, 60.0, 80.0 + 40 * i, 90.0)
                    for i in range(n_obj)]
            frame = FrameRecord(t=0.0, detections=dets,
                                depth=DepthGrid(K.width, K.height, 1.5),
                                q=rng.uniform(-1, 1, size=cfg.j_total))
            g = build_graph(frame, K, cfg.extrinsics, cfg.chains, paper_literal)
            for _ in range(2):
                del seen[:]
                assert encode(g, w).tobytes() == _fresh_encode(g, w).tobytes()
                assert len(seen) == 2 and seen[0] is seen[1]
                assert not seen[0].flags.writeable
                with pytest.raises(ValueError):
                    seen[0][0, 0] = 0.0

    monkeypatch.setattr(gnn, "_ADJACENCIES", {})
    built = []
    norm = gnn.normalized_adjacency
    monkeypatch.setattr(gnn, "normalized_adjacency", lambda A: built.append(len(A)) or norm(A))
    ep = gen_episode(SCENARIOS["food"], 0, 64, seed=13, cfg=cfg)
    for paper_literal in (False, True):
        graphs = episode_graphs(ep.frames, ep.K, ep.T, cfg.chains, paper_literal)
        shapes = {(len(g.nodes), tuple(g.edges)) for g in graphs}
        del built[:]
        pooled = encode_pooled(graphs, w)
        for g, row in zip(graphs, pooled):
            assert row.tobytes() == pooled_embedding(encode(g, w)).tobytes()
        assert len(built) == len(shapes)


def test_adjacency_cache_stays_bounded_and_rebuilds_evicted_shapes(monkeypatch):
    """20 graph shapes, met twice in turn, overflow the 16-entry cache: it
    stays at 16, and every shape encodes to the bits of a fresh adjacency
    after its entry was evicted."""
    import graphact.gnn as gnn
    cfg = default_config()
    K = cfg.intrinsics
    w = init_gnn_weights(make_rng(14), *cfg.gnn_dims)
    monkeypatch.setattr(gnn, "_ADJACENCIES", {})
    graphs = []
    for n_obj in range(20):
        dets = [BoundingBox(f"o{i}", 20.0 * i, 60.0, 20.0 * i + 10, 90.0) for i in range(n_obj)]
        frame = FrameRecord(t=0.0, detections=dets,
                            depth=DepthGrid(K.width, K.height, 1.5),
                            q=np.zeros(cfg.j_total))
        graphs.append(build_graph(frame, K, cfg.extrinsics, cfg.chains))
    for _ in range(2):
        for g in graphs:
            assert encode(g, w).tobytes() == _fresh_encode(g, w).tobytes()
            assert len(gnn._ADJACENCIES) <= 16
    assert len(gnn._ADJACENCIES) == 16
