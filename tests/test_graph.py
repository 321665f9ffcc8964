import json
import math

import numpy as np
import pytest

from graphact import (BoundingBox, DepthGrid, FrameRecord, GraphNode, SampleStream,
                      adjacency_matrix, align_streams, build_graph, default_config, gen_episode)
from graphact.core import InvalidSetting, ShapeMismatch, to_json
from graphact.graph import (END_EFFECTOR, JOINT, OBJECT, episode_graphs, joint_matrix,
                            objects_skipped)
from graphact.kinematics import DofMismatch, chain_positions
from graphact.projection import NoValidDepth, backproject, bbox_center, depth_at
from graphact.sim import SCENARIOS, Scene, SceneObject, render_frame
from graphact.stream_sync import CONTROL_STREAM

CFG = default_config()


def _frame(n_objects, depth_value=2.0, n_joints=None):
    K = CFG.intrinsics
    dets = [BoundingBox(f"o{i}", 50.0 + 30 * i, 60.0, 70.0 + 30 * i, 80.0)
            for i in range(n_objects)]
    return FrameRecord(t=0.0, detections=dets,
                       depth=DepthGrid(K.width, K.height, depth_value),
                       q=np.zeros(CFG.j_total if n_joints is None else n_joints))


def test_ee_only_counts_two_objects_two_arms():
    g = build_graph(_frame(2), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
    assert len(g.nodes) == 4
    assert len(g.edges) == 4  # complete bipartite 2x2
    assert [n.kind for n in g.nodes] == [OBJECT, OBJECT, END_EFFECTOR, END_EFFECTOR]


def test_zero_objects_graph():
    g = build_graph(_frame(0), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
    assert len(g.nodes) == 2 and g.edges == []
    full = build_graph(_frame(0), CFG.intrinsics, CFG.extrinsics, CFG.chains)
    assert all(n.kind != OBJECT for n in full.nodes)
    # only chain edges remain
    assert len(full.edges) == sum(c.dof for c in CFG.chains)


def test_zero_arms_graph():
    g = build_graph(_frame(3, depth_value=1.5, n_joints=0), CFG.intrinsics,
                    CFG.extrinsics, chains=[], paper_literal=True)
    assert len(g.nodes) == 3 and g.edges == []


def test_object_position_matches_simulator_ground_truth():
    ep = gen_episode(SCENARIOS["food"], 0, 1, seed=21, cfg=CFG)
    g = build_graph(ep.frames[0], CFG.intrinsics, CFG.extrinsics, CFG.chains)
    for obj in ep.scene.objects:
        node = next(n for n in g.nodes if n.label == obj.label)
        assert np.abs(node.position - obj.position).max() < 1e-6


def test_node_count_accounting():
    for n_obj in (0, 1, 3):
        for paper_literal in (False, True):
            g = build_graph(_frame(n_obj), CFG.intrinsics, CFG.extrinsics,
                            CFG.chains, paper_literal)
            per_chain = sum(1 if paper_literal else c.dof + 1 for c in CFG.chains)
            assert len(g.nodes) == n_obj + per_chain
            n_ee = sum(1 for n in g.nodes if n.kind == END_EFFECTOR)
            bipartite = [e for e in g.edges
                         if g.nodes[e[0]].kind == OBJECT or g.nodes[e[1]].kind == OBJECT]
            assert len(bipartite) == n_obj * n_ee


def test_adjacency_bipartite_k22():
    g = build_graph(_frame(2), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
    A = adjacency_matrix(g)
    expected = np.zeros((4, 4))
    expected[:2, 2:] = 1.0
    expected[2:, :2] = 1.0
    assert np.array_equal(A, expected)
    assert np.array_equal(A, A.T)


def test_adjacency_empty_edges():
    g = build_graph(_frame(0, n_joints=7), CFG.intrinsics, CFG.extrinsics,
                    CFG.chains[:1], paper_literal=True)
    assert np.array_equal(adjacency_matrix(g), np.zeros((1, 1)))


@pytest.mark.parametrize("edge", [(1, 1), (0, 4), (-1, 2), (3, 7)],
                         ids=["self_loop", "past_the_end", "negative", "far_past_the_end"])
def test_adjacency_refuses_an_invalid_edge(edge):
    """A self-loop, or an end outside the graph's node ids (a negative one
    included), is refused by name rather than written or wrapped around."""
    g = build_graph(_frame(2), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
    g.edges.append(edge)
    i, j = edge
    with pytest.raises(InvalidSetting, match=rf"^invalid edge \({i}, {j}\) for 4 nodes$"):
        adjacency_matrix(g)


def test_kinematic_edges_connect_consecutive_joints():
    g = build_graph(_frame(1, n_joints=7), CFG.intrinsics, CFG.extrinsics,
                    CFG.chains[:1])
    joints = [n.id for n in g.nodes if n.kind == JOINT]
    ee = next(n.id for n in g.nodes if n.kind == END_EFFECTOR)
    chain_path = list(zip(joints, joints[1:])) + [(joints[-1], ee)]
    for e in chain_path:
        assert e in g.edges


def test_object_skipped_without_valid_depth():
    """The skipped objects are the frame's detections less the graph's
    object nodes: here both of the two."""
    frame = _frame(2, depth_value=-1.0)  # whole grid invalid
    g = build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
    objects = [n for n in g.nodes if n.kind == OBJECT]
    assert objects == []
    assert len(frame.detections) - len(objects) == 2
    assert g.edges == []


@pytest.mark.parametrize("paper_literal", [False, True], ids=["full", "paper_literal"])
def test_objects_skipped_counts_detections_without_a_node(paper_literal):
    """objects_skipped, read from lengths, equals detections less object
    nodes, whether a frame's detections all have depth, none has or one
    box centre lies in a hole."""
    holed = _frame(3)
    holed.depth.patches.append((57, 67, 64, 74, 0.0))  # over the first box centre
    frames = [_frame(2), _frame(2, depth_value=-1.0), holed, _frame(0)]
    graphs = episode_graphs(frames, CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal)
    objects = sum(n.kind == OBJECT for g in graphs for n in g.nodes)
    assert objects == 2 + 0 + 2
    assert objects_skipped(frames, graphs, CFG.chains, paper_literal) == 7 - objects == 3


def test_dof_mismatch_propagates():
    frame = _frame(1)
    frame.q = np.zeros(CFG.j_total - 1)
    with pytest.raises(DofMismatch):
        build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains)


def test_serialization_deterministic_and_roundtrips():
    frame = _frame(3)
    a = json.dumps(to_json(build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains)))
    b = json.dumps(to_json(build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains)))
    assert a == b  # byte-identical
    g = build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains)
    doc = json.loads(a)
    assert [(n["id"], n["kind"], n["label"]) for n in doc["nodes"]] == \
        [(n.id, n.kind, n.label) for n in g.nodes]
    assert np.array_equal([n["position"] for n in doc["nodes"]], [n.position for n in g.nodes])
    assert [tuple(e) for e in doc["edges"]] == g.edges


def test_edges_unique_no_self_loops():
    g = build_graph(_frame(4), CFG.intrinsics, CFG.extrinsics, CFG.chains)
    assert len(set(g.edges)) == len(g.edges)
    assert all(i < j for i, j in g.edges)


def test_episode_graphs_match_per_frame_build_graph():
    """One forward-kinematics call for the episode gives every frame the
    graph its own build_graph call gives, byte for byte, in both modes."""
    ep = gen_episode(SCENARIOS["outfit"], 1, 12, seed=22, cfg=CFG)
    for paper_literal in (False, True):
        graphs = episode_graphs(ep.frames, ep.K, ep.T, CFG.chains, paper_literal)
        assert [json.dumps(to_json(g)) for g in graphs] == [
            json.dumps(to_json(build_graph(f, ep.K, ep.T, CFG.chains, paper_literal)))
            for f in ep.frames]


def test_episode_graphs_dof_mismatch_names_the_frame_size():
    frames = [_frame(1), _frame(1, n_joints=CFG.j_total - 2)]
    with pytest.raises(DofMismatch, match=f"{CFG.j_total - 2} joint values"):
        episode_graphs(frames, CFG.intrinsics, CFG.extrinsics, CFG.chains)


@pytest.mark.parametrize("box", [(1e308, 100.0, 1.7e308, 120.0), (math.nan, 100.0, 120.0, 120.0),
                                 (5000.0, 100.0, 4000.0, 120.0)],
                         ids=["center_overflows", "nan_x_min", "center_off_image"])
def test_build_graph_refuses_a_box_center_off_the_image(box):
    """A library-built frame, made directly or by align_streams, whose box
    center is not finite or not on the image is refused by name, not
    skipped as missing depth and not turned into an object node."""
    K = CFG.intrinsics
    depth = DepthGrid(K.width, K.height, 2.0)
    dets = [BoundingBox("egg", *box)]
    head = SampleStream("head", CFG.camera_rate_hz,
                        [(0.0, {"detections": dets, "depth": depth})])
    control = SampleStream(CONTROL_STREAM, CFG.control_rate_hz, [(0.0, np.zeros(CFG.j_total))])
    aligned = align_streams(head, [control], CFG.max_gap)
    assert len(aligned) == 1
    for frame in [FrameRecord(t=0.0, detections=dets, depth=depth, q=np.zeros(CFG.j_total)),
                  aligned[0]]:
        with pytest.raises(InvalidSetting, match="off the 640x480 image") as err:
            build_graph(frame, K, CFG.extrinsics, CFG.chains)
        assert not isinstance(err.value, NoValidDepth)


def _reference_nodes(frame, paper_literal):
    """The frame's nodes built one GraphNode at a time, each object point by
    its own backproject and apply call and each chain's origins by a
    one-frame chain_positions call: the node list build_graph once kept."""
    K, T, nodes = CFG.intrinsics, CFG.extrinsics, []
    for det in frame.detections:
        center = bbox_center(det)
        try:
            depth = depth_at(frame.depth, center)
        except NoValidDepth:
            continue
        point = T.apply(backproject(center, depth, K))
        nodes.append(GraphNode(len(nodes), OBJECT, det.label, point))
    per_chain = chain_positions(joint_matrix([frame], CFG.chains), CFG.chains)
    for chain, origins in zip(CFG.chains, per_chain):
        if not paper_literal:
            for k, pos in enumerate(origins[0, :-1]):
                nodes.append(GraphNode(len(nodes), JOINT, f"{chain.name}/j{k}", pos))
        nodes.append(GraphNode(len(nodes), END_EFFECTOR, f"{chain.name}/ee", origins[0, -1]))
    return nodes


def _control_frame():
    """A frame of 16 objects on a 4x4 pixel grid at depths from 0.5 to 3 m,
    with the arms away from zero, like the benchmark's control scene."""
    K, T = CFG.intrinsics, CFG.extrinsics
    pixels = [(80.0 + 150 * (i % 4), 60.0 + 110 * (i // 4)) for i in range(16)]
    objects = [SceneObject(f"o{i}", T.apply(backproject(p, 0.5 + 2.5 * i / 15, K)), 0.0)
               for i, p in enumerate(pixels)]
    q = [0.6 * math.sin(0.4 * j) for j in range(CFG.j_total)]
    return render_frame(Scene(objects=objects, table_bounds=((0, 1),) * 3), q, 0.5, K, T)


def _node_bits(nodes):
    return [(n.id, type(n.id), n.kind, n.label, n.position.dtype, n.position.tobytes())
            for n in nodes]


@pytest.mark.parametrize("paper_literal", [False, True], ids=["full", "paper_literal"])
def test_nodes_equal_the_one_node_at_a_time_reference(paper_literal):
    """g.nodes, views of the graph's arrays, holds the ids, kinds, labels and
    position bits of the reference's GraphNode list, for the frames of the
    tests above and a 16-object frame, from build_graph and episode_graphs."""
    holed = _frame(3)
    holed.depth.patches.append((57, 67, 64, 74, 0.0))
    control = _control_frame()
    assert len(control.detections) == 16
    frames = [_frame(0), _frame(1), _frame(2), _frame(4), holed, control,
              *gen_episode(SCENARIOS["outfit"], 1, 3, seed=22, cfg=CFG).frames]
    graphs = episode_graphs(frames, CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal)
    for frame, g in zip(frames, graphs):
        reference = _node_bits(_reference_nodes(frame, paper_literal))
        assert _node_bits(g.nodes) == reference
        single = build_graph(frame, CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal)
        assert _node_bits(single.nodes) == reference
        assert all(np.shares_memory(n.position, g.positions) for n in g.nodes)


def test_graphs_of_one_block_share_no_mutable_state():
    """Appending to one graph's edges or writing to its positions or labels
    leaves every other graph of the block as it was; the kinds that graphs
    of one object count share cannot be written."""
    frames = [_frame(2), _frame(2), _frame(2)]
    for paper_literal in (False, True):
        first, *others = episode_graphs(frames, CFG.intrinsics, CFG.extrinsics, CFG.chains,
                                        paper_literal)
        before = [json.dumps(to_json(g)) for g in others]
        first.edges.append((0, 1))
        first.positions[:] = 7.0
        first.labels[0] = "moved"
        assert [json.dumps(to_json(g)) for g in others] == before
        assert all(g.edges != first.edges for g in others)
        with pytest.raises(ValueError, match="read-only"):
            first.kinds[0] = 1


@pytest.mark.parametrize("paper_literal", [False, True], ids=["full", "paper_literal"])
def test_build_graph_refuses_robot_positions_of_the_wrong_shape(paper_literal):
    """Robot positions are the frame's (R, 3) node rows, R = 16 for two
    7-dof chains (2 in paper-literal mode); any other shape, or a per-chain
    list, is refused by name, not built into a smaller graph."""
    R = len(CFG.chains) if paper_literal else sum(c.dof + 1 for c in CFG.chains)
    good = np.zeros((R, 3))
    g = build_graph(_frame(1), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal,
                    positions=good)
    assert len(g.nodes) == 1 + R
    for bad in ([np.zeros((3, 3))] * 2, np.zeros((3, 3)), np.zeros((R, 2)), np.zeros((1, R, 3)),
                list(good)):
        with pytest.raises(ShapeMismatch, match=rf"expected shape \({R}, 3\)"):
            build_graph(_frame(1), CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal,
                        positions=bad)
