"""Per-frame scene graph assembly: object nodes from backprojected detections,
robot nodes from forward kinematics, and the bipartite object/end-effector
edge set (plus optional kinematic-chain edges)."""

from dataclasses import dataclass

import numpy as np

from .core import NODE_KINDS, CameraIntrinsics, InvalidSetting, RigidTransform
from .kinematics import DofMismatch, chain_positions
from .projection import NoValidDepth, backproject, bbox_center, depth_at

OBJECT, END_EFFECTOR, JOINT = NODE_KINDS


@dataclass
class GraphNode:
    id: int
    kind: str
    label: str
    position: np.ndarray  # (3,) base frame


@dataclass
class PoseObjectGraph:
    t: float
    nodes: list
    edges: list  # list[(i, j)] with i < j, no duplicates, no self-loops


def joint_matrix(frames: list, chains: list) -> np.ndarray:
    """(F, total dof) joint angles of the frames; DofMismatch when a frame's
    q does not hold exactly the chains' joints."""
    total_dof = sum(c.dof for c in chains)
    qs = [np.asarray(frame.q, dtype=float).reshape(-1) for frame in frames]
    for q in qs:
        if q.size != total_dof:
            raise DofMismatch(f"frame has {q.size} joint values, chains expect {total_dof}")
    return np.array(qs).reshape(len(qs), total_dof)


def build_graph(frame, K: CameraIntrinsics, T: RigidTransform, chains: list,
                paper_literal: bool = False, positions: list = None) -> PoseObjectGraph:
    """Assemble the scene graph for one aligned frame. paper_literal gives the
    paper's minimal form: end-effector nodes, object/end-effector edges only.
    positions holds the frame's (dof + 1, 3) joint origins per chain, as
    episode_graphs passes them from one chain_positions call; without it the
    frame's own joints go through that call.

    Node order is deterministic: objects in detection order, then per chain in
    config order (joint origins base-to-tip unless paper_literal, then end
    effector). A detection with no valid depth at its box center gets no
    node (objects_skipped counts them); a box whose center is not a pixel
    of the image raises InvalidSetting.
    """
    if positions is None:
        positions = [p[0] for p in chain_positions(joint_matrix([frame], chains), chains)]
    centers, depths, labels = [], [], []
    for det in frame.detections:
        center = bbox_center(det)
        try:
            depths.append(depth_at(frame.depth, center))
        except NoValidDepth:
            continue
        centers.append(center)
        labels.append(det.label)
    nodes = []
    if labels:
        points = T.apply(backproject(np.array(centers), np.array(depths), K))
        nodes = [GraphNode(id=i, kind=OBJECT, label=label, position=p)
                 for i, (label, p) in enumerate(zip(labels, points))]

    n_objects = len(nodes)
    ee_ids, chain_edges = [], []
    for chain, origins in zip(chains, positions):
        first_id = len(nodes)
        if not paper_literal:
            for k, pos in enumerate(origins[:-1]):
                nodes.append(GraphNode(id=len(nodes), kind=JOINT,
                                       label=f"{chain.name}/j{k}", position=pos))
        ee_id = len(nodes)
        nodes.append(GraphNode(id=ee_id, kind=END_EFFECTOR,
                               label=f"{chain.name}/ee", position=origins[-1]))
        ee_ids.append(ee_id)
        if not paper_literal:
            chain_edges.extend((i, i + 1) for i in range(first_id, ee_id))

    # Every object id is below every robot id, and robot ids grow chain by
    # chain, so this list is already sorted, with i < j and no duplicates.
    edges = [(obj_id, ee_id) for obj_id in range(n_objects) for ee_id in ee_ids] + chain_edges
    return PoseObjectGraph(t=frame.t, nodes=nodes, edges=edges)


def episode_graphs(frames: list, K: CameraIntrinsics, T: RigidTransform, chains: list,
                   paper_literal: bool = False) -> list:
    """build_graph of every frame, with each chain's forward kinematics run
    once for all frames."""
    positions = chain_positions(joint_matrix(frames, chains), chains)
    return [build_graph(frame, K, T, chains, paper_literal,
                        positions=[p[i] for p in positions])
            for i, frame in enumerate(frames)]


def objects_skipped(frames: list, graphs: list, chains: list,
                    paper_literal: bool = False) -> int:
    """The count of the frames' detections that got no object node in their
    graphs (build_graph's, one per frame, in the same mode): detections minus
    object nodes, read from lengths, as every graph holds the same robot
    nodes after its objects."""
    robot = len(chains) if paper_literal else sum(c.dof + 1 for c in chains)
    return (sum(len(frame.detections) for frame in frames)
            - sum(len(g.nodes) - robot for g in graphs))


def adjacency_matrix(g: PoseObjectGraph) -> np.ndarray:
    """Symmetric 0/1 adjacency without self-loops."""
    n = len(g.nodes)
    A = np.zeros((n, n), dtype=float)
    for i, j in g.edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InvalidSetting(f"invalid edge ({i}, {j}) for {n} nodes")
        A[i, j] = 1.0
        A[j, i] = 1.0
    return A

