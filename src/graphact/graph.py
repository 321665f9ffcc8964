"""Per-frame scene graph assembly: object nodes from backprojected detections,
robot nodes from forward kinematics, and the bipartite object/end-effector
edge set (plus optional kinematic-chain edges)."""

from dataclasses import dataclass

import numpy as np

from .core import NODE_KINDS, CameraIntrinsics, InvalidSetting, RigidTransform, ShapeMismatch
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
    positions: np.ndarray  # (n, 3) base frame
    kinds: np.ndarray      # (n,) indices into NODE_KINDS
    labels: list           # n names
    edges: list  # list[(i, j)] with i < j, no duplicates, no self-loops

    JSON = ("t", "nodes", "edges")

    @property
    def nodes(self) -> list:
        """A GraphNode per node, in id order, each position a row of positions."""
        return [GraphNode(id=i, kind=NODE_KINDS[k], label=label, position=p)
                for i, (k, label, p) in enumerate(zip(self.kinds, self.labels, self.positions))]


def joint_matrix(frames: list, chains: list) -> np.ndarray:
    """(F, total dof) joint angles of the frames; DofMismatch when a frame's
    q does not hold exactly the chains' joints."""
    total_dof = sum(c.dof for c in chains)
    qs = [np.asarray(frame.q, dtype=float).reshape(-1) for frame in frames]
    for q in qs:
        if q.size != total_dof:
            raise DofMismatch(f"frame has {q.size} joint values, chains expect {total_dof}")
    return np.array(qs).reshape(len(qs), total_dof)


# The robot part of a graph by (chain ids, paper_literal), first in first out
# past 4; a CLI command meets one. Each entry holds its chains,
# as kinematics._GROUPS does, so no other object can take their ids.
_ROBOTS = {}


def _robot_part(chains: list, paper_literal: bool, n_objects: int) -> tuple:
    """(labels, kinds, edges) of a graph whose robot nodes follow n_objects
    objects: the R robot node labels in node order, and the graph's
    read-only (n,) kind indices and edge list, every object to every end
    effector, then each joint to the next node of its chain. Every object id
    is below every robot id, so the list is sorted, with i < j and no
    duplicates. Within an entry, object counts are kept first in first out
    past 16."""
    key = (tuple(map(id, chains)), paper_literal)
    if (robot := _ROBOTS.get(key)) is None:
        kinds, labels = [], []
        for chain in chains:
            names = [] if paper_literal else [f"j{k}" for k in range(chain.dof)]
            kinds += [JOINT] * len(names) + [END_EFFECTOR]
            labels += [f"{chain.name}/{name}" for name in names + ["ee"]]
        if len(_ROBOTS) >= 4:
            _ROBOTS.pop(next(iter(_ROBOTS)))
        robot = _ROBOTS[key] = (kinds, labels, {}, tuple(chains))
    kinds, labels, by_count, _ = robot
    if (part := by_count.get(n_objects)) is None:
        ids = np.array([NODE_KINDS.index(k) for k in [OBJECT] * n_objects + kinds], dtype=np.intp)
        ids.flags.writeable = False
        ee_ids = [n_objects + r for r, k in enumerate(kinds) if k == END_EFFECTOR]
        edges = ([(i, j) for i in range(n_objects) for j in ee_ids]
                 + [(n_objects + r, n_objects + r + 1) for r, k in enumerate(kinds) if k == JOINT])
        if len(by_count) >= 16:
            by_count.pop(next(iter(by_count)))
        part = by_count[n_objects] = (labels, ids, edges)
    return part


def _robot_positions(frames: list, chains: list, paper_literal: bool) -> np.ndarray:
    """(F, R, 3) positions of the frames' robot nodes in node order, from one
    chain_positions call: per chain its dof + 1 joint origins base to tip,
    the last the end effector, or in paper_literal mode that last alone."""
    per_chain = chain_positions(joint_matrix(frames, chains), chains)
    if paper_literal:
        per_chain = [p[:, -1:] for p in per_chain]
    return (np.concatenate(per_chain, axis=1) if per_chain
            else np.empty((len(frames), 0, 3)))


def build_graph(frame, K: CameraIntrinsics, T: RigidTransform, chains: list,
                paper_literal: bool = False, positions: np.ndarray = None) -> PoseObjectGraph:
    """Assemble the scene graph for one aligned frame. paper_literal gives the
    paper's minimal form: end-effector nodes, object/end-effector edges only.
    positions holds the frame's (R, 3) robot node positions, as
    episode_graphs passes them from one chain_positions call per block;
    without it the frame's own joints go through that call. Any other shape
    raises ShapeMismatch.

    Node order is deterministic: objects in detection order, then per chain in
    config order (joint origins base-to-tip unless paper_literal, then end
    effector). A detection with no valid depth at its box center gets no
    node (objects_skipped counts them); a box whose center is not a pixel
    of the image raises InvalidSetting. The graph's positions, labels and
    edges are its own; its read-only kinds are shared by every graph of its
    object count.
    """
    if positions is None:
        positions = _robot_positions([frame], chains, paper_literal)[0]
    centers, depths, labels = [], [], []
    for det in frame.detections:
        center = bbox_center(det)
        try:
            depths.append(depth_at(frame.depth, center))
        except NoValidDepth:
            continue
        centers.append(center)
        labels.append(det.label)
    robot_labels, kinds, edges = _robot_part(chains, paper_literal, len(labels))
    shape = getattr(positions, "shape", type(positions).__name__)
    if shape != (len(robot_labels), 3):
        raise ShapeMismatch(f"robot positions of chains {[c.name for c in chains]}: expected "
                            f"shape {(len(robot_labels), 3)}, got {shape}")
    points = (T.apply(backproject(np.array(centers), np.array(depths), K)) if labels
              else np.empty((0, 3)))
    return PoseObjectGraph(t=frame.t, positions=np.concatenate([points, positions]),
                           kinds=kinds, labels=labels + robot_labels, edges=list(edges))


def episode_graphs(frames: list, K: CameraIntrinsics, T: RigidTransform, chains: list,
                   paper_literal: bool = False) -> list:
    """build_graph of every frame, with the chains' forward kinematics run
    once for all frames."""
    positions = _robot_positions(frames, chains, paper_literal)
    return [build_graph(frame, K, T, chains, paper_literal, positions=p)
            for frame, p in zip(frames, positions)]


def objects_skipped(frames: list, graphs: list, chains: list,
                    paper_literal: bool = False) -> int:
    """The count of the frames' detections that got no object node in their
    graphs (build_graph's, one per frame, in the same mode): detections minus
    object nodes, read from lengths, as every graph holds the same robot
    nodes after its objects."""
    robot = len(chains) if paper_literal else sum(c.dof + 1 for c in chains)
    return (sum(len(frame.detections) for frame in frames)
            - sum(len(g.positions) - robot for g in graphs))


def adjacency_matrix(g: PoseObjectGraph) -> np.ndarray:
    """Symmetric 0/1 adjacency without self-loops."""
    n = len(g.positions)
    A = np.zeros((n, n), dtype=float)
    for i, j in g.edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InvalidSetting(f"invalid edge ({i}, {j}) for {n} nodes")
        A[i, j] = 1.0
        A[j, i] = 1.0
    return A
