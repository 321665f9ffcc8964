"""Per-frame scene graph assembly: object nodes from backprojected detections,
robot nodes from forward kinematics, and the bipartite object/end-effector
edge set (plus optional kinematic-chain edges)."""

import json
import logging
from dataclasses import dataclass

import numpy as np

from .core import CameraIntrinsics, PipelineError, RigidTransform
from .kinematics import DofMismatch, fk_positions
from .projection import NoValidDepth, backproject, bbox_center, depth_at, transform_point

log = logging.getLogger(__name__)

OBJECT = "object"
END_EFFECTOR = "end_effector"
JOINT = "joint"


@dataclass(frozen=True)
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


@dataclass
class GraphOptions:
    """joints_as_nodes/kinematic_edges render the full chain; switching both
    off gives the minimal form (end-effector nodes, bipartite edges only)."""

    joints_as_nodes: bool = True
    kinematic_edges: bool = True
    depth_window: int = 3


def build_graph(frame, K: CameraIntrinsics, T: RigidTransform, chains: list,
                opts: GraphOptions = None, skipped: list = None) -> PoseObjectGraph:
    """Assemble the scene graph for one synced frame.

    Node order is deterministic: objects in detection order, then per chain in
    config order (joint origins base-to-tip when enabled, then end effector).
    Objects with no valid depth are skipped and recorded in `skipped`.
    """
    opts = opts or GraphOptions()
    nodes = []
    for det in frame.detections:
        center = bbox_center(det)
        try:
            d = depth_at(frame.depth, center, window=opts.depth_window)
        except NoValidDepth:
            log.warning("skipping object '%s': no valid depth at %s", det.label, center)
            if skipped is not None:
                skipped.append(det.label)
            continue
        p_base = transform_point(T, backproject(center, d, K))
        nodes.append(GraphNode(id=len(nodes), kind=OBJECT, label=det.label, position=p_base))

    q = np.asarray(frame.q, dtype=float).reshape(-1) if frame.q is not None else np.zeros(0)
    total_dof = sum(c.dof for c in chains)
    if q.size != total_dof:
        raise DofMismatch(f"frame has {q.size} joint values, chains expect {total_dof}")
    n_objects = len(nodes)
    ee_ids, chain_edges = [], []
    offset = 0
    for chain in chains:
        positions = fk_positions(chain, q[offset:offset + chain.dof])
        offset += chain.dof
        first_id = len(nodes)
        if opts.joints_as_nodes:
            for k, pos in enumerate(positions[:-1]):
                nodes.append(GraphNode(id=len(nodes), kind=JOINT,
                                       label=f"{chain.name}/j{k}", position=pos))
        ee_id = len(nodes)
        nodes.append(GraphNode(id=ee_id, kind=END_EFFECTOR,
                               label=f"{chain.name}/ee", position=positions[-1]))
        ee_ids.append(ee_id)
        if opts.joints_as_nodes and opts.kinematic_edges:
            chain_edges.extend((i, i + 1) for i in range(first_id, ee_id))

    # Every object id is below every robot id, and robot ids grow chain by
    # chain, so this list is already sorted, with i < j and no duplicates.
    edges = [(obj_id, ee_id) for obj_id in range(n_objects) for ee_id in ee_ids] + chain_edges
    return PoseObjectGraph(t=frame.t, nodes=nodes, edges=edges)


def adjacency_matrix(g: PoseObjectGraph, self_loops: bool = False) -> np.ndarray:
    n = len(g.nodes)
    A = np.zeros((n, n), dtype=float)
    for i, j in g.edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise PipelineError(f"invalid edge ({i}, {j}) for {n} nodes")
        A[i, j] = 1.0
        A[j, i] = 1.0
    if self_loops:
        A[np.diag_indices(n)] = 1.0
    return A


def graph_to_json(g: PoseObjectGraph) -> str:
    """Fixed-key-order JSON; byte-stable for identical graphs."""
    doc = {
        "t": float(g.t),
        "nodes": [{"id": n.id, "kind": n.kind, "label": n.label,
                   "position": [float(x) for x in n.position]} for n in g.nodes],
        "edges": [[int(i), int(j)] for i, j in g.edges],
    }
    return json.dumps(doc)


def graph_from_json(text: str) -> PoseObjectGraph:
    doc = json.loads(text)
    nodes = [GraphNode(id=int(n["id"]), kind=n["kind"], label=n["label"],
                       position=np.array(n["position"], dtype=float))
             for n in doc["nodes"]]
    edges = [(int(i), int(j)) for i, j in doc["edges"]]
    return PoseObjectGraph(t=float(doc["t"]), nodes=nodes, edges=edges)
