"""Forward kinematics over serial chains, standard (distal) Denavit-Hartenberg.

Link transform convention: Rz(theta + theta_offset) * Tz(d) * Tx(a) * Rx(alpha).
"""

import itertools
import math

import numpy as np

from .core import DhLink, KinematicChain, PipelineError, RigidTransform


class DofMismatch(PipelineError):
    pass


def dh_transform(link: DhLink, theta: float) -> RigidTransform:
    """Link transform for joint angle theta (theta_offset added internally)."""
    th = theta + link.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(link.alpha), math.sin(link.alpha)
    R = np.array([[ct, -st * ca, st * sa],
                  [st, ct * ca, -ct * sa],
                  [0.0, sa, ca]])
    return RigidTransform(R, [link.a * ct, link.a * st, link.d])


# Group constants by chain ids (hashing the chains costs a tick more), first in
# first out past 4; a process of the benchmark meets one group. Each entry
# holds its chains, so no other object can take their ids while it is cached.
_GROUPS = {}


def _group_constants(chains: tuple) -> tuple:
    """Per-link (theta_offset, cos alpha, sin alpha, a, d), each (dof, C, 1),
    with the scalars dh_transform computes per link, then the bases'
    rotations (C, 1, 3, 3) and translations (C, 1, 3, 1); read-only, since
    every call on the group shares them."""
    key = tuple(map(id, chains))
    if key not in _GROUPS:
        if any(c.dof != chains[0].dof for c in chains):
            raise DofMismatch(f"chains {[c.name for c in chains]} differ in dof")
        table = np.array([[(l.theta_offset, math.cos(l.alpha), math.sin(l.alpha), l.a, l.d)
                           for l in c.links] for c in chains]).reshape(len(chains), -1, 5)
        consts = [np.ascontiguousarray(table.transpose(1, 0, 2)[..., i:i + 1]) for i in range(5)]
        consts += [np.array([c.base.rotation for c in chains])[:, None],
                   np.array([c.base.translation for c in chains])[:, None, :, None]]
        for c in consts:
            c.flags.writeable = False
        if len(_GROUPS) >= 4:
            _GROUPS.pop(next(iter(_GROUPS)))
        _GROUPS[key] = (*consts, chains)
    return _GROUPS[key]


def fk_positions(chains: tuple, q) -> np.ndarray:
    """Base-frame origins of every joint frame plus the end effector, chain order.

    chains is a tuple of C chains of equal dof and q a stack of F joint
    vectors (F, C * dof), the chains' joints side by side; the result is
    (C, F, dof + 1, 3): per chain and frame, the chain base origin, each
    intermediate joint origin, and finally the end effector origin.

    The link transforms of all chains and frames are built at once, then
    composed with the products RigidTransform.compose takes, on (C, F, 3, 3)
    stacks: the rotations link by link, every link's offset R_k @ t_k in one
    stacked product, and the origins as their running sum, so each chain
    and frame gets the bits of its own one-frame composition.
    """
    offset, ca, sa, a, d, base_R, base_t, _ = _group_constants(chains)
    dof = chains[0].dof
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != len(chains) * dof:
        raise DofMismatch(f"chains {[c.name for c in chains]} of {dof} joints got {q.shape}")
    Q = q.reshape(len(q), len(chains), dof)
    origins = np.empty((dof + 1, len(chains), len(Q), 3, 1))
    origins[0] = base_t
    if dof:
        th = Q.transpose(2, 1, 0) + offset     # (dof, C, F): link-major
        ct, st = np.cos(th), np.sin(th)
        R_link = np.empty(th.shape + (3, 3))   # the (C, F, 3, 3) stack of link k is R_link[k]
        R_link[..., 0, 0], R_link[..., 0, 1], R_link[..., 0, 2] = ct, -st * ca, st * sa
        R_link[..., 1, 0], R_link[..., 1, 1], R_link[..., 1, 2] = st, ct * ca, -ct * sa
        R_link[..., 2, 0], R_link[..., 2, 1], R_link[..., 2, 2] = 0.0, sa, ca
        t_link = np.empty(th.shape + (3, 1))
        t_link[..., 0, 0], t_link[..., 1, 0], t_link[..., 2, 0] = a * ct, a * st, d
        R = np.empty_like(R_link)              # R[k]: base rotation after links 0..k-1
        R[0] = base_R
        for k in range(1, dof):
            np.matmul(R[k - 1], R_link[k - 1], out=R[k])
        np.matmul(R, t_link, out=origins[1:])
        np.cumsum(origins, axis=0, out=origins)
    return origins[..., 0].transpose(1, 2, 0, 3)


def chain_positions(Q: np.ndarray, chains: list) -> list:
    """fk_positions of each chain over F frames at once: Q is (F, total dof),
    the chains' joints in config order; one (F, dof + 1, 3) array per chain.
    Each run of consecutive chains of equal dof takes one fk_positions call."""
    out, offset = [], 0
    for dof, run in itertools.groupby(chains, key=lambda c: c.dof):
        run = tuple(run)
        out.extend(fk_positions(run, Q[:, offset:offset + len(run) * dof]))
        offset += len(run) * dof
    return out


def default_arm_links() -> tuple:
    """7-DOF arm with nonzero offsets so poses are non-degenerate at q = 0."""
    return (
        DhLink(a=0.0, alpha=-math.pi / 2, d=0.333, theta_offset=0.0),
        DhLink(a=0.0, alpha=math.pi / 2, d=0.0, theta_offset=-0.3),
        DhLink(a=0.0825, alpha=math.pi / 2, d=0.316, theta_offset=0.0),
        DhLink(a=-0.0825, alpha=-math.pi / 2, d=0.0, theta_offset=0.5),
        DhLink(a=0.0, alpha=math.pi / 2, d=0.384, theta_offset=0.0),
        DhLink(a=0.088, alpha=math.pi / 2, d=0.0, theta_offset=0.4),
        DhLink(a=0.0, alpha=0.0, d=0.107, theta_offset=0.0),
    )


def default_chains() -> list:
    """Two mirrored 7-DOF arms mounted either side of the robot base."""
    links = default_arm_links()
    left = KinematicChain(name="left", links=links,
                          base=RigidTransform(np.eye(3), [0.0, 0.22, 0.0]))
    right = KinematicChain(name="right", links=links,
                           base=RigidTransform(np.eye(3), [0.0, -0.22, 0.0]))
    return [left, right]
