"""Forward kinematics over serial chains, standard (distal) Denavit-Hartenberg.

Link transform convention: Rz(theta + theta_offset) * Tz(d) * Tx(a) * Rx(alpha).
"""

import functools
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
    return RigidTransform(R, [link.a * ct, link.a * st, link.d], check=False)


@functools.lru_cache(maxsize=None)
def _link_constants(links: tuple) -> tuple:
    """Per-link (theta_offset, cos alpha, sin alpha, a, d) columns of a chain,
    each (dof, 1), with the scalars dh_transform computes per link; read-only,
    since every call on the chain shares them."""
    table = np.array([(l.theta_offset, math.cos(l.alpha), math.sin(l.alpha), l.a, l.d)
                      for l in links], dtype=float).reshape(-1, 5)
    columns = tuple(np.ascontiguousarray(table[:, i:i + 1]) for i in range(5))
    for c in columns:
        c.flags.writeable = False
    return columns


def fk_positions(chain: KinematicChain, q) -> np.ndarray:
    """Base-frame origins of every joint frame plus the end effector, chain order.

    q is one joint vector (dof,) or a stack of them (F, dof); the result is
    (dof + 1, 3) or (F, dof + 1, 3): the chain base origin, each intermediate
    joint origin, and finally the end-effector origin.

    The link transforms of all frames are built at once. The chain is then
    composed with the products RigidTransform.compose takes, on (F, 3, 3)
    stacks: the rotations link by link, every link's offset R_k @ t_k in one
    stacked product, and the origins as their running sum, so each frame
    gets the bits of its own one-frame composition.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != chain.dof:
        raise DofMismatch(f"chain '{chain.name}' expects {chain.dof} joints, "
                          f"got shape {q.shape}")
    dof = chain.dof
    Q = q.reshape(len(q) if q.ndim == 2 else 1, dof)
    origins = np.empty((dof + 1, len(Q), 3, 1))
    origins[0] = chain.base.translation[:, None]
    if dof:
        offset, ca, sa, a, d = _link_constants(tuple(chain.links))
        th = Q.T + offset                      # (dof, F): link-major
        ct, st = np.cos(th), np.sin(th)
        R_link = np.empty(th.shape + (3, 3))   # the (F, 3, 3) stack of link k is R_link[k]
        R_link[..., 0, 0], R_link[..., 0, 1], R_link[..., 0, 2] = ct, -st * ca, st * sa
        R_link[..., 1, 0], R_link[..., 1, 1], R_link[..., 1, 2] = st, ct * ca, -ct * sa
        R_link[..., 2, 0], R_link[..., 2, 1], R_link[..., 2, 2] = 0.0, sa, ca
        t_link = np.empty(th.shape + (3, 1))
        t_link[..., 0, 0], t_link[..., 1, 0], t_link[..., 2, 0] = a * ct, a * st, d
        R = np.empty_like(R_link)              # R[k]: base rotation after links 0..k-1
        R[0] = chain.base.rotation
        for k in range(1, dof):
            R[k] = R[k - 1] @ R_link[k - 1]
        origins[1:] = R @ t_link
        np.cumsum(origins, axis=0, out=origins)
    out = origins[..., 0].transpose(1, 0, 2)
    return out if q.ndim == 2 else out[0]


def chain_positions(Q: np.ndarray, chains: list) -> list:
    """fk_positions of each chain over F frames at once: Q is (F, total dof),
    the chains' joints in config order; one (F, dof + 1, 3) array per chain."""
    out, offset = [], 0
    for chain in chains:
        out.append(fk_positions(chain, Q[:, offset:offset + chain.dof]))
        offset += chain.dof
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
                          base=RigidTransform(np.eye(3), [0.0, 0.22, 0.0], check=False))
    right = KinematicChain(name="right", links=links,
                           base=RigidTransform(np.eye(3), [0.0, -0.22, 0.0], check=False))
    return [left, right]
