"""Forward kinematics over serial chains, standard (distal) Denavit-Hartenberg.

Link transform convention: Rz(theta + theta_offset) * Tz(d) * Tx(a) * Rx(alpha).
"""

import math

import numpy as np

from .core import DhLink, KinematicChain, PipelineError, RigidTransform


class DofMismatch(PipelineError):
    pass


def _dh_arrays(link: DhLink, theta: float) -> tuple:
    """(R, t) of the link transform for joint angle theta."""
    th = theta + link.theta_offset
    ct, st = math.cos(th), math.sin(th)
    ca, sa = math.cos(link.alpha), math.sin(link.alpha)
    R = np.array([[ct, -st * ca, st * sa],
                  [st, ct * ca, -ct * sa],
                  [0.0, sa, ca]])
    t = np.array([link.a * ct, link.a * st, link.d])
    return R, t


def dh_transform(link: DhLink, theta: float) -> RigidTransform:
    """Link transform for joint angle theta (theta_offset added internally)."""
    return RigidTransform(*_dh_arrays(link, theta), check=False)


def fk_positions(chain: KinematicChain, q_slice) -> list:
    """Base-frame origins of every joint frame plus the end effector, chain order.

    Returns dof + 1 points: the chain base origin, each intermediate joint
    origin, and finally the end-effector origin. The chain is composed on
    plain (R, t) arrays with the products RigidTransform.compose takes.
    """
    q = np.asarray(q_slice, dtype=float).reshape(-1)
    if q.size != chain.dof:
        raise DofMismatch(f"chain '{chain.name}' expects {chain.dof} joints, got {q.size}")
    R, t = chain.base.rotation, chain.base.translation
    positions = [t.copy()]
    for link, theta in zip(chain.links, q):
        R_link, t_link = _dh_arrays(link, theta)
        t = R @ t_link + t
        R = R @ R_link
        positions.append(t)
    return positions


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
