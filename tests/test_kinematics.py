import math

import numpy as np
import pytest

from graphact import DhLink, KinematicChain, RigidTransform, dh_transform, fk_positions
from graphact.kinematics import DofMismatch, chain_positions, default_chains
from conftest import random_rotation


def _homog(T: RigidTransform) -> np.ndarray:
    M = np.eye(4)
    M[:3, :3] = T.rotation
    M[:3, 3] = T.translation
    return M


def _dh_oracle(a, alpha, d, theta) -> np.ndarray:
    """Compose the four elementary DH factors Rz(theta)·Tz(d)·Tx(a)·Rx(alpha)."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    Rz = np.array([[ct, -st, 0, 0], [st, ct, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    Tz = np.eye(4); Tz[2, 3] = d
    Tx = np.eye(4); Tx[0, 3] = a
    Rx = np.array([[1, 0, 0, 0], [0, ca, -sa, 0], [0, sa, ca, 0], [0, 0, 0, 1]])
    return Rz @ Tz @ Tx @ Rx


def test_dh_identity():
    T = dh_transform(DhLink(a=0, alpha=0, d=0), theta=0.0)
    assert np.allclose(_homog(T), np.eye(4), atol=0)


def test_dh_pure_translation():
    T = dh_transform(DhLink(a=1.0, alpha=0, d=0), theta=0.0)
    assert np.allclose(T.rotation, np.eye(3))
    assert np.allclose(T.translation, [1.0, 0.0, 0.0])


def test_dh_against_elementary_factor_oracle():
    link = DhLink(a=1.0, alpha=math.pi / 2, d=0.5)
    T = dh_transform(link, theta=math.pi / 4)
    assert np.abs(_homog(T) - _dh_oracle(1.0, math.pi / 2, 0.5, math.pi / 4)).max() < 1e-15


def test_dh_theta_offset_added():
    link = DhLink(a=0.3, alpha=0.2, d=0.1, theta_offset=0.7)
    T = dh_transform(link, theta=0.4)
    assert np.abs(_homog(T) - _dh_oracle(0.3, 0.2, 0.1, 1.1)).max() < 1e-15


def _fk(chain, q) -> np.ndarray:
    """fk_positions of one chain: (dof + 1, 3) for q (dof,), (F, dof + 1, 3)
    for q (F, dof)."""
    pts = fk_positions((chain,), np.atleast_2d(q))[0]
    return pts[0] if np.ndim(q) == 1 else pts


def _planar_two_link():
    links = (DhLink(a=1.0, alpha=0, d=0), DhLink(a=1.0, alpha=0, d=0))
    return KinematicChain(name="planar", base=RigidTransform(np.eye(3), np.zeros(3)), links=links)


def test_planar_two_link_straight():
    pts = _fk(_planar_two_link(), [0.0, 0.0])
    assert np.allclose(pts[0], [0, 0, 0])
    assert np.allclose(pts[1], [1, 0, 0])
    assert np.allclose(pts[2], [2, 0, 0])


def test_planar_two_link_bent():
    # ee = (cos t1 + cos(t1+t2), sin t1 + sin(t1+t2)) evaluated by hand
    pts = _fk(_planar_two_link(), [math.pi / 2, 0.0])
    assert np.abs(pts[2] - np.array([0.0, 2.0, 0.0])).max() < 1e-12
    t1, t2 = 0.3, -0.8
    pts = _fk(_planar_two_link(), [t1, t2])
    expected = [math.cos(t1) + math.cos(t1 + t2), math.sin(t1) + math.sin(t1 + t2), 0.0]
    assert np.abs(pts[2] - np.array(expected)).max() < 1e-12


def _fk_matrix_oracle(chain: KinematicChain, q) -> list:
    """Naive homogeneous-matrix chain, independent of RigidTransform."""
    M = _homog(chain.base)
    pts = [M[:3, 3].copy()]
    for link, theta in zip(chain.links, q):
        M = M @ _dh_oracle(link.a, link.alpha, link.d, theta + link.theta_offset)
        pts.append(M[:3, 3].copy())
    return pts


def test_seven_link_home_matches_matrix_oracle():
    chain = default_chains()[0]
    got = _fk(chain, np.zeros(7))
    expected = _fk_matrix_oracle(chain, np.zeros(7))
    assert len(got) == 8
    for g, e in zip(got, expected):
        assert np.abs(g - e).max() < 1e-12


def test_fk_matches_matrix_oracle_random_configs():
    chain = default_chains()[1]
    rng = np.random.default_rng(4)
    for _ in range(25):
        q = rng.uniform(-np.pi, np.pi, size=7)
        for g, e in zip(_fk(chain, q), _fk_matrix_oracle(chain, q)):
            assert np.abs(g - e).max() < 1e-12


def _compose_chain(chain, q):
    """Reference FK: RigidTransform.compose link by link."""
    T = chain.base
    pts = [T.translation.copy()]
    for link, theta in zip(chain.links, q):
        T = T.compose(dh_transform(link, theta))
        pts.append(T.translation.copy())
    return pts


def test_fk_bit_exact_against_compose_chain():
    rng = np.random.default_rng(7)
    for chain in default_chains():
        for _ in range(50):
            q = rng.uniform(-np.pi, np.pi, size=7)
            got, want = _fk(chain, q), _compose_chain(chain, q)
            assert len(got) == len(want) == 8
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_reachability_bound():
    chain = default_chains()[0]
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, size=7)
        pts = _fk(chain, q)
        for k, link in enumerate(chain.links):
            sep = np.linalg.norm(pts[k + 1] - pts[k])
            assert sep <= abs(link.a) + abs(link.d) + 1e-12


def test_consecutive_distance_independent_of_later_joints():
    # dist(origin k, origin k+1) depends on q[0..k] only
    chain = default_chains()[0]
    rng = np.random.default_rng(6)
    q = rng.uniform(-1, 1, size=7)
    for k in range(6):
        pts = _fk(chain, q)
        d_ref = np.linalg.norm(pts[k + 1] - pts[k])
        for _ in range(5):
            q2 = q.copy()
            q2[k + 1:] = rng.uniform(-1, 1, size=7 - k - 1)
            pts2 = _fk(chain, q2)
            assert abs(np.linalg.norm(pts2[k + 1] - pts2[k]) - d_ref) < 1e-12


def test_dof_mismatch():
    with pytest.raises(DofMismatch):
        _fk(_planar_two_link(), [0.0, 0.0, 0.0])


def test_fk_batch_bit_equal_to_one_frame_calls():
    """fk_positions on (F, dof) gives each frame the bits of its own (1, dof)
    call, and chain_positions gives each chain the bits of its own call."""
    rng = np.random.default_rng(8)
    chains = default_chains()
    Q = rng.uniform(-np.pi, np.pi, size=(40, sum(c.dof for c in chains)))
    stacked = chain_positions(Q, chains)
    offset = 0
    for chain, together in zip(chains, stacked):
        q = Q[:, offset:offset + chain.dof]
        offset += chain.dof
        batch = _fk(chain, q)
        assert batch.shape == together.shape == (40, chain.dof + 1, 3)
        for i in range(len(q)):
            assert (batch[i] == _fk(chain, q[i:i + 1])[0]).all()
            assert (together[i] == batch[i]).all()


def _random_chain(rng, name, dof, base_y):
    links = tuple(DhLink(a=float(rng.uniform(-0.1, 0.1)), alpha=float(rng.uniform(-np.pi, np.pi)),
                         d=float(rng.uniform(0.0, 0.3)),
                         theta_offset=float(rng.uniform(-0.5, 0.5))) for _ in range(dof))
    return KinematicChain(name=name, links=links,
                          base=RigidTransform(random_rotation(rng), [0.0, base_y, 0.1]))


def test_chain_positions_one_pass_per_equal_dof_run(monkeypatch):
    """Interleaved dofs (7, 3, 3, 7, 0) take one fk_positions pass per run
    of equal dof, four in all, and every chain gets the bits of its own
    fk_positions call and of the compose-chain reference, at F = 1 and
    F = 5. Two chain lists with different links, used in turn, each match
    their own references, so no list is served the other's constants."""
    import graphact.kinematics as kinematics
    rng = np.random.default_rng(21)
    lists = [[_random_chain(rng, f"c{i}", dof, 0.1 * i) for i, dof in enumerate((7, 3, 3, 7, 0))]
             for _ in range(2)]
    calls = []
    fk = kinematics.fk_positions
    monkeypatch.setattr(kinematics, "fk_positions", lambda c, q: calls.append(c) or fk(c, q))
    for _ in range(2):
        for chains in lists:
            for F in (1, 5):
                Q = rng.uniform(-np.pi, np.pi, size=(F, sum(c.dof for c in chains)))
                del calls[:]
                got = chain_positions(Q, chains)
                assert [len(c) for c in calls] == [1, 2, 1, 1]
                offset = 0
                for chain, pos in zip(chains, got):
                    q = Q[:, offset:offset + chain.dof]
                    offset += chain.dof
                    assert pos.shape == (F, chain.dof + 1, 3)
                    assert pos.tobytes() == fk((chain,), q)[0].tobytes()
                    for i in range(F):
                        assert pos[i].tobytes() == np.array(_compose_chain(chain, q[i])).tobytes()
    # 12 groups met in turn, first in first out past 4: each was rebuilt
    # after its eviction, never served another list's constants.
    assert len(kinematics._GROUPS) <= 4


def test_freed_chains_never_get_stale_group_constants():
    """Chains made and dropped one after another often reuse a freed id;
    the group cache holds its chains, so a new chain never gets the
    constants cached for an old one."""
    rng = np.random.default_rng(22)
    for _ in range(20):
        chains = [_random_chain(rng, "c", 3, 0.0)]
        q = rng.uniform(-np.pi, np.pi, size=(1, 3))
        got = chain_positions(q, chains)[0][0]
        assert got.tobytes() == np.array(_compose_chain(chains[0], q[0])).tobytes()


def test_grouped_fk_refuses_unequal_dof_and_one_vector():
    chains = default_chains()
    with pytest.raises(DofMismatch):
        fk_positions((chains[0], _planar_two_link()), np.zeros((1, 9)))
    with pytest.raises(DofMismatch):
        fk_positions(tuple(chains), np.zeros(14))


def test_transform_owns_read_only_copies_so_the_fk_cache_stays_true():
    """A later write to the arrays a transform was built from changes
    neither the transform nor the base the FK cache holds for its chain,
    and the transform's own arrays refuse writes."""
    R, t = np.eye(3), np.array([0.0, 0.5, 0.0])
    chain = KinematicChain(name="planar", base=RigidTransform(R, t),
                           links=_planar_two_link().links)
    before = chain_positions(np.zeros((1, 2)), [chain])[0][0]
    t[1], R[0, 0] = 9.0, 2.0
    assert chain.base.translation[1] == 0.5 and chain.base.rotation[0, 0] == 1.0
    after = chain_positions(np.zeros((1, 2)), [chain])[0][0]
    assert after.tobytes() == before.tobytes() and after[0, 1] == 0.5
    for array in (chain.base.translation, chain.base.rotation):
        with pytest.raises(ValueError):
            array[0] = 1.0
