"""Embedded oracle suite: fast invariant checks runnable from the CLI.

Each check returns (name, ok, detail); the suite passes only if every check
does. These duplicate the most load-bearing test oracles so a deployed build
can verify itself without the test tree.
"""

import numpy as np

from .core import CameraIntrinsics, make_rng
from .cot import build_default_vocab, ce_loss, grad_check_cot, init_cot_head, total_loss
from .flow import (grad_check, init_flow_expert, interpolate, fm_loss,
                   sample_actions)
from .projection import backproject, project


def _check_projection_roundtrip(rng) -> tuple:
    K = CameraIntrinsics(fx=500.0, fy=480.0, cx=320.0, cy=240.0, width=640, height=480)
    worst = 0.0
    for _ in range(10_000):
        p = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 10.0)])
        pix, z = project(p, K)
        worst = max(worst, float(np.abs(backproject(pix, z, K) - p).max()))
    return "projection_roundtrip", worst < 1e-9, f"max abs error {worst:.3e}"


def _check_flow_gradients(rng) -> tuple:
    expert = init_flow_expert(rng, horizon=3, j_dim=2, context_dim=4)
    sample = (rng.normal(size=(3, 2)), rng.normal(size=4))
    err = grad_check(expert, sample, h=1e-5, n_params=100, rng=rng)
    return "flow_gradients", err < 1e-4, f"max rel error {err:.3e}"


def _check_cot_gradients(rng) -> tuple:
    vocab = build_default_vocab(max_frame=40, value_range=0.5)
    head = init_cot_head(vocab, context_dim=4, window=4, rng=rng)
    sample = (rng.normal(size=4), [5, 9, 2, vocab.end_id])
    err = grad_check_cot(head, sample, h=1e-5, n_params=100, rng=rng)
    return "cot_gradients", err < 1e-4, f"max rel error {err:.3e}"


def _check_loss_identities(rng) -> tuple:
    ok = True
    details = []
    uniform = np.zeros((3, 4))
    err = abs(ce_loss(uniform, [0, 1, 2]) - 3 * np.log(4))
    ok &= err < 1e-9
    details.append(f"uniform ce err {err:.3e}")
    ok &= total_loss(4.0, 1.0, 1, 0.5, 2.0) == 1.0
    ok &= total_loss(4.0, 1.0, 0, 1.0, 1.0) == 5.0
    ok &= total_loss(4.0, 1.0, 0, 0.5, 2.0) == 4.0
    A = rng.normal(size=(2, 2))
    eps = rng.normal(size=(2, 2))
    ok &= np.array_equal(interpolate(A, eps, 1.0), A)
    ok &= np.array_equal(interpolate(A, eps, 0.0), eps)
    return "loss_identities", bool(ok), "; ".join(details)


def _check_planted_flow(rng) -> tuple:
    # Zeroed network with bias -A on a constant problem with sigma = 0 is a
    # perfect predictor; its loss must vanish.
    expert = init_flow_expert(rng, horizon=2, j_dim=1, context_dim=2, sigma=0.0)
    A = np.array([[0.7], [-0.3]])
    for _, p in expert.params():
        p[:] = 0.0
    expert.b3[:] = -A.ravel()
    loss = fm_loss(expert, [(A, np.zeros(2))], rng)
    return "planted_flow_loss", loss < 1e-20, f"loss {loss:.3e}"


def _check_euler_constant_field(rng) -> tuple:
    expert = init_flow_expert(rng, horizon=2, j_dim=1, context_dim=2, sigma=1.0)
    for _, p in expert.params():
        p[:] = 0.0
    target = np.array([0.4, -1.1])
    seed = 123
    eps0 = make_rng(seed).normal(0.0, expert.sigma, size=expert.action_dim)
    expert.b3[:] = eps0 - target
    worst = 0.0
    for steps in (1, 5, 10):
        out = sample_actions(expert, np.zeros(2), steps, make_rng(seed)).ravel()
        worst = max(worst, float(np.abs(out - target).max()))
    return "euler_constant_field", worst < 1e-12, f"max abs error {worst:.3e}"


def run_selfcheck() -> list:
    rng = make_rng(2024)
    checks = [
        _check_projection_roundtrip,
        _check_flow_gradients,
        _check_cot_gradients,
        _check_loss_identities,
        _check_planted_flow,
        _check_euler_constant_field,
    ]
    return [fn(rng) for fn in checks]
