"""Embedded oracle suite: acceptance criteria 2, 5, 6 and 8, runnable from
the CLI so a deployed build can verify itself without the test tree.

Each check returns (name, ok, detail); the suite passes only if every check
does. This file is part of the acceptance gate: tests/test_acceptance.py
calls these functions for those criteria, so their seeds, shapes and
tolerances are gate values and are not to be loosened.
"""

import math

import numpy as np

from .core import CameraIntrinsics, make_rng
from .cot import (END, PAD, TokenVocab, ce_loss, grad_check_cot, init_cot_head,
                  sample_dropout, total_loss)
from .flow import fm_loss, grad_check, init_flow_expert, interpolate, sample_actions
from .projection import backproject, project


def check_projection_roundtrip() -> tuple:
    """Criterion 2: project then backproject 1e4 random points within 1e-9."""
    rng = make_rng(102)
    K = CameraIntrinsics(fx=515.0, fy=470.0, cx=321.5, cy=239.2, width=640, height=480)
    worst = 0.0
    for _ in range(10_000):
        p = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.1, 10.0)])
        pix, z = project(p, K)
        worst = max(worst, float(np.abs(backproject(pix, z, K) - p).max()))
    return "projection_roundtrip", worst < 1e-9, f"max err {worst:.2e}"


def check_flow_identities() -> tuple:
    """Criterion 5: exact interpolation endpoints, zero loss for a planted
    perfect predictor, Euler exactness on a planted constant prediction."""
    rng = make_rng(105)
    A = rng.normal(size=(3, 2))
    eps = rng.normal(size=(3, 2))
    endpoints = (interpolate(A, eps, 1.0).tobytes() == A.tobytes()
                 and interpolate(A, eps, 0.0).tobytes() == eps.tobytes())

    expert = init_flow_expert(rng, horizon=3, j_dim=2, context_dim=2, sigma=0.0)
    for _, p in expert.params():
        p[:] = 0.0
    target = rng.normal(size=(3, 2))
    expert.b3[:] = target.ravel()
    planted = fm_loss(expert, [(target, np.zeros(2))] * 4, make_rng(1))

    euler = init_flow_expert(rng, horizon=3, j_dim=2, context_dim=2, sigma=1.0)
    for _, p in euler.params():
        p[:] = 0.0
    goal = rng.normal(size=6)
    euler.b3[:] = goal
    worst = 0.0
    for steps in (1, 5, 10):
        out = sample_actions(euler, np.zeros(2), steps, make_rng(55)).ravel()
        worst = max(worst, float(np.abs(out - goal).max()))
    ok = endpoints and planted < 1e-20 and worst < 1e-12
    detail = f"planted loss {planted:.1e}, Euler err {worst:.1e}"
    return "flow_identities", ok, detail + ("" if endpoints else ", endpoints inexact")


def check_gradients() -> tuple:
    """Criterion 6: analytic vs central-difference gradients within 1e-4."""
    rng = make_rng(106)
    expert = init_flow_expert(rng, horizon=3, j_dim=2, context_dim=5)
    err_flow = grad_check(expert, (rng.normal(size=(3, 2)), rng.normal(size=5)),
                          h=1e-5, n_params=100, rng=rng)
    # A token list of its own, so the label language cannot move the gate's
    # draws: 180 tokens with <pad> and <end> first, the size it was set at.
    vocab = TokenVocab([PAD, END] + [f"tok{k}" for k in range(178)])
    head = init_cot_head(vocab, context_dim=5, window=4, rng=rng)
    ids = [int(i) for i in rng.integers(0, len(vocab), size=6)] + [vocab.end_id]
    err_cot = grad_check_cot(head, (rng.normal(size=5), ids), h=1e-5, n_params=100, rng=rng)
    ok = bool(err_flow < 1e-4 and err_cot < 1e-4)
    return "gradients", ok, f"flow {err_flow:.2e}, reasoning head {err_cot:.2e}"


def check_loss_formulas() -> tuple:
    """Criterion 8: uniform-logit CE, the dropout combiner, a Bernoulli rate."""
    err = abs(ce_loss(np.zeros((3, 4)), [0, 1, 2]) - 3 * math.log(4))
    sweep = all(abs(ce_loss(np.zeros((T, V)), [0] * T) - T * math.log(V)) < 1e-9
                for T, V in ((1, 2), (5, 7), (10, 1050)))
    combiner = (total_loss(4.0, 1.0, 1, 0.5, 2.0), total_loss(4.0, 1.0, 0, 1.0, 1.0),
                total_loss(4.0, 1.0, 0, 0.5, 2.0)) == (1.0, 5.0, 4.0)
    rng = make_rng(108)
    freq = np.mean([sample_dropout(0.3, rng) for _ in range(10_000)])
    ok = bool(err < 1e-9 and sweep and combiner and 0.28 <= freq <= 0.32)
    detail = f"ce err {err:.1e}, Bernoulli freq {freq:.4f}"
    return "loss_formulas", ok, detail + ("" if sweep and combiner else ", identity broken")


CHECKS = (check_projection_roundtrip, check_flow_identities, check_gradients, check_loss_formulas)


def run_selfcheck() -> list:
    return [check() for check in CHECKS]
