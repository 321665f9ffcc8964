import numpy as np
import pytest

from graphact import (fm_loss, grad_check, init_flow_expert, interpolate, make_rng,
                      sample_actions, sample_tau, train_step)
from graphact.core import InvalidSetting, ShapeMismatch
from graphact.flow import TAU_MAX_DRAWS, DegenerateTau, _draw_batch, _loss_and_grads


def _tiny_expert(rng=None, sigma=1.0, alpha=1.0, beta=1.0, **kw):
    rng = rng if rng is not None else make_rng(0)
    return init_flow_expert(rng, horizon=2, j_dim=2, context_dim=3,
                            sigma=sigma, alpha=alpha, beta=beta, **kw)


def _zeroed(expert):
    for _, p in expert.params():
        p[:] = 0.0
    return expert


def test_sample_tau_uniform_mean():
    rng = make_rng(1)
    draws = np.array([sample_tau(1.0, 1.0, rng) for _ in range(100_000)])
    assert 0.497 <= draws.mean() <= 0.503
    assert ((draws > 0.0) & (draws < 1.0)).all()


def test_sample_tau_beta_mean():
    rng = make_rng(2)
    draws = np.array([sample_tau(2.0, 1.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 2.0 / 3.0) < 0.01


def test_sample_tau_bounded_redraws():
    class StuckAtZero:
        calls = 0

        def beta(self, a, b):
            self.calls += 1
            return 0.0

    stub = StuckAtZero()
    with pytest.raises(DegenerateTau):
        sample_tau(1.5, 1.0, stub)
    assert stub.calls == TAU_MAX_DRAWS


def test_sample_tau_invalid_params():
    with pytest.raises(InvalidSetting):
        sample_tau(0.0, 1.0, make_rng(0))
    with pytest.raises(InvalidSetting):
        sample_tau(1.0, -2.0, make_rng(0))


def test_interpolate_midpoint_and_mismatch():
    A = np.array([1.0, 1.0])
    eps = np.zeros(2)
    assert np.array_equal(interpolate(A, eps, 0.5), [0.5, 0.5])
    with pytest.raises(ShapeMismatch):
        interpolate(np.zeros(2), np.zeros(3), 0.5)


def test_fm_loss_hand_value():
    # zero expert, eps pinned to 0 via sigma=0, A=(1,0): loss = ||0 - A||^2 = 1
    expert = init_flow_expert(make_rng(0), horizon=1, j_dim=2, context_dim=1, sigma=0.0)
    _zeroed(expert)
    loss = fm_loss(expert, [(np.array([[1.0, 0.0]]), np.zeros(1))], make_rng(5))
    assert loss == 1.0


def test_fm_loss_nonnegative_and_empty_batch():
    expert = _tiny_expert()
    assert fm_loss(expert, [(np.ones((2, 2)), np.zeros(3))], make_rng(6)) >= 0.0
    with pytest.raises(InvalidSetting):
        fm_loss(expert, [], make_rng(6))


def _reference_draw(expert, batch, rng):
    """The per-element draw: tau, then eps, then interpolate and concatenate."""
    X, T = [], []
    for A, context in batch:
        A = np.asarray(A, dtype=float)
        tau = sample_tau(expert.alpha, expert.beta, rng)
        eps = rng.normal(0.0, expert.sigma, size=A.shape)
        X.append(np.concatenate([interpolate(A, eps, tau).ravel(), np.ravel(context), [tau]]))
        T.append(A.ravel())
    return np.array(X), np.array(T)


@pytest.mark.parametrize("sigma", [1.0, 0.0])
@pytest.mark.parametrize("n", [1, 4, 64])
def test_draw_batch_bit_equal_to_a_per_element_reference(n, sigma):
    """The batched draw gives the per-element loop's inputs X and targets T
    bit for bit and leaves the generator where the loop leaves it. Chunks
    come as arrays, lists and float32 with signed zeros, which T keeps."""
    expert = init_flow_expert(make_rng(30), horizon=3, j_dim=2, context_dim=5,
                              sigma=sigma, alpha=1.5, beta=1.0)
    data = make_rng(31)
    batch = []
    for i in range(n):
        A, context = data.normal(size=(3, 2)), data.normal(size=5)
        A[0] = 0.0, -0.0
        batch.append([(A, context), (A.tolist(), context.tolist()),
                      (A.astype(np.float32), context.astype(np.float32))][i % 3])
    rng, ref_rng = make_rng(32), make_rng(32)
    X, T = _draw_batch(expert, batch, rng)
    X_ref, T_ref = _reference_draw(expert, batch, ref_rng)
    assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
    assert T.shape == T_ref.shape and T.tobytes() == T_ref.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad,message", [
    ((np.ones(5), np.zeros(3)), "chunk has 5 entries, expert expects 4"),
    ((np.ones((2, 2)), np.zeros(4)), "context has 4 entries, expert expects 3"),
    ((np.ones((2, 2)), np.zeros((2, 1))), "context has 2 entries, expert expects 3"),
], ids=["chunk", "context", "context_2d"])
@pytest.mark.parametrize("call", ["fm_loss", "train_step"])
def test_a_wrong_sized_element_is_named_before_any_draw(call, bad, message):
    """A chunk or context of the wrong size, anywhere in the batch, is refused
    by name before the first draw: the generator and the weights are as they were."""
    expert = _tiny_expert()
    before = {name: p.copy() for name, p in expert.params()}
    rng = make_rng(3)
    state = rng.bit_generator.state
    batch = [(np.ones((2, 2)), np.zeros(3)), bad]
    with pytest.raises(ShapeMismatch, match=f"^{message}$"):
        if call == "fm_loss":
            fm_loss(expert, batch, rng)
        else:
            train_step(expert, batch, 0.1, rng)
    assert rng.bit_generator.state == state
    for name, p in expert.params():
        assert np.array_equal(p, before[name]), name


def test_train_step_zero_lr_leaves_params():
    expert = _tiny_expert()
    before = {name: p.copy() for name, p in expert.params()}
    train_step(expert, [(np.ones((2, 2)), np.zeros(3))], 0.0, make_rng(7))
    for name, p in expert.params():
        assert np.array_equal(p, before[name])


def test_train_step_matches_quadratic_gd_recurrence():
    # With all weights zero and sigma=0, only b3 moves and the per-step loss
    # is (b3 - A)^2; gradient descent gives b3 <- b3 - lr*2*(b3 - A).
    A = 0.8
    lr = 0.1
    expert = init_flow_expert(make_rng(0), horizon=1, j_dim=1, context_dim=1, sigma=0.0)
    _zeroed(expert)
    batch = [(np.array([[A]]), np.zeros(1))]
    b = 0.0
    for _ in range(3):
        loss = train_step(expert, batch, lr, make_rng(8))
        assert abs(loss - (b - A) ** 2) < 1e-15
        b = b - lr * 2.0 * (b - A)
        assert abs(expert.b3[0] - b) < 1e-15
    for name, p in expert.params():
        if name != "b3":
            assert np.array_equal(p, np.zeros_like(p))


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_step_bit_equal_to_reference_update(momentum):
    """The in-place update gives the bits of v = g on the first step and
    v = m*v + g after it, then p -= lr * v; a step's gradient array (w1's
    is reused by every step) never becomes the velocity, so scaling it in
    place leaves v intact."""
    data_rng = make_rng(20)
    batch = [(data_rng.normal(size=(2, 2)), data_rng.normal(size=3)) for _ in range(4)]
    fast, ref = _tiny_expert(make_rng(21), momentum=momentum), _tiny_expert(make_rng(21))
    fast_rng, ref_rng = make_rng(22), make_rng(22)
    velocity = {}
    for _ in range(4):
        loss = train_step(fast, batch, 0.05, fast_rng)
        ref_loss, grads = _loss_and_grads(ref, *_draw_batch(ref, batch, ref_rng))
        for name, p in ref.params():
            g = grads[name]
            if momentum > 0.0:
                first = name not in velocity
                g = velocity[name] = g.copy() if first else momentum * velocity[name] + g
            p -= 0.05 * g
        assert loss == ref_loss
    for (name, a), (_, b) in zip(fast.params(), ref.params()):
        assert a.tobytes() == b.tobytes(), name
    for name, v in velocity.items():
        assert fast._velocity[name].tobytes() == v.tobytes(), name


def test_grad_check_near_linear_regime():
    # small weights keep tanh near its linear range, so the loss is close to
    # quadratic per parameter and central differences are nearly exact
    expert = _tiny_expert(rng=make_rng(9))
    for name, p in expert.params():
        if name.startswith("w"):
            p *= 0.3
    sample = (make_rng(10).normal(size=(2, 2)), make_rng(11).normal(size=3))
    assert grad_check(expert, sample, h=3e-4, rng=make_rng(12)) < 1e-6


def test_grad_check_error_grows_with_large_h():
    expert = _tiny_expert(rng=make_rng(17))
    sample = (make_rng(18).normal(size=(2, 2)), make_rng(19).normal(size=3))
    small = grad_check(expert, sample, h=1e-5, rng=make_rng(20))
    big = grad_check(expert, sample, h=1e-1, rng=make_rng(20))
    assert big > small


def test_sampler_exact_on_constant_field():
    """A planted constant prediction x_hat = target (b3 = target, all else
    zero) is the sample at any step count, whatever the noise."""
    target = np.array([[0.4], [-1.1]])
    expert = _zeroed(init_flow_expert(make_rng(0), horizon=2, j_dim=1, context_dim=2))
    expert.b3[:] = target.ravel()
    for steps in (1, 2, 5, 10, 37):
        out = sample_actions(expert, np.zeros(2), steps, make_rng(77))
        assert np.abs(out - target).max() < 1e-12


def test_sampler_single_step_formula():
    """One step has alpha = 1: the sample is the prediction at the noise."""
    expert = _tiny_expert(rng=make_rng(21))
    ctx = np.array([0.2, -0.1, 0.5])
    out = sample_actions(expert, ctx, 1, make_rng(22))
    eps = make_rng(22).normal(0.0, expert.sigma, size=expert.action_dim)
    x = np.concatenate([eps, ctx, [0.0]])
    assert np.array_equal(out.ravel(), expert.forward(x[None, :])[0])


def _concat_euler(expert, context, steps, rng):
    """Reference sampler: plain Euler in action space on the velocity
    v = (A - x_hat)/(1 - tau), concatenating [A, context, tau] every step."""
    A = rng.normal(0.0, expert.sigma, size=expert.action_dim)
    dtau = 1.0 / steps
    ctx = np.ravel(context)
    for k in range(steps):
        x = np.concatenate([A, ctx, [k * dtau]])
        A = A - dtau * (A - expert.forward(x[None, :])[0]) / (1.0 - k * dtau)
    return A.reshape(expert.horizon, expert.j_dim)


@pytest.mark.parametrize("steps", [1, 2, 10, 37])
def test_sampler_bit_exact_against_concat_euler(steps):
    """Within 1e-13 of plain action-space Euler at every step count, and at
    1 step bit for bit against the prediction itself, which the reference's
    step A - (A - x_hat) reaches only up to rounding."""
    for seed in range(6):
        horizon, j_dim, context_dim = ((30, 14, 48), (2, 2, 3), (4, 3, 0))[seed % 3]
        expert = init_flow_expert(make_rng(seed), horizon=horizon, j_dim=j_dim,
                                  context_dim=context_dim, sigma=0.5 + seed)
        ctx = make_rng(50 + seed).normal(size=context_dim)
        got = sample_actions(expert, ctx, steps, make_rng(70 + seed))
        want = _concat_euler(expert, ctx, steps, make_rng(70 + seed))
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()
        if steps == 1:
            eps = make_rng(70 + seed).normal(0.0, expert.sigma, size=expert.action_dim)
            x = np.concatenate([eps, ctx, [0.0]])
            assert got.tobytes() == expert.forward(x[None, :])[0].tobytes()


def test_sampler_after_training_matches_a_fresh_expert():
    """train_step drops the operator a sample built from the old weights: the
    next sample equals, bit for bit, a fresh expert's on copies of the new ones."""
    expert = _tiny_expert(rng=make_rng(25), momentum=0.9)
    ctx, rng = np.array([0.3, -0.2, 0.1]), make_rng(26)
    sample_actions(expert, ctx, 10, make_rng(27))
    batch = [(rng.normal(size=(2, 2)), rng.normal(size=3)) for _ in range(4)]
    train_step(expert, batch, 0.1, rng)
    fresh = type(expert)(horizon=2, j_dim=2, context_dim=3, sigma=expert.sigma,
                         **{name: p.copy() for name, p in expert.params()})
    got = sample_actions(expert, ctx, 10, make_rng(28))
    assert got.tobytes() == sample_actions(fresh, ctx, 10, make_rng(28)).tobytes()


def test_weights_are_read_only_while_a_sample_holds_them():
    expert = _tiny_expert(rng=make_rng(29))
    expert.w3[0, 0] = 0.5
    sample_actions(expert, np.zeros(3), 10, make_rng(30))
    for name in ("w1", "w3"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(expert, name)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        expert.w3[0, 0] = 1.0
    expert.drop_fused_operator()
    expert.w3[0, 0] = 1.0


def test_sampler_rejects_wrong_context_size():
    with pytest.raises(ShapeMismatch):
        sample_actions(_tiny_expert(), np.zeros(4), 10, make_rng(0))


def test_sampler_deterministic():
    expert = _tiny_expert(rng=make_rng(23))
    ctx = np.zeros(3)
    a = sample_actions(expert, ctx, 10, make_rng(24))
    b = sample_actions(expert, ctx, 10, make_rng(24))
    assert np.array_equal(a, b)


def test_sampler_stack_bit_equal_to_one_context_calls():
    """F contexts with one rng give the chunks of F one-context calls that
    share one rng, bit for bit."""
    expert = init_flow_expert(make_rng(31), horizon=30, j_dim=14, context_dim=48, sigma=0.7)
    contexts = make_rng(32).normal(size=(9, 48))
    got = sample_actions(expert, contexts, 10, make_rng(33))
    rng = make_rng(33)
    want = [sample_actions(expert, c, 10, rng) for c in contexts]
    assert got.shape == (9, 30, 14)
    assert got.tobytes() == np.array(want).tobytes()
