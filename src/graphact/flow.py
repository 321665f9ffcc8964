"""Flow-matching action expert, in data prediction.

Training regresses the clean target A from interpolants A_tau =
tau*A + (1-tau)*eps, with tau ~ Beta(alpha, beta) and eps ~ N(0, sigma^2 I):
the MLP outputs x_hat(A_tau, context, tau) and minimises ||x_hat - A||^2
(Li & He, arXiv:2511.13720). Sampling integrates dA/dtau = -v with Euler
steps from pure noise at tau = 0, where v = (A_tau - x_hat)/(1 - tau) is the
velocity eps - A the prediction implies, since A_tau - A = (1-tau)(eps - A).
So a step is A <- (1 - alpha)*A + alpha*x_hat with alpha = dtau/(1 - tau),
and the last step's alpha is 1: the sample is the last prediction.
The expert is generic: what A is (the pipeline feeds it cosine
coefficients of a chunk's offset) is the caller's business.

The network is a small MLP (two tanh hidden layers) trained by plain
gradient descent with optional momentum; gradients are hand-derived and
verified against central differences by grad_check.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (InvalidSetting, Model, PipelineError, ShapeMismatch, check_count,
                   check_difference_step, check_shapes, fan_in_normal, max_grad_error)

# Redraws sample_tau allows before it gives up; an ordinary Beta draw lands
# strictly inside (0, 1) on the first try.
TAU_MAX_DRAWS = 100


class DegenerateTau(PipelineError):
    pass


@dataclass
class FlowExpert(Model):
    """Data-prediction MLP: input [A_tau_flat, context, tau] -> x_hat (D_a,)."""

    horizon: int                 # rows of a target; the pipeline's cosine terms
    j_dim: int                   # joint dims per action step
    context_dim: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    momentum: float = 0.0
    alpha: float = 1.5
    beta: float = 1.0
    sigma: float = 1.0
    _velocity: dict = field(default_factory=dict, repr=False)  # momentum buffers
    _grad_w1: np.ndarray = field(default=None, init=False, repr=False, compare=False)  # _backward

    PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")
    NAME = "expert"
    TIES = {"horizon": "action_terms", "j_dim": "j_total", "context_dim": "context_dim",
            "sigma": "sigma"}

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidSetting(f"expert sigma must be non-negative, got {self.sigma}")
        h1, h2 = np.size(self.b1), np.size(self.b2)
        check_shapes(self.NAME, {
            "w1": (self.w1, (self.input_dim, h1)), "b1": (self.b1, (h1,)),
            "w2": (self.w2, (h1, h2)), "b2": (self.b2, (h2,)),
            "w3": (self.w3, (h2, self.action_dim)), "b3": (self.b3, (self.action_dim,))})

    @property
    def action_dim(self) -> int:
        return self.horizon * self.j_dim

    @property
    def input_dim(self) -> int:
        return self.action_dim + self.context_dim + 1

    def fused_operator(self) -> np.ndarray:
        """M = w3 @ w1[:D_a], kept with w1 and w3 read-only (an edit raises
        ValueError) until drop_fused_operator, as train_step does (Model.hold)."""
        return self.hold(("w1", "w3"), lambda: self.w3 @ self.w1[:self.action_dim])

    def drop_fused_operator(self) -> None:
        self.release()

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Batched field evaluation; X is (B, input_dim) or (F, B, input_dim)."""
        v, _ = self._forward_cached(X)
        return v

    def _forward_cached(self, X: np.ndarray):
        if X.shape[-1] != self.input_dim:
            raise ShapeMismatch(f"expected input dim {self.input_dim}, got {X.shape[-1]}")
        # Biases shaped as rows of X's rank: numpy adds equal ranks faster.
        lead = (1,) * (X.ndim - 1)
        a1 = X @ self.w1
        a1 += self.b1.reshape(lead + self.b1.shape)
        np.tanh(a1, out=a1)
        a2 = a1 @ self.w2
        a2 += self.b2.reshape(lead + self.b2.shape)
        np.tanh(a2, out=a2)
        v = a2 @ self.w3
        v += self.b3.reshape(lead + self.b3.shape)
        return v, (X, a1, a2)

    def _backward(self, cache, dV: np.ndarray) -> dict:
        """Gradients of a scalar loss given dL/dV; reverse of _forward_cached."""
        X, a1, a2 = cache
        grads = {}
        grads["w3"] = a2.T @ dV
        grads["b3"] = dV.sum(axis=0)
        dz2 = (dV @ self.w3.T) * (1.0 - a2 ** 2)
        grads["w2"] = a1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        dz1 = (dz2 @ self.w2.T) * (1.0 - a1 ** 2)
        # The w1 gradient, the step's largest array, goes into one buffer the
        # expert keeps, which the next call overwrites. Allocated afresh, it
        # let glibc trim and regrow the heap top on every step after some
        # dataset builds (~50k page faults in 300 steps, ~50% slower steps).
        if self._grad_w1 is None:
            self._grad_w1 = np.empty(self.w1.shape)
        grads["w1"] = np.matmul(X.T, dz1, out=self._grad_w1)
        grads["b1"] = dz1.sum(axis=0)
        return grads


def init_flow_expert(rng: np.random.Generator, horizon: int, j_dim: int,
                     context_dim: int, hidden: int = 64, **hyper) -> FlowExpert:
    for name, v in (("horizon", horizon), ("j_dim", j_dim), ("hidden", hidden)):
        check_count(f"expert {name}", v)
    check_count("expert context_dim", context_dim, least=0)
    d_a = horizon * j_dim
    return FlowExpert(horizon=horizon, j_dim=j_dim, context_dim=context_dim,
                      w1=fan_in_normal(rng, d_a + context_dim + 1, hidden), b1=np.zeros(hidden),
                      w2=fan_in_normal(rng, hidden, hidden), b2=np.zeros(hidden),
                      w3=fan_in_normal(rng, hidden, d_a), b3=np.zeros(d_a), **hyper)


def sample_tau(alpha: float, beta: float, rng: np.random.Generator) -> float:
    """Beta(alpha, beta) draw, guaranteed strictly inside (0, 1).

    A draw on an endpoint is redrawn, at most TAU_MAX_DRAWS draws in all;
    then DegenerateTau is raised rather than looping forever.
    """
    if alpha <= 0 or beta <= 0:
        raise InvalidSetting(f"Beta shape parameters must be positive, got ({alpha}, {beta})")
    for _ in range(TAU_MAX_DRAWS):
        x = rng.beta(alpha, beta)
        if 0.0 < x < 1.0:
            return float(x)
    raise DegenerateTau(f"Beta({alpha}, {beta}) gave no draw strictly inside (0, 1) "
                        f"in {TAU_MAX_DRAWS} draws")


def interpolate(A: np.ndarray, eps: np.ndarray, tau: float) -> np.ndarray:
    """tau*A + (1-tau)*eps, elementwise; endpoints are exact."""
    if A.shape != eps.shape:
        raise ShapeMismatch(f"chunk shapes differ: {A.shape} vs {eps.shape}")
    if tau == 1.0:
        return A.copy()
    if tau == 0.0:
        return eps.copy()
    return tau * A + (1.0 - tau) * eps


def _draw_batch(expert: FlowExpert, batch: list, rng: np.random.Generator):
    """Fresh (tau, eps) per element; returns stacked inputs X and the clean
    targets A, one row per element. Sizes are checked before the first draw; then each
    element draws its tau and then its eps, in batch order, and the whole
    batch gets interpolate's arithmetic per entry (sample_tau keeps every tau
    off interpolate's exact endpoints 0 and 1)."""
    if not batch:
        raise InvalidSetting("batch must be non-empty")
    n, d_a, d_c = len(batch), expert.action_dim, expert.context_dim
    chunks = [np.asarray(A) for A, _ in batch]
    contexts = [np.asarray(context) for _, context in batch]
    for A, context in zip(chunks, contexts):
        if A.size != d_a:
            raise ShapeMismatch(f"chunk has {A.size} entries, expert expects {d_a}")
        if context.size != d_c:
            raise ShapeMismatch(f"context has {context.size} entries, expert expects {d_c}")
    taus, eps = [], []
    for _ in batch:
        taus.append(sample_tau(expert.alpha, expert.beta, rng))
        eps.append(rng.normal(0.0, expert.sigma, size=d_a))
    tau, eps = np.reshape(taus, (n, 1)), np.concatenate(eps).reshape(n, d_a)
    A = np.concatenate(chunks, axis=None, dtype=float).reshape(n, d_a)
    X = np.empty((n, expert.input_dim))
    X[:, :d_a] = tau * A + (1.0 - tau) * eps
    X[:, d_a:-1] = np.concatenate(contexts, axis=None).reshape(n, d_c)
    X[:, -1:] = tau
    return X, A


def fm_loss(expert: FlowExpert, batch: list, rng: np.random.Generator) -> float:
    """Mean over the batch of ||x_hat(A_tau, ctx, tau) - A||^2."""
    X, A = _draw_batch(expert, batch, rng)
    return float(np.sum((expert.forward(X) - A) ** 2) / len(batch))


def _loss_and_grads(expert: FlowExpert, X: np.ndarray, A: np.ndarray):
    V, cache = expert._forward_cached(X)
    diff = V - A
    loss = float(np.sum(diff ** 2) / X.shape[0])
    grads = expert._backward(cache, 2.0 * diff / X.shape[0])
    return loss, grads


def train_step(expert: FlowExpert, batch: list, lr: float, rng: np.random.Generator) -> float:
    """One gradient-descent step on fm_loss; returns the pre-step loss."""
    if not 0 <= lr < np.inf:
        raise InvalidSetting(f"learning rate must be finite and >= 0, got {lr}")
    expert.drop_fused_operator()
    X, A = _draw_batch(expert, batch, rng)
    loss, grads = _loss_and_grads(expert, X, A)
    for name, p in expert.params():
        # The step's own gradient array holds lr * g, so the update makes no
        # temporary; the velocity is a separate array, updated in place.
        step = grads[name]
        if expert.momentum > 0.0:
            buf = expert._velocity.get(name)
            if buf is None:
                expert._velocity[name] = buf = step.copy()
            else:
                buf *= expert.momentum
                buf += step
            step[...] = buf
        step *= lr
        p -= step
    return loss


def grad_check(expert: FlowExpert, sample, rng: np.random.Generator, h: float = 1e-5,
               n_params: int = 100) -> float:
    """Max relative error between analytic and central-difference gradients.

    tau and eps are drawn once, as train_step draws them, and frozen so the
    loss is a deterministic function of the parameters. A step h outside
    0 < h < inf is refused before the draw.
    """
    check_difference_step(h)
    expert.drop_fused_operator()
    X, A = _draw_batch(expert, [sample], rng)
    _, grads = _loss_and_grads(expert, X, A)
    return max_grad_error(expert, grads, lambda: float(np.sum((expert.forward(X) - A) ** 2)),
                          h, n_params, rng)


def sample_actions(expert: FlowExpert, context: np.ndarray, steps: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Euler-integrate from noise; returns an (H_a, J) sample for one context,
    or an (F, H_a, J) stack for an (F, context_dim) stack.

    Start A = eps ~ N(0, sigma^2 I) at tau = 0 and repeatedly apply
    A <- (1 - alpha_k)*A + alpha_k*x_hat(A, context, tau_k), the Euler step
    of v = (A - x_hat)/(1 - tau), with tau_k = k*dtau and alpha_k =
    dtau/(1 - tau_k) = 1/(K - k). Deterministic given (rng state, steps,
    context, weights). F contexts draw their noise as one (F, D_a) block,
    the numbers F one-context calls sharing rng would draw in turn.
    Step 0 evaluates the whole MLP. Steps 1..K-1 run in the first layer's
    pre-activation: z = w + r + tau_k*w1[tau], with r = [b3, context, 0] @ w1
    + b1 formed once and w = (A - b3) @ w1[:D_a] stepped as w <- (1 -
    alpha_k)*w + alpha_k*(a2 @ M) (FlowExpert.fused_operator), because
    x_hat - b3 = a2 @ w3. Since alpha_{K-1} = 1, the sample is the last
    step's x_hat, formed once.
    """
    check_count("steps", steps)
    ctx = np.asarray(context, dtype=float)
    stacked = ctx.ndim == 2
    n = len(ctx) if stacked else 1
    if ctx.size != n * expert.context_dim:
        raise ShapeMismatch(f"context has shape {ctx.shape}, expert expects "
                            f"{expert.context_dim} entries per frame")
    ctx = ctx.reshape(n, expert.context_dim)
    # Every product is an (F, 1, .) stack of one-row products, with (1, 1, .)
    # biases, so a frame's bits do not depend on F.
    d_a = expert.action_dim
    X = np.zeros((n, 1, expert.input_dim))
    X[:, 0, :d_a] = rng.normal(0.0, expert.sigma, size=(n, d_a))
    X[:, 0, d_a:-1] = ctx
    x_hat = expert.forward(X)
    if steps > 1:
        alpha = 1.0 / steps
        A = (1.0 - alpha) * X[:, :, :d_a] + alpha * x_hat
        M, b3 = expert.fused_operator(), expert.b3.reshape(1, 1, -1)
        X[:, 0, :d_a] = expert.b3
        r = X @ expert.w1 + expert.b1  # steps 1..K-1 run in z = w + r + tau*w_tau
        w = (A - b3) @ expert.w1[:d_a]
        w_tau, b2 = expert.w1[-1].reshape(1, 1, -1), expert.b2.reshape(1, 1, -1)
        for k in range(1, steps):
            a1 = w + r
            a1 += (k / steps) * w_tau
            np.tanh(a1, out=a1)
            a2 = a1 @ expert.w2
            a2 += b2
            np.tanh(a2, out=a2)
            if k < steps - 1:  # the last step's x_hat is the sample
                alpha = 1.0 / (steps - k)
                w *= 1.0 - alpha
                w += alpha * (a2 @ M)
        x_hat = a2 @ expert.w3
        x_hat += b3
    chunks = x_hat.reshape(n, expert.horizon, expert.j_dim)
    return chunks if stacked else chunks[0]
