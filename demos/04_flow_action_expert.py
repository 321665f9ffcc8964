"""Train the flow-matching action expert on a two-context toy problem.

Each training step interpolates a target chunk with fresh Gaussian noise at a
random time coefficient and regresses the network toward the clean target
(data prediction). Sampling then Euler-integrates the velocity that
prediction implies from pure noise back to an action chunk. After training,
samples land on the correct per-context target from any noise seed.
"""

import numpy as np

from graphact import init_flow_expert, make_rng, sample_actions, train_step

targets = [np.array([[0.6, -0.4], [0.2, 0.8]]),
           np.array([[-0.5, 0.3], [0.7, -0.2]])]
contexts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

expert = init_flow_expert(make_rng(0), horizon=2, j_dim=2, context_dim=2,
                          hidden=128, alpha=1.0, beta=1.0, sigma=1.0,
                          momentum=0.9)
batch = [(t, c) for t, c in zip(targets, contexts)] * 16

rng = make_rng(1)
steps = 2000
print("training:")
for step in range(steps):
    lr = 0.03 - 0.027 * step / steps
    loss = train_step(expert, batch, lr, rng)
    if step % 250 == 0 or step == steps - 1:
        print(f"  step {step:4d}  loss {loss:8.4f}  lr {lr:.4f}")

print("\nsampling 10 Euler steps from fresh noise:")
for i, (target, ctx) in enumerate(zip(targets, contexts)):
    for seed in (100, 101, 102):
        chunk = sample_actions(expert, ctx, steps=10, rng=make_rng(seed))
        err = np.linalg.norm(chunk - target)
        print(f"  context {i} seed {seed}: chunk {np.round(chunk.ravel(), 3)} "
              f" L2-to-target {err:.4f}")

hits = 0
for seed in range(100):
    hits += all(np.linalg.norm(sample_actions(expert, c, 10, make_rng(1000 + seed)) - t)
                <= 0.1 for t, c in zip(targets, contexts))
print(f"\n{hits}/100 noise seeds land within 0.1 of their target")
