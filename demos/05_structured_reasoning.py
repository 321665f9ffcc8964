"""Ground-truth reasoning labels, feasibility feedback, and the token head.

Labels are generated rule-based from simulator state: what is on the desk,
whether the task's required objects are present (with a missing-item
suggestion when not), a grasp plan, and imagined future object positions and
robot state. A small autoregressive head memorizes the labels and reproduces
them verbatim under greedy decoding. The paper's Bernoulli dropout gate and
loss combiner are shown as formulas; no training path calls them.
"""

import numpy as np

from graphact import (SCENARIOS, build_default_vocab, ce_loss, gen_episode,
                      default_config, detokenize, generate_cot, make_cot_label,
                      make_rng, sample_dropout, tokenize, total_loss,
                      train_cot_head)
from graphact.cot import init_cot_head

cfg = default_config()
vocab = build_default_vocab()
print(f"closed vocabulary: {len(vocab)} tokens\n")

# one episode per availability variant of the food task
print("feasibility feedback across availability variants:")
samples = []
for variant in range(3):
    ep = gen_episode(SCENARIOS["food"], variant, n_frames=40, seed=20 + variant,
                     cfg=cfg)
    label = make_cot_label(ep.scene, ep.scenario, ep, t=0, dt=cfg.cot_dt_frames)
    print(f"  variant {variant} ({', '.join(ep.scene.labels())})")
    print(f"    branch:   {label.branch}")
    print(f"    feedback: {label.feasibility_feedback}")
    print(f"    plan:     {label.subtask_plan}")
    ids = tokenize(label.to_text(), vocab) + [vocab.end_id]
    context = np.zeros(4)
    context[variant] = 1.0
    samples.append((context, ids))

print("\ntraining the reasoning head to memorize the three labels:")
head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(0))
curve = train_cot_head(head, samples, lr=0.5, epochs=250, rng=make_rng(1))
print(f"  mean per-token loss {curve[0]:.3f} -> {curve[-1]:.4f}")

context, ids = samples[1]
decoded = generate_cot(head, context, max_len=120)
print(f"\ngreedy decode reproduces the label: {decoded == ids[:-1]}")
print("  " + detokenize(decoded, vocab)[:96] + " ...")

print("\ndropout co-training combiner:")
rng = make_rng(2)
l_cot = ce_loss(np.zeros((3, len(vocab))), [1, 2, 3])
l_action = 0.42
for _ in range(3):
    d = sample_dropout(0.5, rng)
    combined = total_loss(l_cot, l_action, d, w_cot=1.0, w_action=1.0)
    kind = "action only (dropped)" if d else "reasoning + action"
    print(f"  d={d}: total {combined:.3f}  ({kind})")
