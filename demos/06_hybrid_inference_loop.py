"""Full inference loop with hybrid reasoning and stage timings.

Reasoning text is generated only on the first frame; every frame gets a scene
graph, an encoding and an action chunk, each stage run once per block of
frames. The timing report shows why: the reasoning decode dominates the first
frame, while steady-state frames run comfortably inside a real-time budget.
"""

import numpy as np

from graphact import (InferenceSchedule, SCENARIOS, build_default_vocab,
                      build_graph, default_config, encode, gen_episode,
                      init_cot_head, init_flow_expert, init_gnn_weights, make_cot_label,
                      make_context, make_rng, pooled_embedding,
                      run_inference_loop, scenario_onehot, tokenize,
                      train_cot_head)

cfg = default_config()
episode = gen_episode(SCENARIOS["food"], variant=1, n_frames=60, seed=4, cfg=cfg)

gnn_w = init_gnn_weights(make_rng(0), *cfg.gnn_dims)
expert = init_flow_expert(make_rng(1), horizon=cfg.action_terms, j_dim=cfg.j_total,
                          context_dim=cfg.context_dim, hidden=cfg.flow_hidden,
                          sigma=cfg.sigma)

# teach the reasoning head this episode's ground-truth label so the emitted
# text is meaningful (see demo 05 for the label machinery itself)
vocab = build_default_vocab()
head = init_cot_head(vocab, context_dim=cfg.context_dim, window=cfg.cot_window,
                     rng=make_rng(2))
g0 = build_graph(episode.frames[0], episode.K, episode.T, cfg.chains)
context0 = make_context(pooled_embedding(encode(g0, gnn_w)), episode.frames[0].q,
                        scenario_onehot("food"))
label = make_cot_label(episode.scene, episode.scenario, episode, t=0,
                       dt=cfg.cot_dt_frames)
ids = tokenize(label.to_text(), vocab) + [vocab.end_id]
curve = train_cot_head(head, [(context0, ids)], lr=0.5, epochs=150, rng=make_rng(3))
print(f"reasoning head fitted to the episode label "
      f"(loss {curve[0]:.2f} -> {curve[-1]:.4f})\n")

outputs, report = run_inference_loop(episode, gnn_w, expert, head,
                                     InferenceSchedule(), cfg, seed=9)

emitted = [o.index for o in outputs if o.cot_text is not None]
print(f"{len(outputs)} frames, reasoning emitted on frame(s) {emitted}")
print(f"frame 0 reasoning: {outputs[0].cot_text[:108]} ...")
print(f"every frame carries a {outputs[0].actions.shape} action chunk\n")

print(f"stage timings (ms) over all {len(outputs)} frames, measured once per block:")
for stage in ("graph_build", "encode", "action_sampling"):
    blocks = report.stage_samples[stage]
    print(f"  {stage:16s} {sum(blocks):7.3f}  ({len(blocks)} block(s))")
decodes = report.stage_samples["cot_generation"]
print(f"  {'cot_generation':16s} {sum(decodes):7.3f}  ({len(decodes)} decode(s))")
first = report.frame_samples[0]
steady = float(np.median(report.frame_samples[1:]))
print(f"\nfirst frame {first:.2f} ms vs steady-state median {steady:.2f} ms")

# re-running with a periodic schedule interleaves fresh reasoning
outputs, _ = run_inference_loop(episode, gnn_w, expert, head,
                                InferenceSchedule(cot_period=20), cfg, seed=9)
emitted = [o.index for o in outputs if o.cot_text is not None]
print(f"\nwith cot_period=20 the schedule emits on frames {emitted}")
