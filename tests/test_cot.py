import dataclasses
import json
import math

import numpy as np
import pytest

from graphact import (SCENARIOS, build_default_vocab, ce_loss,
                      default_config, detokenize, future_indices, gen_episode,
                      generate_cot, init_cot_head, make_cot_label, make_rng,
                      sample_dropout, tokenize, total_loss, train_cot_head)
from graphact.core import InvalidSetting
from graphact import cot
from graphact.cot import (ALL_PRESENT, NONE_PRESENT, SOME_MISSING, CotHead, UnknownToken,
                          bin_token, cot_dataset_text, grad_check_cot)
from graphact.sim import EmptyEpisode

CFG = default_config()


@pytest.mark.parametrize("t,expected", [(0, (30, 30)), (30, (60, 60)), (45, (60, 75))])
def test_future_indices_reference_cases(t, expected):
    assert future_indices(t, 30) == expected


def test_future_indices_properties():
    rng = make_rng(0)
    for _ in range(200):
        dt = int(rng.integers(1, 60))
        t = int(rng.integers(0, 500))
        t1, t2 = future_indices(t, dt)
        assert t1 % dt == 0 and t1 > 0
        assert t < t1 <= t + dt
        assert t2 - t == dt


def _episode(variant, n_frames=40, seed=5):
    return gen_episode(SCENARIOS["food"], variant, n_frames, seed=seed, cfg=CFG)


def test_label_all_present_branch():
    ep = _episode(0)
    label = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30)
    assert label.branch == ALL_PRESENT
    assert "all required items available" in label.feasibility_feedback
    assert label.subtask_plan == "plan : grasp fish then grasp pepper ."


def test_label_some_missing_branch():
    ep = _episode(1)  # pepper available, fish absent
    label = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30)
    assert label.branch == SOME_MISSING
    assert "missing: fish" in label.feasibility_feedback
    assert "grasp pepper" in label.subtask_plan
    assert "fish" not in label.subtask_plan


def test_label_none_present_branch():
    ep = _episode(2)  # neither fish nor pepper
    label = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30)
    assert label.branch == NONE_PRESENT
    assert "missing: fish , pepper" in label.feasibility_feedback
    assert label.subtask_plan == "plan : none ."


def test_label_future_sections_and_clamping():
    ep = _episode(0, n_frames=40)
    label = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30)
    assert not label.clamped
    assert "in 30 frames" in label.future_objects
    assert "in 30 frames : joints" in label.future_robot_state
    late = make_cot_label(ep.scene, ep.scenario, ep, 35, dt=30)
    assert late.clamped  # t' = 60 and t'' = 65 exceed the 40-frame episode
    assert "in 4 frames" in late.future_objects
    assert "in 4 frames" in late.future_robot_state


def test_label_reads_the_future_robot_state_from_the_frames():
    """The frames are the one record of an episode's joints: a trajectory
    that disagrees with them does not reach the future-robot section."""
    ep = _episode(0, n_frames=40)
    ep.trajectory = [q + 1.0 for q in ep.trajectory]
    for t, future in ((0, 30), (35, 39)):
        label = make_cot_label(ep.scene, ep.scenario, ep, t, dt=30)
        joints = " ".join(bin_token(v) for v in ep.frames[future].q)
        assert label.future_robot_state == f"in {future - t} frames : joints {joints} ."


def test_vocab_below_the_labels_dt_raises_unknown_token():
    """Offsets run 0..dt, so a head whose frame tokens stop below
    cot_dt_frames cannot tokenize a label whose future frame is dt ahead."""
    ep = _episode(0)
    text = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=CFG.cot_dt_frames).to_text()
    tokenize(text, build_default_vocab(max_offset=CFG.cot_dt_frames))
    head = init_cot_head(build_default_vocab(max_offset=CFG.cot_dt_frames - 1),
                         context_dim=4, rng=make_rng(9))
    with pytest.raises(UnknownToken):
        tokenize(text, head.vocab)


def test_label_deterministic():
    ep = _episode(1)
    a = make_cot_label(ep.scene, ep.scenario, ep, 7, dt=30)
    b = make_cot_label(ep.scene, ep.scenario, ep, 7, dt=30)
    assert a.to_text() == b.to_text()


def test_label_of_an_empty_desk():
    """A scene with no objects is described as empty, with nothing to plan
    and nothing ahead, in words the default vocabulary holds."""
    ep = _episode(0)
    label = make_cot_label(dataclasses.replace(ep.scene, objects=[]), ep.scenario, ep, 0, dt=30)
    assert label.scene_description == "the desk is empty ."
    assert label.feasibility_feedback == "missing: fish , pepper . task not feasible ."
    assert (label.branch, label.subtask_plan) == (NONE_PRESENT, "plan : none .")
    assert label.future_objects == "in 30 frames : nothing ."
    vocab = build_default_vocab()
    assert detokenize(tokenize(label.to_text(), vocab), vocab) == label.to_text()


def test_label_empty_episode():
    ep = _episode(0)
    ep.frames = []
    with pytest.raises(EmptyEpisode):
        make_cot_label(ep.scene, ep.scenario, ep, 0)


def test_tokenize_roundtrip():
    vocab = build_default_vocab()
    assert tokenize("", vocab) == []
    assert detokenize([], vocab) == ""
    for variant in range(3):
        ep = _episode(variant)
        for t in (0, 12):
            text = make_cot_label(ep.scene, ep.scenario, ep, t, dt=30).to_text()
            assert detokenize(tokenize(text, vocab), vocab) == text


def test_tokenize_unknown_token():
    vocab = build_default_vocab()
    with pytest.raises(UnknownToken):
        tokenize("quantum desk", vocab)


def test_ce_loss_confident_logits():
    logits = np.zeros((2, 5))
    logits[0, 3] = 50.0
    logits[1, 1] = 50.0
    assert ce_loss(logits, [3, 1]) < 1e-9


def test_ce_loss_hand_value():
    # softmax of (0, ln 3) is (1/4, 3/4); -ln(3/4)
    logits = np.array([[0.0, math.log(3.0)]])
    assert abs(ce_loss(logits, [1]) - (-math.log(0.75))) < 1e-12


def test_ce_loss_nonnegative():
    rng = make_rng(99)
    for _ in range(50):
        T, V = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        logits = rng.normal(size=(T, V)) * 3
        targets = rng.integers(0, V, size=T)
        assert ce_loss(logits, targets) >= 0.0


def test_ce_loss_shape_mismatch():
    from graphact.core import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        ce_loss(np.zeros((3, 4)), [0, 1])


def _memorization_setup():
    vocab = build_default_vocab()
    samples = []
    for i, variant in enumerate((0, 1)):
        ep = _episode(variant, seed=50 + variant)
        ids = tokenize(make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30).to_text(),
                       vocab) + [vocab.end_id]
        ctx = np.zeros(4)
        ctx[i] = 1.0
        samples.append((ctx, ids))
    return vocab, samples


def test_train_cot_head_memorizes():
    vocab, samples = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(1))
    curve = train_cot_head(head, samples, lr=0.5, epochs=200, rng=make_rng(2))
    assert curve[-1] < 0.05
    assert curve[-1] < curve[0]
    for ctx, ids in samples:
        assert generate_cot(head, ctx, 120) == ids[:-1]


def test_train_cot_head_bit_equal_to_reference_loop():
    """Windows built once per run and the in-place update give the bytes of
    a loop that builds each sample's windows on every call and applies
    p -= lr * g."""
    vocab, samples = _memorization_setup()
    fast = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(40))
    ref = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(40))
    curve = train_cot_head(fast, samples, lr=0.5, epochs=5, rng=make_rng(41))
    rng = make_rng(41)
    ref_curve = []
    for _ in range(5):
        losses = []
        for idx in rng.permutation(len(samples)):
            context, ids = samples[idx]
            loss, grads = ref.loss_and_grads(context, ids, ref.windows(ids))
            for name, p in ref.params():
                p -= 0.5 * grads[name]
            losses.append(loss)
        ref_curve.append(float(np.mean(losses)))
    assert curve == ref_curve
    for (name, a), (_, b) in zip(fast.params(), ref.params()):
        assert a.tobytes() == b.tobytes(), name


def _reference_loss_and_grads(head, context, token_ids):
    """Teacher-forced loss and gradients with out-of-place temporaries and
    np.add.at for the embedding scatter."""
    targets = np.asarray(token_ids, dtype=int)
    T = targets.size
    windows = head.windows(token_ids)
    c = np.ravel(context) @ head.wc + head.bc
    X = np.concatenate([np.tile(c, (T, 1)), head.emb[windows].reshape(T, -1)], axis=1)
    a1 = np.tanh(X @ head.w1 + head.b1)
    logits = a1 @ head.w2 + head.b2
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(p[np.arange(T), targets] + 1e-300)))
    dlogits = p.copy()
    dlogits[np.arange(T), targets] -= 1.0
    dlogits /= T
    dz1 = (dlogits @ head.w2.T) * (1.0 - a1 ** 2)
    dX = dz1 @ head.w1.T
    n_ctx = head.wc.shape[1]
    dc = dX[:, :n_ctx].sum(axis=0)
    emb = np.zeros_like(head.emb)
    np.add.at(emb, windows, dX[:, n_ctx:].reshape(T, head.window, -1))
    return loss, {"w2": a1.T @ dlogits, "b2": dlogits.sum(axis=0), "w1": X.T @ dz1,
                  "b1": dz1.sum(axis=0), "wc": np.outer(np.ravel(context), dc), "bc": dc,
                  "emb": emb}


def test_loss_and_grads_bit_equal_to_reference():
    """The in-place softmax and the bincount scatter keep every bit, with
    repeated tokens in the windows."""
    vocab, samples = _memorization_setup()
    rng = make_rng(42)
    for k in range(6):
        head = init_cot_head(vocab, context_dim=4, window=1 + k, rng=make_rng(50 + k))
        ids = samples[k % 2][1] if k < 2 else [int(i) for i in rng.integers(0, 12, size=30)]
        ctx = rng.normal(size=4)
        ref_loss, ref = _reference_loss_and_grads(head, ctx, ids)
        loss, grads = head.loss_and_grads(ctx, ids, head.windows(ids))
        assert loss == ref_loss
        assert sorted(grads) == sorted(ref)
        for name, g in grads.items():
            assert g.shape == ref[name].shape and g.tobytes() == ref[name].tobytes(), name


def test_train_cot_head_zero_lr_flat():
    vocab, samples = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(3))
    curve = train_cot_head(head, samples, lr=0.0, epochs=3, rng=make_rng(4))
    assert curve[0] == curve[1] == curve[2]


def test_train_cot_head_empty_dataset():
    vocab, _ = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, rng=make_rng(5))
    with pytest.raises(InvalidSetting):
        train_cot_head(head, [], lr=0.1, epochs=1, rng=make_rng(6))


def _concat_decode(head, context, max_len):
    """Reference decoder: rebuilds [context projection, window embeddings]
    by concatenation for every token, through the teacher-forcing path."""
    window = [head.vocab.pad_id] * head.window
    out = []
    for _ in range(max_len):
        logits, _ = head._forward(context, np.array([window], dtype=int))
        nxt = int(np.argmax(logits[0]))
        if nxt == head.vocab.end_id:
            break
        out.append(nxt)
        window = window[1:] + [nxt]
    return out


def test_generate_cot_bit_exact_against_concat_decode():
    vocab, samples = _memorization_setup()
    trained = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(30))
    train_cot_head(trained, samples, lr=0.5, epochs=60, rng=make_rng(31))
    rng = make_rng(32)
    cases = []
    for k in range(60):
        if k % 3 == 0:
            # near a training context, where the trained head stops on <end>
            ctx = samples[k % 2][0] + rng.normal(0.0, 0.05, size=4)
            cases.append((trained, ctx, 120))
        else:
            head = init_cot_head(vocab, context_dim=4, window=1 + k % 8, rng=make_rng(100 + k))
            cases.append((head, rng.normal(size=4), 1 if k % 5 == 0 else 40))
    early_end = 0
    for head, ctx, max_len in cases:
        want = _concat_decode(head, ctx, max_len)
        assert generate_cot(head, ctx, max_len) == want
        early_end += len(want) < max_len
    assert early_end > 0
    assert any(max_len == 1 for _, _, max_len in cases)


def test_generate_untrained_emits_max_len():
    """With <end> planted far below every other logit the decode runs to
    max_len; planted far above, it stops before the first token."""
    vocab, _ = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, rng=make_rng(10))
    head.b2[vocab.end_id] = -1e6
    assert len(generate_cot(head, np.zeros(4), 17)) == 17
    head.b2[vocab.end_id] = 1e6
    assert generate_cot(head, np.zeros(4), 17) == []


def test_generate_cot_leaves_the_head_intact():
    """The per-call buffers alias no weight, and what the decode table keeps
    between calls does not depend on the contexts decoded: decodes on
    different contexts leave every parameter's bytes as they were, and a
    context seen before decodes to its first ids again."""
    vocab, samples = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(33))
    train_cot_head(head, samples, lr=0.5, epochs=60, rng=make_rng(31))
    before = {name: p.tobytes() for name, p in head.params()}
    rng = make_rng(34)
    contexts = [ctx for ctx, _ in samples] + [rng.normal(size=4) for _ in range(4)]
    first = [generate_cot(head, ctx, 40) for ctx in contexts]
    assert len({tuple(ids) for ids in first}) > 1
    for ctx, ids in zip(contexts[::-1], first[::-1]):
        assert generate_cot(head, ctx, 40) == ids
    assert {name: p.tobytes() for name, p in head.params()} == before


def test_decode_table_rows_are_the_window_slot_terms():
    """Each held row is the token's embedding times the w1 rows of the
    window slot it sits in k + 1 steps after it is emitted, and one decode
    adds the rows of its distinct ids only, to <pad>'s."""
    vocab, _ = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=5, rng=make_rng(60))
    head.b2[vocab.end_id] = -1e6
    out = generate_cot(head, make_rng(61).normal(size=4), 40)
    _, rows, _ = head.decode_table()
    assert set(rows) == set(out) | {vocab.pad_id}
    n_ctx, (_, embed) = head.wc.shape[1], head.emb.shape
    for v, terms in rows.items():
        for k in range(head.window):
            slot = n_ctx + (head.window - 1 - k) * embed
            want = head.emb[v] @ head.w1[slot:slot + embed]
            assert np.abs(terms[k] - want).max() < 1e-12


def test_weights_are_read_only_while_the_decode_table_is_held():
    vocab, samples = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(62))
    ctx = samples[0][0]
    generate_cot(head, ctx, 20)
    for name in ("emb", "w1"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(head, name)[0, 0] = 1.0
    head.drop_decode_table()
    head.emb[:] = make_rng(63).normal(0.0, 0.1, size=head.emb.shape)
    head.w1[0, 0] = 1.0
    assert generate_cot(head, ctx, 20) == _concat_decode(head, ctx, 20)


@pytest.mark.parametrize("update", ["train_cot_head", "grad_check_cot"])
def test_updates_drop_the_decode_table(update, tmp_path):
    """Training and the gradient check edit parameters in place on a head
    that has decoded: the next decode is that of the saved head loaded
    afresh, so no row of the old table survives."""
    vocab, samples = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, window=8, rng=make_rng(64))
    contexts = [ctx for ctx, _ in samples]
    for ctx in contexts:
        generate_cot(head, ctx, 60)
    if update == "train_cot_head":
        train_cot_head(head, samples, lr=0.5, epochs=3, rng=make_rng(65))
    else:
        grad_check_cot(head, samples[0], make_rng(65), h=0.5, n_params=200)
    head.save(tmp_path / "cot.npz")
    fresh = CotHead.load(tmp_path / "cot.npz")
    for ctx in contexts:
        assert generate_cot(head, ctx, 60) == generate_cot(fresh, ctx, 60)


def test_a_decode_longer_than_its_buffer_moves_the_pending_rows(monkeypatch):
    vocab, _ = _memorization_setup()
    for acc_steps in (1, 3, 7):
        monkeypatch.setattr(cot, "ACC_STEPS", acc_steps)
        for window in (1, 4, 9):
            head = init_cot_head(vocab, context_dim=4, window=window, rng=make_rng(66))
            head.b2[vocab.end_id] = -1e6
            ctx = make_rng(window).normal(size=4)
            assert generate_cot(head, ctx, 30) == _concat_decode(head, ctx, 30)


def test_generate_tie_break_lowest_id():
    vocab, _ = _memorization_setup()
    head = init_cot_head(vocab, context_dim=4, rng=make_rng(11))
    for _, p in head.params():
        p[:] = 0.0  # all logits equal -> argmax must pick token id 0
    out = generate_cot(head, np.zeros(4), 5)
    assert out == [0] * 5


def test_sample_dropout():
    rng = make_rng(12)
    assert all(sample_dropout(0.0, rng) == 0 for _ in range(100))
    assert all(sample_dropout(1.0, rng) == 1 for _ in range(100))
    draws = [sample_dropout(0.3, rng) for _ in range(10_000)]
    assert 0.28 <= np.mean(draws) <= 0.32
    with pytest.raises(InvalidSetting):
        sample_dropout(1.5, rng)


def test_total_loss_dropout_independent_of_cot_terms():
    rng = make_rng(13)
    l_action = 0.731
    for _ in range(20):
        got = total_loss(float(rng.normal()), l_action, 1,
                         float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
        assert got == l_action


def test_cot_dataset_jsonl_roundtrip():
    vocab, samples = _memorization_setup()
    rows = [(ctx, ids, detokenize(ids[:-1], vocab)) for ctx, ids in samples]
    loaded = [json.loads(line) for line in cot_dataset_text(rows).splitlines()]
    assert len(loaded) == len(rows)
    for (c0, i0, t0), rec in zip(rows, loaded):
        assert list(rec) == ["context", "tokens", "text"]
        assert np.array_equal(c0, rec["context"]) and i0 == rec["tokens"] and t0 == rec["text"]
