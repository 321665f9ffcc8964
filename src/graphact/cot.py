"""Structured reasoning machinery.

Labels are generated rule-based from simulator ground truth: a scene listing,
a feasibility verdict against the scenario's requirement set, a grasp plan,
and imagined future object positions / robot state at the sampled future
frames. All text lives in a closed vocabulary (template words plus binned
numeric tokens, 1 cm for positions and 0.01 rad for joints) so a small
autoregressive head can be supervised with exact cross-entropy.
"""

from dataclasses import dataclass

import numpy as np

from .core import (CTX_EMBED, SCENARIOS, InstructionScenario, InvalidSetting, Model, PipelineError,
                   ShapeMismatch, check_count, check_difference_step, check_finite,
                   check_learning_rate, check_shapes, fan_in_normal, jsonl_text, max_grad_error)
from .sim import EmptyEpisode, Episode, Scene

PAD, END, SEP = "<pad>", "<end>", "<sep>"

VALUE_RANGE = 3.2  # the vocabulary's number tokens span +-VALUE_RANGE

ACC_STEPS = 256  # generate_cot's pre-activation rows, before it moves them to the front

ALL_PRESENT = "all_present"
SOME_MISSING = "some_missing"
NONE_PRESENT = "none_present"


class UnknownToken(PipelineError):
    pass


def future_indices(t: int, dt: int) -> tuple:
    """Future sampling frames: (floor(t/dt)*dt + dt, t + dt)."""
    if t < 0 or dt < 1:
        raise InvalidSetting("need t >= 0 and dt >= 1")
    return (t // dt) * dt + dt, t + dt


def bin_token(v: float) -> str:
    """0.01-step numeric token; '-0.00' normalizes to '0.00'."""
    s = f"{float(v):.2f}"
    return "0.00" if s == "-0.00" else s


@dataclass
class CotLabel:
    scene_description: str
    feasibility_feedback: str
    subtask_plan: str
    future_objects: str
    future_robot_state: str
    branch: str = ALL_PRESENT   # feasibility branch that fired
    clamped: bool = False       # future frames clamped to episode end

    def sections(self) -> list:
        return [self.scene_description, self.feasibility_feedback, self.subtask_plan,
                self.future_objects, self.future_robot_state]

    def to_text(self) -> str:
        return f" {SEP} ".join(self.sections())


def _join_labels(labels) -> str:
    return " , ".join(labels)


def make_cot_label(scene: Scene, instruction: InstructionScenario,
                   episode: Episode, t: int, dt: int = 30) -> CotLabel:
    """Deterministic ground-truth label for frame t of an episode."""
    if not episode.frames:
        raise EmptyEpisode("cannot label an episode with no frames")
    n = len(episode.frames)
    t_obj, t_robot = future_indices(t, dt)
    clamped = t_obj > n - 1 or t_robot > n - 1
    t_obj_c = min(t_obj, n - 1)
    t_robot_c = min(t_robot, n - 1)

    present = scene.labels()
    if present:
        desc = f"on the desk : {_join_labels(present)} ."
    else:
        desc = "the desk is empty ."

    have = [lbl for lbl in instruction.required if lbl in present]
    missing = [lbl for lbl in instruction.required if lbl not in present]
    if not missing:
        branch = ALL_PRESENT
        feedback = f"all required items available : {_join_labels(have)} ."
        plan_targets = list(instruction.required)
    elif have:
        branch = SOME_MISSING
        feedback = f"missing: {_join_labels(missing)} . add the missing items first ."
        plan_targets = have
    else:
        branch = NONE_PRESENT
        feedback = f"missing: {_join_labels(missing)} . task not feasible ."
        plan_targets = []

    if plan_targets:
        plan = "plan : " + " then ".join(f"grasp {lbl}" for lbl in plan_targets) + " ."
    else:
        plan = "plan : none ."

    # Future frames are named by their offset from t, at most dt, so the
    # vocabulary's frame tokens do not grow with the episode.
    if scene.objects:
        parts = [f"{o.label} at {bin_token(o.position[0])} {bin_token(o.position[1])} "
                 f"{bin_token(o.position[2])}" for o in scene.objects]
        future_obj = f"in {t_obj_c - t} frames : {' , '.join(parts)} ."
    else:
        future_obj = f"in {t_obj_c - t} frames : nothing ."

    q = episode.frames[t_robot_c].q
    future_robot = f"in {t_robot_c - t} frames : joints {' '.join(bin_token(v) for v in q)} ."

    return CotLabel(scene_description=desc, feasibility_feedback=feedback,
                    subtask_plan=plan, future_objects=future_obj,
                    future_robot_state=future_robot, branch=branch, clamped=clamped)


_TEMPLATE_WORDS = (
    "on the desk : , . is empty all required items available missing: missing "
    "add first then plan grasp none task not feasible at in frames nothing joints"
).split()


class TokenVocab:
    """Closed, ordered vocabulary with a bijective token <-> id mapping."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary tokens must be unique")
        self.ids = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def pad_id(self) -> int:
        return self.ids[PAD]

    @property
    def end_id(self) -> int:
        return self.ids[END]


def build_default_vocab(max_offset: int = 30) -> TokenVocab:
    """Vocabulary covering the label generator's whole output language for
    future-frame offsets up to max_offset (the labels' dt)."""
    tokens = [PAD, END, SEP]
    words = list(_TEMPLATE_WORDS)
    for scen in SCENARIOS.values():
        words.extend(scen.nominal)
        words.extend(scen.instruction_text.split())
    for w in words:
        if w not in tokens:
            tokens.append(w)
    for i in range(max_offset + 1):
        tokens.append(str(i))
    n_bins = int(round(VALUE_RANGE * 100))
    tokens.extend(bin_token(i / 100.0) for i in range(-n_bins, n_bins + 1))
    return TokenVocab(tokens)


def tokenize(text: str, vocab: TokenVocab) -> list:
    """Whitespace tokenization over the closed vocabulary."""
    ids = []
    for tok in text.split():
        if tok not in vocab.ids:
            raise UnknownToken(f"token {tok!r} not in vocabulary")
        ids.append(vocab.ids[tok])
    return ids


def detokenize(ids, vocab: TokenVocab) -> str:
    return " ".join(vocab.tokens[i] for i in ids)


def ce_loss(logits: np.ndarray, targets) -> float:
    """Summed cross-entropy -sum_i log softmax(logits_i)[target_i]."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=int).reshape(-1)
    if logits.ndim != 2 or logits.shape[0] != targets.size:
        raise ShapeMismatch(f"logits {logits.shape} do not match {targets.size} targets")
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float(np.sum(lse - logits[np.arange(targets.size), targets]))


@dataclass
class CotHead(Model):
    """Context projection + single-hidden-layer next-token network over a
    fixed window of previous tokens. init_cot_head draws a random one. The
    vocabulary is kept as its token list, so it saves with the header;
    vocab is the TokenVocab built from it."""

    tokens: list[str]
    context_dim: int
    window: int
    wc: np.ndarray    # (context_dim, CTX_EMBED)
    bc: np.ndarray    # (CTX_EMBED,)
    emb: np.ndarray   # (V, embed)
    w1: np.ndarray    # (CTX_EMBED + window * embed, hidden)
    b1: np.ndarray    # (hidden,)
    w2: np.ndarray    # (hidden, V)
    b2: np.ndarray    # (V,)

    PARAMS = ("wc", "bc", "emb", "w1", "b1", "w2", "b2")
    NAME = "cot head"
    TIES = {"context_dim": "context_dim", "window": "cot_window"}

    def __post_init__(self):
        """Raise InvalidSetting when the window is no count (check_count),
        UnknownToken when the vocabulary lacks <pad> or <end>, or
        ShapeMismatch when a parameter's shape disagrees with the
        vocabulary, window and context_dim."""
        self.vocab = TokenVocab(self.tokens)
        check_count("cot head window", self.window)
        missing = [tok for tok in (PAD, END) if tok not in self.vocab.ids]
        if missing:
            raise UnknownToken(f"cot head vocabulary lacks {', '.join(missing)}")
        V = len(self.vocab)
        ctx_embed, hidden = np.size(self.bc), np.size(self.b1)
        embed = np.shape(self.emb)[1] if np.ndim(self.emb) == 2 else -1
        check_shapes(self.NAME, {
            "wc": (self.wc, (self.context_dim, ctx_embed)), "bc": (self.bc, (ctx_embed,)),
            "emb": (self.emb, (V, embed)),
            "w1": (self.w1, (ctx_embed + self.window * embed, hidden)),
            "b1": (self.b1, (hidden,)), "w2": (self.w2, (hidden, V)), "b2": (self.b2, (V,))})

    def decode_table(self):
        """(S, rows, pad_terms), kept while emb and w1 are the read-only
        arrays it was built from (Model.hold). Token v's term in the hidden
        pre-activation k + 1 steps after it is emitted is emb[v] @ the w1 rows
        of window slot window - 1 - k; S (embed, window * hidden) is those
        rows, ordered by k. rows maps a token id to its (window, hidden)
        terms: generate_cot adds a token's the first time it emits it, so a
        process pays only for the tokens it decodes. pad_terms[t] is the
        leading pads' sum at step t < window."""
        def build():
            embed, W, hidden = self.emb.shape[1], self.window, np.size(self.b1)
            slots = self.w1[self.wc.shape[1]:].reshape(W, embed, hidden)[::-1]
            S = np.ascontiguousarray(slots.transpose(1, 0, 2)).reshape(embed, W * hidden)
            pad = (self.emb[self.vocab.pad_id] @ S).reshape(W, hidden)
            # The pad j + 1 places before the first step adds pad[k] at step k - j.
            pad_terms = np.zeros((W, hidden))
            for j in range(W):
                pad_terms[:W - j] += pad[j:]
            return S, {self.vocab.pad_id: pad}, pad_terms
        return self.hold(("emb", "w1"), build)

    def windows(self, token_ids) -> np.ndarray:
        """(T, window) matrix of the previous tokens for each position."""
        padded = [self.vocab.pad_id] * self.window + list(token_ids[:-1])
        return np.array([padded[k:k + self.window] for k in range(len(token_ids))],
                        dtype=int)

    def _forward(self, context, windows: np.ndarray):
        c = np.ravel(context) @ self.wc + self.bc
        e = self.emb[windows].reshape(windows.shape[0], -1)
        X = np.concatenate([np.tile(c, (windows.shape[0], 1)), e], axis=1)
        a1 = np.tanh(X @ self.w1 + self.b1)
        logits = a1 @ self.w2
        logits += self.b2  # in place: a second (T, V) array costs page faults
        return logits, (X, a1)

    def loss_and_grads(self, context, token_ids, windows):
        """Mean per-token cross-entropy and analytic parameter gradients;
        windows is self.windows(token_ids)."""
        targets = np.asarray(token_ids, dtype=int)
        T = targets.size
        logits, (X, a1) = self._forward(context, windows)
        # The softmax is formed in place in logits, and dlogits overwrites it.
        p = logits
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        rows = np.arange(T)
        loss = float(-np.mean(np.log(p[rows, targets] + 1e-300)))
        dlogits = p
        dlogits[rows, targets] -= 1.0
        dlogits /= T
        grads = {}
        grads["w2"] = a1.T @ dlogits
        grads["b2"] = dlogits.sum(axis=0)
        dz1 = (dlogits @ self.w2.T) * (1.0 - a1 ** 2)
        grads["w1"] = X.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        dX = dz1 @ self.w1.T
        n_ctx = self.wc.shape[1]
        dc = dX[:, :n_ctx].sum(axis=0)
        grads["wc"] = np.outer(np.ravel(context), dc)
        grads["bc"] = dc
        # Scatter-add of each window slot's gradient into its token's row, as
        # one bincount over flat (token, column) indices: each entry sums its
        # terms in the order np.add.at would, so the bits are the same.
        V, embed = self.emb.shape
        flat = (windows.reshape(-1, 1) * embed + np.arange(embed)).ravel()
        grads["emb"] = np.bincount(flat, weights=dX[:, n_ctx:].ravel(),
                                   minlength=V * embed).reshape(V, embed)
        return loss, grads


def init_cot_head(vocab: TokenVocab, context_dim: int, rng: np.random.Generator,
                  window: int = 8, embed: int = 16, hidden: int = 64) -> CotHead:
    """Seeded random head, drawn in the order wc, emb, w1, w2: fan-in normal
    projections, N(0, 0.1^2) token embeddings, zero biases."""
    for name, v in (("window", window), ("embed", embed), ("hidden", hidden)):
        check_count(f"cot head {name}", v)
    check_count("cot head context_dim", context_dim, least=0)
    V = len(vocab)
    wc = fan_in_normal(rng, context_dim, CTX_EMBED)
    emb = rng.normal(0.0, 0.1, size=(V, embed))
    w1 = fan_in_normal(rng, CTX_EMBED + window * embed, hidden)
    w2 = fan_in_normal(rng, hidden, V)
    return CotHead(vocab.tokens, context_dim, window, wc=wc, bc=np.zeros(CTX_EMBED), emb=emb,
                   w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(V))


def train_cot_head(head: CotHead, dataset: list, lr: float, epochs: int,
                   rng: np.random.Generator) -> list:
    """Teacher-forced SGD over (context, token ids) pairs; returns the
    per-epoch mean per-token loss curve. A bad lr or no data is refused before
    the head is touched, and a non-finite epoch mean before the next epoch."""
    check_learning_rate(lr)
    if not dataset:
        raise InvalidSetting("CoT training needs at least one sample")
    head.release()  # SGD edits the weights in place
    # Each sample's token windows depend only on its ids: built once per run.
    samples = [(context, token_ids, head.windows(token_ids)) for context, token_ids in dataset]
    curve = []
    for k in range(epochs):
        order = rng.permutation(len(samples))
        losses = []
        for idx in order:
            loss, grads = head.loss_and_grads(*samples[idx])
            for name, p in head.params():
                g = grads[name]  # this sample's own array: it can hold lr * g
                g *= lr
                p -= g
            losses.append(loss)
        curve.append(float(np.mean(losses)))
        check_finite(f"cot loss at epoch {k}", curve[-1])
    return curve


def grad_check_cot(head: CotHead, sample, rng: np.random.Generator, h: float = 1e-5,
                   n_params: int = 100) -> float:
    """Max relative error of analytic vs central-difference gradients; a step
    h outside 0 < h < inf is refused before any draw."""
    check_difference_step(h)
    args = (*sample, head.windows(sample[1]))  # (context, token ids, windows)
    _, grads = head.loss_and_grads(*args)
    return max_grad_error(head, grads, lambda: head.loss_and_grads(*args)[0], h, n_params, rng)


def generate_cot(head: CotHead, context, max_len: int) -> list:
    """Greedy argmax decoding until <end> or max_len; ties break to the
    lowest token id, so decoding is deterministic. A context without
    head.context_dim entries raises ShapeMismatch, and one with a non-finite
    entry NonFiniteOutput, before the first token.

    The hidden pre-activation x @ w1 + b1 of the window row x is a sum of
    one term per window slot, and a token stays in the window for the next
    window steps. So the decode keeps acc, the pre-activations of the steps
    ahead: each starts as (context @ wc + bc) @ w1[:CTX_EMBED] + b1, the
    first window ones plus the leading pads' terms, and an emitted token
    adds its terms to the next window of them. A token's terms come from the
    head's decode table (CotHead.decode_table), built the first time a
    decode emits it and kept across calls. A step whose token the table
    holds runs five calls and allocates no array: tanh of its row, the
    product with w2 into the logits row, the b2 add, the argmax and the add
    of the emitted token's terms. That is about a fifth less per token than
    multiplying the whole window row by w1 (BENCH_33_decode_table.json).
    The sum runs in another order than the window row's matmul, so a logit
    can differ in its last bits and an id only where two logits tie within
    rounding. acc covers at most ACC_STEPS steps and its pending rows move
    to its front when it is used up, so a long decode holds no more.
    """
    check_count("max_len", max_len)
    ctx = np.ravel(context)
    if ctx.size != head.context_dim:
        raise ShapeMismatch(f"context has {ctx.size} entries, cot head expects "
                            f"{head.context_dim}")
    check_finite("cot context", ctx)
    S, rows, pad_terms = head.decode_table()
    W, emb, w2, b2 = head.window, head.emb, head.w2, head.b2
    start = (ctx @ head.wc + head.bc) @ head.w1[:head.wc.shape[1]]
    start += head.b1
    block = min(max_len, ACC_STEPS)
    acc = np.empty((block + W, start.size))
    acc[:] = start
    acc[:W] += pad_terms
    h, logits = np.empty(start.size), np.empty(b2.size)
    end_id = head.vocab.end_id
    out, j = [], 0
    for _ in range(max_len):
        if j == block:  # the last W rows are the next W steps'
            acc[:W] = acc[block:]
            acc[W:] = start
            j = 0
        np.tanh(acc[j], out=h)
        np.dot(h, w2, out=logits)
        logits += b2
        nxt = int(logits.argmax())
        if nxt == end_id:
            break
        out.append(nxt)
        terms = rows.get(nxt)
        if terms is None:
            terms = rows[nxt] = (emb[nxt] @ S).reshape(W, -1)
        j += 1
        acc[j:j + W] += terms
    return out


def sample_dropout(p: float, rng: np.random.Generator) -> int:
    """Bernoulli(p) gate; 1 means the reasoning loss is dropped."""
    if not 0.0 <= p <= 1.0:
        raise InvalidSetting(f"p must be in [0, 1], got {p}")
    return int(rng.random() < p)


def total_loss(l_cot: float, l_action: float, d: int, w_cot: float,
               w_action: float) -> float:
    """(1 - d)*(w_cot*l_cot + w_action*l_action) + d*l_action."""
    if d not in (0, 1):
        raise InvalidSetting("d must be 0 or 1")
    if d == 1:
        return l_action
    return w_cot * l_cot + w_action * l_action


def cot_dataset_text(samples) -> str:
    """JSONL dataset: {context: [...], tokens: [...], text: '...'} per line."""
    return jsonl_text([(f"dataset sample {i}", {"context": context, "tokens": ids, "text": text})
                       for i, (context, ids, text) in enumerate(samples)])
