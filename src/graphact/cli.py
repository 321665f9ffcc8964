"""Command-line surface: data generation, graph building, training, hybrid
inference, and the embedded oracle suite.

Exit codes: 0 ok, 2 validation failure, 3 I/O failure (a file that cannot
be read or written, or is not JSON, not UTF-8 or not an .npz archive), 4
oracle-suite failure. Errors are emitted as one JSON object on stderr.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import sys
import zipfile

import numpy as np

from .core import (DECODE_ERRORS, SCENARIOS, InvalidSetting, PipelineConfig, PipelineError,
                   check_finite, check_outputs, derive_seed, jsonl_text, make_rng, write_files)
from .cot import (CotHead, build_default_vocab, cot_dataset_text, init_cot_head, make_cot_label,
                  tokenize, train_cot_head)
from .flow import FlowExpert, init_flow_expert, train_step
from .gnn import GnnWeights, init_gnn_weights
from .graph import episode_graphs, joint_matrix, objects_skipped
from .inference import (ArtifactLoadError, InferenceSchedule, check_artifacts,
                        chunk_coefficients, episode_contexts, frame_blocks, output_text,
                        run_inference_loop)
from .selfcheck import run_selfcheck
from .sim import default_config, episode_text, gen_episode, load_episode


class ConfigLoadError(PipelineError):
    """A config document with a missing key, a wrong type or a bad value."""


def _load_named(error, load, path):
    """load(path), with a malformed document's core.DECODE_ERRORS raised as
    error. Named errors and files that are not JSON, not UTF-8 or not an
    archive (exit 3) pass through."""
    try:
        return load(path)
    except (PipelineError, json.JSONDecodeError, UnicodeDecodeError):
        raise  # InvalidSetting and both decode errors are also ValueErrors
    except DECODE_ERRORS as exc:
        raise error(str(exc)) from exc


def _openblas(name: str, argtypes: list, restype):
    """The scipy-openblas function name (without its 64_ suffix) in the
    library numpy loaded, or None for a BLAS without it."""
    try:  # dlsym on numpy's core module also searches the libraries it loaded
        fn = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), f"scipy_openblas_{name}64_")
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def kernel_fingerprint() -> str:
    """The kernels a run's bytes depend on beyond its inputs: the OpenBLAS core
    picked at load time and the library's config, then numpy's version and
    the SIMD dispatch targets it enabled at import."""
    core, config = (_openblas(name, [], ctypes.c_char_p) for name in ("get_corename",
                                                                      "get_config"))
    umath = np._core._multiarray_umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    blas = (f"OpenBLAS {core().decode()} ({' '.join(config().decode().split())})"
            if core and config else "BLAS without scipy-openblas")
    return f"{blas}; numpy {np.__version__} dispatch {' '.join(targets) or 'none'}"


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread, then restore the
    caller's count. A threaded product sums in another order, so train-cot
    and train-expert at --batch >= 32 would give bytes that depend on it."""
    get = _openblas("get_num_threads", [], ctypes.c_int)
    set_threads = _openblas("set_num_threads", [ctypes.c_int], None)
    if get is None or set_threads is None:  # a BLAS without the setter keeps its own count
        get = set_threads = lambda *count: None
    threads = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _loss_csv(out: str, rows=()) -> tuple:
    """(path, text) of the loss CSV of (step, loss) rows beside the weight file out."""
    return (os.path.splitext(out)[0] + ".loss.csv",
            "step,loss\n" + "".join(f"{step},{float(loss)}\n" for step, loss in rows))


def cmd_gen(args, cfg: PipelineConfig) -> int:
    paths = check_outputs([os.path.join(args.out, f"{args.scenario}_v{args.variant}_{i:03d}.jsonl")
                           for i in range(args.episodes)], [args.config])
    scen_idx = list(SCENARIOS).index(args.scenario)
    seeds = [derive_seed(args.seed, scen_idx, args.variant, i) for i in range(args.episodes)]
    write_files((path, episode_text(gen_episode(SCENARIOS[args.scenario], args.variant,
                                                args.frames, seed, cfg)))
                for path, seed in zip(paths, seeds))
    print(f"wrote {args.episodes} episode(s) to {args.out}")
    return 0


def _skipped_note(n: int) -> str:
    """The summary line's count of detections that got no graph node, or "" for none."""
    return f"; {n} object(s) skipped for no valid depth" if n else ""


def cmd_graph(args, cfg: PipelineConfig) -> int:
    def lines(ep, skipped):  # one JSON line per frame, built a block of graphs at a time
        for lo, block in frame_blocks(ep.frames):
            graphs = episode_graphs(block, ep.K, ep.T, cfg.chains, args.paper_literal)
            skipped.append(objects_skipped(block, graphs, cfg.chains, args.paper_literal))
            yield jsonl_text([(f"graph of frame {i}", g) for i, g in enumerate(graphs, lo)])
    check_outputs([args.out], [args.config, args.episode])
    ep, skipped = load_episode(args.episode), []
    write_files([(args.out, lines(ep, skipped))])
    print(f"wrote {len(ep.frames)} graph(s) to {args.out}{_skipped_note(sum(skipped))}")
    return 0


def _new_gnn(cfg: PipelineConfig, rng: np.random.Generator) -> GnnWeights:
    return init_gnn_weights(rng, *cfg.gnn_dims)


def _new_expert(cfg: PipelineConfig, rng: np.random.Generator) -> FlowExpert:
    return init_flow_expert(rng, horizon=cfg.action_terms, j_dim=cfg.j_total,
                            context_dim=cfg.context_dim, hidden=cfg.flow_hidden,
                            alpha=cfg.flow_alpha, beta=cfg.flow_beta, sigma=cfg.sigma)


def _new_head(cfg: PipelineConfig, rng: np.random.Generator) -> CotHead:
    return init_cot_head(build_default_vocab(max_offset=cfg.cot_dt_frames),
                         context_dim=cfg.context_dim,
                         window=cfg.cot_window, embed=cfg.cot_embed, hidden=cfg.cot_hidden,
                         rng=rng)


def cmd_init_weights(args, cfg: PipelineConfig) -> int:
    check_outputs([args.out], [args.config])
    new = {"gnn": _new_gnn, "expert": _new_expert, "cot": _new_head}[args.kind]
    new(cfg, make_rng(args.seed)).save(args.out)
    print(f"wrote {args.kind} weights to {args.out}")
    return 0


def _load_artifact(cls, path, cfg: PipelineConfig):
    """The cls model in the weight file at path, checked against cfg, so a
    mismatch exits 2 before the first frame instead of failing mid-loop."""
    model = _load_named(ArtifactLoadError, cls.load, path)
    check_artifacts(cfg, model)
    return model


def _train_gnn(args, cfg: PipelineConfig) -> GnnWeights:
    """The --gnn file checked against cfg, or a GNN drawn from --seed."""
    if args.gnn:
        return _load_artifact(GnnWeights, args.gnn, cfg)
    return _new_gnn(cfg, make_rng(args.seed))


def _episode_files(data_dir: str) -> list:
    files = sorted(glob.glob(os.path.join(data_dir, "*.jsonl")))
    if not files:
        raise InvalidSetting(f"no episode files (*.jsonl) under {data_dir}")
    return files


def cmd_train_expert(args, cfg: PipelineConfig) -> int:
    files = _episode_files(args.data)
    check_outputs([args.out, _loss_csv(args.out)[0]], [args.config, args.gnn, *files])
    gnn_w = _train_gnn(args, cfg)
    dataset, ahead = [], np.arange(1, cfg.flow_horizon + 1)
    for path in files:
        ep = load_episode(path)
        contexts = episode_contexts(ep, gnn_w, cfg, ep.frames)
        q, n = joint_matrix(ep.frames, cfg.chains), len(ep.frames)
        # frame t's chunk: q at t+1..t+H, holding the last frame at the end
        chunks = q[np.minimum(np.arange(n)[:, None] + ahead, n - 1)]
        dataset.extend(zip(chunk_coefficients(chunks, q, cfg.action_terms), contexts))
    expert = _new_expert(cfg, make_rng(derive_seed(args.seed, 0)))
    rng = make_rng(derive_seed(args.seed, 1))
    rows = []
    for step in range(args.steps):
        idx = rng.choice(len(dataset), size=min(args.batch, len(dataset)), replace=False)
        rows.append((step, train_step(expert, [dataset[i] for i in idx], args.lr, rng)))
        check_finite(f"expert loss at step {step}", rows[-1][1])
    expert.check_finite_params("trained expert")
    expert.save(args.out, _loss_csv(args.out, rows))
    print(f"trained expert on {len(dataset)} samples; "
          f"loss {rows[0][1]:.4f} -> {rows[-1][1]:.4f}")
    return 0


def cmd_train_cot(args, cfg: PipelineConfig) -> int:
    files = _episode_files(args.data)
    check_outputs([args.out, _loss_csv(args.out)[0], *filter(None, [args.dump_dataset])],
                  [args.config, args.gnn, *files])
    gnn_w = _train_gnn(args, cfg)
    head = _new_head(cfg, make_rng(derive_seed(args.seed, 0)))
    vocab = head.vocab
    samples = []
    for path in files:
        ep = load_episode(path)
        frames = range(0, len(ep.frames), args.stride) if args.stride > 0 else [0]
        contexts = episode_contexts(ep, gnn_w, cfg, [ep.frames[t] for t in frames])
        for t, context in zip(frames, contexts):
            label = make_cot_label(ep.scene, ep.scenario, ep, t, dt=cfg.cot_dt_frames)
            ids = tokenize(label.to_text(), vocab) + [vocab.end_id]
            samples.append((context, ids, label.to_text()))
    # checked before training, written only once the trained head passes
    dump = [(args.dump_dataset, cot_dataset_text(samples))] if args.dump_dataset else []
    dataset = [(ctx, ids) for ctx, ids, _ in samples]
    curve = train_cot_head(head, dataset, args.lr, args.epochs, make_rng(derive_seed(args.seed, 1)))
    head.check_finite_params("trained cot head")
    head.save(args.out, _loss_csv(args.out, enumerate(curve)), *dump)
    print(f"trained reasoning head on {len(dataset)} samples; "
          f"mean loss {curve[0]:.4f} -> {curve[-1]:.4f}")
    return 0


def cmd_infer(args, cfg: PipelineConfig) -> int:
    check_outputs([args.out], [args.config, args.episode, args.gnn, args.expert, args.cot_head])
    schedule = InferenceSchedule(cot_on_first_frame=not args.no_first_cot,
                                 cot_period=args.cot_period)
    ep = load_episode(args.episode)
    gnn_w, expert, head = [_load_artifact(cls, path, cfg) for cls, path in (
        (GnnWeights, args.gnn), (FlowExpert, args.expert), (CotHead, args.cot_head))]
    outputs, report = run_inference_loop(ep, gnn_w, expert, head, schedule, cfg,
                                         seed=args.seed)
    write_files([(args.out, output_text(outputs))])
    n_cot = sum(1 for o in outputs if o.cot_text is not None)
    print(f"{len(outputs)} frame(s), {n_cot} with reasoning; "
          f"mean frame {np.mean(report.frame_samples):.2f} ms -> {args.out}"
          f"{_skipped_note(report.objects_skipped)}")
    return 0


def cmd_selfcheck(args, cfg: PipelineConfig) -> int:
    results = run_selfcheck()
    failed = False
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    return 4 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Argument errors raise InvalidSetting, so they follow the exit-code
    contract (2, one JSON line) instead of printing usage and exiting."""

    def error(self, message):
        raise InvalidSetting(message)


def _checked(cast, ok, what):
    """An argparse type: the text cast to a value for which ok(value) holds."""
    def parse(text):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
NON_NEGATIVE_FLOAT = _checked(float, lambda v: 0 <= v < np.inf, "a finite number >= 0")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="graphact", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="pipeline config JSON")

    g = sub.add_parser("gen", help="generate synthetic episodes")
    g.add_argument("--scenario", choices=list(SCENARIOS), required=True)
    g.add_argument("--variant", type=NON_NEGATIVE_INT, required=True)
    g.add_argument("--episodes", type=POSITIVE_INT, default=1)
    g.add_argument("--frames", type=POSITIVE_INT, default=60)
    g.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(fn=cmd_gen)

    g = sub.add_parser("graph", help="write the per-frame scene graphs, one JSON line each")
    g.add_argument("--episode", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--paper-literal", action="store_true",
                   help="minimal graph mode: end-effector nodes and object-to-"
                        "end-effector edges only")
    common(g)
    g.set_defaults(fn=cmd_graph)

    g = sub.add_parser("init-weights", help="write seeded random weights")
    g.add_argument("--kind", choices=("gnn", "expert", "cot"), required=True)
    g.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(fn=cmd_init_weights)

    g = sub.add_parser("train-expert", help="train the action expert on episodes")
    g.add_argument("--data", required=True)
    g.add_argument("--steps", type=POSITIVE_INT, default=500)
    g.add_argument("--lr", type=NON_NEGATIVE_FLOAT, default=5e-3,
                   help="plain-GD step on the squared error of the predicted clean "
                        "offset, in its action_terms cosine coefficients per joint")
    g.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    g.add_argument("--batch", type=POSITIVE_INT, default=16)
    g.add_argument("--gnn", default=None, help="GNN weights file (default: derived from --seed)")
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(fn=cmd_train_expert)

    g = sub.add_parser("train-cot", help="train the reasoning head on episodes")
    g.add_argument("--data", required=True)
    g.add_argument("--epochs", type=POSITIVE_INT, default=50)
    g.add_argument("--lr", type=NON_NEGATIVE_FLOAT, default=0.2)
    g.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    g.add_argument("--stride", type=NON_NEGATIVE_INT, default=0,
                   help="label every Nth frame (default: first frame only)")
    g.add_argument("--gnn", default=None)
    g.add_argument("--dump-dataset", default=None, help="also write the dataset JSONL")
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(fn=cmd_train_cot)

    g = sub.add_parser("infer", help="run the hybrid inference loop")
    g.add_argument("--episode", required=True)
    g.add_argument("--gnn", required=True)
    g.add_argument("--expert", required=True)
    g.add_argument("--cot-head", required=True)
    g.add_argument("--cot-period", type=POSITIVE_INT, default=None)
    g.add_argument("--no-first-cot", action="store_true")
    g.add_argument("--seed", type=NON_NEGATIVE_INT, default=0)
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(fn=cmd_infer)

    g = sub.add_parser("selfcheck", help="run the embedded oracle suite")
    g.set_defaults(fn=cmd_selfcheck, config=None)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A non-finite result is refused by name; numpy's warnings would only
        # add lines to stderr's one-JSON-line error contract.
        with np.errstate(all="ignore"), _one_blas_thread():
            cfg = (_load_named(ConfigLoadError, PipelineConfig.load, args.config)
                   if args.config else default_config())
            return args.fn(args, cfg)
    except (PipelineError, OSError, json.JSONDecodeError, UnicodeDecodeError,
            zipfile.BadZipFile) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, PipelineError) else 3


if __name__ == "__main__":
    sys.exit(main())
