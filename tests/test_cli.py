import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from graphact import (CotHead, FlowExpert, GnnWeights, InferenceSchedule, cli, default_config,
                      init_gnn_weights, load_episode, make_rng, run_inference_loop)
from graphact.cli import build_parser, main
from graphact.graph import joint_matrix
from graphact.core import to_json
from graphact.sim import look_at

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(argv, fresh_process=False, env=None) -> tuple:
    """(exit code, stdout, stderr) of the command line argv, run by main in
    this process or, with fresh_process, by python -m graphact.cli with the
    variables of env added to the environment."""
    if fresh_process:
        env = dict(os.environ, **(env or {}))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "graphact.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_refused(result, code, error=None, words=(), folder=None, left=()) -> dict:
    """The refusal contract on result, a _run: exit code code, nothing on
    stdout, and exactly one JSON line {"error", "message"} on stderr, naming
    error (any when None) with each of words in the message; when folder is
    given, it holds only the names in left, so no output file was written.
    Returns the line, parsed."""
    got, stdout, stderr = result
    assert got == code, stderr
    assert stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    line = json.loads(lines[0])
    assert set(line) == {"error", "message"}
    assert error is None or line["error"] == error, line
    assert [word for word in words if word not in line["message"]] == [], line
    if folder is not None:
        assert sorted(os.listdir(folder)) == sorted(left)
    return line


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Episodes plus initialized weights shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--episodes", "2",
                 "--frames", "6", "--seed", "3", "--out", str(data)]) == 0
    gnn = root / "gnn.json"
    expert = root / "expert.json"
    head = root / "cot.json"
    assert main(["init-weights", "--kind", "gnn", "--seed", "3", "--out", str(gnn)]) == 0
    assert main(["init-weights", "--kind", "expert", "--seed", "3", "--out", str(expert)]) == 0
    assert main(["init-weights", "--kind", "cot", "--seed", "3", "--out", str(head)]) == 0
    episode = data / "food_v0_000.jsonl"
    return {"root": root, "data": data, "episode": episode,
            "gnn": gnn, "expert": expert, "head": head}


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--scenario", "outfit", "--variant", "1", "--episodes", "2",
                     "--frames", "4", "--seed", "11", "--out", str(out)]) == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_graph_paper_literal_edge_count(tmp_path, workspace):
    # food variant 2 has exactly two objects; bipartite edges = 2 objects x 2 arms
    data = tmp_path / "28data"
    assert main(["gen", "--scenario", "food", "--variant", "2", "--episodes", "1",
                 "--frames", "2", "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "graphs.jsonl"
    assert main(["graph", "--episode", str(data / "food_v2_000.jsonl"),
                 "--out", str(out), "--paper-literal"]) == 0
    doc = json.loads(out.read_text().splitlines()[0])
    assert len(doc["nodes"]) == 4
    assert len(doc["edges"]) == 4
    kinds = {n["kind"] for n in doc["nodes"]}
    assert kinds == {"object", "end_effector"}


def test_graph_full_mode(tmp_path, workspace):
    out = tmp_path / "graphs.jsonl"
    assert main(["graph", "--episode", str(workspace["episode"]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    doc = json.loads(lines[0])
    assert len(doc["nodes"]) == 4 + 2 * 8


def test_graph_deterministic(tmp_path, workspace):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["graph", "--episode", str(workspace["episode"]), "--out", str(out)]) == 0
    assert len(a.read_text().splitlines()) == 6
    assert a.read_bytes() == b.read_bytes()


def test_init_weights_load(workspace):
    cfg = default_config()
    w = GnnWeights.load(workspace["gnn"])
    assert w.dims == cfg.gnn_dims
    e = FlowExpert.load(workspace["expert"])
    assert e.horizon == cfg.action_terms == 4 and e.context_dim == cfg.context_dim
    h = CotHead.load(workspace["head"])
    assert h.context_dim == cfg.context_dim


def test_train_expert_deterministic(tmp_path, workspace):
    outs = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        assert main(["train-expert", "--data", str(workspace["data"]), "--steps", "8",
                     "--lr", "0.01", "--seed", "4", "--batch", "4",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    csv0 = outs[0].with_suffix(".loss.csv").read_text()
    csv1 = outs[1].with_suffix(".loss.csv").read_text()
    assert csv0 == csv1
    assert csv0.startswith("step,loss\n") and len(csv0.splitlines()) == 9


def test_a_trained_expert_beats_holding_the_joints_on_held_out_episodes(tmp_path):
    """train-expert at its default --lr and --steps on 2 x 90 training frames
    (food and outfit v0, seed 2) samples chunks closer, in mean L2, to two
    held-out episodes (food v0 and outfit v1, seed 9) than holding the current
    joints over the horizon; one Euler step is clearly worse than the config's
    10, so the chunk L2 can tell a cheaper sampler."""
    def run(*argv):
        code, _, stderr = _run(list(argv))
        assert code == 0, stderr
    for scenario, variant, seed, folder in (("food", 0, 2, "data"), ("outfit", 0, 2, "data"),
                                            ("food", 0, 9, "held"), ("outfit", 1, 9, "held")):
        run("gen", "--scenario", scenario, "--variant", str(variant), "--frames", "90",
            "--seed", str(seed), "--out", str(tmp_path / folder))
    for kind in ("gnn", "cot"):
        run("init-weights", "--kind", kind, "--out", str(tmp_path / f"{kind}.npz"))
    run("train-expert", "--data", str(tmp_path / "data"), "--gnn", str(tmp_path / "gnn.npz"),
        "--out", str(tmp_path / "expert.npz"))
    cfg = default_config()
    models = [cls.load(tmp_path / name) for cls, name in (
        (GnnWeights, "gnn.npz"), (FlowExpert, "expert.npz"), (CotHead, "cot.npz"))]
    held, ten, one = [], [], []
    for path in sorted((tmp_path / "held").iterdir()):
        ep = load_episode(path)
        q, n = joint_matrix(ep.frames, cfg.chains), len(ep.frames)
        truth = q[np.minimum(np.arange(n)[:, None] + np.arange(1, cfg.flow_horizon + 1), n - 1)]
        held += list(np.linalg.norm(truth - q[:, None], axis=(1, 2)))
        for steps, l2 in ((10, ten), (1, one)):
            outputs, _ = run_inference_loop(ep, *models, InferenceSchedule(cot_on_first_frame=False),
                                            dataclasses.replace(cfg, euler_steps=steps))
            l2 += [np.linalg.norm(o.actions - truth[o.index]) for o in outputs]
    held, ten, one = np.mean(held), np.mean(ten), np.mean(one)  # 0.626, 0.376, 0.915
    assert ten < 0.8 * held, (ten, held)
    assert one > 1.5 * ten, (one, ten)


def test_train_cot_runs_and_writes_csv(tmp_path, workspace):
    out = tmp_path / "head.json"
    dump = tmp_path / "dataset.jsonl"
    assert main(["train-cot", "--data", str(workspace["data"]), "--epochs", "3",
                 "--lr", "0.2", "--seed", "4", "--out", str(out),
                 "--dump-dataset", str(dump)]) == 0
    assert out.exists()
    lines = out.with_suffix(".loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss" and len(lines) == 4
    rows = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(rows) == 2  # frame 0 of each of the two episodes
    assert all("tokens" in r and "context" in r and "text" in r for r in rows)


def test_train_cot_labels_episodes_past_361_frames(tmp_path):
    """Labels name future frames by offset, so every frame of a 400-frame
    episode labels with tokens of the head's vocabulary."""
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "400",
                 "--seed", "2", "--out", str(data)]) == 0
    out, dump = tmp_path / "cot.npz", tmp_path / "dataset.jsonl"
    assert main(["train-cot", "--data", str(data), "--stride", "10", "--epochs", "1",
                 "--out", str(out), "--dump-dataset", str(dump)]) == 0
    vocab = set(CotHead.load(out).tokens)
    texts = [json.loads(line)["text"] for line in dump.read_text().splitlines()]
    assert len(texts) == 40  # frames 0, 10, ..., 390
    assert all(set(text.split()) <= vocab for text in texts)
    assert "in 9 frames" in texts[-1]  # frame 390's future frames clamp to 399


def test_infer_default_schedule_and_determinism(tmp_path, workspace):
    outs = []
    for name in ("o1.json", "o2.json"):
        out = tmp_path / name
        assert main(["infer", "--episode", str(workspace["episode"]),
                     "--gnn", str(workspace["gnn"]), "--expert", str(workspace["expert"]),
                     "--cot-head", str(workspace["head"]), "--seed", "6",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    doc = json.loads(outs[0].read_text())
    frames = doc["frames"]
    assert len(frames) == 6
    assert frames[0]["cot"] is not None
    assert all(f["cot"] is None for f in frames[1:])
    cfg = default_config()
    assert np.array(frames[0]["actions"]).shape == (cfg.flow_horizon, cfg.j_total)


# The pinned digests below hold for the kernels they were recorded under, as
# cli.kernel_fingerprint() names them (tools/cli_digests.py prints it first):
# OpenBLAS SkylakeX (OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX
# MAX_THREADS=64); numpy 2.4.6 dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR.
# Another OpenBLAS core or numpy dispatch rounds products otherwise.

# sha256 of the infer output below. Recorded again when labels began to name
# future frames by offset, which changed the random head's vocabulary and so
# its reasoning text, when Euler steps 2..K moved into the expert's first
# hidden layer, which moved the actions by rounding (at most ~2e-15), and
# when the expert began to predict the chunk's offset in cosine terms.
INFER_GOLDEN_SHA256 = "aa396d4d4fd955ce13e261dd1101e0ba42581ad2b833e6eab067a5bfe6a19533"
# sha256 of json.dumps of that output's per-frame actions, recorded before the
# offset labels (the reasoning head's vocabulary must not move an action's
# bits), again with the hidden-layer Euler steps and again with the cosine terms.
INFER_ACTIONS_GOLDEN_SHA256 = "d92b3b33ac51f4120d1fd98bba0307032ef95d979ac583b78f5249b98a21ce2c"
# sha256 of the graph output of test_infer_golden_sha256's episode, in each
# mode, recorded at commit ff592fa, whose graphs held one GraphNode per node.
GRAPH_GOLDEN_SHA256 = {
    "full": "91f5699fc00634e7740c02a19ec277cbb30cf5b11b3f637cd0b77a16b4b5b0a8",
    "paper_literal": "7719ab3fe4d19bb48ebe5c536cba60bdf54d3e77d7fb722c38f6df523dc7d0e3",
}


def test_infer_golden_sha256(tmp_path):
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "12",
                 "--seed", "5", "--out", str(data)]) == 0
    for kind in ("gnn", "expert", "cot"):
        assert main(["init-weights", "--kind", kind, "--seed", "3",
                     "--out", str(tmp_path / f"{kind}.npz")]) == 0
    out = tmp_path / "out.json"
    assert main(["infer", "--episode", str(data / "food_v0_000.jsonl"),
                 "--gnn", str(tmp_path / "gnn.npz"), "--expert", str(tmp_path / "expert.npz"),
                 "--cot-head", str(tmp_path / "cot.npz"), "--cot-period", "5",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INFER_GOLDEN_SHA256
    actions = json.dumps([f["actions"] for f in json.loads(out.read_text())["frames"]])
    assert hashlib.sha256(actions.encode()).hexdigest() == INFER_ACTIONS_GOLDEN_SHA256


@pytest.mark.parametrize("mode", sorted(GRAPH_GOLDEN_SHA256))
def test_graph_golden_sha256(tmp_path, mode):
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "12",
                 "--seed", "5", "--out", str(data)]) == 0
    out = tmp_path / "graphs.jsonl"
    assert main(["graph", "--episode", str(data / "food_v0_000.jsonl"), "--out", str(out),
                 *(["--paper-literal"] if mode == "paper_literal" else [])]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPH_GOLDEN_SHA256[mode]


# sha256 of the infer output below: 100 frames at --cot-period 7 span several
# blocks of the loop, a partial last block among them, with decodes in each.
# Recorded by running these commands at commit d563f52, whose loop ran every
# stage once over all frames, again when Euler steps 2..K moved into the
# expert's first hidden layer, and again with the cosine terms, under the
# fingerprint above.
INFER_MULTI_BLOCK_GOLDEN_SHA256 = \
    "1b8ab2d4990b539ee4cdfbd3f88c58df570f2428a9858bea0cf56070d47de3e7"


def test_infer_multi_block_golden_sha256(tmp_path):
    from graphact.inference import BLOCK_FRAMES
    last = 100 - 100 % BLOCK_FRAMES  # first frame of the partial last block
    assert 2 * BLOCK_FRAMES <= last < 98  # frame 98 decodes in it
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "100",
                 "--seed", "5", "--out", str(data)]) == 0
    for kind in ("gnn", "expert", "cot"):
        assert main(["init-weights", "--kind", kind, "--seed", "3",
                     "--out", str(tmp_path / f"{kind}.npz")]) == 0
    out = tmp_path / "out.json"
    assert main(["infer", "--episode", str(data / "food_v0_000.jsonl"),
                 "--gnn", str(tmp_path / "gnn.npz"), "--expert", str(tmp_path / "expert.npz"),
                 "--cot-head", str(tmp_path / "cot.npz"), "--cot-period", "7",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INFER_MULTI_BLOCK_GOLDEN_SHA256


def test_infer_cot_period(tmp_path, workspace):
    out = tmp_path / "o.json"
    assert main(["infer", "--episode", str(workspace["episode"]),
                 "--gnn", str(workspace["gnn"]), "--expert", str(workspace["expert"]),
                 "--cot-head", str(workspace["head"]), "--cot-period", "5",
                 "--out", str(out)]) == 0
    frames = json.loads(out.read_text())["frames"]
    assert [f["index"] for f in frames if f["cot"] is not None] == [0, 5]


def test_infer_no_first_cot_with_period(tmp_path, workspace):
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "12",
                 "--seed", "3", "--out", str(data)]) == 0
    out = tmp_path / "o.json"
    assert main(_infer_argv(workspace, data / "food_v0_000.jsonl", out,
                            "--no-first-cot", "--cot-period", "5")) == 0
    frames = json.loads(out.read_text())["frames"]
    assert frames[0]["cot"] is None
    assert [f["index"] for f in frames if f["cot"] is not None] == [5, 10]
    assert all(isinstance(frames[i]["cot"], str) and frames[i]["cot"] for i in (5, 10))


def test_selfcheck_failure_exits_4(monkeypatch, capsys):
    """One failing check makes the suite exit 4 with a FAIL line for it,
    while the other checks still run and report ok."""
    from graphact import selfcheck
    checks = list(selfcheck.CHECKS)
    checks[1] = lambda: ("planted_failure", False, "forced")
    monkeypatch.setattr(selfcheck, "CHECKS", tuple(checks))
    assert main(["selfcheck"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "FAIL planted_failure: forced"
    assert [line.split()[0] for line in lines] == ["ok", "FAIL", "ok", "ok"]


# JSON text nested deeper than the decoder follows: it ends in RecursionError.
NESTED = "[" * 200_000 + "]" * 200_000

# (edit of the default config's JSON, or the file's text, exit code, error)
CONFIG_CASES = {
    "missing_key": (lambda d: d.pop("sigma"), 2, "ConfigLoadError"),
    "wrong_type": (lambda d: d.update(flow_horizon="x"), 2, "ConfigLoadError"),
    "zero_fx": (lambda d: d["intrinsics"].update(fx=0), 2, "ConfigLoadError"),
    "gnn_dims_short": (lambda d: d.update(gnn_dims=[32]), 2, "ConfigLoadError"),
    "gnn_dims_zero": (lambda d: d.update(gnn_dims=[32, 0, 32]), 2, "ConfigLoadError"),
    "flow_horizon_zero": (lambda d: d.update(flow_horizon=0), 2, "ConfigLoadError"),
    "cot_max_len_zero": (lambda d: d.update(cot_max_len=0), 2, "ConfigLoadError"),
    "sigma_nan": (lambda d: d.update(sigma=float("nan")), 2, "ConfigLoadError"),
    "flow_alpha_zero": (lambda d: d.update(flow_alpha=0.0), 2, "ConfigLoadError"),
    "max_gap_inf": (lambda d: d.update(max_gap=float("inf")), 2, "ConfigLoadError"),
    "max_gap_retired": (lambda d: d.update(max_gap=2 / 30), 2, "ConfigLoadError"),
    "control_rate_hz_retired": (lambda d: d.update(control_rate_hz=150.0), 2,
                                "ConfigLoadError"),
    "scenario_names_empty": (lambda d: d.update(scenario_names=[]), 2, "ConfigLoadError"),
    "scenario_names_repeated": (lambda d: d.update(scenario_names=["food", "food"]), 2,
                                "ConfigLoadError"),
    "scenario_names_retired": (lambda d: d.update(scenario_names=["food", "outfit"]), 2,
                               "ConfigLoadError"),
    "chain_base_nan": (lambda d: d["chains"][0]["base"]["translation"].__setitem__(
        0, float("nan")), 2, "ConfigLoadError"),
    "dh_a_nan": (lambda d: d["chains"][1]["links"][2].update(a=float("nan")), 2,
                 "ConfigLoadError"),
    "theta_offset_missing": (lambda d: d["chains"][0]["links"][3].pop("theta_offset"), 2,
                             "ConfigLoadError"),
    "fx_overflow": (lambda d: d["intrinsics"].update(fx=10 ** 400), 2, "ConfigLoadError"),
    "not_json": ('{"sigma": 1.0,', 3, "JSONDecodeError"),
    "nested_too_deep": (NESTED, 2, "ConfigLoadError"),
    "flow_horizon_fraction": (lambda d: d.update(flow_horizon=30.9), 2, "ConfigLoadError"),
    "flow_horizon_bool": (lambda d: d.update(flow_horizon=True), 2, "ConfigLoadError"),
    "sigma_string": (lambda d: d.update(sigma="1.0"), 2, "ConfigLoadError"),
    "joint_limits_string": (lambda d: d.update(joint_limits="ab"), 2, "ConfigLoadError"),
    "dh_a_string_nan": (lambda d: d["chains"][1]["links"][2].update(a="nan"), 2,
                        "ConfigLoadError"),
    "chain_name_int": (lambda d: d["chains"][0].update(name=3), 2, "ConfigLoadError"),
    "unknown_key": (lambda d: d.update(lambda_gnn=1.0), 2, "ConfigLoadError"),
    "joint_limits_reversed": (lambda d: d.update(joint_limits=[1.0, -1.0]), 2,
                              "ConfigLoadError"),
}
# A size key that would give a weight matrix no run could allocate. A size at
# or just under core.MAX_WEIGHT_ENTRIES would allocate, so none is tested.
HUGE_SIZES = {"cot_embed": 10 ** 17, "cot_hidden": 10 ** 17, "cot_window": 10 ** 17,
              "flow_hidden": 10 ** 17, "flow_horizon": 10 ** 17, "cot_dt_frames": 10 ** 17,
              "gnn_dims": [32, 32, 10 ** 17]}
CONFIG_CASES.update({f"{key}_huge": (lambda d, key=key, v=v: d.update({key: v}), 2,
                                     "ConfigLoadError") for key, v in HUGE_SIZES.items()})
# An embedding width that 31 frame-offset tokens would allow (775,000 entries)
# and the head's whole 721-token vocabulary does not: emb would hold 18,025,000.
CONFIG_CASES["cot_embed_wide_vocab"] = (lambda d: d.update(cot_embed=25_000, cot_hidden=1), 2,
                                        "ConfigLoadError")

# The field a row's message names, for the rows whose value the reader refuses.
CONFIG_FIELDS = {"flow_horizon_fraction": "config.flow_horizon",
                 "flow_horizon_bool": "config.flow_horizon", "sigma_string": "config.sigma",
                 "joint_limits_string": "config.joint_limits",
                 "dh_a_string_nan": "config.chains[].links[].a",
                 "chain_name_int": "config.chains[].name", "unknown_key": "lambda_gnn",
                 "max_gap_inf": "unknown key 'max_gap'",
                 "max_gap_retired": "unknown key 'max_gap'",
                 "control_rate_hz_retired": "unknown key 'control_rate_hz'",
                 **{f"scenario_names_{case}": "unknown key 'scenario_names'"
                    for case in ("empty", "repeated", "retired")},
                 "joint_limits_reversed": "joint_limits",
                 **{f"{key}_huge": key for key in HUGE_SIZES},
                 "cot_embed_wide_vocab": "cot_embed"}


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", ["gen", "infer"])
@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_malformed_config_follows_the_error_contract(case, command, via, tmp_path, workspace,
                                                     monkeypatch):
    """Through --config, a config with a missing key, a wrong type or a bad
    value exits 2 as ConfigLoadError, and one that is not JSON exits 3, before
    any work. The same file in the PIPELINE_CONFIG environment variable, which
    no command reads, changes nothing: the command runs on the built-in rig."""
    edit, code, error = CONFIG_CASES[case]
    cfg_path = tmp_path / "cfg.json"
    if callable(edit):
        doc = to_json(default_config())
        edit(doc)
        cfg_path.write_text(json.dumps(doc))
    else:
        cfg_path.write_text(edit)
    out = tmp_path / "out" / "o.json"
    argv = _valid_argv(command, workspace, out)
    if via == "flag":
        argv += ["--config", str(cfg_path)]
    else:
        monkeypatch.setenv("PIPELINE_CONFIG", str(cfg_path))
        out.parent.mkdir()
        got, _, err = _run(argv)
        assert got == 0 and err == "" and out.exists()
        return
    _assert_refused(_run(argv), code, error, [CONFIG_FIELDS.get(case, "")], tmp_path,
                    ["cfg.json"])


def test_init_weights_refuses_a_config_too_large_to_draw(tmp_path):
    """A size key whose weight matrix would pass MAX_WEIGHT_ENTRIES exits 2
    as ConfigLoadError naming the key, before any array is drawn."""
    doc = to_json(default_config())
    doc["cot_embed"] = 10 ** 17
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    _assert_refused(_run(["init-weights", "--kind", "cot", "--config", str(tmp_path / "cfg.json"),
                          "--out", str(tmp_path / "w.npz")]),
                    2, "ConfigLoadError", ["cot_embed"], tmp_path, ["cfg.json"])


def test_validation_error_exit_code_and_json(tmp_path):
    _assert_refused(_run(["gen", "--scenario", "food", "--variant", "9", "--episodes", "1",
                          "--frames", "2", "--seed", "0", "--out", str(tmp_path / "x")]),
                    2, "InvalidVariant", ["variant 9"], tmp_path)


def test_io_error_exit_code(tmp_path):
    _assert_refused(_run(["graph", "--episode", str(tmp_path / "missing.jsonl"),
                          "--out", str(tmp_path / "g")]),
                    3, "FileNotFoundError", ["missing.jsonl"], tmp_path)


def test_infer_bad_artifact_exit_code(tmp_path, workspace):
    bad = tmp_path / "bad.json"
    with open(bad, "wb") as f:
        np.savez(f, header=np.array("{}"))
    _assert_refused(_run(["infer", "--episode", str(workspace["episode"]), "--gnn", str(bad),
                          "--expert", str(workspace["expert"]),
                          "--cot-head", str(workspace["head"]),
                          "--out", str(tmp_path / "o.json")]),
                    2, "ArtifactLoadError", ["lift_w"], tmp_path, ["bad.json"])


def test_infer_missing_artifact_is_io_error(tmp_path, workspace):
    argv = _infer_argv(workspace, workspace["episode"], tmp_path / "o.json")
    argv[argv.index("--expert") + 1] = str(tmp_path / "missing.json")
    _assert_refused(_run(argv), 3, "FileNotFoundError", ["missing.json"], tmp_path)


def _old_json_artifact(path) -> bytes:
    """The expert as a JSON document with the keys the weight file used to have."""
    with np.load(path, allow_pickle=False) as npz:
        doc = json.loads(npz["header"].item())
        doc.update({name: npz[name].tolist() for name in npz.files[1:]}, learning_rate=0.05)
    return json.dumps(doc).encode()


# contents of the expert file, from the path of a valid one
UNREADABLE_ARTIFACTS = {
    "empty_file": lambda path: b"",
    "truncated_archive": lambda path: path.read_bytes()[:path.stat().st_size // 2],
    "old_json_artifact": _old_json_artifact,
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_ARTIFACTS))
def test_infer_unreadable_artifact_exits_3(case, tmp_path, workspace):
    """An artifact that is not a whole .npz archive exits 3 like a config or
    an episode that is not JSON; an archive that is not an artifact exits 2."""
    bad = tmp_path / "expert.json"
    bad.write_bytes(UNREADABLE_ARTIFACTS[case](workspace["expert"]))
    argv = _infer_argv(workspace, workspace["episode"], tmp_path / "o.json")
    argv[argv.index("--expert") + 1] = str(bad)
    _assert_refused(_run(argv), 3, "BadZipFile", folder=tmp_path, left=["expert.json"])


def test_train_cot_deterministic(tmp_path, workspace):
    outs = []
    for name in ("h1.json", "h2.json"):
        out = tmp_path / name
        assert main(["train-cot", "--data", str(workspace["data"]), "--epochs", "2",
                     "--lr", "0.2", "--seed", "7", "--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (outs[0].with_suffix(".loss.csv").read_bytes()
            == outs[1].with_suffix(".loss.csv").read_bytes())


# sha256 of the weight files of the BLAS-thread test's two commands, under the
# fingerprint above; expert.npz recorded again with the cosine terms.
ONE_THREAD_SHA256 = {
    "cot.npz": "17ab1c638632c0b18138ec4f5e038af6747d9c6d7b2d3f79e997705060f462ee",
    "expert.npz": "8ae819422681def53423fd6e886c5b0d70e51f9a9351ae8caa320bfe2218fc1e"}


def test_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """train-cot, whose products have 32 or more token rows, and train-expert
    at --batch 64 write the same bytes under OPENBLAS_NUM_THREADS=1 and =2,
    each command in a fresh process: the CLI runs numpy's BLAS on one thread."""
    data = tmp_path / "data"
    for scenario in ("food", "outfit"):
        assert main(["gen", "--scenario", scenario, "--variant", "0", "--frames", "40",
                     "--seed", "1", "--out", str(data)]) == 0
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (["train-cot", "--stride", "10", "--epochs", "2", "--out", out / "cot.npz"],
                     ["train-expert", "--batch", "64", "--steps", "5",
                      "--out", out / "expert.npz"]):
            code, _, stderr = _run([*map(str, argv), "--data", str(data)], fresh_process=True,
                                   env={"OPENBLAS_NUM_THREADS": threads})
            assert code == 0, stderr
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(files["1"]) == 4 and files["1"] == files["2"]
    assert {name: hashlib.sha256(files["1"][name]).hexdigest()
            for name in ONE_THREAD_SHA256} == ONE_THREAD_SHA256


@pytest.mark.parametrize("command", ["gen", "infer"])
def test_pipeline_config_env_var(command, tmp_path, workspace, monkeypatch):
    """The config comes from --config only: PIPELINE_CONFIG naming a file
    that does not exist, a malformed config or a file that is not JSON
    leaves the command on the built-in rig, with the bytes it writes
    without the variable."""
    doc = to_json(default_config())
    doc.pop("sigma")
    (tmp_path / "malformed.json").write_text(json.dumps(doc))
    (tmp_path / "not_json.json").write_text('{"sigma": 1.0,')
    outputs = {}
    for name in ("unset", "missing.json", "malformed.json", "not_json.json"):
        if name != "unset":
            monkeypatch.setenv("PIPELINE_CONFIG", str(tmp_path / name))
        out = tmp_path / f"out_{name}"
        out.mkdir()
        code, _, stderr = _run(_valid_argv(command, workspace, out / "o.json"))
        assert (code, stderr) == (0, "")
        outputs[name] = _tree(out)
    assert outputs["unset"] and all(files == outputs["unset"] for files in outputs.values())


def _infer_argv(workspace, episode, out, *extra):
    return ["infer", "--episode", str(episode), "--gnn", str(workspace["gnn"]),
            "--expert", str(workspace["expert"]), "--cot-head", str(workspace["head"]),
            "--out", str(out), *extra]


def _valid_argv(command, workspace, out):
    """A small command line that runs command to exit 0 and writes out."""
    w = {k: str(v) for k, v in workspace.items()}
    artifacts = ["--gnn", w["gnn"], "--expert", w["expert"], "--cot-head", w["head"]]
    return {
        "gen": ["gen", "--scenario", "food", "--variant", "0", "--frames", "2"],
        "graph": ["graph", "--episode", w["episode"]],
        "init-weights": ["init-weights", "--kind", "gnn"],
        "train-expert": ["train-expert", "--data", w["data"], "--steps", "2", "--batch", "2"],
        "train-cot": ["train-cot", "--data", w["data"], "--epochs", "1"],
        "infer": ["infer", "--episode", w["episode"], *artifacts],
    }[command] + ["--out", str(out)]


# (command, extra arguments): each ends in InvalidSetting, exit 2, one JSON
# line on stderr, nothing on stdout and nothing written
BAD_SETTINGS = [
    ("infer", ["--cot-period", "0"]),
    # not options: unknown flags (the config's euler_steps sets the Euler steps)
    ("infer", ["--pace"]), ("infer", ["--rate-hz", "10"]), ("infer", ["--steps", "3"]),
    ("gen", ["--frames", "0"]), ("gen", ["--episodes", "0"]), ("gen", ["--frames", "abc"]),
    ("gen", ["--variant", "-1"]),
    ("train-cot", ["--epochs", "0"]), ("train-cot", ["--stride", "-1"]),
    ("train-cot", ["--lr", "-1"]), ("train-cot", ["--lr", "nan"]),
    ("train-expert", ["--steps", "0"]), ("train-expert", ["--batch", "0"]),
    ("train-expert", ["--lr", "-1"]), ("train-expert", ["--lr", "nan"]),
    ("train-expert", ["--lr", "inf"]),
] + [(command, ["--seed", "-1"])
     for command in ("gen", "init-weights", "train-expert", "train-cot", "infer")]


@pytest.mark.parametrize("command,extra", BAD_SETTINGS,
                         ids=[f"{c}_{'='.join([extra[0][2:], *extra[1:]])}"
                              for c, extra in BAD_SETTINGS])
def test_rejects_invalid_settings(command, extra, tmp_path, workspace):
    # no output, no loss CSV, no episode directory
    _assert_refused(_run(_valid_argv(command, workspace, tmp_path / "out.json") + extra),
                    2, "InvalidSetting", folder=tmp_path)


@pytest.mark.parametrize("argv,word", [(["frobnicate"], "invalid choice"), ([], "required"),
                                       (["graph", "--episode", "e.jsonl"], "--out")],
                         ids=["unknown_command", "no_command", "missing_out"])
def test_argument_errors_follow_the_error_contract(argv, word):
    """An unknown command, no command or a missing required flag exits 2 with
    one JSON line instead of a usage text."""
    _assert_refused(_run(argv), 2, "InvalidSetting", [word])


def test_readme_documents_every_long_option():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = open(os.path.join(os.path.dirname(SRC), "README.md")).read()
    missing = [f"{name} {opt}" for name, parser in sub.choices.items()
               for action in parser._actions if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings if opt.startswith("--") and opt not in readme]
    assert missing == []


def test_readme_documents_every_error_class():
    """Every PipelineError subclass that graphact and its CLI define, the base
    class included, is named in README, and there are 17 of them."""
    import graphact
    import graphact.cli  # noqa: F401  (its ConfigLoadError)
    classes, todo = [], [graphact.PipelineError]
    while todo:
        classes.append(todo.pop())
        todo += classes[-1].__subclasses__()
    readme = open(os.path.join(os.path.dirname(SRC), "README.md")).read()
    names = {cls.__name__ for cls in classes if cls.__module__.startswith("graphact")}
    assert sorted(name for name in names if f"`{name}`" not in readme) == []
    assert len(names) == 17


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "-h"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


FUZZ_FLAGS = {
    "gen": ["--variant", "--episodes", "--frames", "--seed"],
    "init-weights": ["--seed"],
    "train-expert": ["--steps", "--lr", "--seed", "--batch"],
    "train-cot": ["--epochs", "--lr", "--seed", "--stride"],
    "infer": ["--cot-period", "--seed"],
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_numeric_flags_exit_contract(data, workspace):
    """Any mix of odd values for the numeric flags ends in exit 0, 2 or 3,
    with one JSON line on stderr exactly when the exit is not 0, and an output
    file exactly when it is 0."""
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)), label="command")
    extra = []
    for flag in FUZZ_FLAGS[command]:
        if data.draw(st.booleans(), label=f"set {flag}"):
            value = data.draw(st.sampled_from(["-1", "0", "1", "2", "nan", "inf", "abc", ""]),
                              label=flag)
            extra += [flag, value]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        result = code, _, err = _run(_valid_argv(command, workspace, out) + extra)
        event(f"{command}: exit {code}")
        assert code in (0, 2, 3)
        if code:
            _assert_refused(result, code, folder=tmp)
        else:
            assert err == ""
        assert os.path.exists(out) == (code == 0)


def _old_layout(header, frame):
    """The earlier layout: the image size in the header and in every frame,
    and each box's depth as one value per pixel."""
    w, h = header["K"]["width"], header["K"]["height"]
    header["resolution"] = [w, h]
    frame["depth"] = {"w": w, "h": h, "boxes": [
        {"x0": x0, "y0": y0, "x1": x1, "y1": y1, "values": [z] * ((x1 - x0) * (y1 - y0))}
        for x0, y0, x1, y1, z in frame["depth"]]}


# (edit of the header and the first frame, what the message names)
RETYPED = {
    "q_string_nan": (lambda h, f: f["q"].__setitem__(3, "nan"), "frame.q[]"),
    "fx_bool": (lambda h, f: h["K"].update(fx=True), "header.K.fx"),
    "width_fraction": (lambda h, f: h["K"].update(width=640.7), "header.K.width"),
    "variant_fraction": (lambda h, f: h.update(variant=0.9), "header.variant"),
    "seed_fraction": (lambda h, f: h.update(seed=h["seed"] + 0.5), "header.seed"),
    "variant_out_of_range": (lambda h, f: h.update(variant=7), "line 1: "),
    "t_string": (lambda h, f: f.update(t="1e3"), "frame.t"),
    "label_int": (lambda h, f: f["detections"][0].update(label=7),
                  "frame.detections[].label"),
    "q_nested": (lambda h, f: f.update(q=[f["q"]]), "frame.q[]"),
    "frame_unknown_key": (lambda h, f: f.update(depth_scale=1.0), "depth_scale"),
    "box_huge": (lambda h, f: f["detections"][0].update(box=[1e308, 100, 1.7e308, 120]),
                 "detection box"),
    "box_reversed_off_image": (lambda h, f: f["detections"][0].update(
        box=[5000, 100, 4000, 120]), "detection box"),
    "box_reversed": (lambda h, f: f["detections"][0].update(box=[300, 100, 200, 120]),
                     "detection box"),
}

# Detection boxes that are not ordered inside the image.
BAD_BOXES = ["box_huge", "box_reversed_off_image", "box_reversed"]


def _corrupt(lines, what):
    if what == "nested":
        return [NESTED] + lines[1:]
    header, frame = json.loads(lines[0]), json.loads(lines[1])
    rect = frame["depth"][0]
    if what in RETYPED:
        RETYPED[what][0](header, frame)
    elif what == "scenario":
        header["scenario"] = "kitchen"
    elif what == "values_length":
        rect.pop()
    elif what == "box_outside":
        rect[0], rect[2] = rect[0] + 640, rect[2] + 640
    elif what == "q_nan":
        frame["q"][3] = float("nan")
    elif what == "box_inf":
        frame["detections"][0]["box"][2] = float("inf")
    elif what == "K_nan":
        header["K"]["fx"] = float("nan")
    elif what == "K_overflow":
        header["K"]["fx"] = 10 ** 400  # an integer literal no float can hold
    elif what == "seed_negative":
        header["seed"] = -1
    elif what == "old_layout":
        _old_layout(header, frame)
    else:
        frame["far"] = float("nan")
    return [json.dumps(header), json.dumps(frame)] + lines[2:]


@pytest.mark.parametrize("what", ["scenario", "values_length", "box_outside", "far_nan", "q_nan",
                                  "box_inf", "K_nan", "K_overflow", "seed_negative",
                                  "old_layout", "nested", *RETYPED])
def test_infer_malformed_episode_exit_2(what, tmp_path, workspace):
    lines = workspace["episode"].read_text().splitlines()
    episode = tmp_path / "bad.jsonl"
    episode.write_text("\n".join(_corrupt(lines, what)) + "\n")
    _assert_refused(_run(_infer_argv(workspace, episode, tmp_path / "o.json")), 2,
                    "MalformedEpisode", [RETYPED.get(what, (None, ""))[1]], tmp_path,
                    ["bad.jsonl"])


@pytest.mark.parametrize("what", BAD_BOXES)
def test_graph_refuses_detection_boxes_outside_the_image(what, tmp_path, workspace):
    """A box whose centre is infinite, or off the image, is refused before
    any graph is written, not back-projected at an edge pixel's depth."""
    lines = workspace["episode"].read_text().splitlines()
    episode = tmp_path / "bad.jsonl"
    episode.write_text("\n".join(_corrupt(lines, what)) + "\n")
    _assert_refused(_run(["graph", "--episode", str(episode),
                          "--out", str(tmp_path / "graphs.jsonl")]),
                    2, "MalformedEpisode", ["line 2: detection box"], tmp_path, ["bad.jsonl"])


def test_malformed_episode_names_its_line(tmp_path, workspace):
    """A bad frame in the middle of an episode is named by its line number."""
    lines = workspace["episode"].read_text().splitlines()
    middle = len(lines) // 2
    frame = json.loads(lines[middle])
    frame["q"] = [frame["q"]]
    lines[middle] = json.dumps(frame)
    episode = tmp_path / "bad.jsonl"
    episode.write_text("\n".join(lines) + "\n")
    _assert_refused(_run(_infer_argv(workspace, episode, tmp_path / "o.json")), 2,
                    "MalformedEpisode", [f"line {middle + 1}: ", "frame.q[]"], tmp_path,
                    ["bad.jsonl"])


def _number_slots(doc):
    """(container, key) of every number in a parsed JSON document."""
    slots = []
    for key, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(v, (dict, list)):
            slots += _number_slots(v)
        elif type(v) in (int, float):
            slots.append((doc, key))
    return slots


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_corrupt_episode_line_exit_contract(data, workspace):
    """One corrupted line (header or frame) ends in exit 0, 2 or 3; a failure
    leaves exactly one JSON line on stderr and no output file. A number
    retyped as its string form or as true, or a value nested in more lists
    than the decoder follows, always exits 2."""
    lines = workspace["episode"].read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    rec = json.loads(lines[i])
    kinds = ["drop_key", "truncate", "retype"] + (["scenario"] if i == 0 else
                                                  ["values", "box", "far", "q"]) + ["nest"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
    elif kind == "nest":  # written by hand: json.dumps cannot nest this deep either
        key = data.draw(st.sampled_from(sorted(rec)), label="key")
        depth = data.draw(st.integers(10_000, 100_000), label="depth")
        value = "[" * depth + json.dumps(rec.pop(key)) + "]" * depth
        lines[i] = json.dumps(rec)[:-1] + f", {json.dumps(key)}: {value}}}"
    else:
        if kind == "drop_key":
            del rec[data.draw(st.sampled_from(sorted(rec)))]
        elif kind == "retype":
            doc, key = data.draw(st.sampled_from(_number_slots(rec)), label="number")
            doc[key] = data.draw(st.sampled_from([str(doc[key]), True]), label="as")
        elif kind == "scenario":
            rec["scenario"] = data.draw(st.text(max_size=8))
        elif kind == "far":
            rec["far"] = data.draw(st.floats(allow_nan=True, allow_infinity=True))
        elif kind == "q":
            rec["q"][data.draw(st.integers(0, len(rec["q"]) - 1))] = data.draw(
                st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        else:
            rects = rec["depth"]
            rect = rects[data.draw(st.integers(0, len(rects) - 1))]
            if kind == "values":
                rect[:] = (rect * 2)[:data.draw(st.integers(0, len(rect) + 3))]
            else:
                rect[data.draw(st.integers(0, 3))] = data.draw(st.integers(-700, 1300))
        lines[i] = json.dumps(rec)
    with tempfile.TemporaryDirectory() as tmp:
        episode, out = os.path.join(tmp, "ep.jsonl"), os.path.join(tmp, "o.json")
        with open(episode, "w") as f:
            f.write("\n".join(lines) + "\n")
        result = code, _, _ = _run(_infer_argv(workspace, episode, out))
        event(f"{kind}: exit {code}")
        assert code in ((2,) if kind in ("retype", "nest") else (0, 2, 3))
        if code:
            _assert_refused(result, code, folder=tmp, left=["ep.jsonl"])
        assert os.path.exists(out) == (code == 0)


def _edit_artifact(src, dst, edit):
    """Copy the artifact src to dst with edit(header, arrays) applied to its
    members: the decoded JSON header, and the arrays by name in file order."""
    with np.load(src, allow_pickle=False) as npz:
        header = json.loads(npz["header"].item())
        arrays = {name: npz[name] for name in npz.files[1:]}
    edit(header, arrays)
    with open(dst, "wb") as f:
        np.savez(f, header=np.array(json.dumps(header)), **arrays)
    return dst


def _set(arrays, name, index, value):
    arrays[name][index] = value


# (artifact, edit of its header and arrays, config override, error, word in the message)
ARTIFACT_CASES = {
    "cot_w2_columns": ("head", lambda h, a: a.update(w2=a["w2"][:, :10]), {},
                       "ShapeMismatch", "w2"),
    "cot_window": ("head", lambda h, a: h.update(window=4), {}, "ShapeMismatch", "w1"),
    "cot_emb_rows": ("head", lambda h, a: a.update(emb=a["emb"][:-1]), {}, "ShapeMismatch",
                     "emb"),
    "cot_tokens_not_a_list": ("head", lambda h, a: h.update(tokens=5), {}, "ArtifactLoadError",
                              "int"),
    "cot_window_zero": ("head", lambda h, a: h.update(window=0), {}, "InvalidSetting",
                        "window"),
    "cot_vocab_without_pad": ("head", lambda h, a: h["tokens"].__setitem__(0, "pad"), {},
                              "UnknownToken", "<pad>"),
    "expert_negative_sigma": ("expert", lambda h, a: h.update(sigma=-1.0), {},
                              "InvalidSetting", "sigma"),
    "expert_w3_columns": ("expert", lambda h, a: a.update(w3=a["w3"][:, :-1]), {},
                          "ShapeMismatch", "w3"),
    "expert_horizon": ("expert", lambda h, a: h.update(horizon=29), {}, "ShapeMismatch", "w1"),
    "expert_horizon_fraction": ("expert", lambda h, a: h.update(horizon=29.5), {},
                                "ArtifactLoadError", "horizon"),
    "expert_extra_member": ("expert", lambda h, a: a.update(bogus=np.zeros(2)), {},
                            "ArtifactLoadError", "FlowExpert: unknown member(s) ['bogus']"),
    "expert_missing_array": ("expert", lambda h, a: a.pop("b2"), {}, "ArtifactLoadError",
                             "b2"),
    "expert_int64_array": ("expert", lambda h, a: a.update(b3=a["b3"].astype(np.int64)), {},
                           "ArtifactLoadError", "int64"),
    "expert_header_missing_key": ("expert", lambda h, a: h.pop("sigma"), {},
                                  "ArtifactLoadError", "sigma"),
    "expert_header_unknown_key": ("expert", lambda h, a: h.update(learning_rate=0.05), {},
                                  "ArtifactLoadError", "learning_rate"),
    "expert_sigma_bool": ("expert", lambda h, a: h.update(sigma=True), {}, "ArtifactLoadError",
                          "FlowExpert.sigma"),
    "expert_horizon_float": ("expert", lambda h, a: h.update(horizon=30.0), {},
                             "ArtifactLoadError", "FlowExpert.horizon"),
    "config_flow_horizon": (None, None, {"flow_horizon": 3}, "ArtifactMismatch",
                            "expert horizon 4 does not match config action_terms 3"),
    "expert_30_step_chunk": ("expert", lambda h, a: (h.update(horizon=30), a.update(
        w1=np.zeros((30 * 14 + 49, 64)), w3=np.zeros((64, 30 * 14)), b3=np.zeros(30 * 14))), {},
        "ArtifactMismatch", "expert horizon 30 does not match config action_terms 4"),
    "config_gnn_dims": (None, None, {"gnn_dims": (16, 16, 32)}, "ArtifactMismatch", "gnn dims"),
    "config_cot_window": (None, None, {"cot_window": 4}, "ArtifactMismatch", "window"),
    "config_sigma": (None, None, {"sigma": 0.5}, "ArtifactMismatch", "sigma"),
    "config_one_chain": (None, None, {"chains": default_config().chains[:1]}, "ArtifactMismatch",
                         "expert j_dim 14 does not match config j_total 7"),
    "expert_context_dim": ("expert", lambda h, a: (h.update(context_dim=47),
                                                   a.update(w1=a["w1"][:-1])), {},
                           "ArtifactMismatch", "expert context_dim 47"),
    "cot_context_dim": ("head", lambda h, a: (h.update(context_dim=47), a.update(wc=a["wc"][:-1])),
                        {}, "ArtifactMismatch", "cot head context_dim 47"),
    "gnn_nan": ("gnn", lambda h, a: _set(a, "layer2_b", 0, float("nan")), {},
                "NonFiniteWeight", "layer2_b"),
    "expert_nan": ("expert", lambda h, a: _set(a, "w3", (0, 0), float("nan")), {},
                   "NonFiniteWeight", "w3"),
    "cot_inf": ("head", lambda h, a: _set(a, "emb", (0, 0), float("inf")), {},
                "NonFiniteWeight", "emb"),
}


@pytest.mark.parametrize("case", sorted(ARTIFACT_CASES))
def test_infer_checks_artifacts_before_first_frame(case, tmp_path, workspace):
    """A wrong-shape artifact, or one that disagrees with the config, exits 2
    with a named mismatch and writes nothing."""
    kind, edit, overrides, error, word = ARTIFACT_CASES[case]
    paths = {k: workspace[k] for k in ("gnn", "expert", "head")}
    if kind is not None:
        paths[kind] = _edit_artifact(paths[kind], tmp_path / f"{kind}.json", edit)
    cfg_path = tmp_path / "cfg.json"
    cfg = default_config()
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.save(cfg_path)
    argv = ["infer", "--episode", str(workspace["episode"]), "--gnn", str(paths["gnn"]),
            "--expert", str(paths["expert"]), "--cot-head", str(paths["head"]),
            "--config", str(cfg_path), "--out", str(tmp_path / "o.json")]
    _assert_refused(_run(argv), 2, error, [word], tmp_path,
                    ["cfg.json"] + ([f"{kind}.json"] if kind else []))


@pytest.mark.parametrize("fault", ["d_out", "nan", "nested"])
@pytest.mark.parametrize("command", ["train-expert", "train-cot"])
def test_train_checks_gnn_before_first_frame(command, fault, tmp_path, workspace, monkeypatch):
    """A --gnn file whose d_out differs from the config's gnn_dims, that
    holds a NaN, or whose header is nested too deep to decode exits 2 with a
    named error before any episode is read, and writes nothing."""
    gnn = tmp_path / "gnn.npz"
    if fault == "d_out":
        init_gnn_weights(make_rng(0), d=32, h=32, d_out=16).save(gnn)
    elif fault == "nested":
        np.savez(gnn, header=np.array(NESTED))
    else:
        _edit_artifact(workspace["gnn"], gnn,
                       lambda h, a: _set(a, "lift_w", (0, 0), float("nan")))
    monkeypatch.setattr(cli, "load_episode", lambda path: pytest.fail("an episode was read"))
    error = {"d_out": "ArtifactMismatch", "nan": "NonFiniteWeight",
             "nested": "ArtifactLoadError"}[fault]
    _assert_refused(_run(_valid_argv(command, workspace, tmp_path / "o.npz") + ["--gnn", str(gnn)]),
                    2, error, folder=tmp_path, left=["gnn.npz"])


@pytest.mark.parametrize("case", ["config_and_destination", "gnn_and_expert"])
def test_the_first_input_read_names_the_fault(case, tmp_path, workspace):
    """With two faults, the input read first is the one refused: the config
    before the destinations, and each artifact as it is read, so a NaN GNN
    is named before a missing expert file."""
    if case == "config_and_destination":
        doc = to_json(default_config())
        doc.pop("sigma")
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        (tmp_path / "o.npz").mkdir()
        argv = ["init-weights", "--kind", "gnn", "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "o.npz")]
        error = "ConfigLoadError"
    else:
        gnn = _edit_artifact(workspace["gnn"], tmp_path / "gnn.npz",
                             lambda h, a: _set(a, "lift_w", (0, 0), float("nan")))
        argv = _infer_argv(workspace, workspace["episode"], tmp_path / "o.json")
        argv[argv.index("--gnn") + 1] = str(gnn)
        argv[argv.index("--expert") + 1] = str(tmp_path / "missing.npz")
        error = "NonFiniteWeight"
    before = _tree(tmp_path)
    _assert_refused(_run(argv), 2, error)
    assert _tree(tmp_path) == before


def test_train_gnn_file_equals_the_gnn_derived_from_seed(tmp_path, workspace):
    """--gnn with init-weights --kind gnn --seed S trains the same bytes as
    no --gnn at --seed S: weights, loss CSV and the dumped dataset."""
    gnn = tmp_path / "gnn.npz"
    assert main(["init-weights", "--kind", "gnn", "--seed", "5", "--out", str(gnn)]) == 0
    data = ["--data", str(workspace["data"]), "--seed", "5"]
    for argv in (["train-expert", *data, "--steps", "4", "--batch", "4"],
                 ["train-cot", *data, "--epochs", "2", "--stride", "2"]):
        files = {}
        for side, extra in (("seed", []), ("file", ["--gnn", str(gnn)])):
            out = tmp_path / argv[0] / side
            out.mkdir(parents=True)
            dump = ["--dump-dataset", str(out / "data.jsonl")] if argv[0] == "train-cot" else []
            assert main(argv + extra + dump + ["--out", str(out / "w.npz")]) == 0
            files[side] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(files["seed"]) == 2 + len(dump) // 2
        assert files["seed"] == files["file"]


def _episode_argv(command, workspace, episode, out):
    """command run on the one episode file episode."""
    if command == "graph":
        return ["graph", "--episode", str(episode), "--out", str(out)]
    if command == "infer":
        return _infer_argv(workspace, episode, out)
    return ["train-expert", "--data", str(episode.parent), "--steps", "1", "--out", str(out)]


def _depth_holed(episode, out):
    """episode copied to out with an invalid-depth square over frame 0's
    first box centre, so that detection gets no graph node."""
    lines = episode.read_text().splitlines()
    frame = json.loads(lines[1])
    x0, y0, x1, y1 = frame["detections"][0]["box"]
    cx, cy = round((x0 + x1) / 2), round((y0 + y1) / 2)
    frame["depth"].append([cx - 3, cy - 3, cx + 4, cy + 4, 0.0])
    out.write_text("\n".join([lines[0], json.dumps(frame), *lines[2:]]) + "\n")
    return out


@pytest.mark.parametrize("command", ["graph", "infer"])
def test_a_skipped_object_is_counted_on_stdout_with_stderr_empty(command, tmp_path, workspace):
    """A detection with no valid depth at its box centre gets no node: the
    command exits 0, says how many it skipped on its summary line, and
    leaves stderr empty."""
    episode = _depth_holed(workspace["episode"], tmp_path / "holed.jsonl")
    out = tmp_path / "out.jsonl"
    code, stdout, stderr = _run(_episode_argv(command, workspace, episode, out),
                                fresh_process=True)
    assert (code, stderr) == (0, "")
    assert stdout.rstrip("\n").endswith("; 1 object(s) skipped for no valid depth")
    if command == "graph":
        kinds = [[n["kind"] for n in json.loads(line)["nodes"]]
                 for line in out.read_text().splitlines()]
        assert [k.count("object") for k in kinds] == [3, 4, 4, 4, 4, 4]


def test_graph_checks_its_file_before_reading_the_episode(tmp_path):
    """--out naming a directory exits 3 even when --episode is missing."""
    (tmp_path / "graphs").mkdir()
    _assert_refused(_run(["graph", "--episode", str(tmp_path / "missing.jsonl"),
                          "--out", str(tmp_path / "graphs")]),
                    3, "IsADirectoryError", ["graphs"], tmp_path, ["graphs"])


@pytest.mark.parametrize("lines", [0, 1], ids=["empty", "header_only"])
@pytest.mark.parametrize("command", ["graph", "infer", "train-expert"])
def test_empty_episode_exits_2(command, lines, tmp_path, workspace):
    episode = tmp_path / "data" / "ep.jsonl"
    episode.parent.mkdir()
    episode.write_text("".join(workspace["episode"].read_text().splitlines(True)[:lines]))
    err = _assert_refused(_run(_episode_argv(command, workspace, episode, tmp_path / "out")),
                          2, "EmptyEpisode", folder=tmp_path, left=["data"])
    assert err["message"].endswith(("is empty", "has no frames")[lines])


# line 4 of an episode broken: cut short, or holding a byte that is not UTF-8
NOT_JSON_LINES = {"cut_short": (lambda line: line[:40] + b"\n", "JSONDecodeError"),
                  "not_utf8": (lambda line: line[:20] + b"\xff" + line[21:], "UnicodeDecodeError")}


@pytest.mark.parametrize("case", sorted(NOT_JSON_LINES))
@pytest.mark.parametrize("command", ["graph", "infer", "train-expert"])
def test_an_episode_line_that_is_not_json_exits_3_naming_its_line(command, case, tmp_path,
                                                                  workspace):
    """An episode line that is not JSON text, as a cut-short line or one that
    is not UTF-8 is, exits 3 under its own error name, with the file and its
    1-based line named, as a malformed line is (exit 2)."""
    lines = workspace["episode"].read_bytes().splitlines(True)
    edit, error = NOT_JSON_LINES[case]
    episode = tmp_path / "data" / "ep.jsonl"
    episode.parent.mkdir()
    episode.write_bytes(b"".join([*lines[:3], edit(lines[3]), *lines[4:]]))
    _assert_refused(_run(_episode_argv(command, workspace, episode, tmp_path / "out")), 3,
                    error, [f"{episode}: line 4"], tmp_path, ["data"])


def test_a_config_that_is_not_utf8_exits_3(tmp_path):
    """A config that is not UTF-8 (here opening with a UTF-16 byte-order
    mark) is not JSON text: it exits 3, as a config that is not JSON does,
    naming the config and its path."""
    (tmp_path / "cfg.json").write_bytes(b"\xff\xfe{}")
    _assert_refused(_run(["gen", "--scenario", "food", "--variant", "0", "--config",
                          str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]),
                    3, "UnicodeDecodeError", ["0xff", f"(config {tmp_path / 'cfg.json'})"],
                    tmp_path, ["cfg.json"])


def test_a_config_that_is_not_json_exits_3_naming_it(tmp_path):
    (tmp_path / "cfg.json").write_text('{"sigma": 1.0,')
    err = _assert_refused(_run(["gen", "--scenario", "food", "--variant", "0", "--config",
                                str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]),
                          3, "JSONDecodeError", [], tmp_path, ["cfg.json"])
    assert err["message"] == (f"config {tmp_path / 'cfg.json'}: Expecting property name "
                              "enclosed in double quotes: line 1 column 15 (char 14)")


@pytest.mark.parametrize("command", ["train-expert", "train-cot"])
def test_data_without_episode_files_exits_2(command, tmp_path):
    (tmp_path / "notes.txt").write_text("no episodes here\n")
    _assert_refused(_run([command, "--data", str(tmp_path), "--out", str(tmp_path / "o.npz")]),
                    2, "InvalidSetting", ["*.jsonl"], tmp_path, ["notes.txt"])


def test_infer_refuses_non_finite_output(tmp_path, workspace):
    """A finite but huge expert overflows to NaN chunks: infer exits 2 with
    one JSON line on stderr (no numpy warning beside it) and writes nothing."""
    expert = tmp_path / "expert.npz"
    _edit_artifact(workspace["expert"], expert, lambda h, a: a["w3"].fill(1e308))
    argv = _infer_argv({**workspace, "expert": expert}, workspace["episode"], tmp_path / "o.json")
    err = _assert_refused(_run(argv, fresh_process=True), 2, "NonFiniteOutput",
                          folder=tmp_path, left=["expert.npz"])
    assert err["message"] == "expert chunk of frame 0 has a non-finite entry"


def _overflowing_fk(doc):
    """Two of the first arm's link offsets at 1e308: FK overflows."""
    for link in (0, 2):
        doc["chains"][0]["links"][link]["d"] = 1e308


# (edit of the default config's JSON, command line from the workspace and
# tmp_path, message): each command's file would hold an Infinity or a NaN.
NON_FINITE_WRITES = {
    "gen": (lambda d: d.update(camera_rate_hz=1e-308),  # frame 2's t = 2 / 1e-308
            lambda w, tmp: ["gen", "--scenario", "food", "--variant", "0", "--frames", "3"],
            "episode frame 2 has a non-finite entry"),
    "graph": (_overflowing_fk, lambda w, tmp: ["graph", "--episode", str(w["episode"])],
              "graph of frame 0 has a non-finite entry"),
    "train-cot": (_overflowing_fk,
                  lambda w, tmp: ["train-cot", "--data", str(w["data"]), "--epochs", "1",
                                  "--dump-dataset", str(tmp / "dump.jsonl")],
                  "dataset sample 0 has a non-finite entry"),
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_WRITES))
def test_non_finite_json_output_is_refused(command, tmp_path, workspace):
    """A number strict JSON cannot carry is refused before its file is put
    in place (graph's streamed file is opened first, as a temporary):
    exit 2, one JSON line on stderr, and no file left behind."""
    edit, argv, message = NON_FINITE_WRITES[command]
    doc = to_json(default_config())
    edit(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = _assert_refused(_run([*argv(workspace, tmp_path), "--config", str(cfg),
                                "--out", str(tmp_path / "out")], fresh_process=True),
                          2, "NonFiniteOutput", folder=tmp_path, left=["cfg.json"])
    assert err["message"] == message


@pytest.mark.parametrize("command,argv,word", [
    ("train-expert", ["--lr", "1e3", "--steps", "50"], "step"),
    ("train-cot", ["--lr", "1e308", "--epochs", "5"], "epoch")])
def test_train_refuses_non_finite_loss(command, argv, word, tmp_path, workspace):
    """A diverging run exits 2 naming the step or epoch whose loss is not
    finite, and leaves neither an artifact, a loss CSV nor a dataset dump."""
    if command == "train-cot":
        argv = argv + ["--dump-dataset", str(tmp_path / "d.jsonl")]
    err = _assert_refused(_run([command, "--data", str(workspace["data"]), *argv,
                                "--out", str(tmp_path / "o.npz")]),
                          2, "NonFiniteOutput", folder=tmp_path)
    assert err["message"].split(" at ")[1].startswith(word)


def test_graph_refused_at_a_later_frame_writes_no_graph(tmp_path):
    """Two huge link offsets make frame 71's graph, in the third block, not
    finite: graph exits 2 and leaves no file, not even the 71 graph lines
    before it."""
    data = tmp_path / "data"
    assert main(["gen", "--scenario", "food", "--variant", "0", "--frames", "90", "--seed", "1",
                 "--out", str(data)]) == 0
    doc = to_json(default_config())
    for link in (3, 5):
        doc["chains"][0]["links"][link]["a"] = 9.63076923076923e+307
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    err = _assert_refused(_run(["graph", "--episode", str(data / "food_v0_000.jsonl"),
                                "--config", str(tmp_path / "cfg.json"),
                                "--out", str(tmp_path / "graphs.jsonl")]),
                          2, "NonFiniteOutput", folder=tmp_path, left=["cfg.json", "data"])
    assert err["message"] == "graph of frame 71 has a non-finite entry"


def test_gen_refused_at_a_later_episode_writes_no_episode(tmp_path):
    """With the camera low over the table, the third of four episodes puts an
    object behind it: gen exits 2 and leaves neither of the first two."""
    cfg = default_config()
    cfg.extrinsics = look_at(eye=(0.45, -0.15, 0.3), target=(1.45, -0.15, 0.3))
    cfg.save(tmp_path / "cfg.json")
    _assert_refused(_run(["gen", "--scenario", "food", "--variant", "0", "--episodes", "4",
                          "--frames", "2", "--seed", "4", "--config", str(tmp_path / "cfg.json"),
                          "--out", str(tmp_path / "episodes")]),
                    2, "BehindCamera", ["behind the head camera"], tmp_path, ["cfg.json"])


def _tree(root) -> dict:
    """Every path under root, relative: a file's bytes, None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


def _must_not_run(name):
    def work(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return work


# command -> (the function in cli that does its work, the name of its first
# file under --out, or None when --out names the file itself)
COMMAND_WORK = {"gen": ("gen_episode", "food_v0_000.jsonl"),
                "graph": ("episode_graphs", None),
                "init-weights": ("init_gnn_weights", None),
                "train-expert": ("train_step", None),
                "train-cot": ("train_cot_head", None),
                "infer": ("run_inference_loop", None)}


@pytest.mark.parametrize("case", ["directory", "under_a_file", "missing_directory"])
@pytest.mark.parametrize("command", sorted(COMMAND_WORK))
def test_a_bad_destination_costs_no_work(command, case, tmp_path, workspace, monkeypatch):
    """Destinations are checked before the work: a first file that is a
    directory, or one under a regular file, exits 3 with the work not run
    and the folder as it was; a missing --out directory is made."""
    work, first = COMMAND_WORK[command]
    if case == "missing_directory":
        out = tmp_path / "new" / "dir" / ("out" if first else "o.npz")
        code, _, stderr = _run(_valid_argv(command, workspace, out))
        assert code == 0, stderr
        assert (out / first if first else out).is_file()
        return
    monkeypatch.setattr(cli, work, _must_not_run(work))
    (tmp_path / "file").write_text("a regular file\n")
    if case == "directory":
        out = tmp_path / "out" if first else tmp_path / "o.npz"
        (out / first if first else out).mkdir(parents=True)
    else:
        out = tmp_path / "file" if first else tmp_path / "file" / "o.npz"
    before = _tree(tmp_path)
    _assert_refused(_run(_valid_argv(command, workspace, out)), 3,
                    {"directory": "IsADirectoryError", "under_a_file": "NotADirectoryError"}[case])
    assert _tree(tmp_path) == before


# (command, the input its output names): the config, an artifact, the
# episode, or an episode under --data
OWN_INPUTS = [("gen", "--config"), ("graph", "--episode"), ("init-weights", "--config"),
              ("train-expert", "--gnn"), ("train-expert", "--data"), ("train-cot", "--data"),
              ("infer", "--episode"), ("infer", "--gnn"), ("infer", "--expert"),
              ("infer", "--cot-head")]


@pytest.mark.parametrize("command, flag", OWN_INPUTS)
def test_no_command_overwrites_its_own_input(command, flag, tmp_path, workspace, monkeypatch):
    """An output that names one of the command's input files exits 2 before
    the work, naming the output, and the input keeps its bytes."""
    work, first = COMMAND_WORK[command]
    monkeypatch.setattr(cli, work, _must_not_run(work))
    w = {k: tmp_path / os.path.relpath(v, workspace["root"]) for k, v in workspace.items()}
    shutil.copytree(workspace["data"], w["data"])
    for k in ("gnn", "expert", "head"):
        shutil.copy(workspace[k], w[k])
    w["config"] = tmp_path / "out" / (first or "cfg.json")
    w["config"].parent.mkdir()
    default_config().save(w["config"])
    target = w[{"--config": "config", "--episode": "episode", "--data": "episode",
                "--gnn": "gnn", "--expert": "expert", "--cot-head": "head"}[flag]]
    argv = _valid_argv(command, w, target.parent if first else target)
    if flag == "--config" or (flag == "--gnn" and command != "infer"):
        argv += [flag, str(target)]
    before = target.read_bytes()
    _assert_refused(_run(argv), 2, "InvalidSetting",
                    [f"an output names an input file: {target}"])
    assert target.read_bytes() == before


@pytest.mark.parametrize("dump", ["h.npz", "h.loss.csv"], ids=["weights", "loss_csv"])
def test_train_cot_refuses_a_dump_over_another_output(dump, tmp_path, workspace, monkeypatch):
    """--dump-dataset naming the head or its loss CSV exits 2 before
    training, naming the path, instead of replacing the trained file."""
    monkeypatch.setattr(cli, "train_cot_head", _must_not_run("train_cot_head"))
    _assert_refused(_run(["train-cot", "--data", str(workspace["data"]), "--dump-dataset",
                          str(tmp_path / dump), "--out", str(tmp_path / "h.npz")]),
                    2, "InvalidSetting", ["two outputs name one file", dump], tmp_path)


def test_an_unwritable_loss_csv_leaves_no_weights(tmp_path, workspace):
    """train-expert whose loss CSV path is a directory exits 3 and does not
    leave the weight file beside it."""
    (tmp_path / "pw" / "e.loss.csv").mkdir(parents=True)
    before = _tree(tmp_path)
    _assert_refused(_run(["train-expert", "--data", str(workspace["data"]), "--steps", "2",
                          "--out", str(tmp_path / "pw" / "e.npz")]),
                    3, "IsADirectoryError", ["e.loss.csv"])
    assert _tree(tmp_path) == before


def test_an_unwritable_episode_leaves_no_episode(tmp_path):
    """gen --episodes 3 whose second episode path is a directory exits 3 and
    does not leave the first episode."""
    (tmp_path / "gw" / "food_v0_001.jsonl").mkdir(parents=True)
    before = _tree(tmp_path)
    _assert_refused(_run(["gen", "--scenario", "food", "--variant", "0", "--episodes", "3",
                          "--frames", "2", "--out", str(tmp_path / "gw")]),
                    3, "IsADirectoryError", ["food_v0_001.jsonl"])
    assert _tree(tmp_path) == before


def test_train_cot_stops_at_the_first_non_finite_epoch(tmp_path, workspace, monkeypatch):
    """Epoch 1's loss is not finite, so the run stops after two epochs of
    its two samples instead of training all 50 epochs on NaN weights."""
    real, calls = CotHead.loss_and_grads, []

    def counted(head, *rest):
        calls.append(1)
        return real(head, *rest)

    monkeypatch.setattr(CotHead, "loss_and_grads", counted)
    err = _assert_refused(_run(["train-cot", "--data", str(workspace["data"]), "--lr", "1e308",
                                "--epochs", "50", "--out", str(tmp_path / "o.npz")]),
                          2, "NonFiniteOutput", folder=tmp_path)
    assert err["message"] == "cot loss at epoch 1 has a non-finite entry"
    assert len(calls) == 2 * len(os.listdir(workspace["data"]))


@pytest.mark.parametrize("command,train,argv", [("train-expert", "train_step", ["--steps", "1"]),
                                                ("train-cot", "train_cot_head", ["--epochs", "1"])])
def test_train_refuses_non_finite_parameter(command, train, argv, tmp_path, workspace,
                                            monkeypatch):
    """A trained parameter that is not finite behind finite losses stops the
    command before anything is saved."""
    real = getattr(cli, train)

    def planted(model, *rest):
        result = real(model, *rest)
        model.b2[0] = np.inf
        return result

    monkeypatch.setattr(cli, train, planted)
    _assert_refused(_run([command, "--data", str(workspace["data"]), *argv,
                          "--out", str(tmp_path / "o.npz")]),
                    2, "NonFiniteOutput", ["parameter b2"], tmp_path)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzz_damaged_artifact_exit_contract(data, workspace):
    """An artifact cut short or with one byte changed ends in exit 0, 2 or 3;
    a failure leaves exactly one JSON line on stderr and no output file."""
    kind = data.draw(st.sampled_from(["gnn", "expert", "head"]), label="artifact")
    blob = bytearray(workspace[kind].read_bytes())
    # Zip structure sits in the first and last bytes; the middle is array data.
    n = len(blob)
    offset = data.draw(st.one_of(st.integers(0, 511), st.integers(n - 1024, n - 1),
                                 st.integers(0, n - 1)), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        del blob[offset:]
    else:
        blob[offset] ^= data.draw(st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as tmp:
        artifact, out = os.path.join(tmp, "artifact.json"), os.path.join(tmp, "o.json")
        with open(artifact, "wb") as f:
            f.write(blob)
        result = code, _, _ = _run(_infer_argv({**workspace, kind: artifact},
                                               workspace["episode"], out))
        event(f"exit {code}")
        assert code in (0, 2, 3)
        if code:
            _assert_refused(result, code, folder=tmp, left=["artifact.json"])
        assert os.path.exists(out) == (code == 0)
