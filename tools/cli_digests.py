"""Print a same-bytes listing of the graphact CLI: run a fixed matrix of
commands and list each one's exit code, stdout and stderr digests, and the
sha256 of every file the matrix leaves.

Usage: python3 tools/cli_digests.py SRC WORKDIR

SRC is the directory holding the graphact package (a checkout's src/), and
WORKDIR a directory the matrix may fill; it is emptied first. The first line
is the kernel fingerprint, as this checkout's graphact.cli.kernel_fingerprint
reads it whatever SRC is: the OpenBLAS core and config, numpy's version and
its enabled SIMD dispatch targets. The digests hold for those kernels; another
core or dispatch rounds products otherwise. Every command
runs in its own process at OPENBLAS_NUM_THREADS=1, with WORKDIR written as W
in every digest. infer's stdout carries wall-clock timings and is left out,
but a summary line that counts skipped objects is listed whole, its
timings masked. Two checkouts give the same bytes when `diff` of their listings is empty.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

OWN_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Configs other than the built-in rig, by file name: a shorter action chunk and
# reasoning window, noise-free flow training (sigma 0, where eps is all +0.0),
# and token embeddings too wide for the head's whole vocabulary (refused).
CONFIGS = {
    "small.json": "c.flow_horizon, c.cot_window, c.gnn_dims = 10, 4, (16, 16, 16)",
    "sigma0.json": "c.sigma = 0.0",
    "wide_vocab.json": "c.cot_embed, c.cot_hidden = 25_000, 1",
}


def matrix(w):
    """(name, argv) of each command, in order; later commands read earlier outputs."""
    ep, small = f"{w}/data/food_v0_000.jsonl", ["--config", f"{w}/small.json"]
    train = ["--data", f"{w}/data", "--seed", "3"]
    artifacts = ["--gnn", f"{w}/gnn.npz", "--expert", f"{w}/expert_gnn.npz",
                 "--cot-head", f"{w}/cot_gnn.npz"]
    return [
        ("gen food", ["gen", "--scenario", "food", "--variant", "0", "--episodes", "2",
                      "--frames", "40", "--seed", "3", "--out", f"{w}/data"]),
        ("gen outfit", ["gen", "--scenario", "outfit", "--variant", "1", "--frames", "40",
                        "--seed", "4", "--out", f"{w}/data"]),
        ("gen small", ["gen", "--scenario", "food", "--variant", "2", "--frames", "12",
                       "--out", f"{w}/data_small", *small]),
        ("graph", ["graph", "--episode", ep, "--out", f"{w}/graphs.jsonl"]),
        ("graph paper-literal", ["graph", "--episode", ep, "--paper-literal",
                                 "--out", f"{w}/graphs_literal.jsonl"]),
        *[(f"init-weights {kind}", ["init-weights", "--kind", kind, "--seed", "3",
                                    "--out", f"{w}/init/{kind}.npz"])
          for kind in ("gnn", "expert", "cot")],
        ("init-weights gnn small", ["init-weights", "--kind", "gnn", "--seed", "5",
                                    "--out", f"{w}/small_gnn.npz", *small]),
        ("init-weights gnn as --gnn", ["init-weights", "--kind", "gnn", "--seed", "7",
                                       "--out", f"{w}/gnn.npz"]),
        ("train-expert", ["train-expert", *train, "--steps", "30", "--out", f"{w}/expert.npz"]),
        ("train-expert batch 64", ["train-expert", *train, "--steps", "10", "--batch", "64",
                                   "--out", f"{w}/expert_b64.npz"]),
        ("train-expert batch 1", ["train-expert", *train, "--steps", "10", "--batch", "1",
                                  "--out", f"{w}/expert_b1.npz"]),
        ("train-expert sigma 0", ["train-expert", *train, "--steps", "10", "--config",
                                  f"{w}/sigma0.json", "--out", f"{w}/expert_sigma0.npz"]),
        ("train-expert --gnn", ["train-expert", *train, "--steps", "30", "--gnn", f"{w}/gnn.npz",
                                "--out", f"{w}/expert_gnn.npz"]),
        ("train-expert small", ["train-expert", "--data", f"{w}/data_small", "--steps", "10",
                                "--gnn", f"{w}/small_gnn.npz", "--out", f"{w}/small_expert.npz",
                                *small]),
        ("train-cot", ["train-cot", *train, "--epochs", "3", "--stride", "10",
                       "--dump-dataset", f"{w}/cot_data.jsonl", "--out", f"{w}/cot.npz"]),
        ("train-cot --gnn", ["train-cot", *train, "--epochs", "3", "--stride", "10",
                             "--gnn", f"{w}/gnn.npz", "--out", f"{w}/cot_gnn.npz"]),
        ("train-cot small", ["train-cot", "--data", f"{w}/data_small", "--epochs", "2",
                             "--stride", "4", "--gnn", f"{w}/small_gnn.npz",
                             "--out", f"{w}/small_cot.npz", *small]),
        ("infer", ["infer", "--episode", ep, *artifacts, "--out", f"{w}/infer.json"]),
        ("infer cot-period", ["infer", "--episode", ep, *artifacts, "--cot-period", "7",
                              "--no-first-cot", "--seed", "2", "--out", f"{w}/infer_period.json"]),
        ("infer small", ["infer", "--episode", f"{w}/data_small/food_v2_000.jsonl",
                         "--gnn", f"{w}/small_gnn.npz", "--expert", f"{w}/small_expert.npz",
                         "--cot-head", f"{w}/small_cot.npz", "--out", f"{w}/infer_small.json",
                         *small]),
        ("graph depth hole", ["graph", "--episode", f"{w}/depth_hole.jsonl",
                              "--out", f"{w}/graphs_hole.jsonl"]),
        ("infer depth hole", ["infer", "--episode", f"{w}/depth_hole.jsonl", *artifacts,
                              "--out", f"{w}/infer_hole.json"]),
        ("refuse non-JSON config", ["gen", "--scenario", "food", "--variant", "0",
                                    "--config", f"{w}/not_json.json", "--out", f"{w}/refused"]),
        ("refuse non-UTF-8 config", ["gen", "--scenario", "food", "--variant", "0",
                                     "--config", f"{w}/not_utf8.json", "--out", f"{w}/refused"]),
        ("refuse wide-vocabulary config", ["gen", "--scenario", "food", "--variant", "0",
                                           "--frames", "2", "--config", f"{w}/wide_vocab.json",
                                           "--out", f"{w}/refused_wide"]),
        ("refuse cut-short episode line", ["graph", "--episode", f"{w}/cut_short.jsonl",
                                           "--out", f"{w}/refused"]),
        ("refuse non-UTF-8 episode line", ["graph", "--episode", f"{w}/not_utf8.jsonl",
                                           "--out", f"{w}/refused"]),
        ("refuse --data without episodes", ["train-expert", "--data", f"{w}/no_episodes",
                                            "--out", f"{w}/refused/e.npz"]),
        ("refuse missing artifact", ["infer", "--episode", ep, "--gnn", f"{w}/gnn.npz",
                                     "--expert", f"{w}/missing.npz", "--cot-head",
                                     f"{w}/cot_gnn.npz", "--out", f"{w}/refused/o.json"]),
        ("refuse wrong-kind artifact", ["infer", "--episode", ep, "--gnn", f"{w}/expert.npz",
                                        "--expert", f"{w}/expert_gnn.npz", "--cot-head",
                                        f"{w}/cot_gnn.npz", "--out", f"{w}/refused/o.json"]),
        ("refuse mismatched artifact", ["infer", "--episode", ep, *artifacts,
                                        "--out", f"{w}/refused/o.json", *small]),
        ("refuse --out directory", ["init-weights", "--kind", "gnn", "--out", f"{w}/data"]),
        ("refuse --out naming its --episode", ["graph", "--episode", f"{w}/depth_hole.jsonl",
                                               "--out", f"{w}/depth_hole.jsonl"]),
        ("refuse artifact with an extra member", ["infer", "--episode", ep, "--gnn",
                                                  f"{w}/gnn.npz", "--expert",
                                                  f"{w}/extra_member.npz", "--cot-head",
                                                  f"{w}/cot_gnn.npz", "--out",
                                                  f"{w}/refused/o.json"]),
        ("selfcheck", ["selfcheck"]),
    ]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, work = (os.path.abspath(a) for a in argv)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    print("kernels: " + subprocess.run(
        [sys.executable, "-c", "from graphact.cli import kernel_fingerprint; "
         "print(kernel_fingerprint())"], env=dict(env, PYTHONPATH=OWN_SRC),
        check=True, capture_output=True, text=True).stdout.strip())
    for name, edit in CONFIGS.items():
        subprocess.run([sys.executable, "-c", "from graphact import default_config; "
                        f"c = default_config(); {edit}; c.save({f'{work}/{name}'!r})"],
                       env=env, check=True)
    episode = subprocess.run(
        [sys.executable, "-c", "import sys; from graphact import SCENARIOS, default_config, "
         "episode_text, gen_episode; sys.stdout.write(episode_text(gen_episode("
         "SCENARIOS['food'], 0, 5, 3, default_config())))"],
        env=env, check=True, capture_output=True).stdout.splitlines(True)
    # Inputs that are not JSON text: a cut-short document, a config opening
    # with a UTF-16 byte-order mark, and a 5-frame episode whose line 4 is cut
    # short or holds a byte that is not UTF-8. Beside them, the episode with
    # an invalid-depth square over frame 0's first box centre.
    line, frame = episode[3], json.loads(episode[1])
    x0, y0, x1, y1 = frame["detections"][0]["box"]
    cx, cy = round((x0 + x1) / 2), round((y0 + y1) / 2)
    frame["depth"].append([cx - 3, cy - 3, cx + 4, cy + 4, 0.0])
    inputs = {"depth_hole.jsonl": b"".join([episode[0], json.dumps(frame).encode() + b"\n",
                                            *episode[2:]]),
              "not_json.json": b'{"sigma": 1.0,', "not_utf8.json": b'\xff\xfe{}',
              "cut_short.jsonl": b"".join([*episode[:3], line[:40] + b"\n", *episode[4:]]),
              "not_utf8.jsonl": b"".join([*episode[:3], line[:20] + b"\xff" + line[21:],
                                          *episode[4:]])}
    for name, data in inputs.items():
        with open(f"{work}/{name}", "wb") as f:
            f.write(data)
    os.makedirs(f"{work}/no_episodes")
    # An expert archive with one member beyond its header and parameters.
    subprocess.run([sys.executable, "-c", "import sys\nimport numpy as np\n"
                    "from graphact.cli import main\n"
                    "main(['init-weights', '--kind', 'expert', '--out', sys.argv[1]])\n"
                    "with np.load(sys.argv[1]) as npz:\n    members = dict(npz)\n"
                    "np.savez(sys.argv[1], **members, bogus=np.zeros(2))",
                    f"{work}/extra_member.npz"], env=env, check=True, capture_output=True)
    for name, args in matrix(work):
        proc = subprocess.run([sys.executable, "-m", "graphact.cli", *args], env=env,
                              capture_output=True, timeout=600)
        out, err = (s.replace(work.encode(), b"W") for s in (proc.stdout, proc.stderr))
        print(f"{name}: exit {proc.returncode}, stderr {digest(err)} "
              f"{err.decode(errors='replace').strip()}")
        if args[0] != "infer":
            print(f"{name}: stdout {digest(out)}")
        if b"skipped" in out:
            print(f"{name}: stdout {re.sub(rb'[0-9.]+ ms', b'X ms', out).decode().strip()}")
    for root, dirs, files in sorted(os.walk(work)):
        dirs.sort()
        for file in sorted(files):
            path = os.path.join(root, file)
            with open(path, "rb") as f:
                print(f"{os.path.relpath(path, work)} {digest(f.read())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
