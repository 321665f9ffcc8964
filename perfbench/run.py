"""graphact benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload offline_infer --seed 1 --seconds 35 --trace 0

The program is driven from outside only: `graphact` CLI commands in fresh
processes (`infer`, `train-expert`, `train-cot`, through perfbench/child.py)
and names exported by the `graphact` package in this process (the control
loop, fixtures and quality evaluation). Fixtures (config, episodes, seeded
weights, a 16-object scene) are built from --seed, so equal seeds give equal
inputs. Everything is written under .perfbench_work/ and removed at exit.

Every run exercises all three stages - offline `infer` commands, in-process
control-loop ticks and `train-expert`/`train-cot` commands - because every
workload reports every end-to-end metric. The workload sets the share of
the measured window each stage gets (its own stage gets most of it) and the
stages are interleaved unit by unit, so a slow host phase hits all of them.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
The lines before it are a readable report with provenance and raw figures.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# One BLAS thread in this process and every command it starts (they inherit
# the environment), set before numpy loads. The two vCPUs of a small VM change
# speed independently, so a two-thread command's time depends on both; one
# thread keeps each command on one CPU, where its in-process host probe sees
# that CPU's speed. Two threads bought no wall time for train-cot on 2 vCPUs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, HERE)
from hostprobe import probe_ms  # noqa: E402
from tracing import END, NAME, NOTE, START, UNIT, Tracer, self_times  # noqa: E402

# Share of the measured window each stage gets, per workload.
WORKLOADS = {
    "offline_infer": {"infer": 0.5, "control": 0.25, "train": 0.25},
    "control_loop": {"control": 0.5, "infer": 0.25, "train": 0.25},
    "train": {"train": 0.5, "infer": 0.25, "control": 0.25},
}
# Units every run makes whatever the window: three infer commands give a
# same-seed rerun of the first episode; eight control units give enough
# reasoning ticks for p90 with ten samples beyond it.
MIN_UNITS = {"infer": 3, "control": 8, "train": 1}
# Host-probe times the scaled figures refer to: each probe's time in the fast
# host state of a 2-vCPU VM (see hostprobe.py). They only set the scale.
PROBE_REF_MS = {"interp": 0.5, "bulk": 2.7}

TEST_FRAMES = 300        # offline_infer episodes, one per scenario
TRAIN_FRAMES = 90        # training episodes, one per scenario; 18 reasoning
                         # samples keep the trained-model numbers steady
                         # across seeds (60 frames spread them 2.5x wider)
TRAIN_STEPS = 300        # train-expert --steps
COT_STRIDE = 10          # train-cot --stride
COT_EPOCHS = 50          # train-cot default --epochs
CONTROL_OBJECTS = 16     # frustum scene, as in acceptance criterion 11
CONTROL_UNIT_S = 0.25    # control ticks per unit, by time
REASONING_EVERY = 10     # reasoning on every 10th tick
CHECK_NODES_EVERY = 50   # object-node oracle on every 50th tick
NODE_TOL_M = 1e-6

E2E_UNITS = {
    "setup_s": "s", "infer_fps": "1/s", "peak_rss_mb": "MB",
    "action_frame_ms.p50": "ms", "action_frame_ms.p99": "ms",
    "reasoning_frame_ms.p50": "ms", "reasoning_frame_ms.p90": "ms",
    "train_expert_steps_per_s": "1/s", "train_cot_samples_per_s": "1/s",
    "action_l2": "rad", "cot_token_match": "ratio",
    "expert_final_loss": "rad2", "cot_final_loss": "nats",
    "failed_ratio": "ratio",
}
# failed_ratio is 0 on a healthy run, so it is printed and carried by
# attempted/failed, not gated as a metric.
GATED_E2E = [m for m in E2E_UNITS if m != "failed_ratio"]

LAYER_UNITS = {
    "sim.load_episode.ms_per_frame": "ms",
    "sim.load_episode.alloc_mb_per_frame": "MB",
    "cli.infer.write_ms_per_frame": "ms",
    "cli.output_bytes_per_frame": "B",
    "cli.import_ms": "ms",
    "cli.artifact_load_ms": "ms",
    "cli.artifact_bytes": "B",
    "cli.weights_save_ms": "ms",
    "stream_sync.align_streams.ms": "ms",
    "stream_sync.matched_ratio": "ratio",
    "kinematics.fk_positions.ms": "ms",
    "kinematics.fk_positions.calls_per_frame": "count",
    "projection.depth_at.ms": "ms",
    "projection.depth_at.calls_per_frame": "count",
    "graph.build_graph.self_ms": "ms",
    "graph.nodes_per_frame": "count",
    "graph.objects_recovered_ratio": "ratio",
    "gnn.encode.ms": "ms",
    "gnn.graph_conv.ms": "ms",
    "gnn.normalized_adjacency.calls_per_frame": "count",
    "flow.sample_actions.ms": "ms",
    "flow.forward.ms": "ms",
    "flow.forward.calls_per_frame": "count",
    "flow.train_step.ms": "ms",
    "cot.generate_cot.ms": "ms",
    "cot.tokens_per_decode": "count",
    "cot.ms_per_token": "ms",
    "cot.decode_truncated_ratio": "ratio",
    "cot.loss_and_grads.ms": "ms",
    "inference.run_inference_loop.self_ms_per_frame": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
# Count metrics repeat exactly from run to run; they are reported apart from
# timings so that a later change can name them in advance.
COUNT_METRICS = [m for m in LAYER_UNITS
                 if m.endswith("calls_per_frame") or m in (
                     "cot.tokens_per_decode", "sim.load_episode.alloc_mb_per_frame",
                     "cli.output_bytes_per_frame", "cli.artifact_bytes",
                     "graph.nodes_per_frame")]


# Stand-in for scene objects of the control scene: render_frame reads only
# label and position.
SceneObject = collections.namedtuple("SceneObject", "label position yaw")


class Run:
    """State of one benchmark run: fixtures, samples, failures and spans."""

    def __init__(self, workload, seed, seconds, trace, work, plant_nan=False):
        import graphact as ga
        import graphact.cli
        self.ga, self.cli = ga, graphact.cli
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work, self.plant_nan = work, plant_nan
        self.tracer = Tracer()
        self.attempted = 0
        self.failures = {}
        self.units = []            # (stage, traced, wall_s, probe_ms, n_items, probe kind)
        self.probes = []           # host probe (ms) between units, this process
        self.child_probes = {}     # kind -> host probe (ms) in commands, start and end
        self.infer = []            # per infer command: dict of timings
        self.train = []            # per train command: dict of timings
        self.ticks = []            # (ms, reasoning, probe_ms)
        self.tick_matches = [0, 0]
        self.first_output = {}
        self.output_bytes = {}
        self.output_ok = {}
        self.trained = {}
        self.quality = {}
        self.errors = []           # stderr tails of commands that failed
        self.unit_bulk_probes = []  # bulk probe of each command in the current unit

    # -- bookkeeping ------------------------------------------------------
    def attempt(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures[what] = self.failures.get(what, 0) + 1

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def cli_quiet(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"fixture command failed ({rc}): {' '.join(argv)}")

    # -- fixtures ---------------------------------------------------------
    def build_fixtures(self):
        ga, seed = self.ga, self.seed
        os.makedirs(self.path("w"))
        self.cfg = ga.default_config(seed=seed)
        self.cfg_path = self.path("config.json")
        self.cfg.save(self.cfg_path)
        common = ["--config", self.cfg_path, "--seed", str(seed)]
        for scen in ("food", "outfit"):
            self.cli_quiet(["gen", "--scenario", scen, "--variant", "0", "--frames",
                            str(TEST_FRAMES), "--out", self.path("test")] + common)
            self.cli_quiet(["gen", "--scenario", scen, "--variant", "0", "--frames",
                            str(TRAIN_FRAMES), "--out", self.path("train")] + common)
        self.test_episodes = sorted(os.path.join(self.path("test"), f)
                                    for f in os.listdir(self.path("test")))
        self.train_episodes = sorted(os.path.join(self.path("train"), f)
                                     for f in os.listdir(self.path("train")))
        self.weights = {}
        for kind in ("gnn", "expert", "cot"):
            self.weights[kind] = self.path("w", kind + ".json")
            self.cli_quiet(["init-weights", "--kind", kind, "--out", self.weights[kind]]
                           + common)
        if self.plant_nan:
            expert = ga.FlowExpert.load(self.weights["expert"])
            expert.w3[0, 0] = float("nan")
            expert.save(self.weights["expert"])
        self.build_control_fixture()

    def build_control_fixture(self):
        """16-object frustum scene, one pre-rendered head frame (the scene is
        static; only the arm moves) and a 150 Hz scripted joint stream."""
        ga, cfg = self.ga, self.cfg
        rng = ga.make_rng(ga.derive_seed(self.seed, 11))
        K, T = cfg.intrinsics, cfg.extrinsics
        box = 20.0
        positions, pixels = [], []
        for _ in range(2000):
            if len(positions) == CONTROL_OBJECTS:
                break
            u = float(rng.uniform(2 * box, K.width - 2 * box))
            v = float(rng.uniform(2 * box, K.height - 2 * box))
            z = float(rng.uniform(0.5, 3.0))
            if any(abs(u - pu) <= 2 * box and abs(v - pv) <= 2 * box for pu, pv in pixels):
                continue
            positions.append(T.apply(ga.backproject((u, v), z, K)))
            pixels.append((u, v))
        objs = [SceneObject(f"o{i}", p, 0.0) for i, p in enumerate(positions)]
        self.scene = ga.Scene(objects=objs, table_bounds=((0, 1),) * 3)
        self.head_frame = ga.render_frame(self.scene, [0.0] * cfg.j_total, 0.0, K, T)
        if len(self.head_frame.detections) != CONTROL_OBJECTS:
            raise RuntimeError("control scene has fewer than 16 visible objects")
        # Scripted arm: each joint a slow sinusoid, 10 s period, well inside
        # the joint limits; one second of lead so every tick has a full
        # trailing second of joint samples.
        period, rate = 10.0, cfg.control_rate_hz
        self.ctrl = []
        for j in range(int((period + 1.0) * rate) + 1):
            t = j / rate
            self.ctrl.append((t, [0.6 * math.sin(2 * math.pi * t / period + 0.4 * i)
                                  for i in range(cfg.j_total)]))
        self.ctrl_t = [t for t, _ in self.ctrl]
        self.ctrl_period = period
        self.gnn_w = ga.GnnWeights.load(self.weights["gnn"])
        self.expert = ga.FlowExpert.load(self.weights["expert"])
        self.head = ga.CotHead.load(self.weights["cot"])
        self.vocab = set(self.head.vocab.tokens)
        self.sched_act = ga.InferenceSchedule(cot_on_first_frame=False)
        self.sched_cot = ga.InferenceSchedule(cot_on_first_frame=True)
        self.tick_index = 0
        self.node_checks = []
        self.decodes = []

    # -- stages -----------------------------------------------------------
    def run_child(self, argv, traced):
        """One CLI command in a fresh process; returns (result, launch, exit)."""
        result = self.path("child.json")
        cmd = [sys.executable, CHILD, SRC, result, "1" if traced else "0", "--"] + argv
        t_launch = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  cwd=self.work, timeout=120, text=True)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{argv[0]}: timed out")
            return None, t_launch, time.perf_counter()
        t_exit = time.perf_counter()
        if proc.returncode != 0 or not os.path.exists(result):
            self.errors.append(f"{argv[0]}: exit {proc.returncode}: {proc.stderr[-300:]}")
            return None, t_launch, t_exit
        with open(result) as f:
            res = json.load(f)
        os.remove(result)
        for kind, values in res["probes"].items():
            self.child_probes.setdefault(kind, []).extend(values)
        self.unit_bulk_probes.append(statistics.fmean(res["probes"]["bulk"]))
        return res, t_launch, t_exit

    def add_child_spans(self, res, unit_span, t_launch, t_exit):
        spans = res["spans"]
        tr = self.tracer
        tr.spans.append(["proc.startup", t_launch, res["t_start"], unit_span, tr.unit, None])
        tr.add_foreign(spans, unit_span, tr.unit)
        last = max(s[END] for s in spans)
        tr.spans.append(["proc.teardown", last, t_exit, unit_span, tr.unit, None])

    def unit_infer(self, traced, unit_span):
        n = sum(1 for u in self.units if u[0] == "infer")
        episode = self.test_episodes[n % len(self.test_episodes)]
        name = os.path.basename(episode)
        out = self.path("out_" + name.replace(".jsonl", ".json"))
        argv = ["infer", "--config", self.cfg_path, "--episode", episode,
                "--gnn", self.weights["gnn"], "--expert", self.weights["expert"],
                "--cot-head", self.weights["cot"], "--seed", str(self.seed), "--out", out]
        res, t_launch, t_exit = self.run_child(argv, traced)
        ok = res is not None and res["rc"] == 0
        if ok:
            self.add_child_spans(res, unit_span, t_launch, t_exit)
            spans = res["spans"]
            loads = [s for s in spans if s[NAME] == "sim.load_episode"]
            loop = next(s for s in spans if s[NAME] == "inference.run_inference_loop")
            frames = sum(s[NOTE]["frames"] for s in loads)
            with open(out, "rb") as f:
                data = f.read()
            digest = hashlib.sha256(data).hexdigest()
            if name not in self.first_output:
                self.first_output[name] = digest
                self.output_ok[name] = self.check_infer_output(data, frames)
                self.output_bytes[name] = (len(data), frames)
            ok = self.output_ok[name] and self.first_output[name] == digest
            if not traced:
                imported = next(s for s in spans if s[NAME] == "cli.import")
                main = next(s for s in spans if s[NAME] == "cli.infer")
                # The child's host probes run between import and the command;
                # they are left out of both the set-up and the command time.
                self.infer.append({
                    "wall": t_exit - t_launch - res["probe_s"], "frames": frames,
                    "setup": (imported[END] - t_launch) + (loop[START] - main[START])
                             - sum(s[END] - s[START] for s in loads),
                    "rss_mb": res["maxrss_kb"] / 1024.0,
                    "probe": statistics.fmean(res["probes"]["bulk"]),
                    "frame_ms": loop[NOTE]["frame_ms"]})
        self.attempt(ok, "infer")
        return 1

    def check_infer_output(self, data, frames):
        import numpy as np
        doc = json.loads(data)
        H, J = self.cfg.flow_horizon, self.cfg.j_total
        if len(doc["frames"]) != frames:
            return False
        for fr in doc["frames"]:
            a = np.asarray(fr["actions"], dtype=float)
            if a.shape != (H, J) or not np.isfinite(a).all():
                return False
            if fr["cot"] is not None and not set(fr["cot"].split()) <= self.vocab:
                return False
        return True

    def unit_train(self, traced, unit_span):
        import numpy as np
        ga = self.ga
        out_e, out_c = self.path("w", "trained_expert.json"), self.path("w", "trained_cot.json")
        common = ["--config", self.cfg_path, "--data", self.path("train"),
                  "--gnn", self.weights["gnn"], "--seed", str(self.seed)]
        n_cot = len(self.train_episodes) * len(range(0, TRAIN_FRAMES, COT_STRIDE)) * COT_EPOCHS
        jobs = [("train-expert", ["--steps", str(TRAIN_STEPS), "--out", out_e], TRAIN_STEPS, out_e),
                ("train-cot", ["--stride", str(COT_STRIDE), "--epochs", str(COT_EPOCHS),
                               "--out", out_c], n_cot, out_c)]
        for cmd, extra, work, out in jobs:
            res, t_launch, t_exit = self.run_child([cmd] + common + extra, traced)
            ok = res is not None and res["rc"] == 0
            if ok:
                self.add_child_spans(res, unit_span, t_launch, t_exit)
                spans = res["spans"]
                main = next(s for s in spans if s[NAME] == "cli." + cmd)
                first_load = min(s[START] for s in spans if s[NAME] == "sim.load_episode")
                with open(_loss_csv(out)) as f:
                    losses = [float(line.split(",")[1]) for line in f.readlines()[1:]]
                model = (ga.FlowExpert if cmd == "train-expert" else ga.CotHead).load(out)
                finite = all(np.isfinite(p).all() for _, p in model.params())
                ok = finite and all(map(math.isfinite, losses))
                self.trained.setdefault(cmd, (out, losses))
                if not traced:
                    self.train.append({"cmd": cmd, "work": work,
                                       "probe": statistics.fmean(res["probes"]["bulk"]),
                                       "seconds": main[END] - first_load})
            self.attempt(ok, cmd)
        return 2

    def unit_control(self, traced, unit_span):
        """Ticks for CONTROL_UNIT_S: align the 30 Hz head sample to the
        trailing second of 150 Hz joint samples, then one inference frame."""
        from bisect import bisect_left, bisect_right
        import numpy as np
        ga, cfg = self.ga, self.cfg
        H, J = cfg.flow_horizon, cfg.j_total
        t_stop = time.perf_counter() + CONTROL_UNIT_S
        n = 0
        checks = []
        while time.perf_counter() < t_stop or n == 0:
            k = self.tick_index
            self.tick_index += 1
            t = 1.0 + (k / cfg.camera_rate_hz) % self.ctrl_period + 0.004
            lo, hi = bisect_left(self.ctrl_t, t - 1.0), bisect_right(self.ctrl_t, t)
            head = ga.SampleStream("head", cfg.camera_rate_hz,
                                   [(t, {"detections": self.head_frame.detections,
                                         "depth": self.head_frame.depth})])
            ctrl = ga.SampleStream("control", cfg.control_rate_hz, self.ctrl[lo:hi])
            reasoning = k % REASONING_EVERY == 0
            sched = self.sched_cot if reasoning else self.sched_act
            tick_span = self.tracer.begin("control.tick") if traced else None
            t0 = time.perf_counter()
            synced = ga.align_streams(head, [ctrl], cfg.max_gap)
            outputs = []
            for s in synced:
                frame = ga.FrameRecord(t=s.t, detections=s.detections, depth=s.depth, q=s.q)
                ep = ga.Episode(frames=[frame], scene=self.scene,
                                scenario=ga.SCENARIOS["food"], trajectory=[frame.q],
                                K=cfg.intrinsics, T=cfg.extrinsics)
                outputs, _ = ga.run_inference_loop(ep, self.gnn_w, self.expert, self.head,
                                                   sched, cfg, seed=k)
            ms = (time.perf_counter() - t0) * 1e3
            if traced:
                self.tracer.end(tick_span)
            self.tick_matches[0] += len(synced)
            self.tick_matches[1] += 1
            n += 1
            if not traced:
                self.ticks.append([ms, reasoning, None])
            ok = len(outputs) == 1
            if ok:
                out = outputs[0]
                a = np.asarray(out.actions)
                ok = a.shape == (H, J) and bool(np.isfinite(a).all())
                if reasoning:
                    tokens = (out.cot_text or "").split()
                    self.decodes.append(len(tokens))
                    ok = ok and out.cot_text is not None and set(tokens) <= self.vocab
                if k % CHECK_NODES_EVERY == 0:
                    checks.append(frame)
            self.attempt(ok, "control_tick")
        self.node_checks.extend(checks)
        return n

    def check_nodes(self):
        """Object nodes of sampled ticks lie within NODE_TOL_M of scene truth."""
        import numpy as np
        ga, cfg = self.ga, self.cfg
        truth = {o.label: o.position for o in self.scene.objects}
        for frame in self.node_checks:
            g = ga.build_graph(frame, cfg.intrinsics, cfg.extrinsics, cfg.chains)
            objs = [n for n in g.nodes if n.kind == "object"]
            ok = len(objs) == len(truth) and all(
                float(np.abs(n.position - truth[n.label]).max()) < NODE_TOL_M for n in objs)
            self.attempt(ok, "object_nodes")

    # -- window -----------------------------------------------------------
    def measure(self):
        shares = WORKLOADS[self.workload]
        stage_fn = {"infer": self.unit_infer, "train": self.unit_train,
                    "control": self.unit_control}
        count = {s: 0 for s in shares}
        spent = {s: 0.0 for s in shares}
        need = {s: MIN_UNITS[s] * (2 if self.trace else 1) for s in shares}
        self.probes.append(probe_ms())
        t_end = time.perf_counter() + self.seconds
        while True:
            due = [s for s in shares if count[s] < need[s]]
            if time.perf_counter() >= t_end and not due:
                break
            stage = min(due or shares, key=lambda s: spent[s] / shares[s])
            # Traced and untraced units alternate within a stage, so the
            # tracing overhead is measured under the same host phases.
            traced = self.trace and count[stage] % 2 == 1
            self.tracer.unit = len(self.units)
            first_tick = len(self.ticks)
            unit_span = self.tracer.begin("unit." + stage)
            in_process = traced and stage == "control"
            self.unit_bulk_probes = []
            t0 = time.perf_counter()
            with self.tracer.installed() if in_process else contextlib.nullcontext():
                items = stage_fn[stage](traced, unit_span)
            wall = time.perf_counter() - t0
            self.tracer.end(unit_span)
            before = self.probes[-1]
            self.probes.append(probe_ms())
            probe = (before + self.probes[-1]) / 2.0
            for tick in self.ticks[first_tick:]:
                tick[2] = probe
            if stage != "control" and self.unit_bulk_probes:
                probe, kind = statistics.fmean(self.unit_bulk_probes), "bulk"
            else:
                kind = "interp"
            self.units.append((stage, traced, wall, probe, items, kind))
            count[stage] += 1
            spent[stage] += wall
        self.check_nodes()

    # -- quality ----------------------------------------------------------
    def evaluate_trained(self):
        """Trained expert and reasoning head on the training episodes: mean
        L2 to the ground-truth chunk and token match against make_cot_label."""
        import numpy as np
        ga, cfg = self.ga, self.cfg
        if len(self.trained) < 2:
            self.quality = dict.fromkeys(("action_l2", "cot_token_match", "expert_final_loss",
                                          "cot_final_loss"), float("nan"))
            return
        expert = ga.FlowExpert.load(self.trained["train-expert"][0])
        head = ga.CotHead.load(self.trained["train-cot"][0])
        l2, match = [], []
        for path in self.train_episodes:
            ep = ga.load_episode(path)
            outputs, _ = ga.run_inference_loop(
                ep, self.gnn_w, expert, head, ga.InferenceSchedule(cot_period=COT_STRIDE),
                cfg, seed=self.seed)
            n = len(ep.trajectory)
            for out in outputs:
                t = out.index
                gt = np.stack([ep.trajectory[min(t + 1 + k, n - 1)]
                               for k in range(cfg.flow_horizon)])
                a = np.asarray(out.actions)
                ok = a.shape == gt.shape and bool(np.isfinite(a).all())
                if ok:
                    l2.append(float(np.linalg.norm(a - gt)))
                if out.cot_text is not None:
                    gen = out.cot_text.split()
                    ok = ok and set(gen) <= self.vocab
                    label = ga.make_cot_label(ep.scene, ep.scenario, ep, t,
                                              dt=cfg.cot_dt_frames).to_text().split()
                    if len(gen) < cfg.cot_max_len:
                        gen = gen + ["<end>"]
                    label = label + ["<end>"]
                    match.append(sum(x == y for x, y in zip(gen, label))
                                 / max(len(gen), len(label)))
                self.attempt(ok, "trained_eval")
        e_losses = self.trained["train-expert"][1]
        tail = e_losses[-max(1, len(e_losses) // 5):]
        self.quality = {
            "action_l2": _ratio(sum(l2), len(l2)),
            "cot_token_match": _ratio(sum(match), len(match)),
            "expert_final_loss": statistics.fmean(tail),
            "cot_final_loss": self.trained["train-cot"][1][-1],
        }

    def measure_alloc(self):
        """Peak traced allocation per frame while decoding an episode. Per
        frame it does not depend on episode length, so the 90-frame training
        episode stands in for the 300-frame one at under a third of the memory."""
        tracemalloc.start()
        try:
            ep = self.ga.load_episode(self.train_episodes[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20 / len(ep.frames)


def _loss_csv(out):
    root, ext = os.path.splitext(out)
    return root + ".loss.csv" if ext else out + ".loss.csv"


def _pct(values, q):
    """Nearest-rank percentile; NaN when there are no samples."""
    s = sorted(values)
    if not s:
        return float("nan")
    return s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _ratio(num, den):
    return num / den if den else float("nan")


def end_to_end(run, normalize):
    """End-to-end metrics. With normalize, every timed sample is scaled by
    the host probe of its kind taken in the same process next to it - control
    ticks by the interp probes around their unit, commands by the bulk probes
    the child takes at its start and end - to a host whose probe takes
    PROBE_REF_MS."""
    def scale(probe, kind="interp"):
        return PROBE_REF_MS[kind] / probe if normalize else 1.0

    inf = run.infer
    act = [ms * scale(p) for ms, r, p in run.ticks if not r]
    rsn = [ms * scale(p) for ms, r, p in run.ticks if r]

    def rate(cmd):
        recs = [r for r in run.train if r["cmd"] == cmd]
        return _ratio(sum(r["work"] for r in recs),
                      sum(r["seconds"] * scale(r["probe"], "bulk") for r in recs))

    # Stages whose every unit failed have no samples: their metrics are NaN
    # and the run reports correct: false.
    m = {
        "setup_s": _median([r["setup"] * scale(r["probe"], "bulk") for r in inf]),
        "infer_fps": _ratio(sum(r["frames"] for r in inf),
                            sum(r["wall"] * scale(r["probe"], "bulk") for r in inf)),
        "peak_rss_mb": _median([r["rss_mb"] for r in inf]),
        "action_frame_ms.p50": _median(act),
        "action_frame_ms.p99": _pct(act, 99),
        "reasoning_frame_ms.p50": _median(rsn),
        "reasoning_frame_ms.p90": _pct(rsn, 90),
        "train_expert_steps_per_s": rate("train-expert"),
        "train_cot_samples_per_s": rate("train-cot"),
        **run.quality,
        "failed_ratio": sum(run.failures.values()) / run.attempted,
    }
    return m


def per_layer(run):
    spans = run.tracer.spans
    selfs = self_times(spans)
    stage_of = {i: u[0] for i, u in enumerate(run.units)}
    traced = {i for i, u in enumerate(run.units) if u[1]}

    def pick(name, stage=None):
        return [i for i, s in enumerate(spans) if s[NAME] == name and s[UNIT] in traced
                and (stage is None or stage_of[s[UNIT]] == stage)]

    def mean_ms(idx, use_self=False):
        vals = [(selfs[i] if use_self else spans[i][END] - spans[i][START]) for i in idx]
        return 1e3 * statistics.fmean(vals) if vals else float("nan")

    def total(idx):
        return sum(spans[i][END] - spans[i][START] for i in idx)

    ticks = pick("control.tick")
    n_ticks = len(ticks)
    loads = pick("sim.load_episode")
    load_frames = sum(spans[i][NOTE]["frames"] for i in loads)
    cli_infer = pick("cli.infer")
    infer_frames = sum(spans[i][NOTE]["frames"] for i in pick("sim.load_episode", "infer"))
    graphs = pick("graph.build_graph", "control")
    gen = pick("cot.generate_cot", "control")
    tokens = run.decodes
    max_len = run.cfg.cot_max_len
    out_bytes = sum(b for b, _ in run.output_bytes.values())
    out_frames = sum(f for _, f in run.output_bytes.values())
    per_infer_cmd = [sum(spans[j][END] - spans[j][START] for j in pick("cli.artifact_load")
                         if spans[j][UNIT] == spans[i][UNIT]) for i in cli_infer]

    # Overhead and accounting for the workload's own stage: traced against
    # untraced time per item (tick or command), under interleaved units and
    # scaled by each unit's host probe like the end-to-end figures.
    primary = max(WORKLOADS[run.workload], key=WORKLOADS[run.workload].get)
    per_item = {True: [], False: []}
    covered = {}
    for i, s in enumerate(spans):
        # Layers' self times inside the unit: everything below the unit span
        # except the tick spans, whose self time is benchmark glue.
        if s[UNIT] in traced and stage_of[s[UNIT]] == primary and (
                s[NAME] != "control.tick" and not s[NAME].startswith("unit.")):
            covered[s[UNIT]] = covered.get(s[UNIT], 0.0) + selfs[i]
    accounted_items = []
    for u, (stage, was_traced, wall, probe, items, kind) in enumerate(run.units):
        if stage == primary:
            scale = PROBE_REF_MS[kind] / probe
            per_item[was_traced].append(wall / items * scale)
            if was_traced:
                accounted_items.append(covered.get(u, 0.0) / items * scale)
    untraced_item = statistics.median(per_item[False])
    overhead = statistics.median(per_item[True]) / untraced_item - 1.0
    accounted = statistics.median(accounted_items) / untraced_item

    m = {
        "sim.load_episode.ms_per_frame": 1e3 * total(loads) / load_frames,
        "sim.load_episode.alloc_mb_per_frame": run.alloc_mb_per_frame,
        "cli.infer.write_ms_per_frame": 1e3 * sum(selfs[i] for i in cli_infer) / infer_frames,
        "cli.output_bytes_per_frame": out_bytes / out_frames,
        "cli.import_ms": mean_ms(pick("cli.import")),
        "cli.artifact_load_ms": 1e3 * statistics.fmean(per_infer_cmd),
        "cli.artifact_bytes": sum(os.path.getsize(p) for p in run.weights.values()),
        "cli.weights_save_ms": mean_ms(pick("cli.weights_save")),
        "stream_sync.align_streams.ms": mean_ms(pick("stream_sync.align_streams", "control")),
        "stream_sync.matched_ratio": run.tick_matches[0] / run.tick_matches[1],
        "kinematics.fk_positions.ms": mean_ms(pick("kinematics.fk_positions", "control")),
        "kinematics.fk_positions.calls_per_frame":
            len(pick("kinematics.fk_positions", "control")) / n_ticks,
        "projection.depth_at.ms": mean_ms(pick("projection.depth_at", "control")),
        "projection.depth_at.calls_per_frame":
            len(pick("projection.depth_at", "control")) / n_ticks,
        "graph.build_graph.self_ms": mean_ms(graphs, use_self=True),
        "graph.nodes_per_frame": statistics.fmean(spans[i][NOTE]["nodes"] for i in graphs),
        "graph.objects_recovered_ratio":
            sum(spans[i][NOTE]["objects"] for i in graphs) / (CONTROL_OBJECTS * len(graphs)),
        "gnn.encode.ms": mean_ms(pick("gnn.encode", "control")),
        "gnn.graph_conv.ms": mean_ms(pick("gnn.graph_conv", "control")),
        "gnn.normalized_adjacency.calls_per_frame":
            len(pick("gnn.normalized_adjacency", "control")) / n_ticks,
        "flow.sample_actions.ms": mean_ms(pick("flow.sample_actions", "control")),
        "flow.forward.ms": mean_ms(pick("flow.forward", "control")),
        "flow.forward.calls_per_frame": len(pick("flow.forward", "control")) / n_ticks,
        "flow.train_step.ms": mean_ms(pick("flow.train_step")),
        "cot.generate_cot.ms": mean_ms(gen),
        "cot.tokens_per_decode": statistics.fmean(tokens),
        "cot.ms_per_token": mean_ms(gen) / statistics.fmean(tokens),
        "cot.decode_truncated_ratio": sum(1 for n in tokens if n >= max_len) / len(tokens),
        "cot.loss_and_grads.ms": mean_ms(pick("cot.loss_and_grads")),
        "inference.run_inference_loop.self_ms_per_frame":
            mean_ms(pick("inference.run_inference_loop", "control"), use_self=True),
        "trace.overhead_ratio": overhead,
        "trace.accounted_ratio": accounted,
    }
    return m


def environment(run, seed):
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, AttributeError):
        pass
    threads = None
    try:
        from threadpoolctl import threadpool_info
        threads = [i.get("num_threads") for i in threadpool_info()
                   if i.get("user_api") == "blas"]
    except ImportError:
        threads = os.environ.get("OPENBLAS_NUM_THREADS") or f"default ({os.cpu_count()})"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": threads,
        "rng_algorithm": run.ga.core.RNG_ALGORITHM, "git_sha": sha,
        "workload_seed": seed,
        "fixtures": {
            "test_episodes": {os.path.basename(p): os.path.getsize(p)
                              for p in run.test_episodes},
            "test_frames": TEST_FRAMES, "train_frames": TRAIN_FRAMES,
            "train_episodes": len(run.train_episodes), "train_steps": TRAIN_STEPS,
            "cot_stride": COT_STRIDE, "cot_epochs": COT_EPOCHS,
            "control_objects": CONTROL_OBJECTS,
            "artifact_bytes": {k: os.path.getsize(p) for k, p in run.weights.items()},
        },
    }


def host_block(run):
    def stats(p):
        p = sorted(p)
        return {"min": p[0], "median": statistics.median(p), "max": p[-1], "count": len(p)}
    return {
        "probe_ms": stats(run.probes),
        "command_probe_ms": {k: stats(v) for k, v in run.child_probes.items()},
        "probe_ref_ms": PROBE_REF_MS,
        "note": ("each vCPU of a small shared VM switches between a fast and a "
                 "slow state every few seconds and CPU time moves with wall "
                 "time: identical per-frame work drifted between ~0.6 and "
                 "~1.1 ms. Timed metrics are scaled by a host probe of the same "
                 "kind of work taken next to each sample (interp for control "
                 "ticks, bulk for commands), so a slow phase does not read as a "
                 "regression; raw figures are in end_to_end_raw."),
    }


def run_benchmark(workload, seed, seconds, trace, plant_nan=False):
    """One benchmark run; returns (report dict, final result dict)."""
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(workload, seed, seconds, trace, work, plant_nan)
        t0 = time.perf_counter()
        run.build_fixtures()
        fixture_s = time.perf_counter() - t0
        run.measure()
        run.evaluate_trained()
        raw = end_to_end(run, normalize=False)
        norm = end_to_end(run, normalize=True)
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(run, seed), "host": host_block(run),
            "fixture_build_s": fixture_s,
            "units": {s: sum(1 for u in run.units if u[0] == s) for s in WORKLOADS[workload]},
            "samples": {"infer_commands": len(run.infer), "train_commands": len(run.train),
                        "action_ticks": sum(1 for t in run.ticks if not t[1]),
                        "reasoning_ticks": sum(1 for t in run.ticks if t[1])},
            "failures": run.failures, "errors": run.errors,
            "records": {"infer": [{k: v for k, v in r.items() if k != "frame_ms"} for r in run.infer],
                        "train": run.train,
                        "units": run.units},
            "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in norm.items()},
            "end_to_end_raw": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in raw.items()},
        }
        if trace:
            run.alloc_mb_per_frame = run.measure_alloc()
            layers = per_layer(run)
            report["per_layer"] = {k: {"value": v, "unit": LAYER_UNITS[k]}
                                   for k, v in layers.items() if k not in COUNT_METRICS}
            report["per_layer_counts"] = {k: {"value": layers[k], "unit": LAYER_UNITS[k]}
                                          for k in COUNT_METRICS}
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            run.tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl.gz"))
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        else:
            metrics = {k: {"value": norm[k], "unit": E2E_UNITS[k]} for k in GATED_E2E}
        failed = sum(run.failures.values())
        finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                     for m in metrics.values())
        result = {"correct": failed == 0 and finite, "attempted": run.attempted,
                  "failed": failed, "metrics": metrics}
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "graphact", "__init__.py")):
        print(f"graphact sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    report, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
