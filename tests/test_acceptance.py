"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its measured figure. Run with `pytest tests/test_acceptance.py -s` to see
the lines as they go by."""

import contextlib
import os
import time

import numpy as np

from graphact import (CameraIntrinsics, InferenceSchedule, SCENARIOS,
                      adjacency_matrix, backproject, build_default_vocab,
                      build_graph, default_config, future_indices, gen_episode,
                      init_cot_head, init_flow_expert, init_gnn_weights,
                      make_cot_label, make_rng, render_frame, run_inference_loop,
                      sample_actions, train_step)
from graphact.cli import main as cli_main
from graphact.cot import ALL_PRESENT, NONE_PRESENT, SOME_MISSING
from graphact.graph import END_EFFECTOR, OBJECT
from graphact.selfcheck import (check_flow_identities, check_gradients, check_loss_formulas,
                                check_projection_roundtrip)
from graphact.sim import Episode, Scene, SceneObject, look_at

from test_gnn import _oracle_encode, _random_graph

CFG = default_config()


@contextlib.contextmanager
def criterion(n, label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[acceptance] {n:2d} FAIL  {label}  {info.get('detail', '')}")
        raise
    print(f"[acceptance] {n:2d} PASS  {label}  {info.get('detail', '')}")


def _random_intrinsics(rng) -> CameraIntrinsics:
    w = int(rng.choice([320, 640, 800]))
    h = int(rng.choice([240, 480, 600]))
    return CameraIntrinsics(fx=float(rng.uniform(250, 900)),
                            fy=float(rng.uniform(250, 900)),
                            cx=w / 2 + float(rng.uniform(-25, 25)),
                            cy=h / 2 + float(rng.uniform(-25, 25)),
                            width=w, height=h)


def _random_extrinsics(rng):
    eye = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                    rng.uniform(0.6, 1.2)])
    target = np.array([rng.uniform(0.45, 0.9), rng.uniform(-0.2, 0.2), 0.0])
    return look_at(eye, target)


def _frustum_scene(rng, K, T, n, box=20.0):
    """Objects sampled in the view frustum with pairwise-disjoint boxes."""
    positions, pixels = [], []
    tries = 0
    while len(positions) < n and tries < 2000:
        tries += 1
        u = float(rng.uniform(2 * box, K.width - 2 * box))
        v = float(rng.uniform(2 * box, K.height - 2 * box))
        z = float(rng.uniform(0.5, 3.0))
        if any(abs(u - pu) <= 2 * box and abs(v - pv) <= 2 * box for pu, pv in pixels):
            continue
        positions.append(T.apply(backproject((u, v), z, K)))
        pixels.append((u, v))
    objs = [SceneObject(f"o{i}", p, 0.0) for i, p in enumerate(positions)]
    return Scene(objects=objs, table_bounds=((0, 1),) * 3)


def test_criterion_01_end_to_end_position_oracle():
    with criterion(1, "graph-construction oracle: 200 random frames within 1e-6 m") as info:
        rng = make_rng(101)
        start = time.perf_counter()
        worst = 0.0
        checked = 0
        for _ in range(200):
            K = _random_intrinsics(rng)
            T = _random_extrinsics(rng)
            scene = _frustum_scene(rng, K, T, n=int(rng.integers(1, 9)))
            frame = render_frame(scene, np.zeros(CFG.j_total), 0.0, K, T)
            g = build_graph(frame, K, T, CFG.chains)
            for obj in scene.objects:
                node = next(n for n in g.nodes if n.label == obj.label)
                worst = max(worst, float(np.abs(node.position - obj.position).max()))
                checked += 1
        elapsed = time.perf_counter() - start
        info["detail"] = f"(max err {worst:.2e} over {checked} objects, {elapsed:.2f}s)"
        assert worst < 1e-6
        assert elapsed < 5.0


def test_criterion_02_projection_roundtrip():
    with criterion(2, "projection round trip: 1e4 points within 1e-9") as info:
        start = time.perf_counter()
        _, ok, detail = check_projection_roundtrip()
        elapsed = time.perf_counter() - start
        info["detail"] = f"({detail}, {elapsed:.2f}s)"
        assert ok
        assert elapsed < 1.0


def test_criterion_03_graph_structure():
    with criterion(3, "bipartite edge count and adjacency symmetry") as info:
        n_graphs = 0
        for scen in SCENARIOS.values():
            for variant in range(len(scen.variants)):
                ep = gen_episode(scen, variant, 3, seed=200 + variant, cfg=CFG)
                for frame in ep.frames:
                    g = build_graph(frame, CFG.intrinsics, CFG.extrinsics,
                                    CFG.chains, paper_literal=True)
                    n_obj = sum(1 for n in g.nodes if n.kind == OBJECT)
                    n_ee = sum(1 for n in g.nodes if n.kind == END_EFFECTOR)
                    assert len(g.edges) == n_obj * n_ee
                    A = adjacency_matrix(g)
                    assert np.array_equal(A, A.T)
                    n_graphs += 1
        # degenerate: no objects / no arms
        from graphact import DepthGrid, FrameRecord
        empty = FrameRecord(t=0.0, detections=[],
                            depth=DepthGrid(64, 48, 2.0),
                            q=np.zeros(CFG.j_total))
        g = build_graph(empty, CFG.intrinsics, CFG.extrinsics, CFG.chains, paper_literal=True)
        assert len(g.edges) == 0
        A = adjacency_matrix(g)
        assert np.array_equal(A, A.T)
        no_arms = FrameRecord(t=0.0, detections=[],
                              depth=DepthGrid(64, 48, 2.0), q=np.zeros(0))
        g = build_graph(no_arms, CFG.intrinsics, CFG.extrinsics, [], paper_literal=True)
        assert g.nodes == [] and g.edges == []
        info["detail"] = f"({n_graphs} graphs + 2 degenerate)"


def test_criterion_04_gnn_equivariance_and_oracle():
    with criterion(4, "GNN permutation equivariance 1e-9, dense oracle 1e-12") as info:
        rng = make_rng(104)
        w = init_gnn_weights(rng, d=8, h=8, d_out=8)
        worst_perm, worst_oracle = 0.0, 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            g = _random_graph(rng, n)
            from graphact import encode
            H = encode(g, w)
            worst_oracle = max(worst_oracle, float(np.abs(H - _oracle_encode(g, w)).max()))
            perm = rng.permutation(n)
            inv = np.argsort(perm)
            from test_gnn import _graph
            pg = _graph([g.nodes[inv[i]].position for i in range(n)],
                        [g.nodes[inv[i]].kind for i in range(n)],
                        [tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in g.edges])
            worst_perm = max(worst_perm, float(np.abs(encode(pg, w) - H[inv]).max()))
        info["detail"] = f"(perm err {worst_perm:.2e}, oracle err {worst_oracle:.2e})"
        assert worst_perm < 1e-9
        assert worst_oracle < 1e-12


def test_criterion_05_flow_matching_identities():
    with criterion(5, "interpolation endpoints, planted loss, Euler exactness") as info:
        _, ok, detail = check_flow_identities()
        info["detail"] = f"({detail})"
        assert ok


def test_criterion_06_gradient_fidelity():
    with criterion(6, "analytic vs central-difference gradients < 1e-4") as info:
        _, ok, detail = check_gradients()
        info["detail"] = f"({detail})"
        assert ok


def test_criterion_07_toy_flow_training():
    with criterion(7, "toy expert: >=95/100 seeds within 0.1 L2 after 2000 steps") as info:
        start = time.perf_counter()
        targets = [np.array([[0.6, -0.4], [0.2, 0.8]]),
                   np.array([[-0.5, 0.3], [0.7, -0.2]])]
        ctxs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        expert = init_flow_expert(make_rng(0), horizon=2, j_dim=2, context_dim=2,
                                  hidden=128, alpha=1.0, beta=1.0, sigma=1.0,
                                  momentum=0.9)
        batch = [(t, c) for t, c in zip(targets, ctxs)] * 16
        rng = make_rng(1)
        first = last = None
        for step in range(2000):
            lr = 0.03 - 0.027 * step / 2000  # linear decay
            last = train_step(expert, batch, lr, rng)
            if step == 0:
                first = last
        ok = 0
        for seed in range(100):
            hit = all(np.linalg.norm(sample_actions(expert, c, 10, make_rng(1000 + seed)) - t)
                      <= 0.1 for t, c in zip(targets, ctxs))
            ok += hit
        elapsed = time.perf_counter() - start
        info["detail"] = (f"(loss {first:.2f}->{last:.3f}, {ok}/100 seeds, "
                          f"{elapsed:.1f}s)")
        assert last <= first / 10.0  # train_step example: >=10x loss decrease
        assert ok >= 95
        assert elapsed < 60.0


def test_criterion_08_loss_formulas():
    with criterion(8, "CE uniform identity, dropout combiner, Bernoulli rate") as info:
        _, ok, detail = check_loss_formulas()
        info["detail"] = f"({detail})"
        assert ok


def test_criterion_09_future_frame_arithmetic():
    with criterion(9, "future-frame sampling formulas at dt=30"):
        assert future_indices(0, 30) == (30, 30)
        assert future_indices(30, 30) == (60, 60)
        assert future_indices(45, 30) == (60, 75)


def test_criterion_10_feasibility_branching():
    with criterion(10, "feasibility branch matches the availability table") as info:
        table = {
            ("food", 0): {"egg", "tomato", "fish", "pepper"},
            ("food", 1): {"egg", "tomato", "pepper"},
            ("food", 2): {"egg", "tomato"},
            ("outfit", 0): {"sweater", "t-shirt", "shorts"},
            ("outfit", 1): {"sweater", "t-shirt"},
            ("outfit", 2): {"sweater"},
        }
        required = {"food": {"fish", "pepper"}, "outfit": {"t-shirt", "shorts"}}
        checked = 0
        for (name, variant), available in table.items():
            missing = required[name] - available
            if not missing:
                expected = ALL_PRESENT
            elif missing != required[name]:
                expected = SOME_MISSING
            else:
                expected = NONE_PRESENT
            ep = gen_episode(SCENARIOS[name], variant, 4, seed=300 + checked, cfg=CFG)
            assert set(ep.scene.labels()) == available
            label = make_cot_label(ep.scene, ep.scenario, ep, 0, dt=30)
            assert label.branch == expected, (name, variant)
            checked += 1
        info["detail"] = f"({checked}/6 variants)"


def test_criterion_11_hybrid_schedule_and_latency():
    with criterion(11, "one reasoning emission; steady frame < 10 ms") as info:
        rng = make_rng(111)
        scene = _frustum_scene(rng, CFG.intrinsics, CFG.extrinsics, n=16)
        assert len(scene.objects) == 16
        n_frames = 30
        trajectory = [np.zeros(CFG.j_total) for _ in range(n_frames)]
        frames = [render_frame(scene, trajectory[i], i / 30.0,
                               CFG.intrinsics, CFG.extrinsics)
                  for i in range(n_frames)]
        ep = Episode(frames=frames, scene=scene, scenario=SCENARIOS["food"],
                     trajectory=trajectory, K=CFG.intrinsics, T=CFG.extrinsics)
        d, h, d_out = CFG.gnn_dims
        gnn_w = init_gnn_weights(make_rng(0), d=d, h=h, d_out=d_out)
        expert = init_flow_expert(make_rng(1), horizon=CFG.flow_horizon,
                                  j_dim=CFG.j_total, context_dim=CFG.context_dim)
        head = init_cot_head(build_default_vocab(), context_dim=CFG.context_dim,
                             window=CFG.cot_window, rng=make_rng(2))
        # warm-up pass so first-frame timing reflects reasoning, not numpy init
        run_inference_loop(ep, gnn_w, expert, head, InferenceSchedule(), CFG)
        outputs, report = run_inference_loop(ep, gnn_w, expert, head,
                                             InferenceSchedule(), CFG)
        emitted = [o.index for o in outputs if o.cot_text is not None]
        assert emitted == [0]
        first = report.frame_samples[0]
        steady = float(np.median(report.frame_samples[1:]))
        info["detail"] = f"(first {first:.2f} ms, steady median {steady:.2f} ms)"
        assert first > steady
        assert steady < 10.0


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "gen/graph/train-expert/infer byte-identical reruns") as info:
        def run_all(tag):
            base = tmp_path / tag
            data = base / "data"
            assert cli_main(["gen", "--scenario", "food", "--variant", "0",
                             "--episodes", "1", "--frames", "8", "--seed", "5",
                             "--out", str(data)]) == 0
            episode = data / "food_v0_000.jsonl"
            graphs = base / "graphs.jsonl"
            assert cli_main(["graph", "--episode", str(episode),
                             "--out", str(graphs)]) == 0
            expert = base / "expert.json"
            assert cli_main(["train-expert", "--data", str(data), "--steps", "10",
                             "--lr", "0.01", "--seed", "5", "--batch", "4",
                             "--out", str(expert)]) == 0
            gnn = base / "gnn.json"
            head = base / "cot.json"
            assert cli_main(["init-weights", "--kind", "gnn", "--seed", "5",
                             "--out", str(gnn)]) == 0
            assert cli_main(["init-weights", "--kind", "cot", "--seed", "5",
                             "--out", str(head)]) == 0
            infer_out = base / "out.json"
            assert cli_main(["infer", "--episode", str(episode), "--gnn", str(gnn),
                             "--expert", str(expert), "--cot-head", str(head),
                             "--seed", "5", "--out", str(infer_out)]) == 0
            files = {}
            for root, _, names in os.walk(base):
                for name in names:
                    p = os.path.join(root, name)
                    files[os.path.relpath(p, base)] = open(p, "rb").read()
            return files

        first = run_all("run1")
        second = run_all("run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
        info["detail"] = f"({len(first)} files compared)"
