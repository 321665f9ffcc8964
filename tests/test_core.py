import dataclasses
import errno
import json
import os
import re
import zipfile

import numpy as np
import pytest

from graphact import (SCENARIOS, CameraIntrinsics, CotHead, DhLink, FlowExpert,
                      InferenceSchedule, KinematicChain, PipelineConfig, RigidTransform, Scene,
                      TokenVocab, build_default_vocab, derive_seed, episode_text, future_indices,
                      gen_episode, generate_cot, grad_check, grad_check_cot, graph_conv,
                      init_cot_head, init_flow_expert, init_gnn_weights, make_rng,
                      sample_actions, total_loss, train_step)
from graphact.core import (InvalidSetting, NonFiniteOutput, ShapeMismatch, reader, to_json,
                           write_files)
from graphact.sim import SceneObject
from conftest import random_rotation


def test_rigid_transform_inverse_roundtrip():
    rng = make_rng(0)
    for _ in range(200):
        T = RigidTransform(random_rotation(rng), rng.normal(size=3))
        p = rng.normal(size=3)
        assert np.abs(T.inverse().apply(T.apply(p)) - p).max() < 1e-12


def test_rigid_transform_compose_matches_sequential():
    rng = make_rng(1)
    A = RigidTransform(random_rotation(rng), rng.normal(size=3))
    B = RigidTransform(random_rotation(rng), rng.normal(size=3))
    p = rng.normal(size=3)
    assert np.allclose(A.compose(B).apply(p), A.apply(B.apply(p)), atol=1e-12)


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 1.01, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det -1


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=-1.0, fy=500.0, cx=320, cy=240, width=640, height=480)
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=500.0, fy=500.0, cx=700, cy=240, width=640, height=480)


def test_equal_seeds_equal_streams():
    a = make_rng(987654321)
    b = make_rng(987654321)
    assert np.array_equal(a.random(10_000), b.random(10_000))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 1, 3)
    assert derive_seed(7, 1, 2) != derive_seed(8, 1, 2)


def test_config_json_roundtrip(cfg, tmp_path):
    path = tmp_path / "cfg.json"
    cfg.save(path)
    loaded = PipelineConfig.load(path)
    assert loaded.j_total == cfg.j_total
    assert np.allclose(loaded.extrinsics.rotation, cfg.extrinsics.rotation)
    assert [c.name for c in loaded.chains] == [c.name for c in cfg.chains]
    assert loaded.chains[0].links == cfg.chains[0].links
    assert loaded.gnn_dims == cfg.gnn_dims


def test_config_with_retired_keys_is_refused(cfg, tmp_path):
    """Keys older configs had (seed, j_total, now derived from the chains,
    lambda_cot, lambda_action, dropout_p, max_gap and control_rate_hz, now
    constants, and scenario_names, now the SCENARIOS registry) are unknown
    keys, refused by name like any other."""
    path = tmp_path / "cfg.json"
    for key, value in [("seed", 7), ("j_total", 14), ("lambda_cot", 1.0),
                       ("lambda_action", 1.0), ("dropout_p", 0.5), ("max_gap", 2 / 30),
                       ("control_rate_hz", 150.0), ("scenario_names", ["food", "outfit"])]:
        d = to_json(cfg)
        d[key] = value
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            PipelineConfig.load(path)


@pytest.mark.parametrize("value", [30.9, 30.0, True], ids=["fraction", "integral_float", "bool"])
def test_library_config_refuses_a_count_that_is_no_integer(cfg, value):
    """A config built in the library is held to the counts' own message, "an
    integer >= 1", as the JSON reader is: a float (even 30.0) or a bool is
    refused by name before any weight matrix is drawn."""
    with pytest.raises(ValueError, match=f"flow_horizon must be an integer >= 1, got {value!r}"):
        dataclasses.replace(cfg, flow_horizon=value)


def test_library_config_takes_a_numpy_integer_count(cfg):
    assert dataclasses.replace(cfg, flow_horizon=np.int64(10)).flow_horizon == 10
    dims = (np.int64(32), 32, 32)
    assert dataclasses.replace(cfg, gnn_dims=dims).context_dim == cfg.context_dim


@pytest.mark.parametrize("dims", [(True, 32, 32), (32, 32.0, 32), (32, 32, 0)],
                         ids=["bool", "integral_float", "zero"])
def test_library_config_holds_gnn_dims_to_the_count_rule(cfg, dims):
    message = f"gnn_dims must be 3 integers >= 1, got {dims!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(cfg, gnn_dims=dims)


# The library's counts, by the name each refusal gives: (cfg, n) -> the result
# of a small call with the count set to n, on a 3-entry context.
LIBRARY_COUNTS = {
    "n_frames": lambda cfg, n: episode_text(gen_episode(SCENARIOS["food"], 0, n, 1, cfg)),
    "steps": lambda cfg, n: sample_actions(init_flow_expert(make_rng(1), 2, 2, 3),
                                           np.linspace(-1, 1, 3), n, make_rng(2)).tolist(),
    "max_len": lambda cfg, n: generate_cot(init_cot_head(build_default_vocab(2), 3, make_rng(3)),
                                           np.linspace(-1, 1, 3), n),
    "cot_period": lambda cfg, n: [InferenceSchedule(cot_period=n).wants_cot(i) for i in range(9)],
    "cot head window": lambda cfg, n: generate_cot(dataclasses.replace(
        init_cot_head(build_default_vocab(2), 3, make_rng(3), window=2), window=n),
        np.linspace(-1, 1, 3), 4),
    **{f"expert {key}": lambda cfg, n, key=key: [p.tolist() for _, p in init_flow_expert(
        make_rng(4), **{"horizon": 2, "j_dim": 2, "context_dim": 3, "hidden": 3, key: n}
    ).params()] for key in ("horizon", "j_dim", "hidden")},
    **{f"cot head {key}": lambda cfg, n, key=key: [p.tolist() for _, p in init_cot_head(
        build_default_vocab(2), 3, make_rng(5), **{"window": 2, "embed": 2, "hidden": 3, key: n}
    ).params()] for key in ("window", "embed", "hidden")},
    **{f"gnn {key}": lambda cfg, n, key=key: [p.tolist() for _, p in init_gnn_weights(
        make_rng(6), **{"d": 2, "h": 2, "d_out": 2, key: n}).params()]
       for key in ("d", "h", "d_out")},
}


@pytest.mark.parametrize("value", [2.5, True, 0], ids=["fraction", "bool", "zero"])
@pytest.mark.parametrize("name", sorted(LIBRARY_COUNTS))
def test_library_counts_follow_the_config_count_rule(name, value, cfg):
    """Each count a library function takes is refused by name unless it is
    an integer >= 1, as a config's counts are: a fraction, a bool or 0."""
    with pytest.raises(InvalidSetting, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        LIBRARY_COUNTS[name](cfg, value)


@pytest.mark.parametrize("name", sorted(LIBRARY_COUNTS))
def test_library_counts_take_a_numpy_integer(name, cfg):
    assert LIBRARY_COUNTS[name](cfg, np.int64(2)) == LIBRARY_COUNTS[name](cfg, 2)


# The library's sizes that may be 0, by the name each refusal gives: (rng, n)
# -> the parameters drawn from rng with the size set to n.
LIBRARY_SIZES = {
    "expert context_dim": lambda rng, n: [p.tolist() for _, p in init_flow_expert(
        rng, 2, 2, n, hidden=3).params()],
    "cot head context_dim": lambda rng, n: [p.tolist() for _, p in init_cot_head(
        build_default_vocab(2), n, rng, window=2, embed=2, hidden=3).params()],
}


@pytest.mark.parametrize("value", [2.5, True, -1], ids=["fraction", "bool", "negative"])
@pytest.mark.parametrize("name", sorted(LIBRARY_SIZES))
def test_library_sizes_are_refused_before_any_draw(name, value):
    """A size that is no integer >= 0 is refused by name, with the
    generator as it was."""
    rng = make_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(InvalidSetting, match=f"^{name} must be an integer >= 0, got {value!r}$"):
        LIBRARY_SIZES[name](rng, value)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("name", sorted(LIBRARY_SIZES))
def test_library_sizes_take_zero_and_a_numpy_integer(name):
    assert LIBRARY_SIZES[name](make_rng(4), np.int64(2)) == LIBRARY_SIZES[name](make_rng(4), 2)
    assert LIBRARY_SIZES[name](make_rng(4), 0)


def _small_expert():
    return init_flow_expert(make_rng(1), 2, 2, 3, hidden=3)  # input width 2 * 2 + 3 + 1


_SAMPLE = (np.zeros((2, 2)), np.zeros(3))  # (chunk, context) for _small_expert

# Library refusals, by name: (call, error, the whole message).
REFUSALS = {
    "train_step lr": (lambda: train_step(_small_expert(), [_SAMPLE], -1.0, make_rng(2)),
                      InvalidSetting, "learning rate must be finite and >= 0, got -1.0"),
    "grad_check h": (lambda: grad_check(_small_expert(), _SAMPLE, make_rng(2), h=0.0),
                     InvalidSetting, "h must be finite and > 0, got 0.0"),
    "forward input width": (lambda: _small_expert().forward(np.zeros((1, 7))),
                            ShapeMismatch, "expected input dim 8, got 7"),
    "graph_conv weight": (lambda: graph_conv(np.zeros((2, 3)), np.eye(2), np.zeros((4, 1)),
                                             np.zeros(1)),
                          ShapeMismatch, "features (2, 3) do not match weight (4, 1)"),
    "future_indices t": (lambda: future_indices(-1, 30), InvalidSetting,
                         "need t >= 0 and dt >= 1"),
    "future_indices dt": (lambda: future_indices(0, 0), InvalidSetting,
                          "need t >= 0 and dt >= 1"),
    "TokenVocab duplicate": (lambda: TokenVocab(["a", "b", "a"]), ValueError,
                             "vocabulary tokens must be unique"),
    "total_loss d": (lambda: total_loss(1.0, 2.0, 2, 0.5, 0.5), InvalidSetting,
                     "d must be 0 or 1"),
    "generate_cot context size": (lambda: generate_cot(init_cot_head(
        build_default_vocab(2), 4, make_rng(1)), np.zeros(3), 5), ShapeMismatch,
        "context has 3 entries, cot head expects 4"),
    "generate_cot context nan": (lambda: generate_cot(init_cot_head(
        build_default_vocab(2), 4, make_rng(1)), [0.0, np.nan, 0.0, 0.0], 5),
        NonFiniteOutput, "cot context has a non-finite entry"),
    "generate_cot context inf": (lambda: generate_cot(init_cot_head(
        build_default_vocab(2), 4, make_rng(1)), [0.0, 0.0, -np.inf, 0.0], 5),
        NonFiniteOutput, "cot context has a non-finite entry"),
    "Scene.position_of": (lambda: Scene([SceneObject("plate", np.zeros(3), 0.0)],
                                        ((0, 1),) * 3).position_of("egg"), InvalidSetting,
                          "scene has no object 'egg'; its labels are ['plate']"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_library_refusals(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# What each model holds, by name: (model, a call that builds and uses it,
# the parameter to replace whole).
HOLDERS = {
    "expert": (lambda: init_flow_expert(make_rng(1), 2, 2, 3),
               lambda e: sample_actions(e, np.ones(3), 10, make_rng(2)).tolist(), "w3"),
    "cot head": (lambda: init_cot_head(build_default_vocab(2), 3, make_rng(3)),
                 lambda h: generate_cot(h, np.ones(3), 12), "emb"),
}


@pytest.mark.parametrize("name", sorted(HOLDERS))
def test_replacing_a_held_parameter_ends_the_hold(name):
    """A parameter assigned whole, not edited in place, drops what the model
    holds: the next call gives what a model built from the new arrays gives,
    and the old array is writable again."""
    make, call, param = HOLDERS[name]
    model = make()
    call(model)
    old = getattr(model, param)
    assert not old.flags.writeable
    setattr(model, param, old[::-1].copy())
    assert old.flags.writeable
    fresh = dataclasses.replace(model, **{n: p.copy() for n, p in model.params()})
    assert call(model) == call(fresh)


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("check", ["grad_check", "grad_check_cot"])
def test_grad_checks_refuse_a_step_outside_zero_to_inf_before_any_draw(check, h):
    """A difference step that is not finite and > 0 is refused by name, with
    the generator as it was: at h = nan every central difference is NaN, and
    the comparison would report a perfect gradient."""
    rng = make_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(InvalidSetting, match=re.escape(f"h must be finite and > 0, got {h!r}")):
        if check == "grad_check":
            grad_check(_small_expert(), _SAMPLE, rng, h=h)
        else:
            grad_check_cot(init_cot_head(build_default_vocab(2), 3, make_rng(3)),
                           (np.zeros(3), [0, 1]), rng, h=h)
    assert rng.bit_generator.state == state


def test_sample_actions_refusing_its_steps_leaves_the_generator():
    expert, rng = init_flow_expert(make_rng(1), 2, 2, 3), make_rng(2)
    state = rng.bit_generator.state
    for steps in (2.5, True, 0):
        with pytest.raises(InvalidSetting, match="steps"):
            sample_actions(expert, np.zeros(3), steps, rng)
    assert rng.bit_generator.state == state


# (spec, parsed JSON value, decoded value or the ValueError's message)
READER_CASES = [
    (float, 2.5, 2.5),
    (float, 3, 3.0),
    (float, True, ValueError("x: expected a finite number, got bool True")),
    (float, "1.0", ValueError("x: expected a finite number, got str '1.0'")),
    (float, float("nan"), ValueError("x: expected a finite number, got float nan")),
    (float, 10 ** 400, ValueError("x: expected a finite number, got int")),
    (int, 7, 7),
    (int, True, ValueError("x: expected an integer, got bool True")),
    (int, 7.0, ValueError("x: expected an integer, got float 7.0")),
    (str, "a", "a"),
    (str, 7, ValueError("x: expected a string, got int 7")),
    (list[int], [1, 2], [1, 2]),
    (list[int], [], []),
    (list[int], "ab", ValueError("x: expected a list, got str 'ab'")),
    (list[int], [1, [2]], ValueError("x[]: expected an integer, got list [2]")),
    (tuple[float, ...], [1, 2.5], (1.0, 2.5)),
    (tuple[int, str], [1, "a"], (1, "a")),
    (tuple[int, str], [1], ValueError("x: expected a list of 2, got list [1]")),
    (tuple[int, str], [1, "a", 2], ValueError("x: expected a list of 2")),
    (tuple[int, str], [1, 2], ValueError("x[1]: expected a string, got int 2")),
    ({"a": int, "b": float}, {"b": 1, "a": 2}, {"a": 2, "b": 1.0}),
    ({"a": int, "b": float}, {"a": 1, "c": 2},
     ValueError("x: missing key 'b', unknown key 'c'")),
    ({"a": int}, [1], ValueError("x: expected an object, got list [1]")),
    ({"a": list[{"b": int}]}, {"a": [{"b": 1}, {"b": 1.5}]},
     ValueError("x.a[].b: expected an integer, got float 1.5")),
    (DhLink, {"a": 1, "alpha": 0.5, "d": 0, "theta_offset": -0.3}, DhLink(1.0, 0.5, 0.0, -0.3)),
    (DhLink, {"a": 1, "alpha": 0.5, "d": 0}, ValueError("x: missing key 'theta_offset'")),
    (RigidTransform, {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [1, 2]},
     ValueError("x.translation: expected a list of 3")),
]


@pytest.mark.parametrize("spec,value,want", READER_CASES)
def test_reader_rules(spec, value, want):
    """Each spec form decodes what its rule takes, to the rule's type, and
    refuses the rest with a ValueError naming the path of the bad value."""
    read = reader(spec, "x")
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as exc:
            read(value)
        assert str(exc.value).startswith(str(want))
    else:
        assert repr(read(value)) == repr(want)  # equal values of equal types


def test_alignment_constants_are_not_config_keys(cfg):
    """max_gap and control_rate_hz still resolve on a config, as constants
    that no config file carries."""
    assert cfg.max_gap == 2 / 30 and cfg.control_rate_hz == 150.0
    assert not {"max_gap", "control_rate_hz"} & set(to_json(cfg))


def test_to_json_converts_numpy_scalars():
    assert json.dumps(to_json([np.int64(3), np.float32(1.5), np.bool_(True)])) == "[3, 1.5, true]"


@pytest.mark.parametrize("value", [float("nan"), np.float64("inf"), np.float32("-inf"),
                                   np.array([[0.0], [np.nan]]), {"a": (1.0, float("inf"))}])
def test_to_json_refuses_non_finite_numbers(value):
    """Strict JSON has no NaN or Infinity (RFC 8259, section 6), and reader
    refuses them on the way in."""
    with pytest.raises(NonFiniteOutput, match="^frame 2 has a non-finite entry$"):
        to_json(value, "frame 2")


def test_to_json_roundtrips_through_reader(cfg):
    """to_json is reader's inverse on the config and its parts."""
    for spec, x in [(PipelineConfig, cfg), (CameraIntrinsics, cfg.intrinsics),
                    (RigidTransform, cfg.extrinsics), (KinematicChain, cfg.chains[0])]:
        doc = to_json(x)
        assert to_json(reader(spec, "x")(json.loads(json.dumps(doc)))) == doc


def _small_models():
    """(model, expected header) for each of the three learned models."""
    vocab = TokenVocab(["<pad>", "<end>", "<sep>", "grasp", "fish", "then", "pepper", ".",
                        *map(str, range(11)), *(f"{i / 100:.2f}" for i in range(-20, 21))])
    expert = init_flow_expert(make_rng(25), horizon=2, j_dim=2, context_dim=3,
                              alpha=2.5, beta=0.5)
    return {
        "gnn": (init_gnn_weights(make_rng(8), d=4, h=5, d_out=6), {}),
        "expert": (expert, {"horizon": 2, "j_dim": 2, "context_dim": 3, "momentum": 0.0,
                            "alpha": 2.5, "beta": 0.5, "sigma": 1.0}),
        "cot": (init_cot_head(vocab, context_dim=3, window=4, rng=make_rng(14)),
                {"tokens": vocab.tokens, "context_dim": 3, "window": 4}),
    }


@pytest.mark.parametrize("kind", ["gnn", "expert", "cot"])
def test_model_npz_roundtrip(kind, tmp_path):
    """save writes exactly the named path: an uncompressed zip whose first
    member is the JSON header and whose others are the float64 PARAMS in
    order; load gives back bit-equal arrays, and saving again the same bytes."""
    model, header = _small_models()[kind]
    path = tmp_path / "w.json"
    model.save(path)
    assert os.listdir(tmp_path) == ["w.json"]
    with zipfile.ZipFile(path) as archive:
        assert archive.namelist() == [f"{n}.npy" for n in ("header",) + model.PARAMS]
        assert all(i.compress_type == zipfile.ZIP_STORED for i in archive.infolist())
    with np.load(path, allow_pickle=False) as npz:
        assert npz["header"].shape == () and npz["header"].dtype.kind == "U"
        assert json.loads(npz["header"].item()) == header
    loaded = type(model).load(path)
    assert {f: getattr(loaded, f) for f in header} == header
    for (name, a), (_, b) in zip(model.params(), loaded.params()):
        assert b.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    again = tmp_path / "again.json"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_write_files_puts_its_files_in_place_whole(tmp_path):
    """text, bytes and pieces of text reach their names whole, in a made
    directory too, over an existing file, with the mode a plain open(path,
    "w") gives in the same directory, and no temporary is left."""
    with open(tmp_path / "plain", "w"):
        pass
    mode = os.stat(tmp_path / "plain").st_mode
    os.remove(tmp_path / "plain")
    (tmp_path / "old.txt").write_text("an older and longer text\n")
    write_files([(tmp_path / "a.txt", "text\n"), (tmp_path / "sub" / "b.npz", b"\x00\xff"),
                 (tmp_path / "old.txt", iter(["one ", "piece at a time\n"]))])
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "old.txt", "sub"]
    assert os.listdir(tmp_path / "sub") == ["b.npz"]
    assert (tmp_path / "a.txt").read_text() == "text\n"
    assert (tmp_path / "sub" / "b.npz").read_bytes() == b"\x00\xff"
    assert (tmp_path / "old.txt").read_text() == "one piece at a time\n"
    for path in ("a.txt", "sub/b.npz", "old.txt"):
        assert os.stat(tmp_path / path).st_mode == mode, path


def test_write_files_writes_through_a_symlink(tmp_path):
    """A symlinked destination keeps its link and its target is replaced, as
    open(path, "w") would write it; the link and its target are one file."""
    (tmp_path / "target.txt").write_text("old\n")
    (tmp_path / "link.txt").symlink_to(tmp_path / "target.txt")
    write_files([(tmp_path / "link.txt", "new\n")])
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "target.txt").read_text() == "new\n"
    with pytest.raises(InvalidSetting, match="two outputs name one file"):
        write_files([(tmp_path / "target.txt", "a\n"), (tmp_path / "link.txt", "b\n")])
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


@pytest.mark.parametrize("name", ["new/", "new/.", "new/.."])
def test_write_files_refuses_a_name_of_a_directory(name, tmp_path):
    """A destination that can only name a directory is refused before any
    directory is made, not written as a file of the directory's name."""
    with pytest.raises(IsADirectoryError):
        write_files([(os.path.join(tmp_path, name), "text\n")])
    assert os.listdir(tmp_path) == []


def test_write_files_refuses_a_destination_that_is_not_a_regular_file(tmp_path):
    """A FIFO (or a device such as /dev/null) is refused, not replaced by
    the rename that puts a file in place."""
    os.mkfifo(tmp_path / "fifo")
    with pytest.raises(InvalidSetting, match="not a regular file"):
        write_files([(tmp_path / "fifo", "text\n")])
    assert os.listdir(tmp_path) == ["fifo"]


def _failing_pieces():
    yield "the first piece"
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fault", ["second_replace", "second_file_pieces"])
def test_write_files_failure_leaves_no_file(fault, tmp_path, monkeypatch):
    """A failure while the second of three files is written, or once the
    first is already in place, leaves no destination and no temporary."""
    real_replace, replaced = os.replace, []

    def replace(src, dst):
        replaced.append(dst)
        if len(replaced) == 2:
            raise OSError(errno.EIO, "Input/output error", dst)
        real_replace(src, dst)

    if fault == "second_replace":
        monkeypatch.setattr(os, "replace", replace)
    second = _failing_pieces() if fault == "second_file_pieces" else "second\n"
    with pytest.raises(OSError):
        write_files([(tmp_path / "a.txt", "first\n"), (tmp_path / "b.txt", second),
                     (tmp_path / "c.txt", "third\n")])
    assert os.listdir(tmp_path) == []
    assert len(replaced) == (2 if fault == "second_replace" else 0)


@pytest.mark.parametrize("cls,method,param", [(FlowExpert, "_backward", "b3"),
                                              (CotHead, "loss_and_grads", "bc")])
def test_gradient_gate_probes_every_layer(cls, method, param, monkeypatch):
    """A gradient off by 0.1 % in one small bias array fails criterion 6,
    because the gate probes every parameter array."""
    from graphact.selfcheck import check_gradients
    exact = getattr(cls, method)

    def skewed(*args):
        out = exact(*args)
        (out if isinstance(out, dict) else out[1])[param] *= 1.001
        return out

    monkeypatch.setattr(cls, method, skewed)
    assert not check_gradients()[1]
