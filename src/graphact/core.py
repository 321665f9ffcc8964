"""Shared domain types, configuration, and deterministic randomness.

All geometry is double precision. Timestamps are plain floats (seconds since
episode start); joint configurations are 1-D float arrays in radians.
"""

import contextlib
import errno
import io
import json
import math
import operator
import os
import stat
import sys
import typing
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

# Generator identity for every seeded stream in this package. Equal seeds
# produce equal draw sequences within one numpy version.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

ORTHONORMAL_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max

# The most entries a config lets one weight matrix hold: 2**24 float64
# values, 128 MiB. PipelineConfig refuses size keys that would pass it.
MAX_WEIGHT_ENTRIES = 2 ** 24

# The widths no config key sets, read by the models and by that bound: the
# scene-graph node kinds, in the order of the GNN input's kind one-hot, the
# GNN input [x, y, z, one-hot], and the head's context projection.
NODE_KINDS = ("object", "end_effector", "joint")
GNN_INPUT_DIM = 3 + len(NODE_KINDS)
CTX_EMBED = 16

# Cosine terms over the horizon in which the action expert models a chunk's
# offset from the current joints: the first 4 orthonormal DCT-II rows keep
# 99.94 % of the offsets' energy on the generated episodes (0.017 rad mean L2
# reconstruction error over a 30-step horizon). PipelineConfig.action_terms
# caps it at flow_horizon.
ACTION_TERMS = 4

# What reading a malformed document raises: KeyError (a missing member), TypeError
# or ValueError (a value of the wrong kind, or one reader or a constructor refuses),
# OverflowError (a number no float holds), RecursionError (nesting too deep to decode).
DECODE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ShapeMismatch(PipelineError):
    pass


class InvalidSetting(PipelineError, ValueError):
    """A setting or library argument out of range (a count below 1, an empty
    batch or a non-finite rate, say) or a command line that does not parse."""


class NonFiniteOutput(PipelineError):
    """A command's result holds a NaN or infinite number, which strict JSON
    cannot carry and no later command should read."""


def check_finite(what: str, values, error=NonFiniteOutput) -> None:
    """Raise error (NonFiniteOutput by default) naming what unless every
    entry of values is finite."""
    if not np.isfinite(values).all():
        raise error(f"{what} has a non-finite entry")


def check_shapes(owner: str, expected: dict) -> None:
    """expected: parameter name -> (array, shape it must have). Raises
    ShapeMismatch naming the first parameter whose shape differs."""
    for name, (arr, shape) in expected.items():
        if np.shape(arr) != tuple(shape):
            raise ShapeMismatch(f"{owner} parameter {name} has shape {np.shape(arr)}, "
                                f"expected {tuple(shape)}")


def _fail(name: str, what: str, value):
    raise ValueError(f"{name}: expected {what}, got {type(value).__name__} {value!r:.60}")


def reader(spec, name: str):
    """Compile spec once into read(value): the decoded value of parsed JSON,
    or ValueError naming the path of the first bad value. float takes a finite
    number and int an integer (neither a bool), str a string; list[S] and
    tuple[S, ...] a list, tuple[S1, ..., Sn] a list of n items; {key: S} an
    object with exactly those keys, read into a dict in the spec's key order;
    a class the object of its JSON attribute or dataclass fields, as kwargs."""
    origin, args = typing.get_origin(spec), typing.get_args(spec)
    if spec is float:
        def read_float(v):
            # Compares an int exactly, so an integer no float holds fails too.
            if (type(v) is float or type(v) is int) and -_FLOAT_MAX <= v <= _FLOAT_MAX:
                return float(v)
            _fail(name, "a finite number", v)
        return read_float
    if spec is int or spec is str:
        def read_exact(v):
            if type(v) is not spec:
                _fail(name, "an integer" if spec is int else "a string", v)
            return v
        return read_exact
    if origin is list or (origin is tuple and args[1:] == (...,)):
        item = reader(args[0], name + "[]")

        def read_seq(v):
            if type(v) is not list:
                _fail(name, "a list", v)
            return origin([item(x) for x in v])
        return read_seq
    if origin is tuple:
        items = [reader(s, f"{name}[{i}]") for i, s in enumerate(args)]

        def read_tuple(v):
            if type(v) is not list or len(v) != len(items):
                _fail(name, f"a list of {len(items)}", v)
            return tuple([read(x) for read, x in zip(items, v)])
        return read_tuple
    if isinstance(spec, dict):
        members = {key: reader(s, f"{name}.{key}") for key, s in spec.items()}

        def read_object(v):
            if type(v) is not dict:
                _fail(name, "an object", v)
            if v.keys() != members.keys():
                raise ValueError(f"{name}: " + ", ".join(
                    [f"missing key {k!r}" for k in members if k not in v] +
                    [f"unknown key {k!r}" for k in v if k not in members]))
            return {key: read(v[key]) for key, read in members.items()}
        return read_object
    read_fields = reader(getattr(spec, "JSON", None) or
                         {f.name: f.type for f in fields(spec)}, name)
    return lambda v: spec(**read_fields(v))


def to_json(obj, what: str = "value"):
    """Inverse of reader: obj as JSON values. A class instance becomes the
    object of its JSON keys or dataclass fields, in order, a tuple a list, an
    array its flat list of values and a numpy scalar its Python value. A NaN
    or infinity, which strict JSON cannot carry, raises NonFiniteOutput."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NonFiniteOutput(f"{what} has a non-finite entry")
    if isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.generic):
        return to_json(obj.item(), what)
    if isinstance(obj, np.ndarray):
        check_finite(what, obj)
        return obj.ravel().tolist()
    if isinstance(obj, (list, tuple)):
        return [to_json(v, what) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v, what) for k, v in obj.items()}
    return {k: to_json(getattr(obj, k), what) for k in getattr(obj, "JSON", None) or
            [f.name for f in fields(obj)]}


def jsonl_text(docs) -> str:
    """One JSON line per (what, obj) of docs, each built by to_json(obj, what)."""
    return "".join([json.dumps(to_json(obj, what)) + "\n" for what, obj in docs])


def check_outputs(paths) -> list:
    """The real paths of a command's destinations, creating nothing. Raises
    InvalidSetting for two naming one file or one neither new nor a regular
    file (a device a rename would replace), IsADirectoryError for a
    directory and NotADirectoryError for one under a regular file. A
    symlink stands for its target. Each path costs one stat and one realpath."""
    reals = {}
    for path in paths:
        if os.path.basename(path) in ("", ".", ".."):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:
            mode = os.stat(path).st_mode  # NotADirectoryError under a regular file
        except FileNotFoundError:
            mode = 0  # a new file, or a dangling link's; a missing directory is made
        real = os.path.realpath(path)
        if real in reals:
            raise InvalidSetting(f"two outputs name one file: {path}")
        reals[real] = path
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if mode and not stat.S_ISREG(mode):
            raise InvalidSetting(f"output {path} is not a regular file")
    return list(reals)


def write_files(files) -> None:
    """Put each (path, data) of files in place whole, data a str, bytes or an
    iterable of str pieces: files is read to its end and checked by
    check_outputs, each file written to a temporary beside it (mode as
    open(path, "w") gives), then all os.replace'd onto their names. A
    failure removes every file made; a directory made stays."""
    files = list(files)
    reals, made = check_outputs([path for path, _ in files]), []
    try:
        for real, (_, data) in zip(reals, files):
            os.makedirs(os.path.dirname(real), exist_ok=True)
            made.append(f"{real}.{os.getpid()}.tmp")
            with open(made[-1], "wb" if isinstance(data, bytes) else "w") as f:
                f.writelines([data] if isinstance(data, (str, bytes)) else data)
        for k, real in enumerate(reals):
            os.replace(made[k], real)
            made[k] = real  # in place: removed too if a later file fails
    except BaseException:
        for path in made:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def fan_in_normal(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """(n_in, n_out) weights drawn from N(0, 1/n_in); none for n_in = 0."""
    return rng.normal(0.0, 1.0 / np.sqrt(max(n_in, 1)), size=(n_in, n_out))


class Model:
    """A learned model: a dataclass whose float arrays are named by PARAMS,
    in a fixed order. Its other public fields are its header: dimensions and
    hyperparameters. save and load are the one weight-file format."""

    PARAMS = ()
    NAME = "model"  # the model in messages
    TIES = {}  # attribute -> the PipelineConfig attribute it must equal in a loaded artifact

    def params(self) -> list:
        """[(name, array)] in PARAMS order; the arrays, not copies."""
        return [(name, getattr(self, name)) for name in self.PARAMS]

    def hold(self, names, build):
        """build()'s value, built on the first call and returned again until
        release; a model holds one value at a time. Meanwhile the parameters
        it is built from, named by names, are read-only, so an edit that
        would leave it stale raises ValueError."""
        held = self.__dict__.get("_held")
        if held is None:
            value = build()
            frozen = [p for p in (getattr(self, n) for n in names) if p.flags.writeable]
            for p in frozen:
                p.flags.writeable = False
            self._held = held = (value, frozen)
        return held[0]

    def release(self) -> None:
        """Drop what hold keeps and make its parameters writable again."""
        _, frozen = self.__dict__.pop("_held", None) or (None, ())
        for p in frozen:
            p.flags.writeable = True

    def __setattr__(self, name, value):
        # Read-only arrays catch edits in place; a parameter replaced whole
        # would leave the held value stale, so it ends the hold.
        if name in self.PARAMS:
            self.release()
        object.__setattr__(self, name, value)

    def check_finite_params(self, what: str, error=NonFiniteOutput) -> None:
        """check_finite on each parameter in PARAMS order, named
        "<what> parameter <name>"."""
        for name, p in self.params():
            check_finite(f"{what} parameter {name}", p, error)

    @classmethod
    def _header_fields(cls) -> dict:
        """The header's reader spec: field name -> type, in field order."""
        return {f.name: f.type for f in fields(cls)
                if f.name not in cls.PARAMS and not f.name.startswith("_")}

    def save(self, path, *files) -> None:
        """Write one uncompressed .npz to exactly path, with the (path, text)
        pairs of files, through write_files: first a 0-d unicode array
        "header" holding the JSON of the header fields, then the PARAMS
        arrays as float64, in PARAMS order. Equal models give equal bytes."""
        header = to_json({name: getattr(self, name) for name in self._header_fields()})
        npz = io.BytesIO()
        np.savez(npz, header=np.array(json.dumps(header)),
                 **{name: np.asarray(p, dtype=np.float64) for name, p in self.params()})
        write_files([(path, npz.getvalue()), *files])

    @classmethod
    def load(cls, path):
        """Inverse of save. A file that is not a whole zip archive raises
        BadZipFile. A missing member raises KeyError; a non-float64 array or
        a header that reader(_header_fields()) refuses raises ValueError.
        Then the model's own checks run."""
        with open(path, "rb") as f:
            # Check every member's CRC before numpy parses any of it; a damaged
            # zip header can also end in EOFError or RuntimeError.
            try:
                with zipfile.ZipFile(f) as archive:
                    damaged = archive.testzip()
            except (zipfile.BadZipFile, EOFError, RuntimeError) as exc:
                raise zipfile.BadZipFile(f"{path}: {exc}") from exc
            if damaged is not None:
                raise zipfile.BadZipFile(f"{path}: member {damaged} fails its CRC check")
            f.seek(0)
            with np.load(f, allow_pickle=False) as npz:
                header = reader(cls._header_fields(), cls.__name__)(
                    json.loads(npz["header"].item()))
                arrays = {name: npz[name] for name in cls.PARAMS}
        bad = [f"{k} has dtype {a.dtype}, not float64" for k, a in arrays.items()
               if a.dtype != np.float64]
        if bad:
            raise ValueError(f"{cls.__name__} " + "; ".join(bad))
        return cls(**header, **arrays)


def check_difference_step(h) -> None:
    """Raise InvalidSetting unless 0 < h < inf: the central differences of
    max_grad_error at h = nan compare as a perfect gradient."""
    if not 0 < h < np.inf:
        raise InvalidSetting(f"h must be finite and > 0, got {h!r}")


def max_grad_error(model: Model, grads: dict, loss, h: float, n_params: int,
                   rng: np.random.Generator) -> float:
    """Max relative error |an - cd| / (|an| + |cd| + 1e-12) between the
    analytic gradients grads[name] and central differences of loss(), a
    function of the model's current parameters. n_params is split evenly
    over the PARAMS arrays, at least one entry each, so every layer is
    probed; each array's entries are drawn without replacement."""
    params = model.params()
    worst = 0.0
    for k, (name, p) in enumerate(params):
        share = max(1, n_params // len(params) + (k < n_params % len(params)))
        for flat_idx in rng.choice(p.size, size=min(share, p.size), replace=False):
            idx = np.unravel_index(int(flat_idx), p.shape)
            orig = p[idx]
            p[idx] = orig + h
            lp = loss()
            p[idx] = orig - h
            lm = loss()
            p[idx] = orig
            cd = (lp - lm) / (2.0 * h)
            an = grads[name][idx]
            worst = max(worst, abs(an - cd) / (abs(an) + abs(cd) + 1e-12))
    return worst


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator (see RNG_ALGORITHM)."""
    return np.random.default_rng(seed)


def derive_seed(root_seed: int, *indices: int) -> int:
    """Stable child seed for stream (root, i, j, ...); used for per-episode rngs."""
    ss = np.random.SeedSequence([root_seed, *indices])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside image")


class RigidTransform:
    """Proper rigid transform (rotation + translation), meters.

    Rotation must be orthonormal with det +1 within ORTHONORMAL_TOL. The
    transform holds read-only copies of both arrays, so a later write to the
    caller's arrays cannot change it (FK caches the base of a chain).
    """

    __slots__ = ("rotation", "translation")
    JSON = {"rotation": tuple[(float,) * 9], "translation": tuple[float, float, float]}

    def __init__(self, rotation, translation):
        R = np.array(rotation, dtype=float).reshape(3, 3)
        t = np.array(translation, dtype=float).reshape(3)
        R.flags.writeable = t.flags.writeable = False
        if not np.allclose(R.T @ R, np.eye(3), atol=ORTHONORMAL_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")
        self.rotation = R
        self.translation = t

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self ∘ other)(p) = self(other(p))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def inverse(self) -> "RigidTransform":
        Rt = self.rotation.T
        return RigidTransform(Rt, -Rt @ self.translation)

    def apply(self, p) -> np.ndarray:
        """rotation @ p + translation, for one point (3,) or each row of (N, 3);
        a row of a stack gets the bits of its own one-point call."""
        p = np.asarray(p, dtype=float)
        return (self.rotation @ p[..., None])[..., 0] + self.translation

    def __repr__(self):
        return f"RigidTransform(t={self.translation.tolist()})"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned detection box in pixel coordinates."""

    label: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float


@dataclass
class DepthGrid:
    """Metric depth image, meters, held as the renderer draws it: a constant
    background `far` under an ordered list of flat rectangles
    (x0, y0, x1, y1, z), each covering columns x0:x1 and rows y0:y1 at depth
    z; a later rectangle covers an earlier one. Memory scales with the number
    of rectangles, not with width x height. Non-positive (or non-finite)
    values encode invalid depth."""

    width: int
    height: int
    far: float
    patches: list = field(default_factory=list)

    def at(self, u: int, v: int) -> float:
        """Depth at integer pixel column u, row v (inside the image): the z of
        the last rectangle that covers it, or far if none does."""
        for x0, y0, x1, y1, z in reversed(self.patches):
            if x0 <= u < x1 and y0 <= v < y1:
                return z
        return self.far


@dataclass
class FrameRecord:
    """One time-aligned multimodal observation."""

    t: float
    detections: list  # list[BoundingBox]
    depth: DepthGrid
    q: np.ndarray  # (J,) radians; empty when no joint stream matched

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(-1)


@dataclass(frozen=True)
class DhLink:
    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0


@dataclass(frozen=True)
class KinematicChain:
    """Serial chain: base pose in the robot base frame plus ordered DH links."""

    name: str
    base: RigidTransform
    links: tuple[DhLink, ...]

    @property
    def dof(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class InstructionScenario:
    """One task family: its objects' nominal positions, requirement set,
    and availability variants (which subset of the objects is on the table)."""

    name: str
    required: tuple
    variants: tuple          # tuple of label tuples
    instruction_text: str
    nominal: dict            # label -> (x, y, z), every object of the family


FOOD = InstructionScenario(
    name="food",
    required=("fish", "pepper"),
    variants=(("egg", "tomato", "fish", "pepper"),
              ("egg", "tomato", "pepper"),
              ("egg", "tomato")),
    instruction_text="i want to eat spicy river food .",
    nominal={"egg": (0.45, -0.15, 0.02), "tomato": (0.45, 0.15, 0.02),
             "fish": (0.65, -0.15, 0.02), "pepper": (0.65, 0.15, 0.02)},
)

OUTFIT = InstructionScenario(
    name="outfit",
    required=("t-shirt", "shorts"),
    variants=(("sweater", "t-shirt", "shorts"),
              ("sweater", "t-shirt"),
              ("sweater",)),
    instruction_text="i want a light summer outfit .",
    nominal={"sweater": (0.45, -0.18, 0.02), "t-shirt": (0.45, 0.18, 0.02),
             "shorts": (0.65, 0.0, 0.02)},
)

# The registry of task families, in the order of the task one-hot and gen's seed streams.
SCENARIOS = {s.name: s for s in (FOOD, OUTFIT)}


def _is_count(v, least: int = 1) -> bool:
    """v is an integer >= least: operator.index takes it (numpy ints too) and it is no bool."""
    try:
        return not isinstance(v, bool) and operator.index(v) >= least
    except TypeError:
        return False


def check_count(name: str, v, least: int = 1) -> None:
    """Raise InvalidSetting naming name unless v is an integer >= least (a
    count by default, as a config's counts are)."""
    if not _is_count(v, least):
        raise InvalidSetting(f"{name} must be an integer >= {least}, got {v!r}")


@dataclass
class PipelineConfig:
    """Everything the pipeline needs to run; round-trips through JSON
    (to_json and reader). Its ClassVars are not keys: no command aligns streams."""

    intrinsics: CameraIntrinsics
    extrinsics: RigidTransform          # head camera frame -> robot base frame
    chains: list[KinematicChain]
    joint_limits: tuple[float, float] = (-np.pi, np.pi)
    sigma: float = 1.0                  # action-noise scale for flow sampling
    max_gap: typing.ClassVar[float] = 2.0 / 30.0  # align_streams tolerance, seconds
    camera_rate_hz: float = 30.0
    control_rate_hz: typing.ClassVar[float] = 150.0
    gnn_dims: tuple[int, int, int] = (32, 32, 32)  # (d, h, d_out)
    flow_horizon: int = 30
    flow_hidden: int = 64
    flow_alpha: float = 1.5
    flow_beta: float = 1.0
    euler_steps: int = 10
    cot_dt_frames: int = 30
    cot_window: int = 8
    cot_hidden: int = 64
    cot_embed: int = 16
    cot_max_len: int = 96

    def __post_init__(self):
        """Raise ValueError naming every value the pipeline cannot run with, or
        else the keys that size a weight matrix of over MAX_WEIGHT_ENTRIES
        entries (the head's vocabulary counted as its cot_dt_frames + 1 offsets,
        and the (action_terms, flow_horizon) cosine basis as the expert's)."""
        dims = self.gnn_dims
        checks = [(name, "an integer >= 1", _is_count(getattr(self, name))) for name in (
            "flow_horizon", "flow_hidden", "euler_steps", "cot_dt_frames",
            "cot_window", "cot_hidden", "cot_embed", "cot_max_len")]
        checks += [(name, "finite and > 0", 0 < getattr(self, name) < np.inf) for name in (
            "flow_alpha", "flow_beta", "camera_rate_hz")]
        checks += [("sigma", "finite and >= 0", 0 <= self.sigma < np.inf),
                   ("joint_limits", "(lo, hi) with lo < hi",
                    self.joint_limits[0] < self.joint_limits[1]),
                   ("gnn_dims", "3 integers >= 1", len(dims) == 3 and all(map(_is_count, dims)))]
        bad = [f"{name} must be {what}, got {getattr(self, name)!r}"
               for name, what, ok in checks if not ok]
        if not bad:
            (d, h, d_out), e, hid, hf = dims, self.cot_embed, self.cot_hidden, self.flow_hidden
            d_in = self.action_terms * self.j_total + self.context_dim + 1
            # keys -> entries of the largest weight matrix they size
            sizes = [("gnn_dims", max(GNN_INPUT_DIM * d, d * h, h * d_out,
                                      CTX_EMBED * self.context_dim)),
                     ("flow_hidden", max(d_in, hf) * hf),
                     ("flow_horizon", self.action_terms * self.flow_horizon),
                     ("cot_window, cot_embed, cot_hidden",
                      (CTX_EMBED + self.cot_window * e) * hid),
                     ("cot_dt_frames, cot_embed, cot_hidden",
                      (self.cot_dt_frames + 1) * max(e, hid))]
            bad = [f"a weight matrix sized by {keys} would hold {n} entries, more than "
                   f"{MAX_WEIGHT_ENTRIES}" for keys, n in sizes if n > MAX_WEIGHT_ENTRIES]
        if bad:
            raise ValueError("config: " + "; ".join(bad))

    def save(self, path) -> None:
        write_files([(path, json.dumps(to_json(self, "config"), indent=2) + "\n")])

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        """The config in the file at path, through reader. A file that is not
        UTF-8 or not JSON raises UnicodeDecodeError or JSONDecodeError naming
        the config and its path."""
        with open(path, "rb") as f:
            data = f.read()
        try:
            doc = json.loads(data.decode())
        except json.JSONDecodeError as exc:
            exc.args = (f"config {path}: {exc}",)
            raise
        except UnicodeDecodeError as exc:
            exc.reason += f" (config {path})"
            raise
        return reader(cls, "config")(doc)

    @property
    def j_total(self) -> int:
        """Joint count over all chains: the length of q and of an action step."""
        return sum(c.dof for c in self.chains)

    @property
    def action_terms(self) -> int:
        """Cosine terms the expert predicts per joint: its horizon."""
        return min(ACTION_TERMS, self.flow_horizon)

    @property
    def context_dim(self) -> int:
        """pooled graph embedding + joint state + one-hot over SCENARIOS."""
        return self.gnn_dims[2] + self.j_total + len(SCENARIOS)
