"""Synthetic scenes and episodes: ground truth for every pipeline stage.

Objects are placed at nominal positions with uniform translation jitter
(+/-10 cm per horizontal axis) and yaw jitter (+/-30 degrees), then
forward-projected into detections and a depth grid of flat rectangles. Robot
motion is a scripted joint-space cubic; no claim of behavioral realism.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (DECODE_ERRORS, SCENARIOS, BoundingBox, CameraIntrinsics, DepthGrid,
                   FrameRecord, InstructionScenario, InvalidSetting, PipelineConfig, PipelineError,
                   RigidTransform, check_count, jsonl_text, make_rng, reader)
from .kinematics import default_chains
from .projection import BehindCamera, project


class InvalidVariant(PipelineError):
    pass


class EmptyEpisode(PipelineError):
    pass


class MalformedEpisode(PipelineError):
    """An episode file line breaks the format episode_text produces."""


TRANSLATE_JITTER = 0.10          # meters, per horizontal axis
YAW_JITTER = math.radians(30.0)

DEFAULT_BOX_SIZE = 20.0          # rendered detection box, pixels
DEFAULT_FAR = 5.0                # background depth, meters


@dataclass(frozen=True)
class SceneObject:
    label: str
    position: np.ndarray  # (3,) base frame
    yaw: float


@dataclass
class Scene:
    objects: list
    table_bounds: tuple  # ((x0, x1), (y0, y1), (z0, z1))

    def labels(self) -> list:
        return [o.label for o in self.objects]

    def position_of(self, label: str) -> np.ndarray:
        for o in self.objects:
            if o.label == label:
                return o.position
        raise InvalidSetting(f"scene has no object {label!r}; its labels are {self.labels()}")


_TABLE = ((0.30, 0.80), (-0.35, 0.35), (0.0, 0.25))


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> RigidTransform:
    """Camera-to-base transform for a pinhole camera (+x right, +y down,
    +z forward) positioned at eye and looking at target."""
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward = forward / np.linalg.norm(forward)
    right = np.cross(forward, np.asarray(up, dtype=float))
    nr = np.linalg.norm(right)
    if nr < 1e-9:
        raise InvalidSetting("view direction parallel to up vector")
    right = right / nr
    down = np.cross(forward, right)
    R = np.stack([right, down, forward], axis=1)
    return RigidTransform(R, eye)


def default_config(seed: int = 0) -> PipelineConfig:
    """Desk-scale rig: 640x480 head camera over a tabletop, two 7-DOF arms.
    seed is accepted for older callers and ignored: no config value is random."""
    K = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)
    T = look_at(eye=(0.05, 0.0, 0.75), target=(0.55, 0.0, 0.0))
    return PipelineConfig(intrinsics=K, extrinsics=T, chains=default_chains())


def gen_scene(scenario: InstructionScenario, variant: int, rng) -> Scene:
    """Place the variant's available objects at nominal + jitter positions."""
    if not 0 <= variant < len(scenario.variants):
        raise InvalidVariant(f"scenario '{scenario.name}' has no variant {variant}")
    objects = []
    for label in scenario.variants[variant]:
        dx, dy = rng.uniform(-TRANSLATE_JITTER, TRANSLATE_JITTER, size=2)
        yaw = float(rng.uniform(-YAW_JITTER, YAW_JITTER))
        nx, ny, nz = scenario.nominal[label]
        objects.append(SceneObject(label=label,
                                   position=np.array([nx + dx, ny + dy, nz]),
                                   yaw=yaw))
    return Scene(objects=objects, table_bounds=_TABLE)


def _box_region(box: BoundingBox, width: int, height: int) -> tuple:
    x0 = max(int(math.floor(box.x_min)), 0)
    y0 = max(int(math.floor(box.y_min)), 0)
    x1 = min(int(math.ceil(box.x_max)), width)
    y1 = min(int(math.ceil(box.y_max)), height)
    return x0, y0, x1, y1


def render_frame(scene: Scene, q, t: float, K: CameraIntrinsics,
                 T: RigidTransform) -> FrameRecord:
    """Forward-project each object into a detection box and a flat depth
    rectangle over the box at the object's depth, capped at the far background.

    The rectangles are stable-sorted far to near, so where boxes overlap the
    nearest surface is on top; detections keep the scene's order. Objects
    behind the camera raise BehindCamera; objects projecting outside the image
    (or within a pixel of its border) get no detection and no rectangle.
    """
    T_inv = T.inverse()
    rects, detections = [], []
    for obj in scene.objects:
        p_cam = T_inv.apply(obj.position)
        if p_cam[2] <= 0:
            raise BehindCamera(f"object '{obj.label}' behind the head camera")
        pix, z = project(p_cam, K)
        u, v = float(pix[0]), float(pix[1])
        half = DEFAULT_BOX_SIZE / 2.0
        hu = min(half, u, K.width - u)
        hv = min(half, v, K.height - v)
        if hu < 1.0 or hv < 1.0:
            continue
        box = BoundingBox(label=obj.label, x_min=u - hu, y_min=v - hv,
                          x_max=u + hu, y_max=v + hv)
        rects.append((*_box_region(box, K.width, K.height), min(z, DEFAULT_FAR)))
        detections.append(box)
    rects.sort(key=lambda r: r[4], reverse=True)
    return FrameRecord(t=t, detections=detections,
                       depth=DepthGrid(K.width, K.height, DEFAULT_FAR, rects),
                       q=np.asarray(q, dtype=float))


# Fixed map from a target bearing to per-arm joint offsets; arbitrary but
# deterministic, bounded so scripted goals stay well inside +/-pi limits.
_BEARING_TO_JOINTS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.3, 0.3, 0.3],
])


def _goal_config(scene: Scene, scenario: InstructionScenario, cfg: PipelineConfig,
                 home: np.ndarray) -> np.ndarray:
    target = next((lbl for lbl in scenario.required if lbl in scene.labels()), None)
    if target is None:
        return home.copy()
    p = scene.position_of(target)
    goal = home.copy()
    offset = 0
    for chain in cfg.chains:
        bearing = p - chain.base.translation
        delta = 0.6 * np.tanh(_BEARING_TO_JOINTS[:chain.dof] @ bearing)
        goal[offset:offset + chain.dof] += delta
        offset += chain.dof
    lo, hi = cfg.joint_limits
    return np.clip(goal, lo, hi)


@dataclass
class Episode:
    frames: list
    scene: Scene
    scenario: InstructionScenario
    trajectory: list        # list of (J,) arrays, one per frame
    K: CameraIntrinsics
    T: RigidTransform
    variant: int = 0
    seed: int = 0


def gen_episode(scenario: InstructionScenario, variant: int, n_frames: int,
                seed: int, cfg: PipelineConfig) -> Episode:
    """Deterministic episode: jittered scene, cubic home-to-goal trajectory,
    frames rendered at the camera rate. The scene is reproducible from the
    recorded seed (it consumes the generator's first draws)."""
    check_count("n_frames", n_frames)
    rng = make_rng(seed)
    scene = gen_scene(scenario, variant, rng)
    home = np.zeros(cfg.j_total)
    goal = _goal_config(scene, scenario, cfg, home)
    trajectory = []
    for i in range(n_frames):
        u = i / (n_frames - 1) if n_frames > 1 else 0.0
        s = 3.0 * u ** 2 - 2.0 * u ** 3  # smooth cubic, zero end velocities
        trajectory.append(home + s * (goal - home))
    frames = [render_frame(scene, trajectory[i], i / cfg.camera_rate_hz,
                           cfg.intrinsics, cfg.extrinsics)
              for i in range(n_frames)]
    return Episode(frames=frames, scene=scene, scenario=scenario, trajectory=trajectory,
                   variant=variant, seed=seed, K=cfg.intrinsics, T=cfg.extrinsics)


# An episode file: a HEADER line, then a FRAME line per frame, each read back
# in this key order. Depth rectangles are in drawing order; the size is K's.
HEADER = {"scenario": str, "variant": int, "K": CameraIntrinsics, "T": RigidTransform,
          "seed": int}
FRAME = {"t": float, "q": list[float],
         "detections": list[{"label": str, "box": tuple[float, float, float, float]}],
         "depth": list[tuple[int, int, int, int, float]], "far": float}
_read_header, _read_frame = reader(HEADER, "header"), reader(FRAME, "frame")


def episode_text(ep: Episode) -> str:
    """The episode as JSONL text in the HEADER and FRAME format."""
    lines = [("episode header", {"scenario": ep.scenario.name, "variant": ep.variant,
                                 "K": ep.K, "T": ep.T, "seed": ep.seed})]
    for i, frame in enumerate(ep.frames):
        boxes = [{"label": d.label, "box": (d.x_min, d.y_min, d.x_max, d.y_max)}
                 for d in frame.detections]
        lines.append((f"episode frame {i}", {"t": frame.t, "q": frame.q, "detections": boxes,
                                             "depth": frame.depth.patches, "far": frame.depth.far}))
    return jsonl_text(lines)


def _decode_frame(rec, width: int, height: int) -> FrameRecord:
    t, q, detections, rects, far = _read_frame(rec).values()
    for x0, y0, x1, y1, _ in rects:
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            raise MalformedEpisode(f"depth rectangle {[x0, y0, x1, y1]} outside the "
                                   f"{width}x{height} image")
    for d in detections:
        x0, y0, x1, y1 = d["box"]
        if not (0 <= x0 <= x1 <= width and 0 <= y0 <= y1 <= height):
            raise MalformedEpisode(f"detection box {[x0, y0, x1, y1]} not ordered inside "
                                   f"the {width}x{height} image")
    return FrameRecord(t=t, detections=[BoundingBox(d["label"], *d["box"]) for d in detections],
                       depth=DepthGrid(width, height, far, rects), q=q)


def load_episode(path) -> Episode:
    """Inverse of episode_text, read from the file at path; the scene is
    regenerated from the header seed.

    Lines are decoded one at a time and each frame keeps the file's
    rectangles as its depth, so memory grows with the number of boxes, not
    with the image size. A header or frame that breaks the format or nests
    too deep to decode, holds a non-finite number (NaN, +-Infinity, or a
    literal too large for a float), or a seed or variant the generator
    refuses raises MalformedEpisode; a line that is not UTF-8 or not JSON,
    UnicodeDecodeError or JSONDecodeError. Each names the file and line.
    """
    with open(path, "rb") as f:
        lines = ((n, line) for n, line in enumerate(f, 1) if line.strip())
        n = 0
        try:
            n, line = next(lines, (0, None))
            if line is None:
                raise EmptyEpisode(f"episode file {path} is empty")
            name, variant, K, T, seed = _read_header(json.loads(line.decode())).values()
            if name not in SCENARIOS:
                raise MalformedEpisode(f"unknown scenario {name!r}")
            scenario = SCENARIOS[name]
            scene = gen_scene(scenario, variant, make_rng(seed))
            frames = []
            for n, line in lines:
                frames.append(_decode_frame(json.loads(line.decode()), K.width, K.height))
            if not frames:
                raise EmptyEpisode(f"episode file {path} has no frames")
        except json.JSONDecodeError as exc:  # not JSON at all: an I/O-level failure
            exc.args = (f"{path}: line {n}: {exc.msg} (char {exc.pos})",)
            raise
        except UnicodeDecodeError as exc:  # not UTF-8, so not JSON text either
            exc.reason += f" ({path}: line {n})"
            raise
        except (MalformedEpisode, InvalidVariant) as exc:
            raise MalformedEpisode(f"{path}: line {n}: {exc}") from exc
        except DECODE_ERRORS as exc:
            raise MalformedEpisode(f"{path}: line {n}: {type(exc).__name__}: {exc}") from exc
    return Episode(frames=frames, scene=scene, scenario=scenario,
                   trajectory=[frame.q for frame in frames], variant=variant,
                   seed=seed, K=K, T=T)
