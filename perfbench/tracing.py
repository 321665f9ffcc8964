"""In-memory span tracing around graphact's public functions.

A span is (name, start, end, parent, unit, note): perf_counter seconds, the
index of the enclosing span (-1 for none), the benchmark unit it belongs to
and an optional dict of counts taken from the call's result. Spans are kept
in memory and written out once at the end of a run.

Wrappers are installed by replacing the function in every graphact module
namespace that holds it (so `from .x import f` bindings are caught too) and
on the owning class for methods; `Tracer.installed()` restores the originals.
"""

import contextlib
import gzip
import inspect
import json
import sys
import time

NAME, START, END, PARENT, UNIT, NOTE = range(6)


def _graph_nodes(g):
    objects = sum(1 for n in g.nodes if n.kind == "object")
    return {"nodes": len(g.nodes), "objects": objects}


def _episode_frames(ep):
    return {"frames": len(ep.frames)}


def _loop_frames(result):
    return {"frame_ms": result[1].frame_samples}


# (owner, attribute, span name, note-from-result). Owners are dotted paths
# under graphact; a class owner wraps the method or classmethod on it.
TRACE_POINTS = [
    ("graphact.sim", "load_episode", "sim.load_episode", _episode_frames),
    ("graphact.core.PipelineConfig", "load", "cli.config_load", None),
    ("graphact.gnn.GnnWeights", "load", "cli.artifact_load", None),
    ("graphact.flow.FlowExpert", "load", "cli.artifact_load", None),
    ("graphact.cot.CotHead", "load", "cli.artifact_load", None),
    ("graphact.flow.FlowExpert", "save", "cli.weights_save", None),
    ("graphact.cot.CotHead", "save", "cli.weights_save", None),
    ("graphact.stream_sync", "align_streams", "stream_sync.align_streams", None),
    ("graphact.inference", "run_inference_loop", "inference.run_inference_loop", _loop_frames),
    ("graphact.graph", "build_graph", "graph.build_graph", _graph_nodes),
    ("graphact.kinematics", "fk_positions", "kinematics.fk_positions", None),
    ("graphact.projection", "depth_at", "projection.depth_at", None),
    ("graphact.gnn", "encode", "gnn.encode", None),
    ("graphact.gnn", "graph_conv", "gnn.graph_conv", None),
    ("graphact.gnn", "normalized_adjacency", "gnn.normalized_adjacency", None),
    ("graphact.flow", "sample_actions", "flow.sample_actions", None),
    ("graphact.flow.FlowExpert", "forward", "flow.forward", None),
    ("graphact.flow", "train_step", "flow.train_step", None),
    ("graphact.cot", "generate_cot", "cot.generate_cot", None),
    ("graphact.cot.CotHead", "loss_and_grads", "cot.loss_and_grads", None),
]

# The untraced run keeps only the two spans that end-to-end metrics need:
# episode decode (excluded from set-up) and the loop (first-frame time).
LIGHT_POINTS = [p for p in TRACE_POINTS
                if p[2] in ("sim.load_episode", "inference.run_inference_loop")]


def _resolve(path):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:i]))
        if mod is not None:
            obj = mod
            for p in parts[i:]:
                obj = getattr(obj, p)
            return obj
    raise ImportError(f"{path} is not imported")


class Tracer:
    """Span recorder. `unit` tags new spans with the current benchmark unit."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.unit = -1

    def begin(self, name, t=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if t is None else t, None,
                           parent, self.unit, None])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx, note=None, t=None):
        self.spans[idx][END] = time.perf_counter() if t is None else t
        self.spans[idx][NOTE] = note
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def add_foreign(self, spans, parent, unit):
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[NAME], s[START], s[END],
                               parent if s[PARENT] < 0 else base + s[PARENT],
                               unit, s[NOTE]])

    def _wrap(self, fn, name, note_fn):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(idx, note_fn(result) if note_fn and result is not None else None)
        wrapped.__wrapped__ = fn
        return wrapped

    @contextlib.contextmanager
    def installed(self, points=None):
        """Patch the trace points for the duration of the block."""
        undo = []
        try:
            for owner_path, attr, name, note_fn in (points or TRACE_POINTS):
                owner = _resolve(owner_path)
                if inspect.isclass(owner):
                    static = inspect.getattr_static(owner, attr)
                    if isinstance(static, classmethod):
                        new = classmethod(self._wrap(static.__func__, name, note_fn))
                    else:
                        new = self._wrap(static, name, note_fn)
                    setattr(owner, attr, new)
                    undo.append((owner, attr, static))
                    continue
                fn = getattr(owner, attr)
                new = self._wrap(fn, name, note_fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "graphact" and getattr(mod, attr, None) is fn:
                        setattr(mod, attr, new)
                        undo.append((mod, attr, fn))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def write(self, path):
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_times(spans):
    """Per-span self time: its duration minus that of its direct children.

    The program is single-threaded, so children never overlap and their
    durations add up to the part of the parent they cover.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
