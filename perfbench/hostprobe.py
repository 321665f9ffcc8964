"""Host-speed probes: fixed pieces of work that share no code with graphact.

On small shared VMs each vCPU switches between a fast and a slow state every
few seconds, independently of the other, and CPU time moves with wall time:
it is the host's throughput that changes, not scheduling. The slow state
does not slow all code alike. On a 2-vCPU host it slowed interpreter-bound
code (many tiny numpy calls, object churn) about 1.9x, but bulk work done in
C over large buffers (matmuls of a few hundred rows, JSON decode, dense
array allocation) only about 1.3x. So there are two probes: "interp" for
the per-frame control ticks, which are interpreter-bound, and "bulk" for
whole CLI commands, whose time goes to JSON, dense depth grids and, in
training, matmuls. Each timed sample is scaled by the probe of its own kind,
taken in the same process next to it.
"""

import time

import numpy as np

_rng = np.random.default_rng(12345)
_W1 = _rng.normal(size=(470, 64))
_W2 = _rng.normal(size=(64, 64))
_W3 = _rng.normal(size=(64, 420))
_X = _rng.normal(size=(1, 470))
_R = [_rng.normal(size=(3, 3)) for _ in range(8)]
_V = _rng.normal(size=3)


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


_A = _rng.normal(size=(144, 100))
_B = _rng.normal(size=(100, 64))
_C = _rng.normal(size=(64, 700))


def _interp_work():
    acc = 0.0
    for _ in range(5):
        a = np.tanh(np.tanh(_X @ _W1) @ _W2) @ _W3
        acc += float(a[0, 0])
    for k in range(40):
        p = _R[k % 8] @ _V + _V
        q = np.concatenate([p, _V, [1.0]])
        acc += float(np.sqrt(q.dot(q)))
    table = {}
    for i in range(800):
        o = _Obj(i, acc)
        table[i % 17] = o
        acc += o.a * 1e-9 + len(table)
    return acc


def _bulk_work():
    acc = 0.0
    for _ in range(2):
        h = np.tanh(_A.T @ np.tanh(_A @ _B))
        g = h @ _C
        p = np.exp(g - g.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        acc += float((h.T @ p)[0, 0])
    return acc


KINDS = {"interp": (_interp_work, 9), "bulk": (_bulk_work, 5)}


def probe_ms(kind: str = "interp") -> float:
    """Median wall time of one probe's fixed work, in milliseconds."""
    work, repeats = KINDS[kind]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        samples.append((time.perf_counter() - t0) * 1e3)
    samples.sort()
    return samples[len(samples) // 2]
