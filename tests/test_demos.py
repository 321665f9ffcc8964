"""Each demo script, and the CLI's selfcheck, runs to completion in a fresh
interpreter, so a renamed or removed public name cannot break one silently."""

import ast
import glob
import importlib
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run_fresh(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run_fresh([demo], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_selfcheck_runs_without_the_test_tree(tmp_path):
    """A build checks itself from any directory: the four acceptance oracles
    run and pass in a fresh interpreter."""
    proc = _run_fresh(["-m", "graphact.cli", "selfcheck"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["ok", "projection_roundtrip:"], ["ok", "flow_identities:"],
        ["ok", "gradients:"], ["ok", "loss_formulas:"]]


def _perfbench_ast(name):
    with open(os.path.join(PERFBENCH, name)) as f:
        return ast.parse(f.read())


def _resolve(path):
    """The object a dotted path names: its longest importable module prefix,
    then attributes."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(path)


def test_benchmark_call_surface_resolves_and_binds():
    """The benchmark reaches the package as `ga.<name>` in perfbench/run.py
    and patches the TRACE_POINTS of perfbench/tracing.py, both read here and
    never edited: every name resolves, and every `ga.<name>(...)` call binds
    to that name's current signature with its positional count and keyword
    names, so a library change cannot break the benchmark silently."""
    import graphact as ga
    nodes = list(ast.walk(_perfbench_ast("run.py")))
    used = {n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "ga"}
    assert sorted(name for name in used if not hasattr(ga, name)) == []
    calls = [n for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and isinstance(n.func.value, ast.Name) and n.func.value.id == "ga"]
    assert calls
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), call.lineno
        assert all(k.arg is not None for k in call.keywords), call.lineno
        try:
            inspect.signature(getattr(ga, call.func.attr)).bind(
                *call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"run.py:{call.lineno} ga.{call.func.attr}: {exc}")
    assert unbound == []
    points = next(n.value for n in ast.walk(_perfbench_ast("tracing.py"))
                  if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "TRACE_POINTS")
    owners = [(p.elts[0].value, p.elts[1].value) for p in points.elts]
    assert owners
    assert [f"{owner}.{attr}" for owner, attr in owners
            if not hasattr(_resolve(owner), attr)] == []


def test_benchmark_config_reads_resolve():
    """Every attribute perfbench/run.py reads of the pipeline config
    (`<x>.cfg.<attr>`, or `cfg.<attr>` in a function that binds its local cfg
    from self.cfg; another local cfg holds numpy's build config) resolves on
    default_config(), constants and derived counts included."""
    from graphact import default_config
    reads = set()
    for fn in ast.walk(_perfbench_ast("run.py")):
        if not isinstance(fn, ast.FunctionDef):
            continue
        binds = [ast.unparse(n.value) for n in ast.walk(fn) if isinstance(n, ast.Assign)
                 and "cfg" in {t.id for t in ast.walk(n.targets[0]) if isinstance(t, ast.Name)}]
        local_is_config = all("self.cfg" in value for value in binds)
        reads |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute) and (
            isinstance(n.value, ast.Attribute) and n.value.attr == "cfg" or
            local_is_config and isinstance(n.value, ast.Name) and n.value.id == "cfg")}
    assert {"max_gap", "control_rate_hz", "j_total"} <= reads
    cfg = default_config()
    assert sorted(name for name in reads if not hasattr(cfg, name)) == []
