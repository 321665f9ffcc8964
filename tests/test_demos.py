"""Each demo script, and the CLI's selfcheck, runs to completion in a fresh
interpreter, so a renamed or removed public name cannot break one silently."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


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
