"""Each script under scripts/ runs to completion at a small size."""
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script,args", [
    ("bench_aggregation.py", ["--grid", "8", "--dim", "8", "--reps", "1"]),
    ("compare_attention_forms.py", ["--tokens", "16", "--dim", "8"]),
    ("run_demo.py", ["--pairs", "4", "--steps", "2", "--workdir", "{tmp}"]),
])
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, os.path.join(REPO, "scripts", script), *(a.format(tmp=tmp_path / "demo") for a in args)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
