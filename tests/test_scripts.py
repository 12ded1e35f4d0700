"""Each script under scripts/ runs to completion at a small size."""
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# settable values in src/ as scripts/surface.py counts them; a change that adds one raises this on purpose
SETTABLE_VALUES_CEILING = 101


@pytest.mark.parametrize("script,args", [
    ("bench_aggregation.py", ["--grid", "8", "--dim", "8", "--reps", "1"]),
    ("compare_attention_forms.py", ["--tokens", "16", "--dim", "8"]),
    ("run_demo.py", ["--pairs", "4", "--steps", "2", "--workdir", "{tmp}"]),
    ("output_hashes.py", ["--size", "64", "--steps", "1"]),
])
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, os.path.join(REPO, "scripts", script), *(a.format(tmp=tmp_path / "demo") for a in args)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def import_script(name: str):
    sys.path.insert(0, os.path.join(REPO, "scripts"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(os.path.join(REPO, "scripts"))


@pytest.fixture(scope="module")
def surface():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "scripts", "surface.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_settable_values_stay_within_the_ceiling(surface):
    assert surface["settable_values"] <= SETTABLE_VALUES_CEILING


def test_unreached_functions_equal_the_allowlist(surface):
    # a function that only tests reach is either named, with its reason, or deleted
    allowlist = import_script("surface").REACHED_ONLY_OUTSIDE_THE_CENSUS
    assert surface["unreached"] == sorted(allowlist)
    assert all(reason.strip() for reason in allowlist.values())


def test_mutation_gate_snippets_occur_once():
    # the gate itself runs as its own CI step; this keeps its table from rotting
    mutation_gate = import_script("mutation_gate")
    assert len(mutation_gate.MUTANTS) >= 20
    assert len({m.name for m in mutation_gate.MUTANTS}) == len(mutation_gate.MUTANTS)
    assert mutation_gate.count_snippets() == {m.name: 1 for m in mutation_gate.MUTANTS}
    for mutant in mutation_gate.MUTANTS:
        assert mutant.tests and all(os.path.isfile(os.path.join(REPO, t.split("::")[0])) for t in mutant.tests)
