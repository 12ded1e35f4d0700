"""Each script under scripts/ runs to completion at a small size."""
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# settable values in src/ as scripts/surface.py counts them; a change that adds one raises this on purpose
SETTABLE_VALUES_CEILING = 98


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


def test_output_hashes_against_a_tree_names_the_keys_that_differ(tmp_path):
    # a copy of src/ whose default inv_temperature is doubled changes every toy coarse match list
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = tmp_path / "src" / "semimatch" / "pipeline.py"
    source = pipeline.read_text()
    assert source.count("return 10.0 / self.config.d_model") == 1
    pipeline.write_text(source.replace("return 10.0 / self.config.d_model", "return 20.0 / self.config.d_model"))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    argv = [sys.executable, os.path.join(REPO, "scripts", "output_hashes.py"), "--size", "64", "--steps", "1",
            "--against", str(tmp_path)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    named = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("differs ")}
    assert {f"toy/{mode}/pair{i}/coarse" for mode in ("optimized", "full") for i in range(4)} <= named


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


def test_lane_table_times_both_sides_to_equal_outputs_and_ends_its_worker(tmp_path):
    out = tmp_path / "lanes.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, os.path.join(REPO, "scripts", "lane_table.py"),
            "--sizes", "64", "--pairs", "1", "--reps", "1", "--out", str(out)]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    lane_table = import_script("lane_table")
    assert set(record) == {"machine", "pairs", "reps", "rows", "crossover"}
    assert [(r["stage"], r["config"]) for r in record["rows"]] == [
        (stage, config) for stage in lane_table.STAGES for config in lane_table.CONFIGS]
    for row in record["rows"]:
        side = lane_table.OTHER_SIDE[row["stage"]]
        assert set(row) == {"stage", "config", "size", "work", "other_side", f"{side}_ms", "lanes_ms",
                            "lanes_wins", "pairs", "equal", "threads_after"}
        assert row["size"] == [64, 64] and row["pairs"] == 1 and row["work"] > 0
        assert row["equal"] is True and row["threads_after"] == 1
    assert set(record["crossover"]) == set(lane_table.STAGES)


def test_each_lane_threshold_lies_inside_its_committed_crossover():
    from semimatch import lanes

    lane_table = import_script("lane_table")
    with open(os.path.join(REPO, "BENCH_lanes.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["pairs"] >= 10
    for stage in lane_table.STAGES:
        rows = [row for row in record["rows"] if row["stage"] == stage]
        assert {row["config"] for row in rows} == set(lane_table.CONFIGS)
        bracket = lane_table.crossover(rows, getattr(lanes, lane_table.THRESHOLD[stage]))
        assert bracket["largest_lost_work"] is not None and bracket["smallest_won_work"] is not None, stage
        assert bracket["inside"], (stage, bracket)
