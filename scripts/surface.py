"""Print the size of the program's surface as one JSON object.

- ``src_lines``: lines of every module in src/semimatch (``cat src/semimatch/*.py | wc -l``);
- ``settable_values``: each field of a dataclass plus each defaulted
  parameter of a public function or method (a name without a leading
  underscore, or a dunder such as ``__init__``); functions nested in
  functions are not counted;
- ``unreached``: the top-level functions and methods in src/semimatch
  (``module.function`` or ``module.Class.method``) that the reach census
  never enters. The census runs in a fresh process with BLAS on one thread,
  so the two-lane worker runs where two CPUs are free, and records every
  function entered on any thread (``sys.setprofile``). Its flows: the five
  CLI commands on a 2-pair 64² synth directory (the committed toy weights,
  and a one-step toy training run from a config file), the seed-0 paper
  matcher at 64² in both modes and an unequal-size toy match.
  ``REACHED_ONLY_OUTSIDE_THE_CENSUS`` names what may stay unreached, and why.

Usage: python3 scripts/surface.py
"""
import ast
import contextlib
import glob
import io
import json
import os
import subprocess
import sys
import tempfile
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
TOY_WEIGHTS = os.path.join(REPO, "benchmark", "toy_weights.smw")

CRITERION_01 = "named by acceptance criterion 01: the multi-branch block that the fused one must equal"
CRITERION_02 = "named by acceptance criterion 02: an op whose gradient it checks"
CRITERION_08 = "named by acceptance criterion 08: held-out coarse precision and fine error of toy training"
FULL_RES_ORACLE = "direct read of a full-resolution map: the oracle of refinement's 1/2-res reader in the tests"
COUNTERS = "counter API for the tests and the benchmark"
OPERATORS = "operator and debugging protocol of Tensor"
REACHED_ONLY_OUTSIDE_THE_CENSUS = {
    "backbone.BatchNormStats.apply": CRITERION_01,
    "backbone.ConvBranch.apply": CRITERION_01,
    "backbone.RepVGGBlock.forward": CRITERION_01,
    "backbone.RepVGGBlock.fuse": CRITERION_01,
    "cli._Parser.error": "usage-error path",
    "evaluate.coarse_precision": CRITERION_08,
    "evaluate.fine_match_errors": CRITERION_08,
    "instrument.OpCounters.__getitem__": COUNTERS,
    "instrument.OpCounters.reset": COUNTERS,
    "instrument.OpCounters.snapshot": COUNTERS,
    "synth.SyntheticPairs.__getitem__": CRITERION_08,
    "synth.SyntheticPairs.__init__": CRITERION_08,
    "synth.SyntheticPairs.__len__": CRITERION_08,
    "refine.local_scores": FULL_RES_ORACLE + "; criterion 05 calls it",
    "refine.stage2_windows": FULL_RES_ORACLE,
    **{f"tensor.{op}.{step}": CRITERION_02 for op in ("ClampMin", "Div", "ELU", "Exp", "Log", "Neg", "Pow", "Sqrt")
       for step in ("forward", "backward")},
    **{f"tensor.Tensor.{name}": CRITERION_02
       for name in ("__neg__", "__pow__", "__rtruediv__", "__truediv__", "clamp_min", "elu", "exp", "log", "sqrt")},
    "tensor._axis_size": CRITERION_02 + " (mean over an axis)",
    "tensor.linear_attention": CRITERION_02,
    "tensor._swap_last": CRITERION_02 + " (linear_attention's transpose)",
    "tensor.Function.forward": "abstract Function stub",
    "tensor.Function.backward": "abstract Function stub",
    "tensor.Tensor.__matmul__": OPERATORS,
    "tensor.Tensor.__rsub__": OPERATORS,
    "tensor.Tensor.__repr__": OPERATORS,
    "weights.model_hash": "the benchmark's digest of a container's bytes (a load hashes the file as it reads it)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def settable_values(tree: ast.AST) -> int:
    """Dataclass fields and defaulted public parameters in the module body and its classes."""
    count = 0
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign) for st in node.body)
            count += settable_values(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    return count


def _sources():
    for path in sorted(glob.glob(os.path.join(SRC, "semimatch", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield path, fh.read()


def functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> name of each top-level function and method, the
    first line being the first decorator's, as a code object counts it."""
    out = {}
    for path, source in _sources():
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", member) for member in node.body]
            else:
                members = [("", node)]
            for owner, fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                    out[(os.path.realpath(path), line)] = f"{module}.{owner}{fn.name}"
    return out


def _census_flows(tmp: str) -> None:
    from semimatch.cli import main
    from semimatch.imageio import load_image
    from semimatch.pipeline import Matcher, MatcherConfig
    from semimatch.weights import load_matcher

    data, config = os.path.join(tmp, "data"), os.path.join(tmp, "train.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("steps = 1\nalpha = 1.0\n")
    path_a, path_b = (os.path.join(data, f"pair0000_{side}.pgm") for side in "AB")
    trained = os.path.join(tmp, "trained.smw")
    for argv in (
        ["synth", "--count", "2", "--size", "64", "--out", data],
        ["train-toy", "--data", data, "--config", config, "--out", trained, "--curve", os.path.join(tmp, "curve.csv")],
        ["match", "--image-a", path_a, "--image-b", path_b, "--weights", TOY_WEIGHTS, "--tau", "0.1",
         "--out", os.path.join(tmp, "matches.csv"), "--viz", os.path.join(tmp, "matches.ppm")],
        ["eval-homography", "--data", data, "--weights", TOY_WEIGHTS, "--mode", "optimized",
         "--out", os.path.join(tmp, "eval.csv")],
        ["bench", "--image-a", path_a, "--image-b", path_b, "--weights", trained, "--repetitions", "1",
         "--warmup", "0", "--out", os.path.join(tmp, "bench.csv")],
    ):
        if main(argv) != 0:
            raise SystemExit(f"census: semimatch {argv[0]} failed")
    image_a, image_b = load_image(path_a), load_image(path_b)
    paper = Matcher(MatcherConfig(), seed=0)
    for mode in ("full", "optimized"):
        paper.match_pair(image_a, image_b, mode=mode)
    toy, _ = load_matcher(TOY_WEIGHTS)
    toy.match_pair(image_a, image_b[:40, :56], mode="optimized")


def census() -> list[str]:
    """Names of the top-level functions and methods that no census flow enters."""
    import numpy  # noqa: F401  loaded before profiling starts; the program's own imports are profiled

    sys.path.insert(0, SRC)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory(prefix="surface_census_") as tmp, contextlib.redirect_stdout(io.StringIO()):
            _census_flows(tmp)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {(os.path.realpath(path), line) for path, line in entered}
    return sorted(name for key, name in functions().items() if key not in entered)


def surface() -> dict:
    lines = values = 0
    for _, source in _sources():
        lines += source.count("\n")
        values += settable_values(ast.parse(source))
    # BLAS reads its thread count when numpy loads, so the census gets a process of its own
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--census"], env=env,
                          stdout=subprocess.PIPE, text=True, check=True)
    return {"src_lines": lines, "settable_values": values, "unreached": json.loads(proc.stdout)}


if __name__ == "__main__":
    print(json.dumps(census() if sys.argv[1:] == ["--census"] else surface()))
