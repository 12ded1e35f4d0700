"""Mutation gate: every hand-made fault in MUTANTS must be caught by the tests it names.

Each entry breaks the program one way: an exact source snippet, which must
occur once in its file, and its replacement. The gate copies the tree to a
temporary directory, checks that the named tests pass there unmutated, then
applies one mutant at a time and runs only that mutant's tests. It exits 1
if the baseline fails, if a mutant survives (its tests all pass) or if a
mutant's tests cannot run (pytest exits other than 0 or 1).

Usage: python3 scripts/mutation_gate.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
                                 ".bench_out", ".bench_build", "demo_run")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTANTS = [
    Mutant("pairs drops the worker's exception", "src/semimatch/lanes.py",
           "return first(), future.result()", "return first(), None if future.exception() else future.result()",
           ("tests/test_transform.py::TestTransformLanes::test_inf_in_image_b_lane_raises_and_leaves_no_thread",
            "tests/test_bench.py::TestConcurrentBackbones::test_inf_in_image_b_only_raises_numeric_error_and_leaves_no_thread")),
    Mutant("pairs opens a new worker for every pair", "src/semimatch/lanes.py",
           "future = worker.submit(", "future = ThreadPoolExecutor(max_workers=1).submit(",
           ("tests/test_bench.py::TestConcurrentBackbones::test_each_stage_opens_one_worker_and_leaves_no_thread",)),
    Mutant("two_threads ignores recording", "src/semimatch/lanes.py",
           "return not grad_enabled() and threshold <= work", "return threshold <= work",
           ("tests/test_bench.py::TestConcurrentBackbones::test_recorded_calls_start_no_thread",)),
    Mutant("conv2d sends a recorded call to Winograd", "src/semimatch/tensor.py",
           "if not self.records and (kh, kw, stride, pad)", "if (kh, kw, stride, pad)",
           ("tests/test_tensor.py::TestWinogradConv2d::test_dispatch_rule",
            "tests/test_backbone.py::TestBackboneForward::test_wide_stride_one_blocks_run_winograd")),
    Mutant("Function.apply records under no_grad", "src/semimatch/tensor.py",
           "ctx.records = _grad_enabled and any(", "ctx.records = any(",
           ("tests/test_tensor.py::TestTensorBasics::test_tape_rule",)),
    Mutant("match_pair accepts 0-255 pixels", "src/semimatch/pipeline.py",
           "if low < 0 or high > 1:", "if low < 0 or high > 255:",
           ("tests/test_bench.py::TestMatchPair::test_pixels_outside_unit_range_raise_before_any_compute",)),
    Mutant("the fusion pair returns (fine_b, fine_a)", "src/semimatch/pipeline.py",
           "return fine_a, fine_b", "return fine_b, fine_a",
           ("tests/test_bench.py::TestFusionLanes::test_lanes_equal_in_order_bitwise",)),
    Mutant("the transform is decided by the ladder threshold", "src/semimatch/transform.py",
           "not lanes.two_threads(work, lanes.STACKED_MACS)", "not lanes.two_threads(work, lanes.IN_ORDER_MACS)",
           ("tests/test_bench.py::test_toy_256_runs_backbone_and_fusion_on_two_lanes_and_the_transform_stacked",
            "tests/test_transform.py::TestTransformLanes::test_image_b_on_a_worker_only_above_the_work_rule")),
    Mutant("FusedBackbone.macs ignores the block stride", "src/semimatch/backbone.py",
           "height, width = (height - 1) // block.stride + 1, (width - 1) // block.stride + 1",
           "height, width = height, width",
           ("tests/test_bench.py::TestConcurrentBackbones::test_work_is_the_smaller_padded_image",)),
    Mutant("_scatter_add overwrites repeated positions", "src/semimatch/tensor.py",
           "np.add.at(out, positions.ravel(), values.ravel())", "out[positions.ravel()] = values.ravel()",
           ("tests/test_tensor.py::TestScatterAndPad::test_repeated_advanced_index_accumulates_its_gradient",)),
    Mutant("mnn_select keeps every tied row", "src/semimatch/matching.py",
           "keep[tied] = at_max[:, row_best[tied]].argmax(axis=0) == tied", "keep[tied] = True",
           ("tests/test_matching.py::TestMnnSelect::test_matches_brute_force_with_ties",)),
    Mutant("attention scales by the full width, not the head width", "src/semimatch/tensor.py",
           "scale=1.0 / math.sqrt(q.shape[-1] // heads)", "scale=1.0 / math.sqrt(q.shape[-1])",
           ("tests/test_transform.py::TestAggAttentionBlock::test_matches_split_merge_block_float64",)),
    Mutant("Tensor.backward pops the oldest node first", "src/semimatch/tensor.py",
           "heapq.heappush(ready, (-parent._ctx.seq, parent))", "heapq.heappush(ready, (parent._ctx.seq, parent))",
           ("tests/test_tensor.py::TestBackward::test_each_op_backward_runs_once_with_its_complete_gradient",)),
    Mutant("parse_setting takes a float for an int setting", "src/semimatch/config.py",
           "parse is int and isinstance(value, float)", "False",
           ("tests/test_io_cli.py::TestConfig::test_json_values_keep_their_type",)),
    Mutant("match_pair keeps fine points outside the image", "src/semimatch/pipeline.py",
           "fine = [m for m in fine if _in_bounds(m, dims_a, dims_b)]", "fine = list(fine)",
           ("tests/test_io_cli.py::TestDegenerateInputs::test_fine_points_past_the_image_edge_are_dropped",)),
    Mutant("refine keeps repeated pixel pairs", "src/semimatch/refine.py",
           "first = np.sort(np.unique(key, return_index=True)[1])", "first = np.arange(len(key))",
           ("tests/test_refine.py::TestRefine::test_one_fine_match_per_distinct_pixel_pair",
            "tests/test_io_cli.py::TestTrainedToyKnobs::test_wide_patches_give_each_pixel_pair_once")),
    Mutant("train_toy goes on after a non-finite loss", "src/semimatch/train.py",
           "if not math.isfinite(value):", "if False:",
           ("tests/test_train.py::TestTrainToy::test_divergence_detection",)),
    Mutant("Matcher ignores a configured inv_temperature", "src/semimatch/pipeline.py",
           "if self.config.inv_temperature is not None:", "if False:",
           ("tests/test_io_cli.py::TestTrainedToyKnobs::test_inv_temperature_scales_optimized_confidences",)),
    Mutant("padded cells count as valid", "src/semimatch/pipeline.py",
           "if (ph, pw) == (oh, ow):", "if True:",
           ("tests/test_io_cli.py::TestDegenerateInputs::test_matches_land_inside_both_images",)),
    Mutant("match_pair passes no valid mask for image A", "src/semimatch/pipeline.py",
           "valid_a=_valid_cells(padded_a.shape, dims_a),", "valid_a=None,",
           ("tests/test_io_cli.py::TestDegenerateInputs::test_matches_land_inside_both_images",)),
    Mutant("a tau with optimized mode is ignored", "src/semimatch/pipeline.py",
           'if tau is not None and mode == "optimized":', "if False:",
           ("tests/test_io_cli.py::TestConfig::test_tau_with_optimized_mode_raises_before_any_compute",)),
    Mutant("tau above 1 accepted", "src/semimatch/config.py",
           "if not 0 <= self.tau <= 1:", "if not 0 <= self.tau <= 2:",
           ("tests/test_io_cli.py::TestConfig::test_matcher_config_rejects",)),
    Mutant("odd fine_patch_width accepted", "src/semimatch/config.py",
           "if self.fine_patch_width < 2 or self.fine_patch_width % 2:", "if self.fine_patch_width < 2:",
           ("tests/test_io_cli.py::TestConfig::test_matcher_config_rejects",)),
    Mutant("require_at_least accepts infinity", "src/semimatch/config.py",
           "if not bound <= value < math.inf:", "if not bound <= value:",
           ("tests/test_io_cli.py::TestConfig::test_train_config_rejects",)),
    Mutant("negative loss weights accepted", "src/semimatch/config.py",
           "if not (0 <= self.alpha < math.inf and", "if not (-math.inf < self.alpha < math.inf and",
           ("tests/test_supervision.py::TestTotalLoss::test_negative_weights_rejected",)),
    Mutant("apply_overrides drops the loss-weight keys", "src/semimatch/config.py",
           "weights = replace(settings.train.weights, **changes[LossWeights])", "weights = settings.train.weights",
           ("tests/test_io_cli.py::TestConfig::test_parse_key_values",)),
    Mutant("from_dict accepts unknown keys", "src/semimatch/config.py",
           "if key not in _defaults(cls):", "if False:",
           ("tests/test_io_cli.py::TestWeightContainer::test_embedded_config_key_unknown_to_the_matcher_is_named",)),
    Mutant("rotary backward turns the wrong way", "src/semimatch/tensor.py",
           "return (grad * cos - _rotate_pairs(grad * sin),)", "return (grad * cos + _rotate_pairs(grad * sin),)",
           ("tests/test_tensor.py::TestFusedOps::test_rotary_on_heads_matches_composite",)),
    Mutant("layer-norm backward drops the mean term", "src/semimatch/tensor.py",
           "inner = grad.mean(axis=-1, keepdims=True) + y *", "inner = y *",
           ("tests/test_tensor.py::TestFusedOps::test_layer_norm_matches_composite",)),
    Mutant("coarse_precision reads A's padded-grid index on the ground-truth grid", "src/semimatch/evaluate.py",
           "target = gt_cells.get(divmod(m.i, result.grid_a[1]))", "target = gt_cells.get(divmod(m.i, gt.grid_a[1]))",
           ("tests/test_io_cli.py::TestCoarsePrecision::test_each_cell_is_read_on_its_own_grid",)),
    Mutant("a repeated tensor name is accepted", "src/semimatch/weights.py",
           'if entry["name"] in tensors:', "if False:",
           ("tests/test_io_cli.py::TestWeightContainer::test_repeated_tensor_name_rejected",)),
    Mutant("the serializer skips the little-endian cast", "src/semimatch/weights.py",
           "arr = np.ascontiguousarray(tensor.data, dtype=_DTYPES[code])", "arr = np.ascontiguousarray(tensor.data)",
           ("tests/test_io_cli.py::TestWeightContainer::test_strided_and_big_endian_tensors_are_cast_like_the_oracle",)),
    Mutant("read_weights returns read-only views of the bytes it reads", "src/semimatch/weights.py",
           'if fh.readinto(arr) != entry["length"]:',
           'if (arr := np.frombuffer(fh.read(entry["length"]), dtype).reshape(entry["shape"])).nbytes != entry["length"]:',
           ("tests/test_io_cli.py::TestWeightContainer::test_loaded_tensors_own_writable_memory",)),
    Mutant("a tensor is read before its entry is checked against the payload end", "src/semimatch/weights.py",
           "if cursor > payload_len:\n"
           "                    raise ValueError(f\"tensor {entry['name']} extends past payload\")\n"
           "                arr = np.empty(entry[\"shape\"], dtype)\n"
           "                if fh.readinto(arr) != entry[\"length\"]:\n"
           "                    raise ValueError(f\"tensor {entry['name']} was cut short: the file shrank while it was read\")",
           "arr = np.empty(entry[\"shape\"], dtype)\n"
           "                if fh.readinto(arr) != entry[\"length\"]:\n"
           "                    raise ValueError(f\"tensor {entry['name']} was cut short: the file shrank while it was read\")\n"
           "                if cursor > payload_len:\n"
           "                    raise ValueError(f\"tensor {entry['name']} extends past payload\")",
           ("tests/test_io_cli.py::TestWeightContainer::test_each_format_error_is_named[payload-short]",)),
    Mutant("the reader swaps the 0.25/0.75 blend weights", "src/semimatch/refine.py",
           "_NEAR, _FAR = 0.75, 0.25", "_NEAR, _FAR = 0.25, 0.75",
           ("tests/test_refine.py::TestHalfResReader::test_patches_and_scores_match_full_res_oracle",)),
    Mutant("the reader drops the renormalization after the blend", "src/semimatch/refine.py",
           "return normalize_cells(T.linear(_taps(fine, rows, cols)", "return (T.linear(_taps(fine, rows, cols)",
           ("tests/test_refine.py::TestHalfResReader::test_patches_and_scores_match_full_res_oracle",)),
    Mutant("stage 2 weighs out-of-image window cells", "src/semimatch/refine.py",
           "bias = np.where(masks, 0.0, -1e30)", "bias = np.zeros(masks.shape)",
           ("tests/test_refine.py::TestStage2::test_masked_cells_get_no_weight",)),
    Mutant("DirectoryPairs reads H lazily again", "src/semimatch/evaluate.py",
           "self.homographies = [read_homography_csv(pair_paths(directory, i)[2]) for i in self.indices]",
           'self.homographies = type("Lazy", (), {"__getitem__": lambda _, i: read_homography_csv('
           "pair_paths(directory, self.indices[i])[2])})()",
           ("tests/test_io_cli.py::TestCli::test_homography_entry_that_is_no_number_fails_before_any_pair_is_used",)),
    Mutant("read_homography_csv drops the file name", "src/semimatch/evaluate.py",
           'f"homography file {path} line {lineno}: ', 'f"line {lineno}: ',
           ("tests/test_io_cli.py::TestCli::test_homography_entry_that_is_no_number_fails_before_any_pair_is_used",)),
    Mutant("a negative tensor length is accepted", "src/semimatch/weights.py",
           'type(entry[key]) is int and entry[key] >= 0 for key in ("offset", "length")',
           'type(entry[key]) is int for key in ("offset", "length")',
           ("tests/test_io_cli.py::TestWeightContainer::test_length_that_is_negative_or_no_int_is_rejected",)),
    Mutant("a ragged homography row is reported without the file name", "src/semimatch/evaluate.py",
           "if len(row) != 3:", "if not row:",
           ("tests/test_io_cli.py::TestCli::test_ragged_homography_file_fails_named_before_any_pair_is_used",)),
    Mutant("two_threads ignores the BLAS thread count", "src/semimatch/lanes.py",
           "threshold <= work and blas_one_thread() and free_cpus()", "threshold <= work and free_cpus()",
           ("tests/test_bench.py::TestConcurrentBackbones::test_blas_at_its_default_starts_no_thread",)),
    Mutant("DirectoryPairs checks no image when it opens", "src/semimatch/evaluate.py",
           "check_image(path)", "pass",
           ("tests/test_io_cli.py::TestCli::test_missing_b_image_fails_before_any_pair_is_used",
            "tests/test_io_cli.py::TestCli::test_truncated_image_fails_named_before_any_pair_is_used")),
    Mutant("the shared softmax helper skips the max shift", "src/semimatch/tensor.py",
           "    x -= peak\n", "",
           ("tests/test_tensor.py::TestSoftmax::test_large_logits_stable",)),
    Mutant("two tensors are made in swapped order", "src/semimatch/transform.py",
           'self.q_proj = params.make("q_proj.kernel", (d, d), xavier, trainable=True)\n'
           '        self.k_proj = params.make("k_proj.kernel", (d, d), xavier, trainable=True)',
           'self.k_proj = params.make("k_proj.kernel", (d, d), xavier, trainable=True)\n'
           '        self.q_proj = params.make("q_proj.kernel", (d, d), xavier, trainable=True)',
           ("tests/test_io_cli.py::TestWeightContainer::test_seed0_paper_container_digest_is_pinned",)),
    Mutant("from_arrays accepts names no tensor takes", "src/semimatch/pipeline.py",
           "if params.arrays:", "if False:",
           ("tests/test_io_cli.py::TestWeightContainer::test_missing_tensor_fails_before_compute[unknown]",)),
    Mutant("softmax backward writes into a shared gradient", "src/semimatch/tensor.py",
           "_softmax_vjp_inplace(grad.astype(np.result_type(grad, y)), y, axis)", "_softmax_vjp_inplace(grad, y, axis)",
           ("tests/test_tensor.py::TestSoftmax::test_backward_leaves_a_shared_gradient_intact",)),
]


def count_snippets() -> dict[str, int]:
    """How often each mutant's snippet occurs in its file."""
    counts = {}
    for mutant in MUTANTS:
        with open(os.path.join(REPO, mutant.path), encoding="utf-8") as fh:
            counts[mutant.name] = fh.read().count(mutant.snippet)
    return counts


def run_tests(root: str, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)


def main() -> int:
    bad = {name: n for name, n in count_snippets().items() if n != 1}
    if bad:
        print(f"FAIL snippets that do not occur exactly once: {bad}")
        return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation_gate_") as tmp:
        root = os.path.join(tmp, "tree")
        shutil.copytree(REPO, root, ignore=IGNORED)
        baseline = run_tests(root, sorted({t for m in MUTANTS for t in m.tests}))
        if baseline.returncode != 0:
            print(baseline.stdout[-3000:], baseline.stderr[-2000:], sep="\n")
            print("FAIL the named tests do not pass on the unmutated tree")
            return 1
        failures = []
        for mutant in MUTANTS:
            path = os.path.join(root, mutant.path)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(mutant.snippet, mutant.replacement))
            try:
                done = run_tests(root, mutant.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
            verdict = {0: "SURVIVED", 1: "caught"}.get(done.returncode, f"ERROR (pytest exit {done.returncode})")
            print(f"{verdict:8s} {mutant.name}", flush=True)
            if done.returncode != 1:
                failures.append(mutant.name)
    print(f"{len(MUTANTS) - len(failures)}/{len(MUTANTS)} mutants caught in {time.perf_counter() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
