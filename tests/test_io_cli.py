import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from semimatch import lanes
from semimatch import tensor as T
from semimatch.cli import main
from semimatch.config import Settings, apply_overrides, load_settings, parse_config_text
from semimatch.evaluate import match_dump_csv, parse_match_dump, read_homography_csv
from semimatch.imageio import ImageFormatError, load_image, save_pgm, save_ppm
from semimatch.instrument import counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.synth import SynthConfig, render_pair
from semimatch.train import TrainConfig
from semimatch.weights import (
    MAGIC,
    WeightFormatError,
    deserialize_weights,
    load_matcher,
    model_hash,
    save_matcher,
    serialize_weights,
)

TINY = MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                     d_fine=8, fine_patch_width=8)
TOY_WEIGHTS = Path(__file__).resolve().parents[1] / "benchmark" / "toy_weights.smw"


def container(manifest: bytes, payload: bytes = b"") -> bytes:
    """A weight container holding the given raw manifest bytes."""
    return MAGIC + struct.pack("<I", len(manifest)) + manifest + payload


# manifests that are not a valid tensor table: each must be a format error
BAD_MANIFESTS = {
    "bad-json": b"{not json",
    "bad-utf8": b'{"format_version": 1, "config": {}, "tensors": [], "note": "\xff"}',
    "no-tensors": json.dumps({"format_version": 1, "config": {}}).encode(),
    "json-array": b"[1, 2, 3]",
    "entry-without-fields": json.dumps({"format_version": 1, "config": {}, "tensors": [{"name": "x"}]}).encode(),
    "length-off-shape": json.dumps({"format_version": 1, "config": {}, "tensors": [
        {"name": "x", "dtype": "f4", "shape": [3], "offset": 0, "length": 0}]}).encode(),
    "config-not-object": json.dumps({"format_version": 1, "config": [1, 2], "tensors": []}).encode(),
}


class TestImageIO:
    def test_pgm_values_scaled(self, tmp_path):
        path = tmp_path / "t.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(str(path))
        np.testing.assert_allclose(img, np.array([[0, 255], [128, 64]]) / 255.0, atol=1e-7)

    def test_ppm_red_luma(self, tmp_path):
        path = tmp_path / "t.ppm"
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = load_image(str(path))
        assert np.isclose(img[0, 0], 0.299, atol=1e-6)

    def test_round_trip_bit_identical(self, tmp_path, rng):
        img = rng.integers(0, 256, (9, 13)).astype(np.uint8) / 255.0
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        save_pgm(str(p1), img)
        save_pgm(str(p2), load_image(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError, match="maxval"):
            load_image(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(str(path))

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "t.pgm"
        with open(path, "wb") as fh:
            fh.write(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        assert load_image(str(path)).shape == (1, 2)

    @pytest.mark.parametrize("dims", [b"0 0", b"0 4", b"4 0"])
    def test_zero_sized_image_rejected(self, tmp_path, dims):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(ImageFormatError, match="no pixels"):
            load_image(str(path))

    def test_ppm_writer(self, tmp_path):
        path = tmp_path / "c.ppm"
        save_ppm(str(path), np.zeros((2, 3, 3)))
        assert load_image(str(path)).shape == (2, 3)


class TestWeightContainer:
    def test_round_trip_bit_identical(self):
        matcher = Matcher(TINY, seed=0)
        blob = serialize_weights(matcher.named_tensors(), matcher.config.to_dict())
        config, tensors = deserialize_weights(blob)
        blob2 = serialize_weights(
            ((name, type("W", (), {"data": arr})) for name, arr in tensors.items()), config
        )
        assert blob == blob2

    def test_missing_tensor_fails_before_compute(self, tmp_path):
        matcher = Matcher(TINY, seed=0)
        names = list(matcher.named_tensors())[1:]  # drop one tensor
        blob = serialize_weights(names, matcher.config.to_dict())
        # rebuild offsets are still contiguous, so the container itself is valid
        path = tmp_path / "w.smw"
        path.write_bytes(blob)
        with pytest.raises(WeightFormatError, match="missing"):
            load_matcher(str(path))

    def test_save_load_preserves_outputs(self, tmp_path, rng):
        matcher = Matcher(TINY, seed=0)
        path = tmp_path / "w.smw"
        save_matcher(str(path), matcher)
        loaded, digest = load_matcher(str(path))
        assert len(digest) == 64
        image = rng.random((32, 32), dtype=np.float64).astype(np.float32)
        r1 = matcher.match_pair(image, image)
        r2 = loaded.match_pair(image, image)
        assert [(m.i, m.j) for m in r1.coarse] == [(m.i, m.j) for m in r2.coarse]

    def test_bad_magic(self):
        with pytest.raises(WeightFormatError, match="magic"):
            deserialize_weights(b"nope")

    def test_non_finite_tensor_rejected_at_load_naming_it(self, tmp_path):
        matcher = Matcher(TINY, seed=0)
        matcher.fusion.conv_out.data[0, 0, 1, 1] = np.inf
        path = tmp_path / "w.smw"
        save_matcher(str(path), matcher)
        with pytest.raises(T.NumericError, match="fine_fusion.conv_out.kernel"):
            load_matcher(str(path))

    def test_committed_toy_weights_still_load(self):
        matcher, digest = load_matcher(str(TOY_WEIGHTS))
        assert digest == model_hash(TOY_WEIGHTS.read_bytes()) and digest.startswith("8cc3b6b1")
        assert matcher.config == MatcherConfig.toy()

    def test_embedded_config_is_checked_before_the_model_is_built(self, tmp_path):
        matcher = Matcher(TINY, seed=0)
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights(matcher.named_tensors(), {**TINY.to_dict(), "n_heads": 0}))
        with pytest.raises(WeightFormatError, match="n_heads"):
            load_matcher(str(path))


class TestConfig:
    def test_parse_key_values(self):
        text = "tau = 0.3\n# comment\nn_layers=3\nwidths=4,4,8,8\nn_heads=2\nlr=0.001\nalpha=0.5\n"
        parsed = parse_config_text(text)
        assert parsed["tau"] == "0.3" and parsed["widths"] == "4,4,8,8"
        settings = apply_overrides(Settings(), parsed)
        assert settings.matcher.tau == 0.3
        assert settings.matcher.n_layers == 3
        assert settings.matcher.widths == (4, 4, 8, 8)
        assert settings.train.lr == 0.001
        assert settings.train.weights.alpha == 0.5

    def test_head_width_is_checked_against_the_merged_config(self):
        # the toy's 4 heads would split d_model=8 into heads of width 2
        parsed = parse_config_text("tau = 0.3\n# comment\nn_layers=3\nwidths=4,4,8,8\nlr=0.001\nalpha=0.5\n")
        with pytest.raises(ValueError, match="n_heads"):
            apply_overrides(Settings(), parsed)

    @pytest.mark.parametrize("changes,key", [
        ({"widths": (8, 16, 32)}, "widths"), ({"blocks": (1, 1, 0, 1)}, "blocks"),
        ({"n_layers": -1}, "n_layers"), ({"n_heads": 0}, "n_heads"), ({"n_heads": 3}, "n_heads"),
        ({"n_heads": 16}, "n_heads"), ({"s": 0}, "s"), ({"d_fine": 0}, "d_fine"),
        ({"fine_patch_width": 7}, "fine_patch_width"), ({"fine_patch_width": 0}, "fine_patch_width"),
        ({"inv_temperature": 0.0}, "inv_temperature"), ({"inv_temperature": float("nan")}, "inv_temperature"),
        ({"tau": float("nan")}, "tau"), ({"tau": 1.5}, "tau"), ({"tau": -0.1}, "tau"),
        ({"inv_temperature": float("inf")}, "inv_temperature"),
    ])
    def test_matcher_config_rejects(self, changes, key):
        with pytest.raises(ValueError, match=key):
            MatcherConfig(**{**vars(MatcherConfig.toy()), **changes})

    def test_matcher_config_edges_accepted(self):
        toy = vars(MatcherConfig.toy())
        MatcherConfig(**{**toy, "n_layers": 0, "n_heads": 8, "fine_patch_width": 2, "inv_temperature": 0.5})
        for tau in ("0", "1"):
            assert MatcherConfig.from_dict({"tau": tau}).tau == float(tau)

    @pytest.mark.parametrize("key,value", [("n_heads", 4.7), ("n_layers", True), ("d_fine", 16.9), ("s", 2.0),
                                           ("tau", True)])
    def test_json_values_keep_their_type(self, tmp_path, key, value):
        # int keys take integers only, and no key takes a bool
        toy = MatcherConfig.toy()
        with pytest.raises(ValueError, match=key):
            MatcherConfig.from_dict({**toy.to_dict(), key: value})
        # the same value in a weight container's embedded JSON config
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights(Matcher(toy, seed=0).named_tensors(), {**toy.to_dict(), key: value}))
        with pytest.raises(WeightFormatError, match=key):
            load_matcher(str(path))

    def test_match_pair_checks_mode_before_any_compute(self):
        image = np.zeros((16, 16), dtype=np.float32)
        counters.reset("conv2d")
        with pytest.raises(ValueError, match="mode"):
            Matcher(TINY, seed=0).match_pair(image, image, mode="fast")
        assert counters["conv2d"] == 0

    @pytest.mark.parametrize("tau", [float("nan"), 1.5, -0.1])
    def test_match_pair_checks_its_tau_override(self, tau):
        image = np.zeros((16, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="tau"):
            Matcher(TINY, seed=0).match_pair(image, image, mode="full", tau=tau)

    @pytest.mark.parametrize("changes,key", [
        ({"steps": 0}, "steps"), ({"batch_size": 0}, "batch_size"), ({"max_fine_matches": 0}, "max_fine_matches"),
        ({"lr": -1e-3}, "lr"), ({"lr": float("nan")}, "lr"), ({"weight_decay": -1.0}, "weight_decay"),
        ({"warmup_steps": -1}, "warmup_steps"), ({"clip_norm": -1.0}, "clip_norm"),
        ({"seed": -1}, "seed"), ({"lr": float("inf")}, "lr"), ({"weight_decay": float("inf")}, "weight_decay"),
        ({"clip_norm": float("inf")}, "clip_norm"),
    ])
    def test_train_config_rejects(self, changes, key):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**changes)

    def test_train_config_edges_accepted(self):
        TrainConfig(steps=1, batch_size=1, max_fine_matches=1, lr=0.0, weight_decay=0.0, warmup_steps=0,
                    clip_norm=0.0, seed=0)

    def test_to_dict_round_trips(self):
        for config in (MatcherConfig(), MatcherConfig.toy(), TINY):
            assert MatcherConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError, match="unknown config key"):
            apply_overrides(Settings(), {"warp_speed": "9"})

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_text("this is not a config\n")

    def test_defaults_without_file(self):
        settings = load_settings(None)
        assert settings.matcher.d_model == 32


class TestMatchDump:
    def test_header_and_rows_round_trip(self, rng):
        matcher = Matcher(TINY, seed=0)
        image = rng.random((32, 40), dtype=np.float64).astype(np.float32)
        result = matcher.match_pair(image, image, mode="optimized")
        text = match_dump_csv(result, model="cafe" * 16)
        header, rows = parse_match_dump(text)
        assert header["mode"] == "optimized"
        assert header["schema"] == "1"
        assert int(header["width_a"]) == 40 and int(header["height_a"]) == 32
        assert rows.shape[1] == 5
        assert len(rows) == len(result.fine)

    def test_coordinates_within_original_bounds_after_padding(self, rng):
        matcher = Matcher(TINY, seed=0)
        image = rng.random((35, 43), dtype=np.float64).astype(np.float32)  # forces padding
        result = matcher.match_pair(image, image, mode="optimized")
        for m in result.fine:
            assert 0 <= m.pt_a[0] < 43 and 0 <= m.pt_a[1] < 35
            assert 0 <= m.pt_b[0] <= 42 and 0 <= m.pt_b[1] <= 34

    @pytest.mark.parametrize("mode", ["full", "optimized"])
    @pytest.mark.parametrize("shape_a,shape_b", [((64, 96), (96, 64)), ((40, 200), (64, 64)), ((17, 300), (300, 17))])
    def test_unequal_image_sizes_match_inside_both_images(self, mode, shape_a, shape_b):
        # the two coarse grids differ, so the transform runs per image; tau=0
        # lets full mode keep every mutual pair of the untrained toy
        texture_a, texture_b, _ = render_pair(3, 0, SynthConfig(size=304))
        image_a, image_b = texture_a[:shape_a[0], :shape_a[1]], texture_b[:shape_b[0], :shape_b[1]]
        tau = 0.0 if mode == "full" else None
        result = Matcher(MatcherConfig.toy(), seed=0).match_pair(image_a, image_b, mode=mode, tau=tau)
        assert result.dims_a == shape_a and result.dims_b == shape_b
        assert result.fine
        for m in result.fine:
            assert 0 <= m.pt_a[0] <= shape_a[1] - 1 and 0 <= m.pt_a[1] <= shape_a[0] - 1
            assert 0 <= m.pt_b[0] <= shape_b[1] - 1 and 0 <= m.pt_b[1] <= shape_b[0] - 1


class TestCli:
    def test_synth_then_train_then_match_then_eval(self, tmp_path, capsys):
        data = tmp_path / "data"
        weights = tmp_path / "toy.smw"
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(
            "widths=4,4,8,8\nblocks=1,1,1,1\nn_layers=1\nn_heads=2\ns=2\nd_fine=8\n"
            "steps=2\nbatch_size=1\nwarmup_steps=1\nmax_fine_matches=8\n"
        )
        assert main(["synth", "--count", "3", "--size", "32", "--seed", "5", "--out", str(data)]) == 0
        assert sorted(os.listdir(data))[:3] == ["pair0000_A.pgm", "pair0000_B.pgm", "pair0000_H.csv"]
        h = read_homography_csv(str(data / "pair0000_H.csv"))
        assert h.shape == (3, 3)

        curve = tmp_path / "curve.csv"
        code = main([
            "train-toy", "--data", str(data), "--config", str(cfgfile),
            "--out", str(weights), "--steps", "2", "--curve", str(curve),
        ])
        assert code == 0 and weights.exists()
        lines = curve.read_text().splitlines()
        assert lines[0] == "step,l_c,l_f1,l_f2,total,grad_norm,step_ms"
        assert len(lines) == 3

        out_csv = tmp_path / "matches.csv"
        viz = tmp_path / "viz.ppm"
        code = main([
            "match", "--image-a", str(data / "pair0000_A.pgm"),
            "--image-b", str(data / "pair0000_A.pgm"),
            "--weights", str(weights), "--mode", "optimized",
            "--out", str(out_csv), "--viz", str(viz),
        ])
        assert code == 0 and out_csv.exists() and viz.exists()
        header, rows = parse_match_dump(out_csv.read_text())
        assert header["mode"] == "optimized"
        same = np.abs(rows[:, 0:2] - rows[:, 2:4]).max(axis=1)
        assert (same < 1.0).mean() >= 0.95  # identical-image self matching

        code = main([
            "eval-homography", "--data", str(data), "--weights", str(weights),
            "--mode", "optimized", "--out", str(tmp_path / "eval.csv"),
        ])
        assert code == 0
        summary = capsys.readouterr().out
        assert "AUC@3px" in summary

        code = main([
            "bench", "--image-a", str(data / "pair0000_A.pgm"),
            "--image-b", str(data / "pair0001_B.pgm"),
            "--weights", str(weights), "--repetitions", "2", "--warmup", "1",
            "--out", str(tmp_path / "bench.csv"),
        ])
        assert code == 0
        bench_lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert bench_lines[0] == "stage,mean_ms,median_ms"
        assert len(bench_lines) == 7

    def test_missing_weights_gives_io_exit_and_no_partial_output(self, tmp_path):
        out = tmp_path / "matches.csv"
        img = tmp_path / "img.pgm"
        save_pgm(str(img), np.zeros((16, 16)))
        code = main([
            "match", "--image-a", str(img), "--image-b", str(img),
            "--weights", str(tmp_path / "missing.smw"), "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    def test_failed_rename_leaves_neither_output_nor_temp_file(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--count", "1", "--size", "32", "--out", str(data)]) == 0
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("widths=4,4,8,8\nblocks=1,1,1,1\nn_layers=1\nn_heads=2\ns=2\nd_fine=8\n"
                           "steps=1\nbatch_size=1\nwarmup_steps=1\nmax_fine_matches=8\n")
        out = tmp_path / "out"
        out.mkdir()
        before = sorted(os.listdir(tmp_path))

        def refuse(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["train-toy", "--data", str(data), "--config", str(cfgfile),
                     "--out", str(out / "w.smw"), "--curve", str(out / "c.csv")]) == 2
        image = str(data / "pair0000_A.pgm")
        assert main(["match", "--image-a", image, "--image-b", image, "--weights", str(weights),
                     "--mode", "optimized", "--viz", str(out / "m.ppm")]) == 2
        assert main(["synth", "--count", "1", "--size", "32", "--out", str(out / "pairs")]) == 2
        assert os.listdir(out) == ["pairs"] and os.listdir(out / "pairs") == []
        assert sorted(os.listdir(tmp_path)) == before

    def test_usage_error_exit_code(self):
        assert main(["match", "--image-a", "x"]) == 1

    def test_missing_output_directory_fails_before_any_compute(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--count", "1", "--size", "32", "--out", str(data)]) == 0
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("widths=4,4,8,8\nblocks=1,1,1,1\nn_layers=1\nn_heads=2\ns=2\nd_fine=8\n"
                           "steps=1\nbatch_size=1\nwarmup_steps=1\nmax_fine_matches=8\n")
        image, missing = str(data / "pair0000_A.pgm"), tmp_path / "missing"
        pair = ["--image-a", image, "--image-b", image, "--weights", str(weights)]
        out = tmp_path / "w.smw"
        for argv in (
            ["train-toy", "--data", str(data), "--config", str(cfgfile), "--out", str(out),
             "--curve", str(missing / "c.csv")],
            ["train-toy", "--data", str(data), "--config", str(cfgfile), "--out", str(missing / "w.smw")],
            ["match", *pair, "--viz", str(missing / "m.ppm")],
            ["match", *pair, "--out", str(missing / "m.csv")],
            ["bench", *pair, "--repetitions", "1", "--out", str(missing / "t.csv")],
            ["eval-homography", "--data", str(data), "--weights", str(weights), "--out", str(missing / "e.csv")],
        ):
            counters.reset("conv2d")
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert counters["conv2d"] == 0, argv
            err = capsys.readouterr().err
            assert err.startswith("i/o error") and "missing" in err and "Traceback" not in err
        assert not out.exists() and not missing.exists()

    def test_inf_in_image_b_only_gives_numeric_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lanes, "CONCURRENT_MACS", 0)  # image B on the worker thread
        matcher = Matcher(TINY, seed=0)
        matcher.backbone.stages[0][0].conv3x3.kernel.data[:] = 1e38  # finite, so it loads
        weights, black, bright = tmp_path / "huge.smw", tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_matcher(str(weights), matcher)
        save_pgm(str(black), np.zeros((32, 32)))
        save_pgm(str(bright), np.full((32, 32), 0.9))
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["match", "--image-a", str(black), "--image-b", str(bright), "--weights", str(weights)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and "Traceback" not in err

    def test_nan_weights_give_numeric_exit(self, tmp_path, capsys):
        matcher = Matcher(TINY, seed=0)
        matcher.backbone.stages[0][0].conv3x3.kernel.data[:] = np.nan
        weights = tmp_path / "bad.smw"
        save_matcher(str(weights), matcher)
        img = tmp_path / "img.pgm"
        save_pgm(str(img), np.random.default_rng(0).random((16, 16)))
        capsys.readouterr()
        code = main(["match", "--image-a", str(img), "--image-b", str(img),
                     "--weights", str(weights)])
        assert code == 3
        # rejected at load, naming the tensor
        err = capsys.readouterr().err
        assert "backbone.stage0.block0.conv3x3.kernel" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(BAD_MANIFESTS))
    def test_bad_weight_file_is_a_format_error(self, tmp_path, capsys, name):
        weights = tmp_path / "bad.smw"
        weights.write_bytes(container(BAD_MANIFESTS[name]))
        img, out = tmp_path / "img.pgm", tmp_path / "matches.csv"
        save_pgm(str(img), np.zeros((16, 16)))
        capsys.readouterr()
        assert main(["match", "--image-a", str(img), "--image-b", str(img), "--weights", str(weights),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error") and "Traceback" not in err
        assert not out.exists()

    def test_zero_sized_image_is_a_format_error(self, tmp_path, capsys):
        weights, empty, img = tmp_path / "tiny.smw", tmp_path / "empty.pgm", tmp_path / "img.pgm"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        empty.write_bytes(b"P5\n0 0\n255\n")
        save_pgm(str(img), np.zeros((16, 16)))
        capsys.readouterr()
        assert main(["match", "--image-a", str(empty), "--image-b", str(img), "--weights", str(weights)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error") and "no pixels" in err and "Traceback" not in err

    def test_train_names_the_training_size_multiple(self, tmp_path, capsys):
        # 24 is a multiple of the coarse stride, so synth accepts it, but the
        # default toy config (s=2) trains on sides divisible by 16 only
        data, weights = tmp_path / "data", tmp_path / "toy.smw"
        assert main(["synth", "--count", "1", "--size", "24", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train-toy", "--data", str(data), "--out", str(weights), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "multiples of 16" in err and "Traceback" not in err
        assert not weights.exists()

    def test_tau_with_optimized_mode_is_a_usage_error(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        save_pgm(str(img), np.zeros((16, 16)))
        weights = tmp_path / "toy.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        out = tmp_path / "matches.csv"
        code = main(["match", "--image-a", str(img), "--image-b", str(img), "--weights", str(weights),
                     "--mode", "optimized", "--tau", "0.5", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "--tau" in capsys.readouterr().err
        assert main(["match", "--image-a", str(img), "--image-b", str(img), "--weights", str(weights),
                     "--mode", "full", "--tau", "0.5"]) == 0

    @pytest.mark.parametrize("tau,code", [("nan", 1), ("1.5", 1), ("-0.1", 1), ("0", 0), ("1", 0)])
    def test_match_checks_tau_flag(self, tmp_path, capsys, tau, code):
        img = tmp_path / "img.pgm"
        save_pgm(str(img), np.random.default_rng(0).random((16, 16)))
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        out = tmp_path / "matches.csv"
        capsys.readouterr()
        assert main(["match", "--image-a", str(img), "--image-b", str(img), "--weights", str(weights),
                     "--mode", "full", "--tau", tau, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            err = capsys.readouterr().err
            assert "tau" in err and "Traceback" not in err

    def test_unknown_mode_rejected_by_parser(self, tmp_path):
        assert main(["match", "--image-a", "a", "--image-b", "b", "--weights", "w",
                     "--mode", "warp"]) == 1

    def test_synth_rejects_indivisible_size(self, tmp_path):
        assert main(["synth", "--count", "1", "--size", "60", "--out", str(tmp_path / "d")]) == 1

    @pytest.mark.parametrize("size", ["0", "-8"])
    def test_synth_rejects_size_below_8_before_creating_the_directory(self, tmp_path, capsys, size):
        out = tmp_path / "d"
        assert main(["synth", "--count", "1", "--size", size, "--out", str(out)]) == 1
        assert not out.exists()
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("counts,code", [
        (["--warmup", "-2"], 1), (["--repetitions", "0"], 1), (["--warmup", "0", "--repetitions", "1"], 0)])
    def test_bench_counts(self, tmp_path, capsys, counts, code):
        img = tmp_path / "img.pgm"
        save_pgm(str(img), np.random.default_rng(0).random((16, 16)))
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--image-a", str(img), "--image-b", str(img), "--weights", str(weights),
                     *counts, "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert counts[0].lstrip("-") in capsys.readouterr().err

    def test_synth_count_zero_creates_empty_dir(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["synth", "--count", "0", "--size", "32", "--out", str(out)]) == 0
        assert out.exists() and os.listdir(out) == []

    def test_synth_negative_count_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--count", "-1", "--size", "32", "--out", str(out)]) == 1
        assert not out.exists()
        assert "--count" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -3])
    def test_train_without_steps_is_a_usage_error(self, tmp_path, capsys, steps):
        data = tmp_path / "data"
        weights = tmp_path / "toy.smw"
        curve = tmp_path / "curve.csv"
        model = "widths=4,4,8,8\nblocks=1,1,1,1\nn_layers=1\nn_heads=2\ns=2\nd_fine=8\n"
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(model + "steps=2\n")
        bad.write_text(model + f"steps={steps}\n")
        assert main(["synth", "--count", "1", "--size", "32", "--out", str(data)]) == 0
        for cfgfile, extra in ((good, ["--steps", str(steps)]), (bad, [])):  # the flag, then the file
            code = main(["train-toy", "--data", str(data), "--config", str(cfgfile), "--out", str(weights),
                         "--curve", str(curve), *extra])
            assert code == 1
            assert not weights.exists() and not curve.exists()
            assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "n_heads=0", "s=0", "widths=0,8,16,32", "batch_size=0", "steps=1.5", "batch_size=2.9", "alpha=-1",
        "n_layers=-1", "lr=-1", "clip_norm=-1", "warmup_steps=-5",
        "beta=-0.5", "max_fine_matches=0", "weight_decay=-1", "d_fine=0", "fine_patch_width=7", "inv_temperature=0", "seed=-1",
        "tau=nan", "tau=1.5", "tau=-0.1", "lr=inf", "weight_decay=inf", "clip_norm=inf", "inv_temperature=inf",
        "alpha=inf", "beta=inf",
    ])
    def test_train_rejects_bad_config_value(self, tmp_path, capsys, line):
        data = tmp_path / "data"
        assert main(["synth", "--count", "1", "--size", "32", "--out", str(data)]) == 0
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("widths=4,4,8,8\nblocks=1,1,1,1\nn_layers=1\nn_heads=2\ns=2\nd_fine=8\n"
                           f"steps=1\nbatch_size=1\n{line}\n")
        weights, curve = tmp_path / "w.smw", tmp_path / "curve.csv"
        capsys.readouterr()
        code = main(["train-toy", "--data", str(data), "--config", str(cfgfile), "--out", str(weights),
                     "--curve", str(curve)])
        err = capsys.readouterr().err
        assert code == 1
        assert not weights.exists() and not curve.exists()
        assert line.split("=")[0] in err and "Traceback" not in err

    def test_synth_deterministic(self, tmp_path):
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        for d in (d1, d2):
            assert main(["synth", "--count", "2", "--size", "32", "--seed", "9", "--out", str(d)]) == 0
        for name in os.listdir(d1):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
