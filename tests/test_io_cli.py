import io
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semimatch
from helpers import lanes_at_any_work, serialize_weights_oracle
from semimatch import tensor as T
from semimatch import weights
from semimatch.backbone import COARSE_STRIDE
from semimatch.cli import main
from semimatch.config import Settings, apply_overrides, load_settings, parse_config_text
from semimatch.evaluate import DirectoryPairs, coarse_precision, match_dump_csv, read_homography_csv
from semimatch.geometry import apply_homography
from semimatch.imageio import ImageFormatError, load_image, save_pgm, save_ppm
from semimatch.instrument import counters
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.synth import SynthConfig, SyntheticPairs, render_pair
from semimatch.train import TrainConfig
from semimatch.weights import (
    MAGIC,
    WeightFormatError,
    load_matcher,
    model_hash,
    read_weights,
    save_matcher,
    serialize_weights,
)

TINY = MatcherConfig(widths=(4, 4, 8, 8), blocks=(1, 1, 1, 1), n_layers=1, n_heads=2, s=2,
                     d_fine=8, fine_patch_width=8)
TOY_WEIGHTS = Path(__file__).resolve().parents[1] / "benchmark" / "toy_weights.smw"
# sha256 of the seed-0 paper-config container (57.5 MiB of float32 payload)
PAPER_SEED0_SHA256 = "6e0deb5c6cc91fb5e7f3541f137e118042105c6f817492f3141a1c7d524a871c"


def read_match_dump(text: str) -> tuple[dict[str, str], np.ndarray]:
    """A match dump's ``# key=value`` header and its (n, 5) rows, which follow one column-name line."""
    header = dict(line[2:].split("=", 1) for line in text.splitlines() if line.startswith("# "))
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=len(header) + 1, ndmin=2)
    return header, rows.reshape(-1, 5)


def container(manifest: bytes, payload: bytes = b"") -> bytes:
    """A weight container holding the given raw manifest bytes."""
    return MAGIC + struct.pack("<I", len(manifest)) + manifest + payload


def one_tensor(payload: bytes = bytes(16), **changes) -> bytes:
    """A container of one f4 tensor ``x`` of shape [4] (16 bytes) over ``payload``;
    each change replaces a manifest field or, failing that, an entry field, and a
    change to None removes the field."""
    entry = {"name": "x", "dtype": "f4", "shape": [4], "offset": 0, "length": 16}
    manifest = {"format_version": 1, "config": {}, "tensors": [entry]}
    for key, value in changes.items():
        fields = manifest if key in manifest else entry
        if value is None:
            del fields[key]
        else:
            fields[key] = value
    return container(json.dumps(manifest).encode(), payload)


# (container bytes, message) of each way a container can break the format, in the reader's order of checks
FORMAT_ERRORS = {
    "truncated-header": (MAGIC + b"\x01", "truncated container header"),
    "truncated-manifest": (MAGIC + struct.pack("<I", 100) + b"{}", "truncated manifest"),
    "body-not-json": (container(b"{not json"), r"malformed manifest \(JSONDecodeError"),
    "body-not-utf8": (container(b"\xff"), r"\(UnicodeDecodeError"),
    "no-config": (one_tensor(config=None), "KeyError: 'config'"),
    "version-2": (one_tensor(format_version=2), "unsupported format version 2"),
    "dtype-f2": (one_tensor(dtype="f2"), "unknown dtype f2"),
    "length": (one_tensor(bytes(12), length=12), "tensor x length does not match its shape and dtype"),
    "offset": (one_tensor(bytes(20), offset=4), "tensor x offset overlaps or leaves a gap"),
    "payload-short": (one_tensor(bytes(8)), "tensor x extends past payload"),
    "payload-long": (one_tensor(bytes(17)), "payload longer than manifest describes"),
}


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
        with pytest.raises(ImageFormatError, match=re.escape(f"{path}: truncated payload: want 16 bytes, got 2")):
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
    def test_round_trip_bit_identical(self, tmp_path):
        matcher = Matcher(TINY, seed=0)
        blob = serialize_weights(matcher.named_tensors(), matcher.config.to_dict())
        path = tmp_path / "w.smw"
        path.write_bytes(blob)
        config, tensors, digest = read_weights(str(path))
        assert digest == model_hash(blob)
        blob2 = serialize_weights(
            ((name, type("W", (), {"data": arr})) for name, arr in tensors.items()), config
        )
        assert blob == blob2

    @pytest.mark.parametrize("case,message", [
        ("missing", r"container is missing tensors: \['backbone.stage0.block0.conv3x3.kernel'\]"),
        ("unknown", r"container has unknown tensors: \['extra.kernel'\]"),
        ("shape", r"tensor backbone.stage0.block0.conv3x3.kernel has shape \(4, 1, 3\), expected \(4, 1, 3, 3\)"),
    ], ids=["missing", "unknown", "shape"])
    def test_missing_tensor_fails_before_compute(self, tmp_path, case, message):
        named = dict(Matcher(TINY, seed=0).named_tensors())
        first = "backbone.stage0.block0.conv3x3.kernel"
        if case == "missing":
            del named[first]
        elif case == "unknown":
            named["extra.kernel"] = T.tensor(np.zeros(3, dtype=np.float32))
        else:
            named[first] = T.tensor(named[first].data[..., 0])
        # offsets are rebuilt contiguous, so the container itself is valid
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights(named.items(), TINY.to_dict()))
        with pytest.raises(WeightFormatError, match=message):
            load_matcher(str(path))

    def test_save_load_preserves_outputs(self, tmp_path, rng):
        matcher = Matcher(TINY, seed=0)
        path = tmp_path / "w.smw"
        save_matcher(str(path), matcher)
        loaded, digest = load_matcher(str(path))
        assert len(digest) == 64
        image = rng.random((32, 32), dtype=np.float64).astype(np.float32)
        r1 = matcher.match_pair(image, image, mode="full")
        r2 = loaded.match_pair(image, image, mode="full")
        assert [(m.i, m.j) for m in r1.coarse] == [(m.i, m.j) for m in r2.coarse]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.smw"
        path.write_bytes(b"nope")
        with pytest.raises(WeightFormatError, match="magic"):
            read_weights(str(path))

    @pytest.mark.parametrize("case", FORMAT_ERRORS)
    def test_each_format_error_is_named(self, tmp_path, case):
        blob, message = FORMAT_ERRORS[case]
        path = tmp_path / "w.smw"
        path.write_bytes(blob)
        with pytest.raises(WeightFormatError, match=message):
            load_matcher(str(path))

    def test_a_file_that_shrinks_while_it_is_read_is_a_format_error(self, tmp_path, monkeypatch):
        # the payload end is taken from fstat; a file cut after that must not leave np.empty's bytes in a tensor
        path = tmp_path / "w.smw"
        path.write_bytes(TOY_WEIGHTS.read_bytes())

        def fstat_then_cut(fd):
            stat = os.fstat(fd)
            os.truncate(path, stat.st_size - 4)
            return stat

        monkeypatch.setattr(weights, "os", SimpleNamespace(fstat=fstat_then_cut))
        with pytest.raises(WeightFormatError, match="was cut short: the file shrank while it was read"):
            read_weights(str(path))

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
        assert serialize_weights(matcher.named_tensors(), matcher.config.to_dict()) == TOY_WEIGHTS.read_bytes()

    @pytest.mark.parametrize("mode", ["full", "optimized"])
    def test_float64_twin_of_the_committed_toy_matches_like_float32(self, mode):
        # 1e-5 px is twice the largest fine-point gap measured on render_pair(1, 0..3);
        # tau=0 lets full mode keep every mutual pair, as optimized mode does
        config, arrays, _ = read_weights(str(TOY_WEIGHTS))
        twin = Matcher.from_arrays(MatcherConfig.from_dict(config), arrays, np.float64)
        assert all(t.dtype == np.float64 for _, t in twin.named_tensors())
        image_a, image_b, _ = render_pair(1, 0, SynthConfig(size=256))
        tau = 0.0 if mode == "full" else None
        want = toy_matcher("trained").match_pair(image_a, image_b, mode=mode, tau=tau)
        got = twin.match_pair(image_a, image_b, mode=mode, tau=tau)
        assert want.coarse and [(m.i, m.j) for m in got.coarse] == [(m.i, m.j) for m in want.coarse]
        assert [m.pt_a for m in got.fine] == [m.pt_a for m in want.fine]
        np.testing.assert_allclose([m.pt_b for m in got.fine], [m.pt_b for m in want.fine], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config", [MatcherConfig(), MatcherConfig.toy(), TINY], ids=["paper", "toy", "tiny"])
    def test_container_bytes_equal_the_three_copy_oracle(self, config, dtype):
        named = list(Matcher(config, seed=0, dtype=dtype).named_tensors())
        # compared by digest so that the two paper-size containers are never held at once
        digest = model_hash(serialize_weights(named, config.to_dict()))
        assert digest == model_hash(serialize_weights_oracle(named, config.to_dict()))

    def test_seed0_paper_container_digest_is_pinned(self):
        matcher = Matcher(MatcherConfig(), seed=0)
        assert model_hash(serialize_weights(matcher.named_tensors(), matcher.config.to_dict())) == PAPER_SEED0_SHA256

    def test_strided_and_big_endian_tensors_are_cast_like_the_oracle(self, tmp_path, rng):
        base = rng.standard_normal((5, 7)).astype(np.float32)
        # a big-endian float32 array is not np.float32, so both write it as f8
        arrays = {"transposed": base.T, "big_endian": base.astype(">f4"), "strided_f8": base.astype(np.float64)[:, ::2]}
        named = [(name, SimpleNamespace(data=arr)) for name, arr in arrays.items()]
        blob = serialize_weights(named, {})
        assert blob == serialize_weights_oracle(named, {})
        path = tmp_path / "w.smw"
        path.write_bytes(blob)
        _, tensors, _ = read_weights(str(path))
        for name, arr in arrays.items():
            np.testing.assert_array_equal(tensors[name], arr)

    def test_loaded_tensors_own_writable_memory(self, tmp_path):
        path = tmp_path / "w.smw"
        save_matcher(str(path), Matcher(TINY, seed=0))
        _, tensors, _ = read_weights(str(path))
        loaded, _ = load_matcher(str(path))
        for name, arr in [*tensors.items(), *((name, t.data) for name, t in loaded.named_tensors())]:
            assert arr.flags.owndata and arr.flags.writeable, name

    def test_embedded_config_is_checked_before_the_model_is_built(self, tmp_path):
        matcher = Matcher(TINY, seed=0)
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights(matcher.named_tensors(), {**TINY.to_dict(), "n_heads": 0}))
        with pytest.raises(WeightFormatError, match="n_heads"):
            load_matcher(str(path))

    def test_embedded_config_key_unknown_to_the_matcher_is_named(self, tmp_path):
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights(Matcher(TINY, seed=0).named_tensors(), {**TINY.to_dict(), "lr": 0.1}))
        with pytest.raises(WeightFormatError, match="unknown matcher config key 'lr'"):
            load_matcher(str(path))

    @pytest.mark.parametrize("shape,length", [
        ([0], -16),  # breaks the length rule too
        ([-1, 4], -16),  # -16 is its element count (-4) times 4 bytes
        ([0], False),
    ])
    def test_length_that_is_negative_or_no_int_is_rejected(self, tmp_path, shape, length):
        # accepted, a length of -16 would move the cursor back and "b" would read "a"'s bytes again
        entries = [{"name": "a", "dtype": "f4", "shape": [4], "offset": 0, "length": 16},
                   {"name": "rewind", "dtype": "f4", "shape": shape, "offset": 16, "length": length},
                   {"name": "b", "dtype": "f4", "shape": [4], "offset": 0, "length": 16}]
        manifest = json.dumps({"format_version": 1, "config": {}, "tensors": entries}).encode()
        path = tmp_path / "w.smw"
        path.write_bytes(container(manifest, np.arange(4, dtype="<f4").tobytes()))
        with pytest.raises(WeightFormatError, match="tensor rewind offset and length must be non-negative integers"):
            read_weights(str(path))

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # without the check the later copy would silently win
        named = list(toy_matcher("seed0").named_tensors())
        name, first = named[0]
        copy = T.tensor(np.full(first.shape, 7.0, dtype=np.float32))
        path = tmp_path / "w.smw"
        path.write_bytes(serialize_weights([*named, (name, copy)], MatcherConfig.toy().to_dict()))
        with pytest.raises(WeightFormatError, match=f"tensor {name} is listed twice"):
            load_matcher(str(path))


# Runs one container call at paper size in a fresh process and prints, in bytes,
# how far it raised the peak RSS and the payload, and whether every tensor owns
# writable memory.
RSS_PROBE = """
import json, resource, sys
from semimatch.pipeline import Matcher, MatcherConfig
from semimatch.weights import load_matcher, save_matcher, serialize_weights
call, path = sys.argv[1:]
if call != "load_matcher":
    matcher = Matcher(MatcherConfig(), seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if call == "serialize_weights":
    blob = serialize_weights(matcher.named_tensors(), matcher.config.to_dict())
elif call == "save_matcher":
    save_matcher(path, matcher)
else:
    matcher, _ = load_matcher(path)
grown = 1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
arrays = [t.data for _, t in matcher.named_tensors()]
print(json.dumps({"grown": grown, "payload": sum(a.nbytes for a in arrays),
                  "owned": all(a.flags.owndata and a.flags.writeable for a in arrays)}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
class TestWeightMemory:
    """Paper-size containers cost one payload copy to write and one to load:
    a load reads each tensor from the file straight into its own array. A write
    is measured above the peak of a fresh process whose matcher is drawn, a
    load above that of a fresh process."""

    @staticmethod
    def probe(call: str, path) -> dict:
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(semimatch.__file__)))
        proc = subprocess.run([sys.executable, "-c", RSS_PROBE, call, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("call", ["serialize_weights", "save_matcher"])
    def test_writing_holds_one_payload_copy(self, tmp_path, call):
        report = self.probe(call, tmp_path / "paper.smw")
        assert report["grown"] <= 1.25 * report["payload"], report

    def test_loading_holds_one_payload_copy_and_owns_its_tensors(self, tmp_path):
        path = tmp_path / "paper.smw"
        self.probe("save_matcher", path)
        report = self.probe("load_matcher", path)
        assert report["grown"] <= 1.25 * report["payload"] and report["owned"], report


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

    def test_tau_with_optimized_mode_raises_before_any_compute(self):
        # optimized mode keeps every mutual nearest neighbour: a tau there would be ignored
        image = np.zeros((16, 16), dtype=np.float32)
        counters.reset("conv2d")
        with pytest.raises(ValueError, match="tau"):
            Matcher(TINY, seed=0).match_pair(image, image, mode="optimized", tau=0.5)
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

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ValueError, match="line 4: key 'lr' repeats line 1"):
            parse_config_text("lr=0.1\nalpha=0.5\n# lr=0.3 in a comment is no setting\n lr = 0.2\n")

    def test_defaults_without_file(self):
        settings = load_settings(None)
        assert settings.matcher.d_model == 32


class TestMatchDump:
    def test_header_and_rows_round_trip(self, rng):
        matcher = Matcher(TINY, seed=0)
        image = rng.random((32, 40), dtype=np.float64).astype(np.float32)
        result = matcher.match_pair(image, image, mode="optimized")
        text = match_dump_csv(result, model="cafe" * 16)
        header, rows = read_match_dump(text)
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


@lru_cache(maxsize=None)
def toy_matcher(model: str) -> Matcher:
    if model == "trained":
        return load_matcher(str(TOY_WEIGHTS))[0]
    return Matcher(MatcherConfig.toy(), seed=0)


def fill(shape: tuple[int, int], kind: str, seed: int) -> np.ndarray:
    if kind == "noise":
        return np.random.default_rng(seed).random(shape, dtype=np.float32)
    return np.full(shape, (seed % 11) / 10, dtype=np.float32)


sides = st.tuples(st.integers(1, 300), st.integers(1, 300))


class TestDegenerateInputs:
    @given(shape_a=sides, shape_b=sides, fill_a=st.sampled_from(["noise", "constant"]),
           fill_b=st.sampled_from(["noise", "constant"]), seed=st.integers(0, 2**16),
           model=st.sampled_from(["trained", "seed0"]), mode=st.sampled_from(["full", "optimized"]))
    @example(shape_a=(64, 96), shape_b=(96, 64), fill_a="noise", fill_b="noise", seed=0, model="seed0", mode="full")
    @example(shape_a=(40, 200), shape_b=(64, 64), fill_a="noise", fill_b="constant", seed=1, model="trained",
             mode="optimized")
    @example(shape_a=(17, 300), shape_b=(300, 17), fill_a="constant", fill_b="noise", seed=2, model="trained",
             mode="full")
    @example(shape_a=(1, 1), shape_b=(300, 17), fill_a="noise", fill_b="noise", seed=3, model="seed0",
             mode="optimized")
    @settings(max_examples=60, deadline=None)
    def test_matches_land_inside_both_images(self, shape_a, shape_b, fill_a, fill_b, seed, model, mode):
        image_a, image_b = fill(shape_a, fill_a, seed), fill(shape_b, fill_b, seed + 1)
        tau = 0.0 if mode == "full" else None  # full mode keeps every mutual pair, as optimized mode does
        result = toy_matcher(model).match_pair(image_a, image_b, mode=mode, tau=tau)
        for (h, w), (grid_h, grid_w), cells in ((shape_a, result.grid_a, [m.i for m in result.coarse]),
                                                (shape_b, result.grid_b, [m.j for m in result.coarse])):
            rows, cols = np.divmod(np.asarray(cells, dtype=np.int64), grid_w)
            assert ((rows + 1) * COARSE_STRIDE <= h).all() and ((cols + 1) * COARSE_STRIDE <= w).all()
            assert (rows < grid_h).all()
        for m in result.fine:
            assert 0 <= m.pt_a[0] <= shape_a[1] - 1 and 0 <= m.pt_a[1] <= shape_a[0] - 1
            assert 0 <= m.pt_b[0] <= shape_b[1] - 1 and 0 <= m.pt_b[1] <= shape_b[0] - 1

    @pytest.mark.parametrize("mode", ["full", "optimized"])
    def test_fine_points_past_the_image_edge_are_dropped(self, mode):
        # 16-px patches reach into the padding: 2 of the 6 coarse matches
        # refine to pt_a (27, 5) in the 24-px-wide A and pt_b.x 35.0 in the
        # 35-px-wide B, which the fine-point bounds filter drops; 3 of the
        # other 4 refine to one pixel pair, which is kept once
        r = np.random.default_rng(813)
        image_a, image_b = r.random((21, 24)).astype(np.float32), r.random((18, 35)).astype(np.float32)
        matcher = Matcher(replace(MatcherConfig.toy(), fine_patch_width=16), seed=0)
        result = matcher.match_pair(image_a, image_b, mode=mode, tau=0.0 if mode == "full" else None)
        assert len(result.coarse) == 6 and len(result.fine) == 2
        for m in result.fine:
            assert 0 <= m.pt_a[0] <= 23 and 0 <= m.pt_a[1] <= 20
            assert 0 <= m.pt_b[0] <= 34 and 0 <= m.pt_b[1] <= 17


def assert_swap_symmetric(matcher: Matcher, image_a, image_b, mode: str) -> None:
    """``match_pair(b, a)`` returns the mirrored coarse pairs of ``match_pair(a, b)``, with
    confidences within 1e-5 (the two orders sum in another order, so not bitwise)."""
    tau = 0.0 if mode == "full" else None
    forward = {(m.i, m.j): m.confidence for m in matcher.match_pair(image_a, image_b, mode=mode, tau=tau).coarse}
    swapped = {(m.j, m.i): m.confidence for m in matcher.match_pair(image_b, image_a, mode=mode, tau=tau).coarse}
    assert forward and sorted(swapped) == sorted(forward)
    np.testing.assert_allclose([swapped[k] for k in forward], list(forward.values()), rtol=0, atol=1e-5)


class TestSwapSymmetry:
    @pytest.mark.parametrize("mode", ["full", "optimized"])
    def test_trained_toy_on_synthetic_pairs(self, mode):
        for index in range(4):
            image_a, image_b, _ = render_pair(1, index, SynthConfig(size=256))
            assert_swap_symmetric(toy_matcher("trained"), image_a, image_b, mode)

    @pytest.mark.parametrize("mode", ["full", "optimized"])
    def test_unequal_sizes_take_the_per_image_transform(self, mode):
        assert_swap_symmetric(toy_matcher("seed0"), fill((96, 64), "noise", 0), fill((64, 112), "noise", 1), mode)


class TestTrainedToyKnobs:
    def test_wide_patches_give_each_pixel_pair_once(self):
        # 16-px patches of neighbouring cells overlap, so two coarse matches
        # can refine to one pixel pair; RANSAC would count it twice
        matcher = toy_matcher("trained")
        matcher.config = replace(matcher.config, fine_patch_width=16)
        image_a, image_b, _ = render_pair(1, 0, SynthConfig(size=256))
        pairs = [(m.pt_a, m.pt_b) for m in matcher.match_pair(image_a, image_b, mode="optimized").fine]
        assert len(pairs) > 300 and len(set(pairs)) == len(pairs)

    def test_inv_temperature_scales_optimized_confidences(self):
        # twice the default 10 / d_model; a power-of-two scale of the logits is exact
        matcher = toy_matcher("trained")
        image_a, image_b, _ = render_pair(1, 0, SynthConfig(size=256))
        base = matcher.match_pair(image_a, image_b, mode="optimized")
        matcher.config = replace(matcher.config, inv_temperature=0.625)
        assert matcher.inv_temperature == 2 * 10 / matcher.config.d_model
        hot = matcher.match_pair(image_a, image_b, mode="optimized")
        assert len(base.coarse) == 523
        assert [(m.i, m.j) for m in hot.coarse] == [(m.i, m.j) for m in base.coarse]
        assert [m.confidence for m in hot.coarse] == [2 * m.confidence for m in base.coarse]
        assert hot.fine == base.fine


def coarse_precision_oracle(result, h) -> tuple[int, int]:
    """coarse_precision of one result by pixel arithmetic: each match's cells read as (row, col)
    on its own grids, A's cell centre warped by H to the nearest cell of B's unpadded grid."""
    (ha, wa), (hb, wb) = result.dims_a, result.dims_b
    hits = total = 0
    for m in result.coarse:
        row_a, col_a = divmod(m.i, result.grid_a[1])
        if row_a >= ha // COARSE_STRIDE or col_a >= wa // COARSE_STRIDE:
            continue  # a cell reaching into A's padding has no ground truth
        centre = [[(col_a + 0.5) * COARSE_STRIDE, (row_a + 0.5) * COARSE_STRIDE]]
        (x, y), finite = (v[0] for v in apply_homography(h, centre))
        if not (finite and 0 <= x < wb and 0 <= y < hb):
            continue
        target_row = min(max(round(y / COARSE_STRIDE - 0.5), 0), hb // COARSE_STRIDE - 1)
        target_col = min(max(round(x / COARSE_STRIDE - 0.5), 0), wb // COARSE_STRIDE - 1)
        row_b, col_b = divmod(m.j, result.grid_b[1])
        total += 1
        hits += abs(row_b - target_row) <= 1 and abs(col_b - target_col) <= 1
    return hits, total


class TestCoarsePrecision:
    # 72 and 88 are padded to 80 and 96, so their coarse grids are one cell wider than the ground truth's
    @pytest.mark.parametrize("size,expected", [(64, (233, 235)), (72, (248, 275)), (80, (280, 304)),
                                               (88, (306, 374))])
    def test_each_cell_is_read_on_its_own_grid(self, size, expected):
        matcher = toy_matcher("trained")
        pairs = SyntheticPairs(6, seed=42, cfg=SynthConfig(size=size))
        scored = coarse_precision(matcher, pairs, range(6), mode="optimized")
        oracle = [coarse_precision_oracle(matcher.match_pair(a, b, mode="optimized"), h) for a, b, h in pairs]
        assert scored == tuple(map(sum, zip(*oracle))) == expected


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
        header, rows = read_match_dump(out_csv.read_text())
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

    def test_non_finite_homography_file_exits_1_naming_it(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--size", "32", "--out", str(data)]) == 0
        bad = data / "pair0001_H.csv"
        bad.write_text("nan,0,0\n0,1,0\n0,0,1\n")
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        capsys.readouterr()
        assert main(["eval-homography", "--data", str(data), "--weights", str(weights)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and str(bad) in err and "non-finite" in err

    def test_homography_entry_that_is_no_number_fails_before_any_pair_is_used(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--count", "3", "--size", "32", "--out", str(data)]) == 0
        bad = data / "pair0002_H.csv"
        bad.write_text("1,0,0\n0,1,abc\n0,0,1\n")
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))

        def never(*args, **kwargs):
            raise AssertionError("a pair was used before every homography file was checked")

        monkeypatch.setattr(Matcher, "match_pair", never)
        monkeypatch.setattr("semimatch.cli.train_toy", never)
        capsys.readouterr()
        for argv in (["eval-homography", "--data", str(data), "--weights", str(weights)],
                     ["train-toy", "--data", str(data), "--out", str(tmp_path / "trained.smw")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid input") and f"{bad} line 2" in err and "'0,1,abc'" in err
        assert not (tmp_path / "trained.smw").exists()

    def test_ragged_homography_file_fails_named_before_any_pair_is_used(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--size", "32", "--out", str(data)]) == 0
        bad = data / "pair0001_H.csv"
        bad.write_text("1,0,0\n0,1\n0,0,1\n")
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        calls = []
        monkeypatch.setattr(Matcher, "match_pair", lambda *args, **kwargs: calls.append("match_pair"))
        capsys.readouterr()
        assert main(["eval-homography", "--data", str(data), "--weights", str(weights)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input") and f"{bad} line 2: '0,1' is not 3 comma-separated numbers" in err
        assert calls == []

    def test_missing_b_image_fails_before_any_pair_is_used(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--size", "32", "--out", str(data)]) == 0
        (data / "pair0001_B.pgm").unlink()
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))

        def never(*args, **kwargs):
            raise AssertionError("a pair was used before every B image was found")

        monkeypatch.setattr(Matcher, "match_pair", never)
        monkeypatch.setattr("semimatch.cli.train_toy", never)
        capsys.readouterr()
        for argv in (["eval-homography", "--data", str(data), "--weights", str(weights)],
                     ["train-toy", "--data", str(data), "--out", str(tmp_path / "trained.smw")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("i/o error") and str(data / "pair0001_B.pgm") in err
        assert not (tmp_path / "trained.smw").exists()

    def test_truncated_image_fails_named_before_any_pair_is_used(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--size", "32", "--out", str(data)]) == 0
        bad = data / "pair0001_B.pgm"
        bad.write_bytes(bad.read_bytes()[:-32 * 32])  # the header only
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        calls = []
        monkeypatch.setattr(Matcher, "match_pair", lambda *args, **kwargs: calls.append("match_pair"))
        monkeypatch.setattr("semimatch.cli.train_toy", lambda *args, **kwargs: calls.append("train_toy"))
        capsys.readouterr()
        for argv in (["eval-homography", "--data", str(data), "--weights", str(weights)],
                     ["train-toy", "--data", str(data), "--out", str(tmp_path / "trained.smw")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("format error") and f"{bad}: truncated payload: want 1024 bytes, got 0" in err
        assert calls == []
        assert not (tmp_path / "trained.smw").exists()

    def test_stray_names_in_a_pair_directory_are_ignored(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--size", "32", "--out", str(data)]) == 0
        for stray in ("pair_old_A.pgm", "pair001_A.pgm", "pair00001_A.pgm", "pair0000_A.pgm.bak"):
            (data / stray).write_bytes((data / "pair0000_A.pgm").read_bytes())
        assert DirectoryPairs(str(data)).indices == [0, 1]
        weights = tmp_path / "tiny.smw"
        save_matcher(str(weights), Matcher(TINY, seed=0))
        capsys.readouterr()
        assert main(["eval-homography", "--data", str(data), "--weights", str(weights)]) == 0
        assert "(full mode, 2 pairs)" in capsys.readouterr().out

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

    @pytest.mark.usefixtures("blas_one_thread")
    def test_inf_in_image_b_only_gives_numeric_exit(self, tmp_path, capsys, monkeypatch):
        lanes_at_any_work(monkeypatch)  # image B on the worker thread
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
        "alpha=inf", "beta=inf", "lr=0.1\nlr=0.2",
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
