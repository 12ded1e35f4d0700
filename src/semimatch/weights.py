"""Weight container: a text manifest plus raw little-endian payload.

Layout: magic line, 4-byte little-endian manifest length, UTF-8 JSON
manifest (format version, embedded config, tensor table with byte offsets),
then the concatenated tensor payload. Writing then reading a container is
bit-identical.
"""
from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from .imageio import atomic_write
from .pipeline import Matcher, MatcherConfig
from .tensor import NumericError

MAGIC = b"SMWT1\n"
FORMAT_VERSION = 1

_DTYPES = {"f4": "<f4", "f8": "<f8"}


class WeightFormatError(ValueError):
    pass


def serialize_weights(named_tensors, config: dict | None = None) -> bytes:
    entries = []
    chunks = []
    offset = 0
    for name, tensor in named_tensors:
        arr = np.ascontiguousarray(tensor.data)
        code = "f4" if arr.dtype == np.float32 else "f8"
        raw = arr.astype(_DTYPES[code]).tobytes()
        entries.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "length": len(raw),
        })
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "tensors": entries,
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(body)) + body + b"".join(chunks)


def deserialize_weights(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (config, {name: array}). Validates offsets before any copy."""
    if not blob.startswith(MAGIC):
        raise WeightFormatError("not a weight container (bad magic)")
    head = len(MAGIC)
    if len(blob) < head + 4:
        raise WeightFormatError("truncated container header")
    (body_len,) = struct.unpack("<I", blob[head:head + 4])
    body_start = head + 4
    payload_start = body_start + body_len
    if len(blob) < payload_start:
        raise WeightFormatError("truncated manifest")
    payload = blob[payload_start:]
    tensors: dict[str, np.ndarray] = {}
    cursor = 0
    try:  # anything off in the manifest is a format error: bad UTF-8 or JSON, a missing or mistyped field
        manifest = json.loads(blob[body_start:payload_start].decode("utf-8"))
        if manifest["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {manifest['format_version']}")
        for entry in manifest["tensors"]:
            if entry["offset"] != cursor:
                raise ValueError(f"tensor {entry['name']} offset overlaps or leaves a gap")
            end = entry["offset"] + entry["length"]
            if end > len(payload):
                raise ValueError(f"tensor {entry['name']} extends past payload")
            if entry["dtype"] not in _DTYPES:
                raise ValueError(f"unknown dtype {entry['dtype']}")
            arr = np.frombuffer(payload[entry["offset"]:end], dtype=_DTYPES[entry["dtype"]])
            tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
            cursor = end
        config = dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WeightFormatError(f"malformed manifest ({type(exc).__name__}: {exc})") from None
    if cursor != len(payload):
        raise WeightFormatError("payload longer than manifest describes")
    return config, tensors


def save_matcher(path: str, matcher) -> None:
    atomic_write(path, serialize_weights(matcher.named_tensors(), matcher.config.to_dict()))


def load_matcher(path: str):
    """Rebuild a Matcher from a container; every tensor must be present and finite."""
    with open(path, "rb") as fh:
        blob = fh.read()
    config_dict, tensors = deserialize_weights(blob)
    try:
        config = MatcherConfig.from_dict(config_dict)
    except (KeyError, ValueError) as exc:
        raise WeightFormatError(f"embedded config: {exc}") from None
    matcher = Matcher(config)
    expected = dict(matcher.named_tensors())
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise WeightFormatError(f"container is missing tensors: {missing[:5]}")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise WeightFormatError(f"container has unknown tensors: {extra[:5]}")
    for name, target in expected.items():
        arr = tensors[name]
        if tuple(arr.shape) != target.shape:
            raise WeightFormatError(f"tensor {name} has shape {arr.shape}, expected {target.shape}")
        if not np.isfinite(arr).all():
            raise NumericError(f"tensor {name} holds non-finite values")
        target.data = arr.astype(target.dtype)
    return matcher, model_hash(blob)


def model_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
