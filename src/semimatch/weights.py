"""Weight container: a text manifest plus raw little-endian payload.

Layout: magic line, 4-byte little-endian manifest length, UTF-8 JSON
manifest (format version, embedded config, tensor table with byte offsets),
then the concatenated tensor payload. Writing then reading a container is
bit-identical.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .imageio import atomic_write
from .params import WeightFormatError
from .pipeline import Matcher, MatcherConfig

MAGIC = b"SMWT1\n"
FORMAT_VERSION = 1

_DTYPES = {"f4": "<f4", "f8": "<f8"}


def serialize_weights(named_tensors, config: dict) -> bytes:
    """The container as one ``bytes``: tensors are joined from memoryviews, so
    a tensor is copied only where its dtype or layout needs a cast."""
    entries = []
    views = []
    offset = 0
    for name, tensor in named_tensors:
        code = "f4" if tensor.data.dtype == np.float32 else "f8"
        arr = np.ascontiguousarray(tensor.data, dtype=_DTYPES[code])
        entries.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "length": arr.nbytes,
        })
        views.append(memoryview(arr))
        offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "tensors": entries,
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return b"".join([MAGIC, struct.pack("<I", len(body)), body, *views])


def deserialize_weights(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (config, {name: array}). Validates offsets and lengths before any
    copy: each tensor starts where the last one ended, and its length is a
    non-negative integer equal to its element count times its item size. The
    payload is read through a memoryview, so each tensor is copied once."""
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
    payload = memoryview(blob)[payload_start:]
    tensors: dict[str, np.ndarray] = {}
    cursor = 0
    try:  # anything off in the manifest is a format error: bad UTF-8 or JSON, a missing or mistyped field
        manifest = json.loads(blob[body_start:payload_start].decode("utf-8"))
        if manifest["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported format version {manifest['format_version']}")
        for entry in manifest["tensors"]:
            if entry["name"] in tensors:
                raise ValueError(f"tensor {entry['name']} is listed twice")
            if entry["dtype"] not in _DTYPES:
                raise ValueError(f"unknown dtype {entry['dtype']}")
            dtype = np.dtype(_DTYPES[entry["dtype"]])
            # a negative length would move the cursor back, so two tensors could read the same bytes
            if not all(type(entry[key]) is int and entry[key] >= 0 for key in ("offset", "length")):
                raise ValueError(f"tensor {entry['name']} offset and length must be non-negative integers")
            if entry["length"] != math.prod(entry["shape"]) * dtype.itemsize:
                raise ValueError(f"tensor {entry['name']} length does not match its shape and dtype")
            if entry["offset"] != cursor:
                raise ValueError(f"tensor {entry['name']} offset overlaps or leaves a gap")
            end = entry["offset"] + entry["length"]
            if end > len(payload):
                raise ValueError(f"tensor {entry['name']} extends past payload")
            arr = np.frombuffer(payload[entry["offset"]:end], dtype=dtype)
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
    """Build a Matcher from a container's tensors, drawing nothing (``Matcher.from_arrays``)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    digest = model_hash(blob)
    config_dict, tensors = deserialize_weights(blob)
    del blob  # the tensors are copies; the model is built without the file bytes held
    try:
        config = MatcherConfig.from_dict(config_dict)
    except (KeyError, ValueError) as exc:
        raise WeightFormatError(f"embedded config: {exc}") from None
    return Matcher.from_arrays(config, tensors, np.float32), digest


def model_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
