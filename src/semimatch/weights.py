"""Weight container: a text manifest plus raw little-endian payload.

Layout: magic line, 4-byte little-endian manifest length, UTF-8 JSON
manifest (format version, embedded config, tensor table with byte offsets),
then the concatenated tensor payload. Writing then reading a container is
bit-identical; a load reads each tensor from the file into its own array.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
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


def read_weights(path: str) -> tuple[dict, dict[str, np.ndarray], str]:
    """(config, {name: array}, sha256 of the file). Each entry is checked before
    its tensor is read: it starts where the last one ended, its length is a
    non-negative integer equal to its element count times its item size, and it
    ends inside the payload (the file's ``os.fstat`` size past the manifest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 4)
        if not head.startswith(MAGIC):
            raise WeightFormatError("not a weight container (bad magic)")
        if len(head) < len(MAGIC) + 4:
            raise WeightFormatError("truncated container header")
        (body_len,) = struct.unpack("<I", head[len(MAGIC):])
        payload_len = os.fstat(fh.fileno()).st_size - len(head) - body_len
        if payload_len < 0:  # checked before the read, so a corrupt length allocates nothing
            raise WeightFormatError("truncated manifest")
        body = fh.read(body_len)
        digest.update(head + body)
        tensors: dict[str, np.ndarray] = {}
        cursor = 0
        try:  # anything off in the manifest is a format error: bad UTF-8 or JSON, a missing or mistyped field
            manifest = json.loads(body.decode("utf-8"))
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
                cursor += entry["length"]
                if cursor > payload_len:
                    raise ValueError(f"tensor {entry['name']} extends past payload")
                arr = np.empty(entry["shape"], dtype)
                if fh.readinto(arr) != entry["length"]:
                    raise ValueError(f"tensor {entry['name']} was cut short: the file shrank while it was read")
                digest.update(arr)
                tensors[entry["name"]] = arr
            config = dict(manifest["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WeightFormatError(f"malformed manifest ({type(exc).__name__}: {exc})") from None
    if cursor != payload_len:
        raise WeightFormatError("payload longer than manifest describes")
    return config, tensors, digest.hexdigest()


def save_matcher(path: str, matcher) -> None:
    atomic_write(path, serialize_weights(matcher.named_tensors(), matcher.config.to_dict()))


def load_matcher(path: str):
    """Build a Matcher from a container's tensors, drawing nothing (``Matcher.from_arrays``)."""
    config_dict, tensors, digest = read_weights(path)
    try:
        config = MatcherConfig.from_dict(config_dict)
    except (KeyError, ValueError) as exc:
        raise WeightFormatError(f"embedded config: {exc}") from None
    return Matcher.from_arrays(config, tensors, np.float32), digest


def model_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()
