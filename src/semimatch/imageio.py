"""Binary PGM (P5) and PPM (P6) image I/O, 8-bit maxval 255 only.

Grayscale values scale to [0, 1]; color reads convert by luma weights
0.299 / 0.587 / 0.114.
"""
from __future__ import annotations

import numpy as np

LUMA = np.array([0.299, 0.587, 0.114])


class ImageFormatError(ValueError):
    pass


def _read_header(blob: bytes) -> tuple[bytes, list[int], int]:
    if len(blob) < 2 or blob[:1] != b"P" or blob[1:2] not in (b"5", b"6"):
        raise ImageFormatError("unsupported image format (want binary PGM P5 or PPM P6)")
    magic = blob[:2]
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(blob):
            raise ImageFormatError("truncated header")
        ch = blob[pos:pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(blob) and blob[pos:pos + 1].isdigit():
                pos += 1
            fields.append(int(blob[start:pos]))
        else:
            raise ImageFormatError(f"unexpected header byte {ch!r}")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise ImageFormatError("missing whitespace after maxval")
    return magic, fields, pos + 1


def load_image(path: str) -> np.ndarray:
    """Read a P5/P6 file as a float32 grayscale (H, W) array in [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, (width, height, maxval), start = _read_header(blob)
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}, want 255")
    if width < 1 or height < 1:
        raise ImageFormatError(f"image has no pixels: {width}x{height}")
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = blob[start:start + need]
    if len(payload) < need:
        raise ImageFormatError(f"truncated payload: want {need} bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
    if channels == 1:
        return data.reshape(height, width)
    return (data.reshape(height, width, 3) @ LUMA.astype(np.float32)).astype(np.float32)


def save_pgm(path: str, image: np.ndarray) -> None:
    """Write a [0, 1] grayscale array as binary PGM."""
    quantized = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(quantized.tobytes())


def save_ppm(path: str, image: np.ndarray) -> None:
    """Write a [0, 1] (H, W, 3) array as binary PPM."""
    quantized = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w, _ = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(quantized.tobytes())
