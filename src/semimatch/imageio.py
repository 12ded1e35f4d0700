"""Binary PGM (P5) and PPM (P6) image I/O, 8-bit maxval 255 only, and the
atomic file writer every output of the program goes through.

Grayscale values scale to [0, 1]; color reads convert by luma weights
0.299 / 0.587 / 0.114.
"""
from __future__ import annotations

import contextlib
import os

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


def _read_pixels(path: str) -> tuple[np.ndarray, int, int, int]:
    """The file's uint8 payload with its height, width and channel count.

    Every format error names ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
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
    except ImageFormatError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None
    return np.frombuffer(payload, dtype=np.uint8), height, width, channels


def check_image(path: str) -> None:
    """Raise ``ImageFormatError`` naming ``path`` unless it holds a whole P5/P6 image."""
    _read_pixels(path)


def load_image(path: str) -> np.ndarray:
    """Read a P5/P6 file as a float32 grayscale (H, W) array in [0, 1]."""
    pixels, height, width, channels = _read_pixels(path)
    data = pixels.astype(np.float32) / 255.0
    if channels == 1:
        return data.reshape(height, width)
    return (data.reshape(height, width, 3) @ LUMA.astype(np.float32)).astype(np.float32)


def atomic_write(path: str, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to ``path`` through ``<path>.tmp`` and a
    rename, so ``path`` is either untouched or complete. On any failure the
    temp file is removed and the error re-raised."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_pgm(path: str, image: np.ndarray) -> None:
    """Write a [0, 1] grayscale (H, W) array as binary PGM."""
    _save_pnm(path, "P5", image, ())


def save_ppm(path: str, image: np.ndarray) -> None:
    """Write a [0, 1] (H, W, 3) array as binary PPM."""
    _save_pnm(path, "P6", image, (3,))


def _save_pnm(path: str, magic: str, image: np.ndarray, channels: tuple[int, ...]) -> None:
    quantized = np.clip(np.round(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    if quantized.ndim < 2 or quantized.shape[2:] != channels:
        raise ValueError(f"{magic} needs an (H, W{', 3' * len(channels)}) array, got shape {quantized.shape}")
    h, w = quantized.shape[:2]
    atomic_write(path, f"{magic}\n{w} {h}\n255\n".encode() + quantized.tobytes())
