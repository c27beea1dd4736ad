"""Grayscale image I/O: binary PGM (P5; 16-bit written, 8- or 16-bit read)
and a raw float64 container for bit-exact regression dumps.

Pixel values travel as floats in [0, 1]; PGM writing quantizes to 16 bits,
reading maps back through the stored maxval.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["read_pgm", "write_pgm", "read_raw_f64", "write_raw_f64", "read_image", "write_image"]

_F64_MAGIC = b"VMPF64\n"


def write_pgm(path, img):
    """Write a (height, width) float array in [0, 1] as 16-bit binary PGM."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    q = np.rint(np.clip(img, 0.0, 1.0) * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii"))
        fh.write(q.tobytes())


def read_pgm(path):
    """Read a binary PGM into a (height, width) float array in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary (P5) PGM file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise ValueError(f"{path}: truncated or malformed PGM header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise ValueError(f"{path}: empty PGM image, {width}x{height} pixels")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} outside 1..65535")
    dtype = ">u1" if maxval < 256 else ">u2"
    count = width * height
    if len(data) - pos < count * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: truncated PGM data, {width}x{height} pixels expected")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return raw.reshape(height, width).astype(float) / maxval


def write_raw_f64(path, img):
    """Bit-exact float64 dump with a tiny header (magic, height, width)."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    with open(path, "wb") as fh:
        fh.write(_F64_MAGIC)
        fh.write(struct.pack("<qq", img.shape[0], img.shape[1]))
        fh.write(img.tobytes())


def read_raw_f64(path):
    """Read a raw float64 image; bad, empty or short files name the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(_F64_MAGIC) + 16
    if not data.startswith(_F64_MAGIC):
        raise ValueError(f"{path}: not a raw float64 image file")
    if len(data) < start:
        raise ValueError(f"{path}: truncated raw float64 header")
    h, w = struct.unpack_from("<qq", data, len(_F64_MAGIC))
    if h < 1 or w < 1:
        raise ValueError(f"{path}: empty raw float64 image, {h}x{w} pixels")
    if len(data) - start < 8 * h * w:
        raise ValueError(f"{path}: truncated raw float64 data, {h}x{w} pixels expected")
    return np.frombuffer(data, np.float64, h * w, start).reshape(h, w).copy()


def read_image(path):
    """Dispatch on extension: .pgm or .f64."""
    path = str(path)
    if path.endswith(".pgm"):
        return read_pgm(path)
    if path.endswith(".f64"):
        return read_raw_f64(path)
    raise ValueError(f"unsupported image format: {path}")


def write_image(path, img):
    path = str(path)
    if path.endswith(".pgm"):
        write_pgm(path, img)
    elif path.endswith(".f64"):
        write_raw_f64(path, img)
    else:
        raise ValueError(f"unsupported image format: {path}")
