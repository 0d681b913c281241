"""Bit-exact image file I/O: PFM (HDR), binary PPM (LDR), Middlebury .flo.

PFM files are written little-endian (scale -1.0) with bottom-up row order
per the format convention.  PPM is the binary P6 variant; sample width
follows maxval (1 byte up to 255, else 2 bytes big-endian), and a ``#``
comment in a header runs to the end of its line (Netpbm).  Flow files use
the Middlebury magic 202021.25 with interleaved (u, v) float32 pairs.
All writers round-trip exactly through the matching reader.  The header
readers check a file's header and its size without reading the payload.
"""

from __future__ import annotations

import math
import os
import struct
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

FLO_MAGIC = 202021.25


def write_pfm(path, data: np.ndarray) -> None:
    """Write a (H, W) or (H, W, 3) float array as Pf/PF."""
    arr = np.asarray(data, dtype=np.float32)
    if arr.ndim == 2:
        header = b"Pf"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        header = b"PF"
    else:
        raise ConfigError(f"PFM requires (H, W) or (H, W, 3), got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(header + b"\n")
        f.write(f"{w} {h}\n".encode("ascii"))
        f.write(b"-1.0\n")  # negative scale marks little-endian
        f.write(arr[::-1].tobytes())  # bottom-up rows


def _read_token(f):
    """The next header token; a comment from ``#`` to the end of its line
    delimits tokens like whitespace."""
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise ConfigError("unexpected end of PFM/PPM header")
        if c == b"#":
            f.readline()
            c = b" "
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def _payload_left(f):
    """The bytes of an open file after its read position."""
    return os.fstat(f.fileno()).st_size - f.tell()


def _read_count(f, path, fmt):
    """The next header token of a PPM or PFM file, a decimal integer."""
    tok = _read_token(f)
    if not tok.isdigit():
        raise ConfigError(f"bad {fmt} header value {tok!r} in {path}")
    return int(tok)


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_token(f)
        if magic == b"PF":
            channels = 3
        elif magic == b"Pf":
            channels = 1
        else:
            raise ConfigError(f"not a PFM file: magic {magic!r}")
        w, h = (_read_count(f, path, "PFM") for _ in range(2))
        if w < 1 or h < 1:
            raise ConfigError(f"bad PFM size {w}x{h} in {path}: each must be >= 1")
        tok = _read_token(f)
        try:
            scale = float(tok)
        except ValueError:
            scale = math.nan
        if not (math.isfinite(scale) and scale != 0.0):
            raise ConfigError(f"bad PFM scale {tok!r} in {path}: must be a finite nonzero number")
        dtype = "<f4" if scale < 0 else ">f4"
        raw = f.read(w * h * channels * 4)
        if len(raw) != w * h * channels * 4:
            raise ConfigError("truncated PFM payload")
    arr = np.frombuffer(raw, dtype=dtype).reshape(h, w, channels)[::-1]
    if channels == 1:
        arr = arr[:, :, 0]
    return np.ascontiguousarray(arr.astype(np.float32))


def write_ppm(path, data: np.ndarray, maxval: int | None = None) -> None:
    """Write an (H, W, 3) unsigned-int array as binary P6."""
    arr = np.asarray(data)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ConfigError(f"PPM requires (H, W, 3), got {arr.shape}")
    if maxval is None:
        maxval = 255 if arr.dtype == np.uint8 else int(arr.max(initial=1))
    if not 1 <= maxval <= 65535:
        raise ConfigError(f"PPM maxval out of range: {maxval}")
    if arr.max(initial=0) > maxval:
        raise ConfigError("PPM sample exceeds maxval")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n{maxval}\n".encode("ascii"))
        if maxval <= 255:
            f.write(arr.astype(np.uint8).tobytes())
        else:
            f.write(arr.astype(">u2").tobytes())


class PpmHeader(NamedTuple):
    """A binary PPM's size and maxval, read from its header."""

    height: int
    width: int
    maxval: int

    @property
    def shape(self):
        return (self.height, self.width, 3)

    @property
    def dtype(self):
        """The stored sample type: one byte up to maxval 255, else two."""
        return np.dtype(np.uint8 if self.maxval <= 255 else ">u2")


def _ppm_header(f, path) -> PpmHeader:
    """Read a P6 header from ``f`` and check that the payload is all there."""
    magic = _read_token(f)
    if magic != b"P6":
        raise ConfigError(f"not a binary PPM: magic {magic!r} in {path}")
    w, h, maxval = (_read_count(f, path, "PPM") for _ in range(3))
    header = PpmHeader(h, w, maxval)
    if not 1 <= header.maxval <= 65535:
        raise ConfigError(f"PPM maxval {header.maxval} outside 1..65535 in {path}")
    if _payload_left(f) < math.prod(header.shape) * header.dtype.itemsize:
        raise ConfigError(f"truncated PPM payload in {path}")
    return header


def read_ppm_header(path) -> PpmHeader:
    """A P6 file's header, checked against its size; no sample is read."""
    with open(path, "rb") as f:
        return _ppm_header(f, path)


def read_ppm(path) -> tuple[np.ndarray, int]:
    """Read binary P6; returns (array, maxval), dtype uint8 or uint16."""
    with open(path, "rb") as f:
        header = _ppm_header(f, path)
        arr = np.fromfile(f, dtype=header.dtype, count=math.prod(header.shape))
    arr = arr.reshape(header.shape)
    if header.maxval > 255:
        arr = arr.astype(np.uint16)
    if header.maxval not in (255, 65535) and arr.max(initial=0) > header.maxval:
        raise ConfigError(f"PPM sample exceeds maxval {header.maxval} in {path}")
    return arr, header.maxval


def write_flo(path, flow: np.ndarray) -> None:
    """Write an (H, W, 2) flow field in Middlebury .flo format."""
    arr = np.asarray(flow, dtype=np.float32)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError(f"flow must be (H, W, 2), got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(struct.pack("<f", FLO_MAGIC))
        f.write(struct.pack("<ii", w, h))
        f.write(arr.astype("<f4").tobytes())


def _flo_header(f, path) -> tuple[int, int]:
    """Read a .flo header from ``f`` and check that the payload is all there:
    (width, height)."""
    head = f.read(12)
    if len(head) != 12:
        raise ConfigError(f"truncated .flo header in {path}")
    magic = struct.unpack("<f", head[:4])[0]
    if magic != FLO_MAGIC:
        raise ConfigError(f"not a .flo file: magic {magic!r} in {path}")
    w, h = struct.unpack("<ii", head[4:])
    if w < 0 or h < 0:
        raise ConfigError(f"negative .flo size {w}x{h} in {path}")
    if _payload_left(f) < w * h * 2 * 4:
        raise ConfigError(f"truncated .flo payload in {path}")
    return w, h


def read_flo_header(path) -> tuple[int, int]:
    """A .flo file's (width, height), checked against its size; no flow
    vector is read."""
    with open(path, "rb") as f:
        return _flo_header(f, path)


def read_flo(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _flo_header(f, path)
        arr = np.fromfile(f, dtype="<f4", count=w * h * 2)
    return arr.reshape(h, w, 2)
