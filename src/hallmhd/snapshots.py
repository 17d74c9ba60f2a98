"""Binary snapshot format for spectral states.

Layout (all little-endian):

    bytes 0-3   magic "HMHD"
    u32         format version (1)
    u32         spatial dimension (2 or 3)
    u32         n (modes per axis)
    u32         component count (number of coefficient arrays: 6 or 9)
    f64         time
    payload     complex coefficients per component, interleaved (re, im)
                float64, row-major over the stored half-spectrum lattice
                (full axes in FFT order, last axis k in [0, n/2])
    u32         CRC-32 of the payload

Component order is u(3), B(3), then v(3) when present.  Round trips are
bit-exact; resolution mismatches and corruption are rejected.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .fields import SpectralField
from .grid import GridSpec

__all__ = ["SnapshotFormatError", "write_snapshot", "read_snapshot", "inspect_snapshot"]

_MAGIC = b"HMHD"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIId")


class SnapshotFormatError(ValueError):
    """Corrupt or incompatible snapshot file."""


def write_snapshot(path, t: float, fields: list[SpectralField]) -> None:
    if not fields:
        raise ValueError("nothing to write")
    grid = fields[0].grid
    ncomp = 3 * len(fields)
    crc = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, grid.dim, grid.n, ncomp, float(t)))
        for f in fields:  # streamed: no joined copy of the payload
            data = memoryview(np.ascontiguousarray(f.c, dtype=np.complex128)).cast("B")
            crc = zlib.crc32(data, crc)
            fh.write(data)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _load(path) -> tuple[dict, bytes]:
    """The header summary (with size and CRC validity) and the payload;
    raises SnapshotFormatError only on an unreadable header."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, dim, n, ncomp, t = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    if dim not in (2, 3) or n < 8 or n % 2 or ncomp % 3:
        raise SnapshotFormatError(f"{path}: implausible header (dim={dim}, n={n}, ncomp={ncomp})")
    nbytes = ncomp * n ** (dim - 1) * (n // 2 + 1) * 16  # complex128 half-spectrum
    payload = raw[_HEADER.size:_HEADER.size + nbytes]
    size_ok = len(raw) == _HEADER.size + nbytes + 4
    crc_ok = False
    if size_ok:
        (stored,) = struct.unpack_from("<I", raw, _HEADER.size + nbytes)
        crc_ok = zlib.crc32(payload) & 0xFFFFFFFF == stored
    info = {"version": version, "dimension": dim, "n": n, "components": ncomp, "time": t,
            "payload_bytes": nbytes, "size_ok": size_ok, "crc_ok": crc_ok}
    return info, payload


def read_snapshot(path, grid: GridSpec | None = None) -> tuple[float, list[SpectralField]]:
    """Read a snapshot; if `grid` is given, its dimension and resolution
    must match (cross-resolution reads are rejected)."""
    info, payload = _load(path)
    dim, n, ncomp = info["dimension"], info["n"], info["components"]
    if grid is not None and (grid.dim != dim or grid.n != n):
        raise SnapshotFormatError(
            f"{path}: snapshot is dim={dim} n={n}, expected dim={grid.dim} n={grid.n}"
        )
    if not info["size_ok"]:
        raise SnapshotFormatError(f"{path}: wrong payload size")
    if not info["crc_ok"]:
        raise SnapshotFormatError(f"{path}: CRC mismatch (corrupt payload)")
    g = grid if grid is not None else GridSpec.create(dim, n)
    flat = np.frombuffer(payload, dtype=np.complex128).reshape(ncomp // 3, 3, *g.spectral_shape)
    fields = [SpectralField(g, flat[i].copy()) for i in range(ncomp // 3)]
    return info["time"], fields


def inspect_snapshot(path) -> dict:
    """Header summary plus size and CRC validity (for the `inspect` CLI
    command)."""
    return _load(path)[0]
