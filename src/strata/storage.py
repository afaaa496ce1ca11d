"""Binary checkpoints, CSV emission, and run manifests.

Checkpoint layout (all little-endian, independent of host byte order):

    magic   4 bytes   b"STCV"
    version u32       1
    dims    3 x u32   nx, ny, nz
    ly      f64
    t       f64
    data    nx*ny*nz complex128, C (row-major) order

``save_checkpoint`` writes the header and then the state's field straight
from its buffer, so it holds one lattice-sized array: for a packed run
state, the field that reading ``SimState.field`` unpacks.

CSV files start with a ``# manifest=<name>`` comment tying them to the run
manifest that was written (atomically) before any results.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .lattice import Lattice, SpectralField
from .simulate import SimState

__all__ = [
    "CheckpointError",
    "checkpoint_bytes",
    "state_from_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "write_csv",
    "read_csv_columns",
    "RunManifest",
]

_MAGIC = b"STCV"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIdd")


class CheckpointError(ValueError):
    """Malformed, truncated, or incompatible checkpoint data."""


def _checkpoint_parts(state: SimState) -> tuple[bytes, np.ndarray]:
    # the header and the field as one contiguous little-endian array; a field
    # already in that layout is used as it is
    fld = state.field
    lat = fld.lattice
    head = _HEADER.pack(_MAGIC, _VERSION, lat.nx, lat.ny, lat.nz, lat.ly, state.t)
    return head, np.ascontiguousarray(fld.coeffs, dtype="<c16")


def checkpoint_bytes(state: SimState) -> bytes:
    head, body = _checkpoint_parts(state)
    return head + body.tobytes()


def state_from_checkpoint(data: bytes) -> SimState:
    if len(data) < _HEADER.size:
        raise CheckpointError(f"checkpoint truncated: {len(data)} bytes < header size")
    magic, version, nx, ny, nz, ly, t = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    expected = _HEADER.size + nx * ny * nz * 16
    if len(data) != expected:
        raise CheckpointError(f"checkpoint size {len(data)} != expected {expected}")
    if not math.isfinite(t):
        raise CheckpointError(f"non-finite time {t} in checkpoint")
    try:
        lat = Lattice(nx, ny, nz, ly)
    except ValueError as exc:
        raise CheckpointError(f"invalid lattice in checkpoint: {exc}") from exc
    coeffs = np.frombuffer(data, dtype="<c16", offset=_HEADER.size)
    coeffs = coeffs.reshape(nx, ny, nz).astype(np.complex128)
    return SimState(t, SpectralField(lat, coeffs))


def save_checkpoint(path, state: SimState) -> None:
    """Write ``checkpoint_bytes(state)`` atomically, the field streamed from its own buffer."""
    _atomic_write_bytes(path, *_checkpoint_parts(state))


def load_checkpoint(path) -> SimState:
    with open(path, "rb") as fh:
        return state_from_checkpoint(fh.read())


def _atomic_write_bytes(path, *chunks) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path, header: list[str], rows, manifest_name: str | None = None) -> None:
    """Atomically write a CSV; floats are rendered with repr-level precision."""
    buf = io.StringIO()
    if manifest_name:
        buf.write(f"# manifest={manifest_name}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_render(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


def _render(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def read_csv_columns(path) -> dict[str, list[str]]:
    """Read a CSV written by :func:`write_csv`, skipping comment lines.

    A file with no header row, or a non-empty row whose field count is not
    the header's, is a ``ValueError``.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path} has no header row") from None
    cols: dict[str, list[str]] = {name: [] for name in header}
    for n, row in enumerate(reader, 1):
        if row and len(row) != len(header):
            raise ValueError(f"{path}: data row {n} has {len(row)} fields, "
                             f"the header {len(header)}")
        for name, val in zip(header, row):
            cols[name].append(val)
    return cols


@dataclass
class RunManifest:
    """Reproducibility record written before any result file."""

    command: str
    seed: int
    version: str
    config_text: str
    outputs: list[str] = field(default_factory=list)
    started: str = ""
    finished: str = ""
    extra: dict = field(default_factory=dict)

    def write(self, path) -> None:
        buf = io.StringIO()
        buf.write("[run]\n")
        buf.write(f"command = {self.command}\n")
        buf.write(f"seed = {self.seed}\n")
        buf.write(f"code_version = {self.version}\n")
        buf.write(f"started = {self.started}\n")
        buf.write(f"finished = {self.finished}\n")
        buf.write(f"outputs = {', '.join(self.outputs)}\n")
        for key, val in self.extra.items():
            buf.write(f"{key} = {val}\n")
        buf.write("\n[config]\n")
        for line in self.config_text.strip().splitlines():
            if line.startswith("["):
                buf.write(f"# {line}\n")
            elif line.strip():
                buf.write(f"{line}\n")
        buf.write("\n")
        _atomic_write_text(path, buf.getvalue())
