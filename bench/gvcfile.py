"""GVC1 cube files, written and read without importing geoverify.

The layout is the one documented in the project README: a little-endian
fixed header, length-prefixed ``name,level,role`` catalog entries, then
``n_chan * n_lat * n_lon`` float32 values in (channel, lat, lon) C order.
The benchmark keeps its own copy so that the program under test only ever
sees files, and so that the oracles never share code with it.
"""

from __future__ import annotations

import struct
from datetime import datetime, timezone

import numpy as np

_HEADER = struct.Struct("<4sHBIIIddddqI")


def _entry(name: str, level, role: str = "input-output") -> bytes:
    text = f"{name},{'surface' if level is None else level},{role}".encode("utf-8")
    return struct.pack("<H", len(text)) + text


def write_cube(path, grid, channels, valid_time: datetime, fields) -> int:
    """Write one cube; ``fields`` yields one (n_lat, n_lon) float32 array per channel.

    ``grid`` is (n_lat, n_lon, lat_start, lat_step, lon_start, lon_step) and
    ``channels`` a list of (name, level) pairs.  Returns the bytes written.
    """
    n_lat, n_lon, lat_start, lat_step, lon_start, lon_step = grid
    epoch = int(valid_time.astimezone(timezone.utc).timestamp())
    header = _HEADER.pack(
        b"GVC1", 1, 1 if lat_step < 0 else 0, n_lat, n_lon, len(channels),
        lat_start, lat_step, lon_start, lon_step, epoch, len(channels),
    )
    written = 0
    with open(path, "wb") as f:
        written += f.write(header + b"".join(_entry(n, lv) for n, lv in channels))
        count = 0
        for field in fields:
            arr = np.ascontiguousarray(field, dtype="<f4")
            if arr.shape != (n_lat, n_lon):
                raise ValueError(f"field shape {arr.shape} != {(n_lat, n_lon)}")
            written += f.write(memoryview(arr).cast("B"))
            count += 1
    if count != len(channels):
        raise ValueError(f"{count} fields for {len(channels)} channels")
    return written


def read_cube(path):
    """(catalog tokens, valid_time, values) of a cube; values are (C, H, W) float32."""
    with open(path, "rb") as f:
        raw = f.read()
    fields = _HEADER.unpack_from(raw, 0)
    if fields[0] != b"GVC1":
        raise ValueError(f"{path}: not a GVC1 file")
    n_lat, n_lon, n_chan, epoch, n_entries = fields[3], fields[4], fields[5], fields[10], fields[11]
    offset = _HEADER.size
    names = []
    for _ in range(n_entries):
        (length,) = struct.unpack_from("<H", raw, offset)
        names.append(raw[offset + 2:offset + 2 + length].decode("utf-8"))
        offset += 2 + length
    values = np.frombuffer(raw, dtype="<f4", offset=offset).reshape(n_chan, n_lat, n_lon)
    return names, datetime.fromtimestamp(epoch, tz=timezone.utc), values
