"""Bit-exact serialization: GVC1 cube files, track CSVs and report CSVs.

The cube format is purpose-built so round-trips are bit-identical without
pulling in GRIB/NetCDF stacks.  Layout (all multi-byte fields little-endian):

    magic        4 bytes  b"GVC1"
    version      u16      currently 1
    orientation  u8       1 = latitudes stored north-to-south, 0 = south-to-north
    n_lat        u32
    n_lon        u32
    n_chan       u32
    lat_start    f64      degrees
    lat_step     f64      degrees (negative when north-to-south)
    lon_start    f64      degrees
    lon_step     f64      degrees
    valid_time   i64      UNIX seconds, UTC
    n_entries    u32      catalog length
    entries      n_entries x (u16 byte length + UTF-8 "name,level,role")
    payload      n_chan * n_lat * n_lon float32 values, C order (channel, lat, lon)

Text outputs are UTF-8 with "\\n" line endings.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import struct
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    TruncatedPayload,
    UnsupportedVersion,
)
from .grid import (
    FINITE_SCAN_VALUES,
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    all_finite,
)
from .tc import TcPoint, TcTrack

MAGIC = b"GVC1"
VERSION = 1

_FIXED_HEADER = struct.Struct("<4sHBIIIddddqI")


def _format_level(level: int | None) -> str:
    return "surface" if level is None else str(level)


def _parse_level(text: str) -> int | None:
    return None if text == "surface" else int(text)


def _encode_catalog(catalog: VariableCatalog) -> bytes:
    parts = []
    for var in catalog:
        entry = f"{var.name},{_format_level(var.level)},{var.role}".encode("utf-8")
        parts.append(struct.pack("<H", len(entry)) + entry)
    return b"".join(parts)


@contextmanager
def _replacing(path, mode: str, **open_args):
    """A file opened on a temporary name in ``path``'s directory that replaces ``path``.

    ``path`` is replaced only when the block exits without an exception; a
    failure leaves an existing file unchanged and no temporary file behind.
    """
    path = Path(path)
    if not path.name:  # "", "." or "/"
        raise IsADirectoryError(f"{str(path)!r} is a directory")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cube(cube: FieldCube, path) -> None:
    """Write a cube atomically; read_cube(write_cube(c)) is bit-identical to c."""
    spec = cube.spec
    ts = cube.valid_time.astimezone(timezone.utc)
    if ts.microsecond != 0:
        raise ValueError("cube valid_time must be whole seconds for serialization")
    header = _FIXED_HEADER.pack(
        MAGIC,
        VERSION,
        1 if spec.north_to_south else 0,
        spec.n_lat,
        spec.n_lon,
        cube.n_channels,
        spec.lat_start,
        spec.lat_step,
        spec.lon_start,
        spec.lon_step,
        int(ts.timestamp()),
        len(cube.catalog),
    )
    with _replacing(path, "wb") as f:
        f.write(header)
        f.write(_encode_catalog(cube.catalog))
        f.write(np.ascontiguousarray(cube.values, dtype="<f4").data)


def _read_header(f, path) -> tuple[GridSpec, VariableCatalog, datetime]:
    """Spec, catalog and valid time from ``f``'s header, leaving ``f`` at the payload.

    Any fault, including a payload length that disagrees with the file size,
    raises a CubeFormatError.
    """
    fixed = f.read(_FIXED_HEADER.size)
    if fixed[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {fixed[:4]!r}")
    if len(fixed) < _FIXED_HEADER.size:
        raise TruncatedPayload(f"{path}: truncated header")
    (_, version, orientation, n_lat, n_lon, n_chan,
     lat_start, lat_step, lon_start, lon_step,
     epoch_s, n_entries) = _FIXED_HEADER.unpack(fixed)
    if version != VERSION:
        raise UnsupportedVersion(f"{path}: version {version}")

    entries = []
    for _ in range(n_entries):
        prefix = f.read(2)
        if len(prefix) < 2:
            raise TruncatedPayload(f"{path}: truncated catalog")
        (length,) = struct.unpack("<H", prefix)
        entry = f.read(length)
        if len(entry) < length:
            raise TruncatedPayload(f"{path}: truncated catalog entry")
        try:
            name, level, role = entry.decode("utf-8").split(",")
            entries.append(VariableId(name, _parse_level(level), role))
        except ValueError as e:  # includes UnicodeDecodeError
            raise CorruptHeader(f"{path}: bad catalog entry: {e}") from None

    if orientation != (1 if lat_step < 0 else 0):
        raise CorruptHeader(f"{path}: orientation flag disagrees with lat_step sign")
    if n_chan != n_entries:
        raise CorruptHeader(f"{path}: n_chan {n_chan} != catalog length {n_entries}")
    try:
        spec = GridSpec(n_lat, n_lon, lat_start, lat_step, lon_start, lon_step)
        catalog = VariableCatalog(entries)
    except ValueError as e:
        raise CorruptHeader(f"{path}: {e}") from None
    try:
        valid_time = datetime.fromtimestamp(epoch_s, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as e:
        raise CorruptHeader(f"{path}: valid time {epoch_s}: {e}") from None

    payload = os.fstat(f.fileno()).st_size - f.tell()
    expected = 4 * n_chan * n_lat * n_lon
    if payload != expected:
        raise TruncatedPayload(f"{path}: payload is {payload} bytes, header implies {expected}")
    return spec, catalog, valid_time


def read_header(path) -> tuple[GridSpec, VariableCatalog, datetime]:
    """Grid spec, catalog and valid time of a cube file, without reading its payload.

    The header is validated exactly as ``read_cube`` validates it."""
    with open(path, "rb") as f:
        return _read_header(f, path)


def _fill(f, path, out: np.ndarray) -> None:
    if f.readinto(out) != out.nbytes:
        raise TruncatedPayload(f"{path}: file shrank while its payload was read")


def read_cube(path, variables=None) -> FieldCube:
    """Read a GVC1 cube file, validating header consistency and finiteness.

    With ``variables``, the cube keeps only the channels of the file's
    catalog named there (as tokens, (name, level) pairs or VariableIds), in
    file order; a variable the file lacks is not kept, so ``select_channel``
    raises UnknownVariable for it as after a full read.  Every other channel
    still streams through one reused buffer of at most FINITE_SCAN_VALUES
    values and is checked for NaN/Inf: a file is accepted or rejected
    exactly as by a full read.
    """
    with open(path, "rb") as f:
        spec, catalog, valid_time = _read_header(f, path)
        n_chan = len(catalog)
        keep = set(range(n_chan))
        if variables is not None:
            keep = {catalog.index_of(v) for v in variables if v in catalog}
            catalog = VariableCatalog([catalog.entries[i] for i in sorted(keep)])
        plane = spec.n_lat * spec.n_lon
        values = np.empty((len(keep), spec.n_lat, spec.n_lon), dtype="<f4")
        kept = values.reshape(-1)
        scan = np.empty(min(FINITE_SCAN_VALUES, plane * (n_chan - len(keep))), dtype="<f4")
        pos, finite = 0, True
        # One readinto per run of adjacent kept channels: a full read is one call.
        for is_kept, run in itertools.groupby(range(n_chan), keep.__contains__):
            count = plane * len(list(run))
            if is_kept:
                _fill(f, path, kept[pos:pos + count])
                pos += count
                continue
            for start in range(0, count, scan.size):
                block = scan[:min(scan.size, count - start)]
                _fill(f, path, block)
                finite = finite and all_finite(block)
        if not finite:
            raise NonFiniteValue(f"{path}: cube values must be finite")
    try:
        return FieldCube(spec, catalog, valid_time, values)
    except ValueError as e:  # the finiteness scan of the kept channels is FieldCube's
        raise NonFiniteValue(f"{path}: {e}") from None


# --- track CSV ---------------------------------------------------------------

TRACK_COLUMNS = ["storm_id", "name", "time", "lat", "lon", "ws_max", "msl_min"]


def parse_time(text: str) -> datetime:
    t = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def format_time(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def read_tracks(path) -> list[TcTrack]:
    """Read a track CSV into one TcTrack per storm, points sorted by time.

    Rows are read by ``read_csv_rows``; a row whose values do not parse
    raises ParseError with its row number, and duplicate or unevenly spaced
    times within a storm raise NonMonotonicTime.
    """
    groups: dict[str, list[TcPoint]] = {}
    names: dict[str, str] = {}
    for row_no, row in read_csv_rows(path, TRACK_COLUMNS):
        storm_id, name, time_s, lat_s, lon_s, ws_s, msl_s = row
        try:
            point = TcPoint(
                time=parse_time(time_s),
                lat=float(lat_s),
                lon=float(lon_s),
                ws_max=float(ws_s),
                msl_min=float(msl_s) if msl_s.strip() else None,
            )
        except (ValueError, OverflowError) as e:
            raise ParseError(row_no, str(e)) from None
        groups.setdefault(storm_id, []).append(point)
        names.setdefault(storm_id, name)

    tracks = []
    for storm_id, points in groups.items():
        points.sort(key=lambda p: p.time)
        try:
            tracks.append(TcTrack(storm_id=storm_id, name=names[storm_id], points=tuple(points)))
        except ValueError as e:
            raise NonMonotonicTime(storm_id, str(e)) from None
    return tracks


def write_csv(path, params: Mapping | None, header: Sequence[str], rows: Iterable) -> None:
    """Write a CSV atomically: a "# params:" line when params are given, the header, the rows.

    Each row is a sequence of fields written by ``csv.writer`` after ``str()``,
    so a field holding a comma or a quote is quoted as ``read_csv_rows`` parses
    it, and callers format numbers themselves.  A failure leaves an existing
    file unchanged and no partial or temporary file behind.
    """
    with _replacing(path, "w", encoding="utf-8", newline="") as f:
        if params:
            f.write(f"# params: {' '.join(f'{k}={v}' for k, v in params.items())}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_tracks(tracks: Sequence[TcTrack], path, params: Mapping | None = None) -> None:
    write_csv(path, params, TRACK_COLUMNS, (
        (track.storm_id, track.name, format_time(p.time), f"{p.lat:.4f}", f"{p.lon:.4f}",
         format(p.ws_max, ".6g"), "" if p.msl_min is None else format(p.msl_min, ".6g"))
        for track in tracks
        for p in track.points
    ))


# --- report CSV --------------------------------------------------------------

REPORT_COLUMNS = ["variable", "level", "lead_hours", "metric", "value"]


def _level_sort_key(level: int | None) -> int:
    return -1 if level is None else level


def write_report(records: Iterable, path, params: Mapping | None = None) -> None:
    """Write metric records as CSV, deterministically ordered.

    Rows are sorted by (variable, level, lead, metric) with value as a final
    tiebreak, so any permutation of the input yields byte-identical files.
    Values are printed with 6 significant digits.
    """
    rows = sorted(
        records,
        key=lambda r: (
            r.variable.name,
            _level_sort_key(r.variable.level),
            r.lead_hours,
            r.metric,
            r.value,
            r.n_samples,
        ),
    )
    write_csv(path, params, REPORT_COLUMNS, (
        (r.variable.name, _format_level(r.variable.level), r.lead_hours, r.metric,
         format(r.value, ".6g"))
        for r in rows
    ))


MATRIX_COLUMNS = ["month", "h00", "h06", "h12", "h18"]


def write_month_hour_matrix(matrix, path, params: Mapping | None = None) -> None:
    """Write a 12 x 4 month-by-hour matrix as CSV; NaN cells become "NA"."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.shape != (12, 4):
        raise ValueError(f"matrix shape {arr.shape} != (12, 4)")
    write_csv(path, params, MATRIX_COLUMNS, (
        [month + 1] + ["NA" if np.isnan(v) else format(v, ".6g") for v in arr[month]]
        for month in range(12)
    ))


def read_csv_rows(path, columns: list[str]) -> list[tuple[int, list[str]]]:
    """The data rows of a CSV table with header ``columns``, as (row number, fields).

    Rows are numbered from 1 as they appear in the file; blank rows and rows
    whose first field starts with '#' are skipped.  A header other than
    ``columns``, a row without one field per column, or text that is not
    UTF-8 CSV raises ParseError with the row's number.
    """
    data = Path(path).read_bytes()
    rows = []
    row_no = 0
    try:
        lines = io.StringIO(data.decode("utf-8"), newline="")
        for row_no, row in enumerate(csv.reader(lines), start=1):
            if row and not row[0].startswith("#"):
                rows.append((row_no, row))
    except UnicodeDecodeError as e:
        raise ParseError(data[:e.start].count(b"\n") + 1, str(e)) from None
    except csv.Error as e:
        raise ParseError(row_no + 1, str(e)) from None
    if not rows or rows[0][1] != columns:
        raise ParseError(rows[0][0] if rows else row_no + 1,
                         f"expected header {','.join(columns)}")
    for row_no, row in rows[1:]:
        if len(row) != len(columns):
            raise ParseError(row_no, f"expected {len(columns)} fields, got {len(row)}")
    return rows[1:]


def cube_paths(directory) -> list[Path]:
    """All .gvc files in a directory, sorted by name."""
    return sorted(Path(directory).glob("*.gvc"))
