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
import mmap
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    GeoverifyError,
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


def output_path(path) -> Path:
    """``path`` as a Path; IsADirectoryError when it has no name or is a directory,
    NotADirectoryError when its nearest existing ancestor is not a directory.

    ``stage`` applies it to each file it stages; a run applies it to every
    target it can name before it reads any input, to fail before any work.
    """
    path = Path(path)
    if not path.name or path.is_dir():  # "", "." and "/" have no name
        raise IsADirectoryError(f"{str(path)!r} is a directory")
    ancestor = next((p for p in path.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise NotADirectoryError(f"{str(ancestor)!r} is not a directory")
    return path


@contextmanager
def staged_outputs():
    """Yields ``stage(path)``, which returns the temporary name to write ``path``'s new file under.

    When the block ends without an exception, each staged file replaces its
    target, in the order staged.  The renames are not one atomic step, so a
    run stages the file that marks it complete (its report, a manifest) last:
    a crash between two renames leaves no new report.  A failure removes
    every staged file and every directory that ``stage`` made, innermost
    first, and leaves every target as it was.

    ``stage`` raises ``output_path``'s IsADirectoryError before anything is
    written.  It makes ``path``'s missing parent directories.  The temporary
    name, ``.{name}.{pid}.tmp``, lies beside the target, so no rename crosses
    file systems.
    """
    staged: dict[Path, Path] = {}  # target: temporary name, in the order staged
    made: list[Path] = []          # directories ``stage`` made, outermost first

    def stage(path) -> Path:
        path = output_path(path)
        missing = itertools.takewhile(lambda p: not p.exists(), path.parents)
        made.extend(reversed(list(missing)))
        path.parent.mkdir(parents=True, exist_ok=True)
        staged[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        return staged[path]

    try:
        yield stage
        for path, tmp in staged.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # one mkdir failed to make, or one a replaced target is in
                directory.rmdir()
        raise


@contextmanager
def cube_writer(spec: GridSpec, catalog: VariableCatalog, valid_time: datetime, path):
    """Writes a cube's header, then yields ``write(values)``, which appends channels in order.

    The file replaces ``path`` when the block ends, and only when every
    channel was written (ValueError otherwise); it is the one-file case of
    ``staged_outputs``, so a failure leaves an existing file unchanged and no
    temporary file behind.
    """
    ts = valid_time.astimezone(timezone.utc)
    if ts.microsecond != 0:
        raise ValueError("cube valid_time must be whole seconds for serialization")
    header = _FIXED_HEADER.pack(
        MAGIC,
        VERSION,
        1 if spec.north_to_south else 0,
        spec.n_lat,
        spec.n_lon,
        len(catalog),
        spec.lat_start,
        spec.lat_step,
        spec.lon_start,
        spec.lon_step,
        int(ts.timestamp()),
        len(catalog),
    )
    with staged_outputs() as stage, open(stage(path), "wb") as f:
        f.write(header)
        f.write(_encode_catalog(catalog))
        start = f.tell()
        yield lambda values: f.write(np.ascontiguousarray(values, dtype="<f4").data)
        expected = 4 * len(catalog) * spec.n_lat * spec.n_lon
        if f.tell() - start != expected:
            raise ValueError(f"{path}: wrote {f.tell() - start} payload bytes of {expected}")


def write_cube(cube: FieldCube, path) -> None:
    """Write a cube atomically; reading it back gives a cube bit-identical to ``cube``."""
    with cube_writer(cube.spec, cube.catalog, cube.valid_time, path) as write:
        write(cube.values)


#: Specs and catalogs of the headers read so far, by their raw bytes, so a header
#: seen before is not parsed again.  Raw bytes, never values, are the keys:
#: 0.0 == -0.0, but the sign of a zero reaches the track CSV.  Only valid specs
#: and catalogs are kept, one per distinct grid or catalog; both are immutable,
#: so one serves every file, and threads that race to add a key add equal ones.
_SPECS: dict[bytes, GridSpec] = {}
_CATALOGS: dict[bytes, VariableCatalog] = {}


@dataclass(frozen=True)
class CubeHeader:
    """A cube file's checked header: what ``read_header`` returns and ``read_cube`` reads from."""

    path: str | os.PathLike
    spec: GridSpec
    catalog: VariableCatalog
    valid_time: datetime
    offset: int  # of the payload, in bytes from the start of the file


def read_header(path) -> CubeHeader:
    """The header of a cube file, checked in full, without reading its payload.

    Any fault, including a payload length that disagrees with the file size,
    raises a CubeFormatError.  Every file is checked in full, also one whose
    grid or catalog bytes were seen before.
    """
    with open(path, "rb") as f:
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

        raw = []  # each entry's length prefix and bytes
        for _ in range(n_entries):
            prefix = f.read(2)
            if len(prefix) < 2:
                raise TruncatedPayload(f"{path}: truncated catalog")
            (length,) = struct.unpack("<H", prefix)
            entry = f.read(length)
            if len(entry) < length:
                raise TruncatedPayload(f"{path}: truncated catalog entry")
            raw += (prefix, entry)
        offset = f.tell()
        payload = os.fstat(f.fileno()).st_size - offset
    catalog_key = b"".join(raw)
    catalog = _CATALOGS.get(catalog_key)
    if catalog is None:
        entries = []
        for entry in raw[1::2]:
            try:
                name, level, role = entry.decode("utf-8").split(",")
                entries.append(VariableId(name, _parse_level(level), role))
            except ValueError as e:  # includes UnicodeDecodeError
                raise CorruptHeader(f"{path}: bad catalog entry: {e}") from None

    if orientation != (1 if lat_step < 0 else 0):
        raise CorruptHeader(f"{path}: orientation flag disagrees with lat_step sign")
    if n_chan != n_entries:
        raise CorruptHeader(f"{path}: n_chan {n_chan} != catalog length {n_entries}")
    spec_key = fixed[7:15] + fixed[19:51]  # n_lat, n_lon and the four floats
    spec = _SPECS.get(spec_key)
    try:
        if spec is None:
            spec = _SPECS[spec_key] = GridSpec(n_lat, n_lon, lat_start, lat_step,
                                               lon_start, lon_step)
        if catalog is None:
            catalog = _CATALOGS[catalog_key] = VariableCatalog(entries)
    except ValueError as e:
        raise CorruptHeader(f"{path}: {e}") from None
    try:
        valid_time = datetime.fromtimestamp(epoch_s, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as e:
        raise CorruptHeader(f"{path}: valid time {epoch_s}: {e}") from None

    expected = 4 * n_chan * n_lat * n_lon
    if payload != expected:
        raise TruncatedPayload(f"{path}: payload is {payload} bytes, header implies {expected}")
    return CubeHeader(path, spec, catalog, valid_time, offset)


def headers_by_time(paths) -> dict[datetime, CubeHeader]:
    """{valid time: read_header(path)} for each path; two cubes at one time are a data error."""
    headers = {}
    for path in paths:
        header = read_header(path)
        if header.valid_time in headers:
            raise GeoverifyError(f"two cubes have valid time {format_time(header.valid_time)}: "
                                 f"{headers[header.valid_time].path} and {path}")
        headers[header.valid_time] = header
    return headers


#: Most bytes of one channel range, as stored: four channels at 0.25 degrees.
#: ``verify`` scores and ``climatology`` sums each cube range by range, so their
#: peak memory grows with it: verify-global (2 threads, 2-vCPU VM, each range
#: viewed through a mapping) peaked at 82, 130 and 210-225 MiB at 8, 16 and 32
#: MiB, for the same CPU (median 0.92, 0.91 and 0.89 s user+sys of 4 runs each)
#: and the same 15.8k minor faults.
RANGE_BYTES = 16 << 20


def _fill(f, path, out: np.ndarray) -> None:
    if f.readinto(out) != out.nbytes:
        raise TruncatedPayload(f"{path}: file shrank while its payload was read")


def _map(f, path, n: int) -> np.ndarray:
    """A read-only view of ``f``'s next ``n`` float32 values, leaving ``f`` after them.

    Only their pages are mapped, from the allocation granule that holds the
    first.  The view holds the mapping, which is unmapped when the last array
    that views it dies.
    """
    offset = f.tell()
    start = offset - offset % mmap.ALLOCATIONGRANULARITY
    try:
        pages = mmap.mmap(f.fileno(), offset + 4 * n - start, access=mmap.ACCESS_READ,
                          offset=start)
    except ValueError:  # the file is now shorter than its header says
        raise TruncatedPayload(f"{path}: file shrank before its payload was mapped") from None
    f.seek(4 * n, os.SEEK_CUR)
    return np.frombuffer(pages, "<f4", n, offset - start)


def read_cube(header: CubeHeader, variables=None, channels: range | None = None, *,
              _scan_kept: bool = True) -> FieldCube:
    """The cube of the file whose header ``read_header`` returned, its values checked for NaN/Inf.

    The header is not read again: the payload is read from ``header.offset``.
    With ``variables``, the cube keeps only the channels of the file's
    catalog named there (as tokens, (name, level) pairs or VariableIds), in
    file order; a variable the file lacks is not kept, so ``select_channel``
    raises UnknownVariable for it as after a full read.  The kept channels
    are read into one new array.  Every other channel still streams through
    one scan block of at most FINITE_SCAN_VALUES values, freed before the
    read returns, and is checked for NaN/Inf: a file is accepted or rejected
    exactly as by a full read.

    With ``channels``, a step-1 range of file channel indices, only that run
    of the payload is read: the cube keeps its channels that ``variables``
    names (all of them without ``variables``) and the rest of the run is
    checked for NaN/Inf.  A range beyond the file's channels raises
    CorruptHeader.

    ``_scan_kept=False`` is private to ``verify``, whose metric kernels check
    every kept value: the kept channels are then not scanned for NaN/Inf.
    When they are one run of adjacent channels, they are not copied either:
    the cube's values view a read-only mapping of their pages.  A file that
    shrank since its header was read raises TruncatedPayload; one truncated
    while the cube lives raises SIGBUS on access.  Unkept channels are always
    read through the scan block, so they do not stay resident.
    """
    path, spec, catalog = header.path, header.spec, header.catalog
    with open(path, "rb") as f:
        span = range(len(catalog)) if channels is None else channels
        if span.step != 1:
            raise ValueError(f"channels must be a step-1 range, got {channels}")
        if not 0 <= span.start <= span.stop <= len(catalog):
            raise CorruptHeader(f"{path}: channels {span.start}..{span.stop - 1} "
                                f"outside its {len(catalog)} channels")
        keep = set(span)
        if variables is not None:
            keep &= {catalog.index_of(v) for v in variables if v in catalog}
        if len(keep) < len(catalog):
            catalog = VariableCatalog([catalog.entries[i] for i in sorted(keep)])
        plane = spec.n_lat * spec.n_lon
        f.seek(header.offset + 4 * plane * span.start)
        n_kept = plane * len(keep)
        n_scan = min(FINITE_SCAN_VALUES, plane * (len(span) - len(keep)))
        mapped = not _scan_kept and bool(keep) and max(keep) - min(keep) + 1 == len(keep)
        kept = None if mapped else np.empty(n_kept, dtype="<f4")
        scan = np.empty(n_scan, dtype="<f4")
        pos, finite = 0, True
        # One readinto per run of adjacent kept channels: a full read is one call.
        for is_kept, run in itertools.groupby(span, keep.__contains__):
            count = plane * len(list(run))
            if is_kept and mapped:
                kept = _map(f, path, count)
                continue
            if is_kept:
                _fill(f, path, kept[pos:pos + count])
                pos += count
                continue
            for start in range(0, count, scan.size):
                n = min(scan.size, count - start)
                _fill(f, path, scan[:n])
                finite = finite and all_finite(scan[:n])
        if not finite:
            raise NonFiniteValue(f"{path}: cube values must be finite")
    del scan  # before FieldCube's own finiteness scan allocates
    values = kept.reshape(len(keep), spec.n_lat, spec.n_lon)
    try:
        return FieldCube(spec, catalog, header.valid_time, values, _scan=_scan_kept)
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
    it, and callers format numbers themselves.  A row whose first field starts
    with '#' has every field quoted, so the reader does not take it for a
    comment.  The file is the one-file case of ``staged_outputs``: a failure
    leaves an existing file unchanged and no partial or temporary file behind.
    """
    with staged_outputs() as stage, open(stage(path), "w", encoding="utf-8", newline="") as f:
        if params:
            f.write(f"# params: {' '.join(f'{k}={v}' for k, v in params.items())}\n")
        writer = csv.writer(f, lineterminator="\n")
        quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for is_quoted, run in itertools.groupby(rows, lambda row: str(row[0]).startswith("#")):
            (quoted if is_quoted else writer).writerows(run)


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

    Rows are numbered from 1 as they appear in the file.  A line that starts
    a row with '#' is a comment and never reaches the CSV parser, so a quote
    in it cannot join the lines after it; a quoted first field such as "#7"
    is data.  Blank rows are skipped too.  A header other than ``columns``,
    a row without one field per column, or text that is not UTF-8 CSV
    raises ParseError with the row's number.
    """
    data = Path(path).read_bytes()
    rows = []
    row_no = 0          # rows seen: records and comment lines
    row_starts = True   # whether the parser's next line starts a row

    def uncommented(lines):
        nonlocal row_no, row_starts
        for line in lines:
            if row_starts and line.startswith("#"):
                row_no += 1
                continue
            row_starts = False
            yield line

    try:
        text = data.decode("utf-8")
        lines = io.StringIO(text, newline="")
        # The parser pulls a line only when it needs one, so the flag is
        # current whenever ``uncommented`` looks at a line.  Text without a
        # '#' has no comment line to filter.
        for row in csv.reader(uncommented(lines) if "#" in text else lines):
            row_no += 1
            row_starts = True
            if row:
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
