"""Climatological mean fields keyed by (day-of-year, hour-of-day).

Anomalies for the ACC are departures from these means.  Keys use a
366-day calendar so Feb 29 owns day 60 and Mar 1 is day 61 in every year;
the leap-day key is therefore built only from leap-year samples and
non-leap lookups never touch it.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import cubeio
from .errors import EmptyInput, MissingKey, ParseError, SpecMismatch
from .grid import VariableCatalog
from .metrics import SYNOPTIC_HOURS, synoptic_utc

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ["doy", "hour", "n_samples", "filename"]


def climatology_key(valid_time: datetime) -> tuple[int, int]:
    """(day-of-year on the 366-day calendar, hour) for a valid time that passes ``synoptic_utc``."""
    t = synoptic_utc(valid_time)
    # Year 2000 is a leap year, so (month, day) -> 1..366 with Feb 29 = 60.
    doy = datetime(2000, t.month, t.day).timetuple().tm_yday
    return doy, t.hour


class Climatology:
    """A climatology on disk: the keys its manifest names and their cubes.

    Each key cube's header is read once, when the climatology loads; its
    payload is read from that header each time the key is looked up.
    """

    def __init__(self, catalog: VariableCatalog, headers: dict[tuple[int, int], cubeio.CubeHeader]):
        self.catalog = catalog
        self.headers = headers
        self.means: dict = {}  # always empty; the bench tracer still reads it

    def key_header(self, valid_time: datetime) -> cubeio.CubeHeader:
        """The key cube's header for a valid time; MissingKey if the manifest lacks the key."""
        key = climatology_key(valid_time)
        if key not in self.headers:
            raise MissingKey(f"no climatology for day {key[0]} hour {key[1]:02d}")
        return self.headers[key]

    def lookup_channel(self, valid_time: datetime, var) -> np.ndarray:
        """The stored H x W mean of ``var`` for the key of a valid time."""
        return cubeio.read_cube(self.key_header(valid_time)).values[self.catalog.index_of(var)]

    @classmethod
    def load(cls, manifest_path) -> "Climatology":
        """A climatology that reads its key cubes, as a manifest names them, on lookup.

        A row whose key ``climatology_key`` cannot return, that repeats an
        earlier row's key, or whose ``n_samples`` is below 1 raises ParseError
        naming the row; a manifest without rows raises EmptyInput.  Each key
        cube's header is read and validated, and must have the first one's
        grid and whole catalog (SpecMismatch otherwise); no payload is read
        until a key is looked up.
        """
        manifest_path = Path(manifest_path)
        headers: dict[tuple[int, int], cubeio.CubeHeader] = {}
        for row_no, (doy, hour, n_samples, filename) in cubeio.read_csv_rows(
                manifest_path, MANIFEST_COLUMNS):
            try:
                key, count = (int(doy), int(hour)), int(n_samples)
            except ValueError as e:
                raise ParseError(row_no, str(e)) from None
            if not 1 <= key[0] <= 366 or key[1] not in SYNOPTIC_HOURS:
                raise ParseError(row_no, f"doy {key[0]} hour {key[1]} is not a climatology key")
            if key in headers:
                raise ParseError(row_no, f"repeated key doy {key[0]} hour {key[1]}")
            if count < 1:
                raise ParseError(row_no, f"n_samples {count} is below 1")
            header = headers[key] = cubeio.read_header(manifest_path.parent / filename)
            first = next(iter(headers.values()))
            if (header.spec, header.catalog) != (first.spec, first.catalog):
                raise SpecMismatch(f"climatology file {filename} mismatches manifest")
        if not headers:
            raise EmptyInput(f"manifest {manifest_path} lists no keys")
        return cls(first.catalog, headers)


def build_climatology(paths, directory) -> Path:
    """Writes the key mean cubes of the cube files ``paths`` and their manifest in ``directory``.

    Returns the manifest's path.  Every header is read first, so these data
    errors come before any payload is read: no cubes, two cubes at one valid
    time, a valid time that is not synoptic, and a cube whose grid or catalog
    differs from the earliest cube's.  Each key cube is then written one
    channel range (at most cubeio.RANGE_BYTES) at a time: the range of every
    cube of the key is added to a float64 sum in valid-time order, and the sum
    divided by the count is appended as float32.  So memory holds one range's
    sum and one range read, reads go in (key, range, valid time) order, and
    any order of ``paths`` gives the same bytes.

    The key cubes and then the manifest are written through one
    ``cubeio.staged_outputs``: they replace their targets only after every key
    is built, the manifest last.  A failure leaves an existing ``directory``
    unchanged and nothing new behind, not even a parent directory it made.
    """
    headers = cubeio.headers_by_time(paths)
    if not headers:
        raise EmptyInput("no cubes to build a climatology from")
    times = sorted(headers)
    first = headers[times[0]]
    spec, catalog = first.spec, first.catalog
    keys: dict[tuple[int, int], list[cubeio.CubeHeader]] = {}
    for valid in times:
        header = headers[valid]
        if (header.spec, header.catalog) != (spec, catalog):
            raise SpecMismatch(f"{header.path}: grid or catalog differs from {first.path}")
        keys.setdefault(climatology_key(valid), []).append(header)
    step = max(1, cubeio.RANGE_BYTES // (4 * spec.n_lat * spec.n_lon))
    ranges = [range(c, min(c + step, len(catalog))) for c in range(0, len(catalog), step)]

    directory = Path(directory)
    rows = []
    with cubeio.staged_outputs() as stage:
        for (doy, hour), key_headers in sorted(keys.items()):
            name = f"clim_d{doy:03d}_h{hour:02d}.gvc"
            stamp = datetime(2000, 1, 1, hour, tzinfo=timezone.utc) + timedelta(days=doy - 1)
            with cubeio.cube_writer(spec, catalog, stamp, stage(directory / name)) as write:
                for channels in ranges:
                    total = np.zeros((len(channels), spec.n_lat, spec.n_lon))
                    for header in key_headers:
                        total += cubeio.read_cube(header, channels=channels).values
                    total /= len(key_headers)
                    write(total)
            rows.append((doy, hour, len(key_headers), name))
        cubeio.write_csv(stage(directory / MANIFEST_NAME), None, MANIFEST_COLUMNS, rows)
    return directory / MANIFEST_NAME
