"""Climatological mean fields keyed by (day-of-year, hour-of-day).

Anomalies for the ACC are departures from these means.  Keys use a
366-day calendar so Feb 29 owns day 60 and Mar 1 is day 61 in every year;
the leap-day key is therefore built only from leap-year samples and
non-leap lookups never touch it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import cubeio
from .errors import (EmptyInput, GeoverifyError, MissingKey, NonSynopticTime, ParseError,
                     SpecMismatch)
from .grid import FieldCube, GridSpec, VariableCatalog

#: Hours of day that carry climatology keys (6-hourly synoptic times).
KEY_HOURS = (0, 6, 12, 18)

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ["doy", "hour", "n_samples", "filename"]


def climatology_key(valid_time: datetime) -> tuple[int, int]:
    """(day-of-year on the 366-day calendar, hour) for a synoptic valid time."""
    t = valid_time.astimezone(timezone.utc) if valid_time.tzinfo else valid_time
    if t.hour not in KEY_HOURS or t.minute or t.second or t.microsecond:
        raise NonSynopticTime(f"{valid_time} is not a 6-hourly synoptic time")
    # Year 2000 is a leap year, so (month, day) -> 1..366 with Feb 29 = 60.
    doy = datetime(2000, t.month, t.day).timetuple().tm_yday
    return doy, t.hour


class Climatology:
    """Per-key mean fields over a training sample of cubes.

    A built climatology holds its means in memory.  One loaded from a
    manifest holds the path of each key's cube instead, with ``means``
    empty, and reads a key's cube each time the key is looked up.
    """

    def __init__(
        self,
        spec: GridSpec,
        catalog: VariableCatalog,
        means: dict[tuple[int, int], np.ndarray],
        counts: dict[tuple[int, int], int],
        paths: dict[tuple[int, int], Path] | None = None,
    ):
        self.spec = spec
        self.catalog = catalog
        self.means = means
        self.counts = counts
        self.paths = paths or {}

    def _key(self, valid_time: datetime) -> tuple[int, int]:
        key = climatology_key(valid_time)
        if key not in self.counts:
            raise MissingKey(f"no climatology for day {key[0]} hour {key[1]:02d}")
        return key

    def _mean(self, key: tuple[int, int]) -> np.ndarray:
        return cubeio.read_cube(self.paths[key]).values if self.paths else self.means[key]

    def lookup(self, valid_time: datetime) -> np.ndarray:
        """Stored C x H x W mean for the key of a valid time."""
        return self._mean(self._key(valid_time))

    def lookup_channel(self, valid_time: datetime, var) -> np.ndarray:
        return self.lookup(valid_time)[self.catalog.index_of(var)]

    def key_path(self, valid_time: datetime) -> Path:
        """The cube file of a loaded climatology's key for a valid time."""
        return self.paths[self._key(valid_time)]

    def save(self, directory) -> Path:
        """One cube file per key, then a manifest CSV naming them; returns its path.

        The manifest is written last and atomically: a failed save leaves none.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rows = []
        for (doy, hour) in sorted(self.counts):
            filename = f"clim_d{doy:03d}_h{hour:02d}.gvc"
            stamp = datetime(2000, 1, 1, hour, tzinfo=timezone.utc) + timedelta(days=doy - 1)
            cube = FieldCube(
                self.spec, self.catalog, stamp, self._mean((doy, hour)).astype(np.float32)
            )
            cubeio.write_cube(cube, directory / filename)
            rows.append((doy, hour, self.counts[(doy, hour)], filename))
        manifest = directory / MANIFEST_NAME
        cubeio.write_csv(manifest, None, MANIFEST_COLUMNS, rows)
        return manifest

    @classmethod
    def load(cls, manifest_path) -> "Climatology":
        """A climatology that reads its key cubes, as a manifest names them, on lookup.

        A row whose key ``climatology_key`` cannot return, or that repeats an
        earlier row's key, raises ParseError naming the row; a manifest
        without rows raises EmptyInput.  Each key cube's header is read and
        validated, and must have the first one's grid and whole catalog
        (SpecMismatch otherwise); no payload is read until a key is looked up.
        """
        manifest_path = Path(manifest_path)
        paths: dict[tuple[int, int], Path] = {}
        counts: dict[tuple[int, int], int] = {}
        spec = catalog = None
        for row_no, (doy, hour, n_samples, filename) in cubeio.read_csv_rows(
                manifest_path, MANIFEST_COLUMNS):
            try:
                key, count = (int(doy), int(hour)), int(n_samples)
            except ValueError as e:
                raise ParseError(row_no, str(e)) from None
            if not 1 <= key[0] <= 366 or key[1] not in KEY_HOURS:
                raise ParseError(row_no, f"doy {key[0]} hour {key[1]} is not a climatology key")
            if key in paths:
                raise ParseError(row_no, f"repeated key doy {key[0]} hour {key[1]}")
            paths[key] = manifest_path.parent / filename
            counts[key] = count
            file_spec, file_catalog, _ = cubeio.read_header(paths[key])
            if spec is None:
                spec, catalog = file_spec, file_catalog
            elif (file_spec, file_catalog) != (spec, catalog):
                raise SpecMismatch(f"climatology file {filename} mismatches manifest")
        if spec is None:
            raise EmptyInput(f"manifest {manifest_path} lists no keys")
        return cls(spec, catalog, {}, counts, paths)


def build_climatology(cubes: Sequence[FieldCube] | Iterator[FieldCube]) -> Climatology:
    """Arithmetic per-key mean over cubes sharing one grid spec and catalog.

    Accumulation is 64-bit and runs in valid_time order.  ``cubes`` is
    either a collection (a list or tuple, say), which is sorted first, so
    any permutation of it produces identical bits; or an iterator (a
    generator, say), which is summed as it yields, holding one cube at a
    time, and must yield in ascending valid time (ValueError otherwise).
    Two cubes with one valid time are a data error: the time would count
    twice in its mean.
    """
    if not isinstance(cubes, Iterator):
        cubes = sorted(cubes, key=lambda c: c.valid_time)
    spec = catalog = last = None
    sums: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    for cube in cubes:
        if spec is None:
            spec, catalog = cube.spec, cube.catalog
        elif cube.valid_time == last:
            raise GeoverifyError(f"two cubes have valid time {cubeio.format_time(last)}")
        elif cube.valid_time < last:
            raise ValueError(f"cube at {cube.valid_time} comes after one at {last}")
        if cube.spec != spec or cube.catalog != catalog:
            raise SpecMismatch(f"cube at {cube.valid_time} has a different spec/catalog")
        last = cube.valid_time
        key = climatology_key(last)
        if key not in sums:
            sums[key] = np.zeros(cube.values.shape, dtype=np.float64)
            counts[key] = 0
        sums[key] += cube.values
        counts[key] += 1
        del cube  # before the next one is made
    if spec is None:
        raise EmptyInput("no cubes to build a climatology from")
    means = {key: sums[key] / counts[key] for key in sums}
    return Climatology(spec, catalog, means, counts)
