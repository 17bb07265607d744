"""Climatological mean fields keyed by (day-of-year, hour-of-day).

Anomalies for the ACC are departures from these means.  Keys use a
366-day calendar so Feb 29 owns day 60 and Mar 1 is day 61 in every year;
the leap-day key is therefore built only from leap-year samples and
non-leap lookups never touch it.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable

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
    """Per-key mean fields over a training sample of cubes."""

    def __init__(
        self,
        spec: GridSpec,
        catalog: VariableCatalog,
        means: dict[tuple[int, int], np.ndarray],
        counts: dict[tuple[int, int], int],
    ):
        self.spec = spec
        self.catalog = catalog
        self.means = means
        self.counts = counts

    def lookup(self, valid_time: datetime) -> np.ndarray:
        """Stored C x H x W mean for the key of a valid time."""
        key = climatology_key(valid_time)
        try:
            return self.means[key]
        except KeyError:
            raise MissingKey(f"no climatology for day {key[0]} hour {key[1]:02d}") from None

    def lookup_channel(self, valid_time: datetime, var) -> np.ndarray:
        return self.lookup(valid_time)[self.catalog.index_of(var)]

    def save(self, directory) -> Path:
        """One cube file per key, then a manifest CSV naming them; returns its path.

        The manifest is written last and atomically: a failed save leaves none.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        rows = []
        for (doy, hour) in sorted(self.means):
            filename = f"clim_d{doy:03d}_h{hour:02d}.gvc"
            stamp = datetime(2000, 1, 1, hour, tzinfo=timezone.utc) + timedelta(days=doy - 1)
            cube = FieldCube(
                self.spec, self.catalog, stamp, self.means[(doy, hour)].astype(np.float32)
            )
            cubeio.write_cube(cube, directory / filename)
            rows.append((doy, hour, self.counts[(doy, hour)], filename))
        manifest = directory / MANIFEST_NAME
        cubeio.write_csv(manifest, None, MANIFEST_COLUMNS, rows)
        return manifest

    @classmethod
    def load(cls, manifest_path, variables=None) -> "Climatology":
        """Read a manifest and its key cubes; means keep the cubes' float32 values.

        A row whose key ``climatology_key`` cannot return, or that repeats an
        earlier row's key, raises ParseError naming the row.

        With ``variables``, each key keeps only those channels, read as
        ``cubeio.read_cube(path, variables)`` reads them; every key cube is
        still validated in full and must share the first one's whole catalog.
        """
        manifest_path = Path(manifest_path)
        means: dict[tuple[int, int], np.ndarray] = {}
        counts: dict[tuple[int, int], int] = {}
        spec = catalog = first_file_catalog = None
        rows = cubeio.read_csv_rows(manifest_path, MANIFEST_COLUMNS)
        for row_no, (doy, hour, n_samples, filename) in rows:
            try:
                key, count = (int(doy), int(hour)), int(n_samples)
            except ValueError as e:
                raise ParseError(row_no, str(e)) from None
            if not 1 <= key[0] <= 366 or key[1] not in KEY_HOURS:
                raise ParseError(row_no, f"doy {key[0]} hour {key[1]} is not a climatology key")
            if key in means:
                raise ParseError(row_no, f"repeated key doy {key[0]} hour {key[1]}")
            path = manifest_path.parent / filename
            cube = cubeio.read_cube(path, variables)
            file_catalog = cube.catalog if variables is None else cubeio.read_header(path)[1]
            if spec is None:
                spec, catalog, first_file_catalog = cube.spec, cube.catalog, file_catalog
            elif cube.spec != spec or file_catalog != first_file_catalog:
                raise SpecMismatch(f"climatology file {filename} mismatches manifest")
            means[key] = cube.values
            counts[key] = count
        if spec is None:
            raise EmptyInput(f"manifest {manifest_path} lists no keys")
        return cls(spec, catalog, means, counts)


def build_climatology(cubes: Iterable[FieldCube]) -> Climatology:
    """Arithmetic per-key mean over cubes sharing one grid spec and catalog.

    Accumulation is 64-bit and runs in sorted valid_time order, so any
    permutation of the input stream produces identical bits.  Two cubes with
    one valid time are a data error: the time would count twice in its mean.
    """
    ordered = sorted(cubes, key=lambda c: c.valid_time)
    if not ordered:
        raise EmptyInput("no cubes to build a climatology from")
    spec, catalog = ordered[0].spec, ordered[0].catalog
    sums: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    for a, b in zip(ordered, ordered[1:]):
        if a.valid_time == b.valid_time:
            raise GeoverifyError(f"two cubes have valid time {cubeio.format_time(a.valid_time)}")
    for cube in ordered:
        if cube.spec != spec or cube.catalog != catalog:
            raise SpecMismatch(f"cube at {cube.valid_time} has a different spec/catalog")
        key = climatology_key(cube.valid_time)
        if key not in sums:
            sums[key] = np.zeros(cube.values.shape, dtype=np.float64)
            counts[key] = 0
        sums[key] += cube.values
        counts[key] += 1
    means = {key: sums[key] / counts[key] for key in sums}
    return Climatology(spec, catalog, means, counts)
