"""Shared fixtures: tiny grids, catalogs and cube builders."""

import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from geoverify import FieldCube, GridSpec, VariableCatalog, VariableId, build_climatology
from geoverify.cli import time_stem
from geoverify.cubeio import write_cube, write_tracks
from synthetic import synthetic_vortex_series


def utc(year, month, day, hour=0):
    return datetime(year, month, day, hour, tzinfo=timezone.utc)


@pytest.fixture
def small_spec():
    """3 x 4 grid, latitudes 45/0/-45, longitudes every 90 degrees (global)."""
    return GridSpec(n_lat=3, n_lon=4, lat_start=45.0, lat_step=-45.0,
                    lon_start=0.0, lon_step=90.0)


@pytest.fixture
def small_catalog():
    return VariableCatalog([VariableId("Z", 500), VariableId("T2M"), VariableId("WS10M")])


@pytest.fixture
def make_cube(small_spec, small_catalog):
    def _make(values=None, valid_time=None, spec=None, catalog=None):
        spec = spec or small_spec
        catalog = catalog or small_catalog
        if values is None:
            rng = np.random.default_rng(0)
            values = rng.normal(size=(len(catalog), spec.n_lat, spec.n_lon))
        return FieldCube(
            spec=spec,
            catalog=catalog,
            valid_time=valid_time or utc(2024, 1, 1, 6),
            values=np.asarray(values, dtype=np.float32),
        )

    return _make


def random_cube(rng, n_chan=2, n_lat=3, n_lon=4, valid_time=None):
    """Small random cube on a symmetric grid; helper for oracle tests."""
    lat_start = 60.0
    lat_step = -120.0 / (n_lat - 1)
    spec = GridSpec(n_lat, n_lon, lat_start, lat_step, 0.0, 360.0 / n_lon)
    catalog = VariableCatalog([VariableId("V", i) for i in range(1, n_chan + 1)])
    values = rng.normal(size=(n_chan, n_lat, n_lon)).astype(np.float32)
    return FieldCube(spec, catalog, valid_time or utc(2024, 1, 1, 0), values)


def write_climatology(cubes, directory):
    """Builds the climatology of ``cubes`` in ``directory``; returns its manifest's path.

    The cubes are written to files in a temporary directory, which is removed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{k}.gvc" for k in range(len(cubes))]
        for cube, path in zip(cubes, paths):
            write_cube(cube, path)
        return build_climatology(paths, directory)


def hour_sequence(start, count, step_hours=6):
    return [start + timedelta(hours=step_hours * k) for k in range(count)]


#: 21 x 31 nodes every 0.5 degrees, around the vortex that write_vortex plants.
VORTEX_SPEC = GridSpec(21, 31, 35.0, -0.5, 125.0, 0.5)


def write_vortex(directory, steps=3, spec=VORTEX_SPEC, name=""):
    """A vortex from (30N, 130E) moving 1 degree east per 6 h from 2024-09-01T00Z.

    Writes one cube per step, named by its valid time as tc-track reads them,
    plus ``seeds.csv`` (the first fix) and ``truth.csv`` (every fix) of storm
    SYNTH called ``name``; returns ``directory``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True)
    cubes, truth = synthetic_vortex_series(spec, utc(2024, 9, 1), steps, 30.0, 130.0,
                                           dlon_per_step=1.0)
    for cube in cubes:
        write_cube(cube, directory / f"{time_stem(cube.valid_time)}.gvc")
    truth = replace(truth, name=name)
    write_tracks([replace(truth, points=truth.points[:1])], directory / "seeds.csv")
    write_tracks([truth], directory / "truth.csv")
    return directory
