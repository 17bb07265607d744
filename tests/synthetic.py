"""Synthetic inputs for the tests: the canonical weather catalog and a vortex series.

geoverify reads whatever catalog a cube file holds, and tc-track reads cubes from
disk, so neither builder belongs to the library.  Importable without pytest: CI's
console-script smoke step writes its vortex fixture with ``tests/`` on PYTHONPATH.
"""

from datetime import datetime, timedelta

import numpy as np

from geoverify import FieldCube, GridSpec, TcPoint, TcTrack, VariableCatalog, VariableId
from geoverify.grid import ROLE_INPUT_ONLY
from geoverify.tc import _haversine_grid

#: Pressure levels (hPa) of the canonical 70-channel weather catalog.
PRESSURE_LEVELS = (50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 850, 925, 1000)

#: Upper-air variable names, outer ordering of the canonical catalog.
UPPER_AIR_NAMES = ("Z", "T", "U", "V", "Q")

#: Surface variable names in table order.
SURFACE_NAMES = ("T2M", "MSL", "U10M", "V10M", "WS10M")

#: Static/temporal inputs that never enter skill metrics.
INPUT_ONLY_NAMES = ("OR", "LSM", "LAT", "LON", "HOUR", "DOY", "STEP")


def weather_catalog(include_input_only: bool = False) -> VariableCatalog:
    """The canonical 70-channel catalog: 5 upper-air x 13 levels + 5 surface.

    Upper-air variables are ordered (Z, T, U, V, Q) outer with pressure
    levels ascending inner, followed by the surface variables in table
    order.  Optionally appends the input-only static/temporal channels.
    """
    entries = [
        VariableId(name, level)
        for name in UPPER_AIR_NAMES
        for level in PRESSURE_LEVELS
    ]
    entries += [VariableId(name) for name in SURFACE_NAMES]
    if include_input_only:
        entries += [VariableId(name, role=ROLE_INPUT_ONLY) for name in INPUT_ONLY_NAMES]
    return VariableCatalog(entries)


def tracker_catalog() -> VariableCatalog:
    """Minimal two-channel catalog (MSL, WS10M) for tracker fixtures."""
    return VariableCatalog([VariableId("MSL"), VariableId("WS10M")])


def synthetic_vortex_series(
    spec: GridSpec,
    start_time: datetime,
    steps: int,
    center_lat: float,
    center_lon: float,
    *,
    dlat_per_step: float = 0.0,
    dlon_per_step: float = 0.0,
    step_hours: int = 6,
    background_hpa: float = 1013.0,
    depth_hpa: float = 30.0,
    r0_km: float = 150.0,
    ws_peak: float = 40.0,
    ring_km: float = 100.0,
    storm_id: str = "SYNTH",
) -> tuple[list[FieldCube], TcTrack]:
    """Cubes with a translating Gaussian low plus a wind ring, and the truth track.

    MSL(r) = background - depth * exp(-(r/r0)^2); WS10M(r) peaks at exactly
    ``ws_peak`` on the radius ``ring_km``.  The truth track records the
    continuous centers and, as ws_max, the planted field maximum over grid
    nodes within 250 km of each center (what a perfect tracker recovers).
    """
    catalog = tracker_catalog()
    lats = spec.latitudes
    lons = spec.longitudes
    cubes = []
    truth_points = []
    for k in range(steps):
        lat_c = center_lat + k * dlat_per_step
        lon_c = (center_lon + k * dlon_per_step) % 360.0
        r = _haversine_grid(lat_c, lon_c, lats, lons)
        msl = background_hpa - depth_hpa * np.exp(-((r / r0_km) ** 2))
        rr = r / ring_km
        ws = ws_peak * rr * np.exp(0.5 * (1.0 - rr ** 2))
        values = np.stack([msl, ws]).astype(np.float32)
        t = start_time + timedelta(hours=k * step_hours)
        cube = FieldCube(spec, catalog, t, values)
        cubes.append(cube)
        near = r <= 250.0
        if not near.any():
            raise ValueError(f"no grid node within 250 km of the center ({lat_c}, {lon_c}) "
                             f"at step {k}")
        planted = float(values[1][near].max())
        truth_points.append(TcPoint(t, lat_c, lon_c, planted, float(values[0].min())))
    return cubes, TcTrack(storm_id=storm_id, points=tuple(truth_points))
