"""Bilinear interpolation between regular lat/lon grids.

This is the downscaling baseline: every target node blends its four
surrounding source nodes with weights from the fractional lat/lon offsets.
Exact on fields linear in latitude and longitude, and bounded by the
source's min/max (no overshoot).
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfExtent
from .grid import FieldCube, GridSpec

_EDGE_TOL = 1e-9


def _lat_coeffs(source: GridSpec, target: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    frac = (target.latitudes - source.lat_start) / source.lat_step
    lo, hi = -_EDGE_TOL, source.n_lat - 1 + _EDGE_TOL
    outside = (frac < lo) | (frac > hi)
    if outside.any():
        if not source.is_global_lon:
            bad = target.latitudes[outside][0]
            raise OutOfExtent(f"target latitude {bad} outside source rows")
        # Global sources clamp beyond-pole-row targets to the nearest row.
        frac = np.clip(frac, 0.0, source.n_lat - 1)
    i0 = np.clip(np.floor(frac).astype(int), 0, source.n_lat - 2)
    t = np.clip(frac - i0, 0.0, 1.0)
    return i0, i0 + 1, t


def _lon_coeffs(source: GridSpec, target: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    frac = ((target.longitudes - source.lon_start) % 360.0) / source.lon_step
    if source.is_global_lon:
        j0 = np.floor(frac).astype(int) % source.n_lon
        j1 = (j0 + 1) % source.n_lon
        u = frac - np.floor(frac)
        return j0, j1, u
    hi = source.n_lon - 1 + _EDGE_TOL
    if (frac > hi).any():
        bad = target.longitudes[frac > hi][0]
        raise OutOfExtent(f"target longitude {bad} outside source columns")
    j0 = np.clip(np.floor(frac).astype(int), 0, source.n_lon - 2)
    u = np.clip(frac - j0, 0.0, 1.0)
    return j0, j0 + 1, u


def bilinear_upsample(cube: FieldCube, target: GridSpec) -> FieldCube:
    """Interpolate a cube onto a target grid, channels independently.

    Target nodes must lie within the source extent (OutOfExtent otherwise);
    longitudes wrap across the 0/360 seam for globally-wrapping sources,
    and on such sources target latitudes beyond the first/last source row
    clamp to the nearest row.
    """
    i0, i1, t = _lat_coeffs(cube.spec, target)
    j0, j1, u = _lon_coeffs(cube.spec, target)
    t2, u2 = t[:, None], u[None, :]
    w00, w01 = (1.0 - t2) * (1.0 - u2), (1.0 - t2) * u2
    w10, w11 = t2 * (1.0 - u2), t2 * u2

    # Per channel: gather columns on the source rows, then rows; sum the four
    # w*v terms left to right in float64, then round once: this order fixes the bits.
    out = np.empty((cube.values.shape[0], target.n_lat, target.n_lon), np.float32)
    blend, term = np.empty(out.shape[1:]), np.empty(out.shape[1:])
    for src, dst in zip(cube.values, out):
        cols0, cols1 = src.take(j0, axis=1), src.take(j1, axis=1)
        np.multiply(w00, cols0.take(i0, axis=0), out=blend)
        for w, cols, rows in ((w01, cols1, i0), (w10, cols0, i1), (w11, cols1, i1)):
            blend += np.multiply(w, cols.take(rows, axis=0), out=term)
        dst[...] = blend
    return FieldCube(target, cube.catalog, cube.valid_time, out)
