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

#: Float64 values per row-block buffer in bilinear_upsample: 2^15 (256 KiB), so
#: a block's two buffers stay in cache while its four terms are summed.
_ROW_BLOCK_VALUES = 1 << 15


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

    # Per channel: convert the source once and gather its columns; then per block
    # of target rows gather the rows into two reused buffers, sum the four w*v
    # terms left to right in float64 and round once: this order fixes the bits.
    # _lat_coeffs clips every row index into range, so mode="clip" never moves
    # one; under the default mode="raise" take() fills a temporary and copies it.
    n_lat, n_lon = target.n_lat, target.n_lon
    step = max(1, _ROW_BLOCK_VALUES // n_lon)
    out = np.empty((cube.values.shape[0], n_lat, n_lon), np.float32)
    blend_buf, term_buf = np.empty((2, min(step, n_lat), n_lon))
    for src, dst in zip(cube.values, out):
        src64 = src.astype(np.float64)
        cols0, cols1 = src64.take(j0, axis=1), src64.take(j1, axis=1)
        for start in range(0, n_lat, step):
            rows = slice(start, start + step)
            r0, r1 = i0[rows], i1[rows]
            blend, term = blend_buf[: len(r0)], term_buf[: len(r0)]
            cols0.take(r0, axis=0, out=blend, mode="clip")
            blend *= w00[rows]
            for w, cols, r in ((w01, cols1, r0), (w10, cols0, r1), (w11, cols1, r1)):
                cols.take(r, axis=0, out=term, mode="clip")
                term *= w[rows]
                blend += term
            dst[rows] = blend
    return FieldCube(target, cube.catalog, cube.valid_time, out)
