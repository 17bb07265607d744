"""Bilinear interpolation between regular lat/lon grids.

This is the downscaling baseline: every target node blends its four
surrounding source nodes with weights from the fractional lat/lon offsets.
Exact on fields linear in latitude and longitude, and bounded by the
source's min/max (no overshoot).

The row and column indices and the four weight planes depend only on the two
grids.  They form a plan that is built on the first upsample onto a grid pair
and kept: only the last pair's plan is held, 32 bytes per target point, and it
is released when another pair is used.
"""

from __future__ import annotations

import struct

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
    # A longitude a rounding error west of the first column wraps to about 360
    # degrees east of it: it gets the first column, as one that far east of the
    # last column gets the last.
    west = (frac > hi) & (frac >= 360.0 / source.lon_step - _EDGE_TOL)
    frac = np.where(west, 0.0, frac)
    if (frac > hi).any():
        bad = target.longitudes[frac > hi][0]
        raise OutOfExtent(f"target longitude {bad} outside source columns")
    j0 = np.clip(np.floor(frac).astype(int), 0, source.n_lon - 2)
    u = np.clip(frac - j0, 0.0, 1.0)
    return j0, j0 + 1, u


#: (key, plan) of the last grid pair, or None.  The key is the raw bits of both
#: specs, never their values: 0.0 == -0.0, but the sign of a zero in a spec
#: reaches the sign of zeros in the output.  The plan's arrays are read-only,
#: so threads may share it, and threads that race to build one build equal ones.
_last_plan: tuple[bytes, tuple[np.ndarray, ...]] | None = None


def _spec_bits(spec: GridSpec) -> bytes:
    return struct.pack("<2q4d", spec.n_lat, spec.n_lon, spec.lat_start, spec.lat_step,
                       spec.lon_start, spec.lon_step)


def _plan(source: GridSpec, target: GridSpec) -> tuple[np.ndarray, ...]:
    """(i0, i1, j0, j1, w00, w01, w10, w11) of a grid pair, read-only; the last
    pair's when the bits match.

    Each target node blends source rows i0/i1 of its row and columns j0/j1 of
    its column, with the float64 weight planes w00 (i0, j0) to w11 (i1, j1).
    """
    global _last_plan
    key = _spec_bits(source) + _spec_bits(target)
    last = _last_plan
    if last is not None and last[0] == key:
        return last[1]
    _last_plan = None  # the old plan goes before the new one is built
    i0, i1, t = _lat_coeffs(source, target)
    j0, j1, u = _lon_coeffs(source, target)
    t2, u2 = t[:, None], u[None, :]
    plan = (i0, i1, j0, j1, (1.0 - t2) * (1.0 - u2), (1.0 - t2) * u2,
            t2 * (1.0 - u2), t2 * u2)
    for arr in plan:
        arr.flags.writeable = False
    _last_plan = key, plan
    return plan


def bilinear_upsample(cube: FieldCube, target: GridSpec) -> FieldCube:
    """Interpolate a cube onto a target grid, channels independently.

    Target nodes must lie within the source extent (OutOfExtent otherwise);
    longitudes wrap across the 0/360 seam for globally-wrapping sources,
    and on such sources target latitudes beyond the first/last source row
    clamp to the nearest row.
    """
    i0, i1, j0, j1, w00, w01, w10, w11 = _plan(cube.spec, target)

    # Per channel: convert the source once and gather its columns; then per block
    # of target rows gather the rows into two reused buffers, sum the four w*v
    # terms left to right in float64 and round once: this order fixes the bits.
    # The source and column buffers are reused too: downscale's peak RSS rose
    # when the plan was held and they were not.
    # _lat_coeffs and _lon_coeffs clip every index into range, so mode="clip"
    # never moves one; under the default mode="raise" take() fills a temporary
    # and copies it.
    n_lat, n_lon = target.n_lat, target.n_lon
    step = max(1, _ROW_BLOCK_VALUES // n_lon)
    out = np.empty((cube.values.shape[0], n_lat, n_lon), np.float32)
    blend_buf, term_buf = np.empty((2, min(step, n_lat), n_lon))
    src64 = np.empty(cube.values.shape[1:])
    cols0, cols1 = np.empty((2, cube.spec.n_lat, n_lon))
    for src, dst in zip(cube.values, out):
        src64[...] = src
        src64.take(j0, axis=1, out=cols0, mode="clip")
        src64.take(j1, axis=1, out=cols1, mode="clip")
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
    # Each value is a float64 convex combination of finite float32 values, with
    # weights in [0, 1]: rounded to float32 it stays within their min and max, so
    # it is finite even at +-FLT_MAX, and the NaN/Inf scan would find nothing.
    return FieldCube(target, cube.catalog, cube.valid_time, out, _scan=False)
