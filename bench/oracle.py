"""Independent float64 reference computations for the correctness gate.

Written from the definitions in the project README, not from geoverify's
code: latitude weights ``n_lat * cos(lat) / sum(cos(lat))`` with exact
poles at zero, RMSE and ACC per field pair (set scores are means of those
per-time values), bilinear interpolation as separable interpolation
matrices, unweighted PSNR, and the five training-pair filter rules as a
first-match table.
"""

from __future__ import annotations

import math

import numpy as np

from fields import grid_axes


def latitude_weights(lats: np.ndarray) -> np.ndarray:
    cos = np.where(np.abs(lats) == 90.0, 0.0, np.cos(np.radians(lats)))
    return lats.size * cos / cos.sum()


def _weighted_sum(a, b, weights) -> float:
    """sum_i w_i sum_j a_ij b_ij in float64."""
    return float(np.einsum("ij,ij->i", a, b) @ weights)


def rmse(forecast, reference, weights) -> float:
    d = np.asarray(forecast, dtype=np.float64) - reference
    return math.sqrt(_weighted_sum(d, d, weights) / d.size)


def acc(forecast, reference, clim, weights) -> float:
    c = np.asarray(clim, dtype=np.float64)
    fa = forecast - c
    ra = reference - c
    value = _weighted_sum(fa, ra, weights) / math.sqrt(
        _weighted_sum(fa, fa, weights) * _weighted_sum(ra, ra, weights))
    return min(1.0, max(-1.0, value))


def pointwise_rmse(forecasts, references) -> np.ndarray:
    total = 0.0
    for f, r in zip(forecasts, references):
        d = f.astype(np.float64) - r
        total = total + d * d
    return np.sqrt(total / len(forecasts))


def _interp_matrix(target: np.ndarray, start: float, step: float, n: int) -> np.ndarray:
    frac = (target - start) / step
    lo = np.clip(np.floor(frac).astype(int), 0, n - 2)
    t = frac - lo
    m = np.zeros((target.size, n))
    rows = np.arange(target.size)
    m[rows, lo] = 1.0 - t
    m[rows, lo + 1] = t
    return m


def bilinear(field, source_grid, target_grid) -> np.ndarray:
    """Bilinear interpolation of a regional field onto a finer grid inside it."""
    t_lats, t_lons = grid_axes(target_grid)
    m_lat = _interp_matrix(t_lats, source_grid[2], source_grid[3], source_grid[0])
    m_lon = _interp_matrix(t_lons, source_grid[4], source_grid[5], source_grid[1])
    return m_lat @ field.astype(np.float64) @ m_lon.T


def psnr(candidate, truth, peak: float) -> float:
    d = candidate.astype(np.float64) - truth
    return 10.0 * math.log10(peak * peak / float((d * d).mean()))


def dynamic_range(field) -> float:
    return float(field.max()) - float(field.min())


def normalized_difference(model: list[float], baseline: list[float]) -> float:
    m = sum(model) / len(model)
    b = sum(baseline) / len(baseline)
    return (m - b) / abs(b)


def filter_decision(model_mbe, wrf_mbe, both_under, both_over, track_err_km,
                    tol: float = 1.0, threshold_km: float = 10.0) -> tuple[str, str]:
    """First matching row of the five training-pair rules."""
    rules = (
        (abs(model_mbe) < abs(wrf_mbe), "Exclude", "model MBE smaller than WRF MBE"),
        (abs(model_mbe - wrf_mbe) <= tol and track_err_km > threshold_km, "Exclude",
         f"comparable MBEs with track error above {threshold_km:g} km"),
        (both_under, "Strengthen", "both models underestimate WS10M"),
        (both_over, "Weaken", "both models overestimate WS10M"),
        (True, "Keep", "no rule applies"),
    )
    return next((decision, reason) for hit, decision, reason in rules if hit)


def close(reported: float, expected: float) -> bool:
    """Agreement at the 6 significant digits the reports print."""
    if math.isinf(expected) or math.isinf(reported):
        return reported == expected
    return abs(reported - expected) <= 1e-5 * abs(expected) + 1e-12
