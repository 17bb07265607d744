"""Tropical cyclone tracking, track/intensity scoring and pair filtering.

The tracker follows a sea-level-pressure minimum through a time-ordered
cube sequence; track skill is the mean great-circle distance to a best
track, intensity skill the RMSE of maximum 10-m wind speed over matched
valid times.  Mean sea-level pressure fields are expected in hPa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    GeoverifyError,
    InvalidFlags,
    MissingChannel,
    SeedOutsideGrid,
    UnknownVariable,
)
from .grid import FieldCube, GridSpec, select_channel

EARTH_RADIUS_KM = 6371.0
KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180.0

#: The (name, level) keys of the channels the tracker reads: MSL, then WS10M.
TRACKED_CHANNELS = (("MSL", None), ("WS10M", None))


def great_circle_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Haversine distance in km between two (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def _haversine_grid(lat0: float, lon0: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Distances (km) from one point to every node of a lat x lon sub-grid."""
    phi0 = math.radians(lat0)
    phi = np.deg2rad(lats)[:, None]
    dphi = (phi - phi0) / 2.0
    dlam = np.deg2rad((lons[None, :] - lon0 + 180.0) % 360.0 - 180.0) / 2.0
    s = np.sin(dphi) ** 2 + math.cos(phi0) * np.cos(phi) * np.sin(dlam) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


@dataclass(frozen=True)
class TcPoint:
    """One cyclone fix: position, max 10-m wind and central pressure."""

    time: datetime
    lat: float
    lon: float
    ws_max: float
    msl_min: float | None = None

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat {self.lat} outside [-90, 90]")
        if not 0.0 <= self.ws_max < math.inf:
            raise ValueError(f"ws_max {self.ws_max} negative or not finite")
        if not math.isfinite(self.lon):
            raise ValueError(f"lon {self.lon} not finite")
        if self.msl_min is not None and not math.isfinite(self.msl_min):
            raise ValueError(f"msl_min {self.msl_min} not finite")
        object.__setattr__(self, "lon", self.lon % 360.0)


@dataclass(frozen=True)
class TcTrack:
    """Time series of fixes for one storm at a fixed cadence."""

    storm_id: str
    points: tuple[TcPoint, ...]
    name: str = ""
    complete: bool = True

    def __post_init__(self):
        times = [p.time for p in self.points]
        if len(times) >= 2:
            deltas = [(b - a).total_seconds() for a, b in zip(times, times[1:])]
            if min(deltas) <= 0:
                raise ValueError("track times must be strictly increasing")
            if max(deltas) != min(deltas):
                raise ValueError("track times must keep a fixed cadence")

    @property
    def times(self) -> tuple[datetime, ...]:
        return tuple(p.time for p in self.points)

    def point_at(self, time: datetime) -> TcPoint:
        for p in self.points:
            if p.time == time:
                return p
        raise KeyError(time)


def _run(index: np.ndarray):
    """An ascending index vector as a slice when it is one run of adjacent indices.

    Rows always are; columns are not where a box wraps a global grid's seam.
    """
    if index.size and index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _window(spec: GridSpec, lat0: float, lon0: float, radius_km: float):
    """(rows, cols, distances km) of the nodes in the bounding box of a point's disk.

    The box holds every node within ``radius_km`` of the point, at any
    latitude: its columns span the disk's exact half-width, and every
    longitude where the disk reaches a pole.  Rows and columns are each a
    slice where they are a run, else an index vector, so
    ``values[rows][:, cols]`` cuts the window, as a view when both are slices.
    """
    lats, lons = spec.latitudes, spec.longitudes
    rows = np.nonzero(np.abs(lats - lat0) <= radius_km / KM_PER_DEG + abs(spec.lat_step))[0]
    d, phi0 = radius_km / EARTH_RADIUS_KM, math.radians(lat0)
    dlon = 180.0  # the disk reaches a pole
    if d < math.pi / 2.0 - abs(phi0):
        dlon = min(math.degrees(math.asin(math.sin(d) / math.cos(phi0))) + spec.lon_step, 180.0)
    cols = np.nonzero(np.abs((lons - lon0 + 180.0) % 360.0 - 180.0) <= dlon)[0]
    rows, cols = _run(rows), _run(cols)
    return rows, cols, _haversine_grid(lat0, lon0, lats[rows], lons[cols])


class CycloneTracker:
    """One storm's tracker, advanced one cube at a time in valid-time order.

    It is built from the seed fix and the grid of the seed's cube, and
    raises SeedOutsideGrid if the seed lies outside that grid.  ``step``
    takes the cubes from the seed's time on, one per call.  The tracker
    keeps its fixes, never a cube, so a caller may drop each cube once
    every tracker has stepped through it.

    At each step the candidate center is the grid node with the lowest MSL
    within ``search_radius_km`` of the previous center.  The low must be
    closed: its MSL at least ``closed_low_hpa`` below the mean over the
    ring of nodes at ``intensity_radius_km`` (+- half ``ring_width_km``)
    from the candidate, else the storm is lost.  Each fix records ws_max as
    the maximum WS10M within ``intensity_radius_km`` of the center and
    msl_min as the MSL at the center node.
    """

    def __init__(
        self,
        seed: TcPoint,
        spec: GridSpec,
        *,
        search_radius_km: float = 250.0,
        intensity_radius_km: float = 250.0,
        closed_low_hpa: float = 0.5,
        ring_width_km: float = 100.0,
        storm_id: str = "TRACK",
        name: str = "",
    ):
        if not spec.contains(seed.lat, seed.lon):
            raise SeedOutsideGrid(f"seed at ({seed.lat}, {seed.lon}) not inside grid")
        self.seed = seed
        self.search_radius_km = search_radius_km
        self.intensity_radius_km = intensity_radius_km
        self.closed_low_hpa = closed_low_hpa
        self.ring_width_km = ring_width_km
        self.storm_id = storm_id
        self.name = name
        self.points: list[TcPoint] = []
        self.active = True
        self._center = (seed.lat, seed.lon)  # as the grid gives it, before TcPoint wraps lon

    def step(self, cube: FieldCube) -> bool:
        """Look for the next fix in ``cube``; False once the storm is lost, for good.

        MSL and WS10M are found in this cube's own catalog: a cube that
        lacks either raises MissingChannel naming its valid time.  The first
        step's cube must be at the seed's time.
        """
        if not self.active:
            raise ValueError(f"the tracker of {self.storm_id} has stopped")
        try:
            msl, ws = [select_channel(cube, key) for key in TRACKED_CHANNELS]
        except UnknownVariable as e:
            raise MissingChannel(f"cube at {cube.valid_time}: {e}") from None
        if not self.points and cube.valid_time != self.seed.time:
            raise ValueError(
                f"seed time {self.seed.time} does not match first cube {cube.valid_time}"
            )
        fix = self._fix(cube, msl, ws)
        if fix is None:
            self.active = False
        else:
            self.points.append(fix)
        return self.active

    def _fix(self, cube: FieldCube, msl: np.ndarray, ws: np.ndarray) -> TcPoint | None:
        """The fix in ``cube`` near the last center (or the seed), which becomes the
        center; None when the storm is lost."""
        lat_prev, lon_prev = self._center
        search_km, intensity_km = self.search_radius_km, self.intensity_radius_km
        spec = cube.spec
        lats, lons = spec.latitudes, spec.longitudes

        rows, cols, dist = _window(spec, lat_prev, lon_prev, search_km)
        inside = dist <= search_km
        if not inside.any():
            return None
        patch = msl[rows][:, cols]
        masked = np.where(inside, patch, np.inf)
        flat = int(np.argmin(masked))
        r, c = np.unravel_index(flat, masked.shape)
        lat_c, lon_c = float(lats[rows][r]), float(lons[cols][c])
        msl_c = float(patch[r, c])

        # Closed-low test: ring mean minus center depth.
        ring_km = self.ring_width_km
        rows, cols, ring_dist = _window(spec, lat_c, lon_c, intensity_km + ring_km)
        on_ring = np.abs(ring_dist - intensity_km) <= ring_km / 2.0
        if not on_ring.any():
            return None
        ring_mean = float(msl[rows][:, cols][on_ring].mean())
        if ring_mean - msl_c < self.closed_low_hpa:
            return None

        # The ring's window holds the intensity disk (a node is on the ring, so ring_km >= 0).
        ws_max = float(ws[rows][:, cols][ring_dist <= intensity_km].max())
        if ws_max < 0.0:
            raise GeoverifyError(f"WS10M max {ws_max} m/s near {cube.valid_time} is negative")
        self._center = (lat_c, lon_c)
        return TcPoint(cube.valid_time, lat_c, lon_c, ws_max, msl_c)

    def track(self) -> TcTrack:
        """The fixes so far; ``complete`` unless the storm was lost.

        A storm lost at its first step gives a track of the seed alone.
        """
        if not self.points:
            return TcTrack(storm_id=self.storm_id, name=self.name, points=(self.seed,),
                           complete=False)
        return TcTrack(storm_id=self.storm_id, name=self.name, points=tuple(self.points),
                       complete=self.active)


def track_cyclone(cubes: Sequence[FieldCube], seed: TcPoint, **settings) -> TcTrack:
    """A ``CycloneTracker`` built with ``settings``, stepped through time-ordered
    ``cubes`` until the storm is lost; its track.

    The first cube must be at the seed's time and its grid must hold the seed.
    """
    if not cubes:
        raise ValueError("no cubes to track through")
    tracker = CycloneTracker(seed, cubes[0].spec, **settings)
    for cube in cubes:
        if not tracker.step(cube):
            break
    return tracker.track()


# --- track and intensity skill -------------------------------------------------

def _lead_hours(track: TcTrack, time: datetime) -> int:
    return int(round((time - track.points[0].time).total_seconds() / 3600.0))


def _errors(forecast, reference, times, error) -> list[tuple[int, float]]:
    return [(_lead_hours(forecast, t), error(forecast.point_at(t), reference.point_at(t)))
            for t in times]


def track_errors_km(
    forecast: TcTrack, reference: TcTrack, times: Sequence[datetime]
) -> list[tuple[int, float]]:
    """(lead hours, great-circle error km) at each of ``times``."""
    return _errors(forecast, reference, times,
                   lambda f, r: great_circle_km((f.lat, f.lon), (r.lat, r.lon)))


def intensity_errors(
    forecast: TcTrack, reference: TcTrack, times: Sequence[datetime]
) -> list[tuple[int, float]]:
    """(lead hours, forecast ws_max - reference ws_max) at each of ``times``."""
    return _errors(forecast, reference, times, lambda f, r: f.ws_max - r.ws_max)


def mean(values) -> float:
    """Arithmetic mean: the track-error reduction."""
    return float(np.mean(values))


def rms(values) -> float:
    """Root mean square: the intensity-error reduction."""
    return float(np.sqrt(np.mean(np.square(values))))


def group_by_lead(errors: Sequence[tuple[int, float]]) -> list[tuple[int, list[float]]]:
    """(lead, values) groups of (lead, value) errors, leads ascending."""
    leads = sorted({lead for lead, _ in errors})
    return [(lead, [v for l, v in errors if l == lead]) for lead in leads]


def concurrent_match(
    tracks_by_source: Mapping[str, Sequence[TcTrack]],
    reference: Sequence[TcTrack],
) -> dict[str, list[datetime]]:
    """(storm, valid time) pairs detected by every source and the reference.

    Restricting evaluation to concurrent detections keeps all models scored
    on an identical set of events.  Storms missed by any source drop out.
    """
    by_source: list[dict[str, set[datetime]]] = []
    for tracks in tracks_by_source.values():
        by_source.append({t.storm_id: set(t.times) for t in tracks})
    matched: dict[str, list[datetime]] = {}
    for ref in reference:
        times = set(ref.times)
        for source in by_source:
            times &= source.get(ref.storm_id, set())
        if times:
            matched[ref.storm_id] = sorted(times)
    return matched


#: (metric, errors per valid time, reduction) of each TC skill score.
_SCORERS = (
    ("track_mae", track_errors_km, mean),
    ("ws10m_rmse", intensity_errors, rms),
)


def skill_rows(
    tracks_by_source: Mapping[str, Sequence[TcTrack]],
    reference: Sequence[TcTrack],
) -> list[tuple[str, str, str, str, float, int]]:
    """(source, storm, lead label, metric, value, n) rows of every source's TC skill.

    Each source is scored on the (storm, time) pairs of ``concurrent_match``:
    one "pooled" row per storm, then per metric over all storms ("ALL") the
    pooled value, one row per lead hour, and the mean of the per-lead values
    ("per_lead_mean", n = number of leads).  Raises EmptyInput when no pair
    is concurrent.
    """
    matched = concurrent_match(tracks_by_source, reference)
    if not matched:
        raise EmptyInput("no concurrently detected (storm, time) pairs")
    ref_by_id = {t.storm_id: t for t in reference}
    rows = []
    for source, tracks in tracks_by_source.items():
        fc_by_id = {t.storm_id: t for t in tracks}
        pooled = {metric: [] for metric, _, _ in _SCORERS}
        for storm_id, times in sorted(matched.items()):
            for metric, errors_of, reduce in _SCORERS:
                errors = errors_of(fc_by_id[storm_id], ref_by_id[storm_id], times)
                pooled[metric] += errors
                rows.append((source, storm_id, "pooled", metric,
                             reduce([e for _, e in errors]), len(errors)))
        for metric, _, reduce in _SCORERS:
            errors = pooled[metric]
            rows.append((source, "ALL", "pooled", metric,
                         reduce([e for _, e in errors]), len(errors)))
            per_lead = [(lead, reduce(values), len(values))
                        for lead, values in group_by_lead(errors)]
            rows += [(source, "ALL", str(lead), metric, value, n) for lead, value, n in per_lead]
            rows.append((source, "ALL", "per_lead_mean", metric,
                         mean([value for _, value, _ in per_lead]), len(per_lead)))
    return rows


# --- WRF pair filtering ---------------------------------------------------------

DECISION_EXCLUDE = "Exclude"
DECISION_STRENGTHEN = "Strengthen"
DECISION_WEAKEN = "Weaken"
DECISION_KEEP = "Keep"


@dataclass(frozen=True, slots=True)
class FilterDecision:
    case_id: str
    decision: str
    reason: str


def filter_case(
    model_mbe: float,
    wrf_mbe: float,
    both_under: bool,
    both_over: bool,
    track_err_km: float,
    comparable_tol: float = 1.0,
    track_threshold_km: float = 10.0,
    case_id: str = "",
) -> FilterDecision:
    """Decide whether a model/WRF forecast pair enters the editing dataset.

    Rules, in order: (1) the model already less biased than WRF (smaller
    absolute wind-speed MBE) excludes the case; (2) comparable MBEs with a
    track position error above the threshold exclude it; (3) both models
    underestimating means the intensity is strengthened; (4) both
    overestimating means it is weakened; (5) otherwise keep unchanged.
    A non-finite MBE, or a track error that is negative or not finite,
    raises ValueError.
    """
    if both_under and both_over:
        raise InvalidFlags("both_under and both_over cannot both be true")
    if not (math.isfinite(model_mbe) and math.isfinite(wrf_mbe)):
        raise ValueError("MBEs must be finite")
    if not 0.0 <= track_err_km < math.inf:
        raise ValueError(f"track error must be finite and non-negative; got {track_err_km}")
    if abs(model_mbe) < abs(wrf_mbe):
        return FilterDecision(case_id, DECISION_EXCLUDE, "model MBE smaller than WRF MBE")
    if abs(model_mbe - wrf_mbe) <= comparable_tol and track_err_km > track_threshold_km:
        return FilterDecision(
            case_id,
            DECISION_EXCLUDE,
            f"comparable MBEs with track error above {track_threshold_km:g} km",
        )
    if both_under:
        return FilterDecision(case_id, DECISION_STRENGTHEN, "both models underestimate WS10M")
    if both_over:
        return FilterDecision(case_id, DECISION_WEAKEN, "both models overestimate WS10M")
    return FilterDecision(case_id, DECISION_KEEP, "no rule applies")

