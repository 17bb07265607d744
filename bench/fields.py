"""Seeded synthetic fields for the benchmark fixtures.

Every array is a pure function of (seed, what, index, channel), so the
fixture generator and the oracles can rebuild any single channel without
reading a file.  Fields are smooth rank-1 patterns plus slices of one
standard-normal noise bank: cheap to make at 0.25 degrees, never constant,
and identical bit for bit on every call.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np

PRESSURE_LEVELS = (50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 850, 925, 1000)
SURFACE = ("T2M", "MSL", "U10M", "V10M", "WS10M")
#: The 70-channel catalog order geoverify documents: Z,T,U,V,Q x levels, then surface.
WEATHER_CHANNELS = [(n, lv) for n in ("Z", "T", "U", "V", "Q") for lv in PRESSURE_LEVELS] + [
    (n, None) for n in SURFACE
]
SURFACE_CHANNELS = [(n, None) for n in SURFACE]

EARTH_RADIUS_KM = 6371.0


def grid_axes(grid):
    """(latitudes, longitudes) in degrees, float64, of a grid tuple."""
    n_lat, n_lon, lat0, dlat, lon0, dlon = grid
    lats = lat0 + np.arange(n_lat, dtype=np.float64) * dlat
    lons = (lon0 + np.arange(n_lon, dtype=np.float64) * dlon) % 360.0
    return lats, lons


def utc(*args) -> datetime:
    return datetime(*args, tzinfo=timezone.utc)


def iso(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%M:%SZ")


def stem(t: datetime) -> str:
    return t.strftime("%Y%m%dT%H%M%SZ")


def clim_key(t: datetime) -> tuple[int, int]:
    """(day of the 366-day calendar, hour), as geoverify keys climatology."""
    return datetime(2000, t.month, t.day).timetuple().tm_yday, t.hour


class FieldModel:
    """Per-channel smooth patterns plus a shared noise bank on one grid."""

    _KINDS = {"ref": 2, "fc": 3, "truth": 4, "model": 5}

    def __init__(self, seed: int, tag: int, grid, n_chan: int):
        self.grid = grid
        n_lat, n_lon = grid[0], grid[1]
        rng = np.random.default_rng([seed, tag])
        self.bank = rng.standard_normal((n_lat, 2 * n_lon), dtype=np.float32)
        self.offsets = rng.integers(0, n_lon, size=65536)
        self.mu = rng.uniform(-50.0, 300.0, n_chan).astype(np.float32)
        self.sig = rng.uniform(1.0, 20.0, n_chan).astype(np.float32)
        self.key_phase = rng.uniform(0.0, 2 * math.pi, n_chan)
        lats, lons = grid_axes(grid)
        k = rng.integers(1, 5, n_chan)[:, None]
        m = rng.integers(1, 7, n_chan)[:, None]
        phase_a = rng.uniform(0.0, 2 * math.pi, n_chan)[:, None]
        phase_b = rng.uniform(0.0, 2 * math.pi, n_chan)[:, None]
        self.lat_wave = np.sin(k * np.deg2rad(lats)[None, :] + phase_a).astype(np.float32)
        self.lon_wave = np.cos(m * np.deg2rad(lons)[None, :] + phase_b).astype(np.float32)

    def noise(self, kind: str, index: int, chan: int) -> np.ndarray:
        slot = (self._KINDS[kind] * 1_000_003 + index * 7_919 + chan * 131) % self.offsets.size
        off = int(self.offsets[slot])
        return self.bank[:, off:off + self.grid[1]]

    def clim(self, key_index: int, c: int) -> np.ndarray:
        shift = np.float32(0.2 * math.cos(key_index + self.key_phase[c]))
        out = np.outer(self.lat_wave[c], self.lon_wave[c])
        out += shift
        out *= self.sig[c]
        out += self.mu[c]
        return out

    def ref(self, clim: np.ndarray, valid_index: int, c: int) -> np.ndarray:
        """Reference field: the climatology plus weather noise."""
        out = self.noise("ref", valid_index, c) * np.float32(0.6 * self.sig[c])
        out += clim
        return out

    def fc(self, ref: np.ndarray, pair_index: int, lead: int, c: int) -> np.ndarray:
        """Forecast field: the reference plus an error that grows with lead."""
        out = self.noise("fc", pair_index, c) * np.float32((0.2 + 0.01 * lead) * self.sig[c])
        out += ref
        return out

    def truth(self, sample: int, c: int) -> np.ndarray:
        out = self.noise("truth", sample, c) * np.float32(0.5 * self.sig[c])
        out += self.clim(sample, c)
        return out

    def model(self, truth: np.ndarray, sample: int, c: int) -> np.ndarray:
        out = self.noise("model", sample, c) * np.float32(0.3 * self.sig[c])
        out += truth
        return out


def haversine_km(lat0: float, lon0: float, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Great-circle distance (km) from one point to every node of a lat x lon grid."""
    phi0 = math.radians(lat0)
    phi = np.deg2rad(lats)[:, None]
    dlam = np.deg2rad((lons[None, :] - lon0 + 180.0) % 360.0 - 180.0)
    s = np.sin((phi - phi0) / 2.0) ** 2 + math.cos(phi0) * np.cos(phi) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


class StormSeason:
    """Time-disjoint planted cyclones over a regional MSL + WS10M cube sequence."""

    def __init__(self, seed: int, grid, n_steps: int, n_storms: int, life: int, start: datetime):
        self.grid = grid
        self.life = life
        self.start = start
        rng = np.random.default_rng([seed, 7])
        self.bank = rng.standard_normal((grid[0], 2 * grid[1]), dtype=np.float32)
        self.offsets = rng.integers(0, grid[1], size=(n_steps, 2))
        gap = n_steps // n_storms
        self.storms = []
        for k in range(n_storms):
            self.storms.append({
                "id": f"S{k:02d}",
                "first": k * gap + 2,
                "lat": float(rng.uniform(10.0, 20.0)),
                "lon": float(rng.uniform(130.0, 150.0)),
                "dlat": float(rng.uniform(0.2, 0.4)),
                "dlon": float(rng.uniform(-0.6, -0.2)),
                "depth": float(rng.uniform(20.0, 40.0)),
                "r0": float(rng.uniform(100.0, 200.0)),
                "ws_peak": float(rng.uniform(30.0, 60.0)),
                "ring": float(rng.uniform(60.0, 120.0)),
            })
            if self.storms[-1]["first"] + life > n_steps:
                raise ValueError("storm season too short for its storms")

    def time(self, step: int) -> datetime:
        return self.start + timedelta(hours=6 * step)

    def centre(self, storm: dict, step: int) -> tuple[float, float] | None:
        """Planted centre of a storm at a step, or None outside its life."""
        age = step - storm["first"]
        if not 0 <= age < self.life:
            return None
        return storm["lat"] + age * storm["dlat"], storm["lon"] + age * storm["dlon"]

    def fields(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """(MSL hPa, WS10M m/s) float32 fields at a step."""
        lats, lons = grid_axes(self.grid)
        n_lon = self.grid[1]
        o_msl, o_ws = (int(v) for v in self.offsets[step])
        msl = (1004.0 + 0.2 * lats)[:, None] + 0.05 * self.bank[:, o_msl:o_msl + n_lon]
        ws = 4.0 + 0.3 * self.bank[:, o_ws:o_ws + n_lon].astype(np.float64)
        for storm in self.storms:
            c = self.centre(storm, step)
            if c is None:
                continue
            r = haversine_km(c[0], c[1], lats, lons)
            msl = msl - storm["depth"] * np.exp(-((r / storm["r0"]) ** 2))
            rr = r / storm["ring"]
            ws = ws + storm["ws_peak"] * rr * np.exp(0.5 * (1.0 - rr ** 2))
        return msl.astype(np.float32), ws.astype(np.float32)
