"""Grid geometry, variable catalog, field cubes and latitude weighting.

Fields live on regular latitude/longitude grids.  The storage convention is
latitudes north-to-south (negative ``lat_step``) and longitudes west-to-east
from 0 degrees, but any strictly monotonic latitude axis is accepted and the
orientation is recorded explicitly in every cube file.
"""

from __future__ import annotations

import math
import re
from dataclasses import InitVar, dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UnknownVariable, ZeroWeightSum

ROLE_INPUT_OUTPUT = "input-output"
ROLE_INPUT_ONLY = "input-only"

_ALIGN_TOL_DEG = 1e-6

#: Values per block of a finiteness scan: 1 MiB of float32, so a block's max
#: is taken while its min left it in cache.
FINITE_SCAN_VALUES = 1 << 18


def _as_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a regular lat/lon grid.

    ``lat_step`` is negative for north-to-south storage.  Longitudes are
    taken modulo 360; latitudes must stay within [-90, +90] and be strictly
    monotonic in the row index.
    """

    n_lat: int
    n_lon: int
    lat_start: float
    lat_step: float
    lon_start: float
    lon_step: float

    def __post_init__(self):
        if self.n_lat < 2:
            raise ValueError(f"n_lat must be >= 2, got {self.n_lat}")
        if self.n_lon < 1:
            raise ValueError(f"n_lon must be >= 1, got {self.n_lon}")
        for name in ("lat_start", "lat_step", "lon_start", "lon_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lat_step == 0.0:
            raise ValueError("lat_step must be nonzero (latitudes strictly monotonic)")
        if not self.lon_step > 0.0:
            raise ValueError("lon_step must be positive (west-to-east storage)")
        lat_end = self.lat_start + (self.n_lat - 1) * self.lat_step
        if not (-90.0 - 1e-9 <= self.lat_start <= 90.0 + 1e-9):
            raise ValueError(f"lat_start {self.lat_start} outside [-90, 90]")
        if not (-90.0 - 1e-9 <= lat_end <= 90.0 + 1e-9):
            raise ValueError(f"last latitude {lat_end} outside [-90, 90]")

    @property
    def latitudes(self) -> np.ndarray:
        """Latitudes per row, degrees, in storage order."""
        return self.lat_start + np.arange(self.n_lat, dtype=np.float64) * self.lat_step

    @property
    def longitudes(self) -> np.ndarray:
        """Longitudes per column, degrees in [0, 360), storage order."""
        lons = (self.lon_start + np.arange(self.n_lon, dtype=np.float64) * self.lon_step) % 360.0
        # A longitude a rounding error west of 0 degrees wraps to 360.0: it is 0.
        lons[lons == 360.0] = 0.0
        return lons

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(latitudes, longitudes), computed once per instance and read-only."""
        lats, lons = self.latitudes, self.longitudes
        lats.flags.writeable = lons.flags.writeable = False
        return lats, lons

    @property
    def north_to_south(self) -> bool:
        return self.lat_step < 0.0

    @property
    def is_global_lon(self) -> bool:
        """True when the columns wrap the full circle of longitude."""
        return abs(self.n_lon * self.lon_step - 360.0) <= _ALIGN_TOL_DEG

    def lat_bounds(self) -> tuple[float, float]:
        """(south, north) extent in degrees."""
        lat_end = self.lat_start + (self.n_lat - 1) * self.lat_step
        return min(self.lat_start, lat_end), max(self.lat_start, lat_end)

    def contains(self, lat: float, lon: float) -> bool:
        """Whether a point lies inside the grid's closed lat/lon extent."""
        south, north = self.lat_bounds()
        if not (south - _ALIGN_TOL_DEG <= lat <= north + _ALIGN_TOL_DEG):
            return False
        if self.is_global_lon:
            return True
        offset = (lon - self.lon_start) % 360.0
        # An offset a rounding error short of 360 degrees lies just west of the first column.
        return (offset <= (self.n_lon - 1) * self.lon_step + _ALIGN_TOL_DEG
                or offset >= 360.0 - _ALIGN_TOL_DEG)


@dataclass(frozen=True)
class VariableId:
    """A named channel: abbreviation plus pressure level (None = surface)."""

    name: str
    level: int | None = None
    role: str = ROLE_INPUT_OUTPUT

    def __post_init__(self):
        if self.role not in (ROLE_INPUT_OUTPUT, ROLE_INPUT_ONLY):
            raise ValueError(f"unknown role {self.role!r} for {self.token}")

    @property
    def key(self) -> tuple[str, int | None]:
        return (self.name, self.level)

    @property
    def token(self) -> str:
        """Compact label, e.g. ``Z500`` or ``T2M``."""
        return self.name if self.level is None else f"{self.name}{self.level}"


def parse_variable_token(token: str) -> tuple[str, int | None]:
    """Split a label like ``Z500`` into (name, level); surface names pass through."""
    m = re.fullmatch(r"([A-Za-z]+)(\d+)", token.strip())
    if m:
        return m.group(1).upper(), int(m.group(2))
    return token.strip().upper(), None


class VariableCatalog:
    """Ordered list of channels; (name, level) pairs must be unique."""

    def __init__(self, entries: Iterable[VariableId]):
        self._entries = tuple(entries)
        self._hash = hash(self._entries)  # verify keys a dict by catalog at every header
        self._index: dict[tuple[str, int | None], int] = {}
        for i, v in enumerate(self._entries):
            if v.key in self._index:
                raise ValueError(f"duplicate catalog entry {v.token}")
            self._index[v.key] = i

    @property
    def entries(self) -> tuple[VariableId, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[VariableId]:
        return iter(self._entries)

    def __contains__(self, var) -> bool:
        return self._key_of(var) in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableCatalog) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def _key_of(var) -> tuple[str, int | None]:
        if isinstance(var, VariableId):
            return var.key
        if isinstance(var, str):
            return parse_variable_token(var)
        name, level = var
        return (name, level)

    def index_of(self, var) -> int:
        """Channel index of a variable; raises UnknownVariable if absent."""
        key = self._key_of(var)
        try:
            return self._index[key]
        except KeyError:
            label = key[0] if key[1] is None else f"{key[0]}{key[1]}"
            raise UnknownVariable(f"variable {label} not in catalog") from None

    def get(self, var) -> VariableId:
        return self._entries[self.index_of(var)]


@dataclass(frozen=True)
class FieldCube:
    """One time step of C channels on an H x W grid.

    Values are 32-bit floats, shape (C, H, W), finite, and a read-only view
    (of the caller's array when it is already C-ordered float32, which stays
    writeable); cubes are safe to share across threads.
    """

    spec: GridSpec
    catalog: VariableCatalog
    valid_time: datetime
    values: np.ndarray = field(repr=False)
    #: Private: False leaves out the NaN/Inf scan, for a caller that feeds every
    #: value to a metric kernel, whose row sums raise NonFiniteValue (verify's
    #: reads), or that makes values finite by construction (bilinear_upsample's
    #: blends of finite values).
    _scan: InitVar[bool] = field(default=True, kw_only=True)

    def __post_init__(self, _scan):
        arr = np.ascontiguousarray(self.values, dtype=np.float32).view()
        expected = (len(self.catalog), self.spec.n_lat, self.spec.n_lon)
        if arr.shape != expected:
            raise ValueError(f"values shape {arr.shape} != (C,H,W) {expected}")
        if _scan and not all_finite(arr):
            raise ValueError("cube values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "valid_time", _as_utc(self.valid_time))

    @property
    def n_channels(self) -> int:
        return len(self.catalog)


def all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite, scanned in blocks of FINITE_SCAN_VALUES.

    A block's min and max are both finite exactly when all its values are
    (NaN propagates through both), so the scan allocates no array of flags.
    """
    flat = values.reshape(-1)
    for start in range(0, flat.size, FINITE_SCAN_VALUES):
        block = flat[start:start + FINITE_SCAN_VALUES]
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            return False
    return True


def latitude_weights(spec_or_lats: GridSpec | Sequence[float] | np.ndarray) -> np.ndarray:
    """Area weights per latitude row: ``n_lat * cos(lat_i) / sum(cos(lat_k))``.

    Accepts a GridSpec or a raw latitude array (degrees).  The weights sum
    to ``n_lat``; exact poles contribute zero.  Raises ZeroWeightSum when
    the cosine sum is not positive (a grid of poles only).
    """
    if isinstance(spec_or_lats, GridSpec):
        lats = spec_or_lats.latitudes
    else:
        lats = np.asarray(spec_or_lats, dtype=np.float64)
    cosines = np.cos(np.deg2rad(lats))
    # cos(+-90 deg) is ~6e-17 in floats; pin exact poles to zero.
    cosines = np.where(np.abs(lats) == 90.0, 0.0, cosines)
    total = cosines.sum()
    if total <= 0.0:
        raise ZeroWeightSum("sum of latitude cosines is not positive")
    return lats.size * cosines / total


def select_channel(cube: FieldCube, var) -> np.ndarray:
    """Read-only H x W slab for one variable; raises UnknownVariable."""
    return cube.values[cube.catalog.index_of(var)]
