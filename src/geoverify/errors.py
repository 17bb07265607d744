"""Exception types raised across the toolkit.

Every error that callers are expected to branch on gets its own class, whose
``exit_code`` is the CLI's exit status for it: 2 data (the default), 3 parse, 4 config.
"""


class GeoverifyError(Exception):
    """Base class for all toolkit errors; a data error unless a subclass says otherwise."""
    exit_code = 2


# --- grid geometry ---------------------------------------------------------

class ZeroWeightSum(GeoverifyError):
    """Latitude cosines sum to zero; weights are undefined."""


class UnknownVariable(GeoverifyError):
    """Requested variable is not in the catalog."""
    exit_code = 4


class ShapeMismatch(GeoverifyError):
    """Array shapes are incompatible for the requested operation."""


# --- cube / CSV file formats -----------------------------------------------

class CubeFormatError(GeoverifyError):
    """Base for cube-file format violations."""


class BadMagic(CubeFormatError):
    """File does not start with the cube magic bytes."""


class UnsupportedVersion(CubeFormatError):
    """Cube file version is not supported by this reader."""


class TruncatedPayload(CubeFormatError):
    """Payload length disagrees with the header."""


class NonFiniteValue(CubeFormatError):
    """Cube payload contains NaN or Inf."""


class CorruptHeader(CubeFormatError):
    """Header fields are internally inconsistent."""


class ParseError(GeoverifyError):
    """A CSV row could not be parsed.  Carries the 1-based row number."""
    exit_code = 3

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonMonotonicTime(GeoverifyError):
    """Track times are not strictly increasing at a fixed cadence."""
    exit_code = 3

    def __init__(self, storm_id: str, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"storm {storm_id}{detail}")
        self.storm_id = storm_id


# --- climatology ------------------------------------------------------------

class SpecMismatch(GeoverifyError):
    """Cubes in one operation do not share grid spec and catalog."""


class EmptyInput(GeoverifyError):
    """Operation received no input cubes."""


class MissingKey(GeoverifyError):
    """No climatology was built for the requested (day-of-year, hour)."""


class NonSynopticTime(GeoverifyError, ValueError):
    """A valid time is not on the 6-hourly synoptic cadence (00, 06, 12, 18 UTC)."""


# --- metrics ----------------------------------------------------------------

class MissingCube(GeoverifyError):
    """No cube available for an (init time, lead) pair of the evaluation set."""

    def __init__(self, init_time, lead_hours, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"missing cube for init={init_time} lead={lead_hours}h{detail}")
        self.init_time = init_time
        self.lead_hours = lead_hours


class ZeroAnomalyVariance(GeoverifyError):
    """Weighted sum of squared anomalies is zero; ACC undefined."""


class PerfectMatch(GeoverifyError):
    """MSE is zero; PSNR is infinite and signalled as an error."""


class NonPositivePeak(GeoverifyError):
    """PSNR peak must be positive and finite, and peak^2 / MSE a positive finite float64."""
    exit_code = 4


class ZeroBaseline(GeoverifyError):
    """Baseline metric is zero; normalized difference undefined."""


# --- regridding --------------------------------------------------------------

class OutOfExtent(GeoverifyError):
    """Target node lies outside the source grid coverage."""


# --- tropical cyclones --------------------------------------------------------

class MissingChannel(GeoverifyError):
    """Cube catalog lacks a channel the tracker needs."""


class SeedOutsideGrid(GeoverifyError):
    """Tracker seed position is not inside the grid."""


class InvalidFlags(GeoverifyError):
    """An invalid flag value or combination."""
    exit_code = 4


# --- VQA ----------------------------------------------------------------------

class EmptySet(GeoverifyError):
    """No items to score."""


class EmptyGroundTruth(GeoverifyError):
    """Ground truth tokenizes to nothing."""
