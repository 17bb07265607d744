"""Forecast verification and tropical-cyclone diagnostics toolkit."""

from .climatology import Climatology, build_climatology, climatology_key
from .grid import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    parse_variable_token,
    select_channel,
    weather_catalog,
)
from .metrics import (
    EvaluationSet,
    MetricRecord,
    mbe,
    month_hour_matrix,
    mse,
    normalized_difference,
    pointwise_rmse,
    psnr,
    weighted_acc,
    weighted_rmse,
)
from .regrid import bilinear_upsample
from .tc import (
    FilterDecision,
    TcPoint,
    TcTrack,
    concurrent_match,
    filter_case,
    great_circle_km,
    synthetic_vortex_series,
    track_cyclone,
)
from .vqa import VqaItem, closed_accuracy, open_token_recall

__version__ = "0.1.0"

__all__ = [
    "Climatology",
    "EvaluationSet",
    "FieldCube",
    "FilterDecision",
    "GridSpec",
    "MetricRecord",
    "TcPoint",
    "TcTrack",
    "VariableCatalog",
    "VariableId",
    "VqaItem",
    "bilinear_upsample",
    "build_climatology",
    "climatology_key",
    "closed_accuracy",
    "concurrent_match",
    "filter_case",
    "great_circle_km",
    "latitude_weights",
    "mbe",
    "month_hour_matrix",
    "mse",
    "normalized_difference",
    "open_token_recall",
    "parse_variable_token",
    "pointwise_rmse",
    "psnr",
    "select_channel",
    "synthetic_vortex_series",
    "track_cyclone",
    "weather_catalog",
    "weighted_acc",
    "weighted_rmse",
]
