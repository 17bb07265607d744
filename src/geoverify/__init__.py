"""Forecast verification and tropical-cyclone diagnostics toolkit."""

import importlib
import os
import sys

# geoverify's parallelism is its own --threads, and its only BLAS calls are dots
# over latitude rows, too short for OpenBLAS to split.  Left to itself, OpenBLAS
# starts a worker per core when numpy loads, and each idle worker busy-waits
# about 0.1 s of CPU before it sleeps.  So numpy is loaded with one BLAS thread,
# unless the user chose a count or numpy is already loaded, and the environment
# is put back: child processes and library users see it unchanged.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .grid import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    parse_variable_token,
    select_channel,
)
from .tc import (
    FilterDecision,
    TcPoint,
    TcTrack,
    concurrent_match,
    filter_case,
    great_circle_km,
    track_cyclone,
)

#: Names of the submodules that load on first use, each with the public names
#: it gives the package: a process that runs none of them does not import them.
_LAZY_MODULES = {
    "climatology": ("Climatology", "build_climatology", "climatology_key"),
    "cubeio": (),
    "metrics": ("EvaluationSet", "MetricRecord", "month_hour_matrix",
                "normalized_difference", "pointwise_rmse", "psnr", "weighted_acc",
                "weighted_rmse"),
    "regrid": ("bilinear_upsample",),
    "vqa": ("VqaItem", "closed_accuracy", "open_token_recall"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    module = _LAZY_NAMES.get(name, name)
    if module not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")  # also sets the submodule attribute
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY_NAMES})


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
    "month_hour_matrix",
    "normalized_difference",
    "open_token_recall",
    "parse_variable_token",
    "pointwise_rmse",
    "psnr",
    "select_channel",
    "track_cyclone",
    "weighted_acc",
    "weighted_rmse",
]
