"""Skill scores over gridded fields.

The two headline scores are the latitude-weighted RMSE and the anomaly
correlation coefficient (ACC).  Per evaluated (init time, lead) pair the
RMSE is

    sqrt( (1/(H*W)) * sum_ij  a_i * (forecast_ij - reference_ij)^2 )

with area weights ``a_i = n_lat * cos(lat_i) / sum cos(lat)``, and the set
score is the arithmetic mean of those per-time values over all init times
(a mean of roots, deliberately not a pooled RMSE).  ACC is the weighted
cosine similarity of forecast and reference anomalies about a climatology,
likewise averaged over init times.

All reductions accumulate in 64-bit over fixed-order arrays, so results
are reproducible bit-for-bit at any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    EmptySeries,
    MissingCube,
    NonPositivePeak,
    NonSynopticTime,
    PerfectMatch,
    ShapeMismatch,
    ZeroAnomalyVariance,
    ZeroBaseline,
)
from .grid import FieldCube, VariableId, latitude_weights, parse_variable_token, select_channel

#: UTC hours of the 6-hourly verification cadence, matrix column order.
SYNOPTIC_HOURS = (0, 6, 12, 18)


@dataclass(frozen=True)
class EvaluationSet:
    """Init times (the evaluation set D) and forecast lead times in hours."""

    init_times: tuple[datetime, ...]
    lead_hours: tuple[int, ...]

    def __post_init__(self):
        if not self.init_times or not self.lead_hours:
            raise ValueError("evaluation set must have init times and leads")
        if any(lead <= 0 for lead in self.lead_hours):
            raise ValueError("lead times must be positive")
        for label, values in (("init time", self.init_times), ("lead", self.lead_hours)):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {label} in evaluation set")
        object.__setattr__(self, "init_times", tuple(sorted(self.init_times)))
        object.__setattr__(self, "lead_hours", tuple(sorted(self.lead_hours)))


@dataclass(frozen=True)
class MetricRecord:
    """One report row: (variable, lead, metric) -> value over n_samples."""

    variable: VariableId
    lead_hours: int
    metric: str
    value: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.metric == "acc" and not -1.0 <= self.value <= 1.0:
            raise ValueError(f"acc {self.value} outside [-1, 1]")
        if self.metric in ("rmse", "mae", "mse") and self.value < 0.0:
            raise ValueError(f"{self.metric} {self.value} negative")


#: Values per block of rows in _row_sums: 2^16 float64 (512 KiB) per converted
#: block, so a block stays in cache between its conversion and its sums.
_BLOCK_VALUES = 1 << 16


def _same_shape(*fields) -> list[np.ndarray]:
    """The fields as arrays; ShapeMismatch unless each has the last one's shape."""
    arrays = [np.asarray(x) for x in fields]
    last = arrays[-1]
    for a in arrays[:-1]:
        if a.shape != last.shape:
            raise ShapeMismatch(f"field shapes {a.shape} != {last.shape}")
    return arrays


def _fields_2d(*fields) -> list[np.ndarray]:
    arrays = _same_shape(*fields)
    if arrays[0].ndim != 2:
        raise ShapeMismatch(f"expected 2-D fields, got shape {arrays[0].shape}")
    return arrays


def _diff64(forecast, reference) -> np.ndarray:
    """forecast - reference as a fresh float64 array (exact for f32 inputs)."""
    f, r = _same_shape(forecast, reference)
    d = f.astype(np.float64)
    d -= r
    return d


def _row_sums(forecast, reference, clim_field=None) -> np.ndarray:
    """Per-row float64 sums of 2-D fields of one shape, one block of rows at a time.

    Without a climatology the result is ``[sum_j d^2]`` with d = forecast -
    reference; with one it is ``[sum_j fa*ra, sum_j fa^2, sum_j ra^2]`` over
    the anomalies fa, ra about ``clim_field``.  Each block is converted to
    float64 once, and each row is summed by the same einsum as a whole field,
    so the sums have the bits of whole-field sums without full-size copies.

    The blocks are n_lat // step near-equal runs of at least ``step`` >= 2
    rows: einsum sums a lone row longer than its 8192-value buffer in chunks,
    in another order than the same row of a taller array.  One buffer per
    call holds the converted blocks: with a fresh array per block the
    allocator faults in new pages for each block, which made RMSE on a
    321 x 481 field twice as slow as one whole-field copy.
    """
    n_lat, n_lon = forecast.shape
    step = max(2, _BLOCK_VALUES // max(n_lon, 1))
    n_blocks = max(1, n_lat // step)
    out = np.empty((1 if clim_field is None else 3, n_lat))
    buf = np.empty((1 if clim_field is None else 2, -(-n_lat // n_blocks), n_lon))
    for k in range(n_blocks):
        start, stop = k * n_lat // n_blocks, (k + 1) * n_lat // n_blocks
        rows = slice(start, stop)
        fb = buf[0, : stop - start]
        fb[...] = forecast[rows]
        if clim_field is None:
            fb -= reference[rows]
            np.einsum("ij,ij->i", fb, fb, out=out[0, rows])
            continue
        rb = buf[1, : stop - start]
        rb[...] = reference[rows]
        fb -= clim_field[rows]
        rb -= clim_field[rows]
        np.einsum("ij,ij->i", fb, rb, out=out[0, rows])
        np.einsum("ij,ij->i", fb, fb, out=out[1, rows])
        np.einsum("ij,ij->i", rb, rb, out=out[2, rows])
    return out


def _check_weights(weights: np.ndarray, n_lat: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_lat,):
        raise ShapeMismatch(f"weights length {w.shape} != ({n_lat},)")
    return w


def weighted_rmse(forecast, reference, weights) -> float:
    """Latitude-weighted RMSE of one field pair (the per-time inner term)."""
    f, r = _fields_2d(forecast, reference)
    w = _check_weights(weights, f.shape[0])
    total = float(np.dot(w, _row_sums(f, r)[0]))
    return math.sqrt(total / f.size)


def weighted_acc(forecast, reference, clim_field, weights) -> float:
    """Anomaly correlation coefficient of one field pair about a climatology.

    Weighted cosine similarity of (forecast - clim) and (reference - clim);
    raises ZeroAnomalyVariance when either anomaly has zero weighted energy.
    The result is clamped into [-1, 1] against rounding spill.
    """
    f, r, c = _fields_2d(forecast, reference, clim_field)
    w = _check_weights(weights, f.shape[0])
    sums = _row_sums(f, r, c)
    num = float(np.dot(w, sums[0]))
    den_f = float(np.dot(w, sums[1]))
    den_r = float(np.dot(w, sums[2]))
    if den_f == 0.0 or den_r == 0.0:
        raise ZeroAnomalyVariance("an anomaly field has zero weighted variance")
    return min(1.0, max(-1.0, num / math.sqrt(den_f * den_r)))


def mse(forecast, reference) -> float:
    """Unweighted mean squared error, summed without BLAS (same bits at any thread count)."""
    f, r = (np.atleast_1d(a) for a in _same_shape(forecast, reference))
    as_rows = (math.prod(f.shape[:-1]), f.shape[-1])
    return float(_row_sums(f.reshape(as_rows), r.reshape(as_rows))[0].sum()) / f.size


def mae(forecast, reference) -> float:
    """Unweighted mean absolute error."""
    d = _diff64(forecast, reference)
    return float(np.abs(d).sum()) / d.size


def mbe(forecast, reference) -> float:
    """Mean bias error of paired scalar series; negative = underestimation."""
    f = np.asarray(forecast, dtype=np.float64).ravel()
    r = np.asarray(reference, dtype=np.float64).ravel()
    if f.size == 0 or r.size == 0:
        raise EmptySeries("mbe needs at least one sample")
    if f.size != r.size:
        raise ShapeMismatch(f"series lengths {f.size} != {r.size}")
    return float((f - r).sum()) / f.size


def psnr(candidate, reference, peak: float) -> float:
    """Peak signal-to-noise ratio in dB: 10*log10(peak^2 / MSE), unweighted.

    A perfect match (MSE = 0) is signalled as PerfectMatch rather than
    returned as infinity.
    """
    if not 0.0 < peak < math.inf:
        raise NonPositivePeak(f"peak {peak} must be positive and finite")
    err = mse(candidate, reference)
    if err == 0.0:
        raise PerfectMatch("candidate equals reference; PSNR infinite")
    return 10.0 * math.log10(peak * peak / err)


def dynamic_range(reference) -> float:
    """max - min of a field in float64: the default PSNR peak convention (no copy)."""
    arr = np.asarray(reference)
    return float(arr.max()) - float(arr.min())


def normalized_difference(model_metric: float, baseline_metric: float) -> float:
    """(model - baseline) / |baseline|.

    Negative favors the model for error metrics; positive favors it for
    PSNR.  Raises ZeroBaseline when the baseline is zero.
    """
    if baseline_metric == 0.0:
        raise ZeroBaseline("baseline metric is zero")
    return (model_metric - baseline_metric) / abs(baseline_metric)


def pointwise_rmse(forecasts: Sequence[np.ndarray], references: Sequence[np.ndarray]) -> np.ndarray:
    """Per-gridpoint RMSE over time: sqrt of the temporal mean squared error."""
    if len(forecasts) == 0 or len(forecasts) != len(references):
        raise ShapeMismatch("need equal, nonzero numbers of forecast/reference fields")
    acc = None
    for f, r in zip(forecasts, references):
        acc = _add(acc, _squared_diff(f, r))
    return np.sqrt(acc / len(forecasts))


def _squared_diff(forecast, reference) -> np.ndarray:
    d = _diff64(forecast, reference)
    return d * d


def _add(acc: np.ndarray | None, term: np.ndarray) -> np.ndarray:
    """Running sum that starts from the first term, as pointwise_rmse defines."""
    return term if acc is None else acc + term


# --- evaluation-set pass ---------------------------------------------------

def evaluate_set(
    forecasts: Callable[[datetime, int], FieldCube],
    references: Callable[[datetime], FieldCube],
    eval_set: EvaluationSet,
    variables: Sequence,
    *,
    rmse: bool = True,
    clim_fields: Callable[[datetime, VariableId], np.ndarray] | None = None,
    maps: bool = False,
    threads: int = 1,
) -> tuple[list[MetricRecord], dict[tuple[VariableId, int], np.ndarray]]:
    """Score every (init, lead) pair of an evaluation set in one pass.

    ``forecasts(t0, lead)`` and ``references(valid_time)`` load a pair's
    cubes; a KeyError or FileNotFoundError from either becomes MissingCube,
    and when both fail the forecast's error is the one raised.  Each
    variable gets the weighted RMSE when ``rmse``, the ACC when
    ``clim_fields(valid_time, var)`` gives the 2-D climatology, and with
    ``maps`` a pointwise-RMSE map summed exactly as ``pointwise_rmse`` does.

    Returns one MetricRecord per (variable, lead, metric), the mean of the
    per-pair values, and the float64 maps keyed by (variable, lead), both in
    (lead, variable, metric) order.  Pairs are scored one at a time in
    (valid time, init) order, so each reference is read once: the first pair
    of a valid time reads its forecast and reference side by side, later
    pairs read only their forecast, and the reference is released when its
    valid time is done.  Memory holds one forecast and one reference at any
    thread count, and when several cubes are missing the first in that order
    is reported.  Within a pair, min(threads, CPUs) workers read the cubes and
    then score the variables; one worker starts no thread.  For one lead,
    valid-time order is init order, so each (variable, lead) sum adds its
    values in init order and results are bitwise identical at any thread
    count.
    """
    var_ids = [_resolve_var(v) for v in variables]
    totals: dict[tuple[VariableId, int, str], float] = {}
    sums: dict[tuple[VariableId, int], np.ndarray] = {}

    def score_pair(run, t0, lead, ref):
        """Reads one pair with ``run`` (a map), reusing ``ref`` unless it is None, and adds
        its values; returns the reference, and the forecast dies on return."""
        loads = [partial(forecasts, t0, lead)]
        if ref is None:
            loads.append(partial(references, t0 + timedelta(hours=lead)))
        try:
            fc, *read = run(lambda load: load(), loads)
        except (KeyError, FileNotFoundError) as e:
            raise MissingCube(t0, lead, str(e)) from None
        ref = read[0] if read else ref
        weights = latitude_weights(fc.spec)

        def score(var):
            f2, r2 = select_channel(fc, var), select_channel(ref, var)
            values = {}
            if rmse:
                values["rmse"] = weighted_rmse(f2, r2, weights)
            if clim_fields is not None:
                values["acc"] = weighted_acc(f2, r2, clim_fields(fc.valid_time, var), weights)
            return values, _squared_diff(f2, r2) if maps else None

        for var, (values, sq) in zip(var_ids, run(score, var_ids)):
            for metric, value in values.items():
                key = (var, lead, metric)
                totals[key] = totals.get(key, 0.0) + value
            if sq is not None:
                sums[(var, lead)] = _add(sums.get((var, lead)), sq)
        return ref

    # A lead's keys are first added at its earliest valid time, init_times[0] + lead,
    # so the dicts keep the (lead, variable, metric) order of an (init, lead) pass.
    pairs = sorted(
        (t0 + timedelta(hours=lead), t0, lead)
        for t0 in eval_set.init_times for lead in eval_set.lead_hours
    )

    def score_all(run):
        for _, group in groupby(pairs, key=itemgetter(0)):
            ref = None  # drops the previous valid time's reference before any read
            for _, t0, lead in group:
                ref = score_pair(run, t0, lead, ref)

    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            score_all(pool.map)
    else:
        score_all(map)

    n = len(eval_set.init_times)
    records = [
        MetricRecord(var, lead, metric, total / n, n)
        for (var, lead, metric), total in totals.items()
    ]
    return records, {key: np.sqrt(acc / n) for key, acc in sums.items()}


def _resolve_var(var) -> VariableId:
    if isinstance(var, VariableId):
        return var
    name, level = parse_variable_token(var) if isinstance(var, str) else var
    return VariableId(name, level)


# --- month x hour normalized-difference matrices --------------------------------

def month_hour_matrix(
    model_samples: Iterable[tuple[datetime, float]],
    baseline_samples: Iterable[tuple[datetime, float]],
) -> np.ndarray:
    """12 x 4 normalized differences keyed by valid month and UTC hour.

    Each populated cell aggregates first (mean of per-sample metrics for
    model and baseline separately) and then takes the normalized difference
    of the two aggregates.  Cells without samples on both sides, or with a
    zero baseline aggregate, are NaN (missing, never zero).
    """
    col = {h: k for k, h in enumerate(SYNOPTIC_HOURS)}

    def bucket(samples):
        sums = np.zeros((12, 4))
        counts = np.zeros((12, 4), dtype=int)
        for t, value in samples:
            if t.hour not in col:
                raise NonSynopticTime(f"sample hour {t.hour} not a synoptic hour {SYNOPTIC_HOURS}")
            i, j = t.month - 1, col[t.hour]
            sums[i, j] += value
            counts[i, j] += 1
        return sums, counts

    m_sum, m_n = bucket(model_samples)
    b_sum, b_n = bucket(baseline_samples)
    out = np.full((12, 4), np.nan)
    for i in range(12):
        for j in range(4):
            if m_n[i, j] == 0 or b_n[i, j] == 0:
                continue
            b_mean = b_sum[i, j] / b_n[i, j]
            m_mean = m_sum[i, j] / m_n[i, j]
            if b_mean == 0.0:
                continue
            out[i, j] = (m_mean - b_mean) / abs(b_mean)
    return out
