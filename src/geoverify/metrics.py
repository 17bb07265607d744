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
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    MissingCube,
    NonFiniteValue,
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
        t0, lead = self.init_times[-1], self.lead_hours[-1]
        try:
            t0 + timedelta(hours=lead)
        except OverflowError:
            raise ValueError(f"valid time {t0} + {lead}h is past the calendar") from None

    def by_valid_time(self) -> dict[datetime, list[tuple[datetime, int]]]:
        """{valid time: its (init, lead) pairs in init order}, in valid-time order."""
        pairs: dict = {}
        for valid, t0, lead in sorted((t0 + timedelta(hours=lead), t0, lead)
                                      for t0 in self.init_times for lead in self.lead_hours):
            pairs.setdefault(valid, []).append((t0, lead))
        return pairs


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
        if self.metric in ("rmse", "mse") and self.value < 0.0:
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


def _row_sums(forecast, reference, clim_field=None, *, diff=True, sq_sum=None) -> np.ndarray:
    """Per-row float64 sums of 2-D fields of one shape, one block of rows at a time.

    Without a climatology the result is ``[sum_j d^2]`` with d = forecast -
    reference.  With one it is ``[sum_j d^2, sum_j fa*ra, sum_j fa^2,
    sum_j ra^2]`` over d and the anomalies fa, ra about ``clim_field``, so
    one pass serves both RMSE and ACC; ``diff=False`` leaves out the first
    row, for ACC alone.  Each block of each field is then converted to
    float64 once, into three block rows of one buffer: the third holds d
    until it is summed, then the climatology.  Without a climatology the
    reference is subtracted as it is, which is faster for RMSE alone.  Each
    row is summed by the same einsum as a whole field, so the sums have the
    bits of whole-field sums without full-size copies.

    ``sq_sum``, a float64 array of the fields' shape, gets each d^2 added in
    place from the block buffer that held d (formed for it alone with
    ``diff=False``): a pointwise-RMSE map's sum, with no full-size temporary.

    Every input value enters a sum, so a NaN or Inf input makes a sum NaN
    or Inf (for float32 input nothing else does: its squares cannot overflow
    float64); NonFiniteValue is raised then, with no floating-point warning.
    This is the NaN/Inf check of the values that verify reads without a scan.

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
    out = np.empty((int(diff) + (0 if clim_field is None else 3), n_lat))
    buf = np.empty((1 if clim_field is None else 3, -(-n_lat // n_blocks), n_lon))
    # inf - inf and 0 * inf would warn, as would float64 input past the float64 range.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_blocks):
            start, stop = k * n_lat // n_blocks, (k + 1) * n_lat // n_blocks
            rows = slice(start, stop)
            fb = buf[0, : stop - start]
            fb[...] = forecast[rows]
            if clim_field is None:
                fb -= reference[rows]
                np.einsum("ij,ij->i", fb, fb, out=out[0, rows])
                if sq_sum is not None:
                    sq_sum[rows] += np.square(fb, out=fb)
                continue
            rb, cb = buf[1, : stop - start], buf[2, : stop - start]
            rb[...] = reference[rows]
            if diff or sq_sum is not None:
                np.subtract(fb, rb, out=cb)
            if diff:
                np.einsum("ij,ij->i", cb, cb, out=out[0, rows])
            if sq_sum is not None:
                sq_sum[rows] += np.square(cb, out=cb)
            cb[...] = clim_field[rows]
            fb -= cb
            rb -= cb
            np.einsum("ij,ij->i", fb, rb, out=out[-3, rows])
            np.einsum("ij,ij->i", fb, fb, out=out[-2, rows])
            np.einsum("ij,ij->i", rb, rb, out=out[-1, rows])
    if not np.isfinite(out).all():
        raise NonFiniteValue("field values must be finite: a row sum is NaN or Inf")
    return out


def _check_weights(weights: np.ndarray, n_lat: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_lat,):
        raise ShapeMismatch(f"weights length {w.shape} != ({n_lat},)")
    return w


def weighted_rmse(forecast, reference, weights, *, _sq_sum=None) -> float:
    """Latitude-weighted RMSE of one field pair (the per-time inner term).

    NaN or Inf in either field raises NonFiniteValue.  ``_sq_sum``: see ``weighted_acc``.
    """
    f, r = _fields_2d(forecast, reference)
    w = _check_weights(weights, f.shape[0])
    return _rmse_of_rows(w, _row_sums(f, r, sq_sum=_sq_sum)[0], f.size)


def weighted_rmse_and_mse(forecast, reference, weights) -> tuple[float, float]:
    """(weighted_rmse, unweighted MSE) of one 2-D field pair from one pass of row sums.

    The RMSE has ``weighted_rmse``'s bits, the MSE the bits ``psnr`` takes
    its MSE with.  NaN or Inf in either field raises NonFiniteValue.
    """
    f, r = _fields_2d(forecast, reference)
    w = _check_weights(weights, f.shape[0])
    rows = _row_sums(f, r)[0]
    return _rmse_of_rows(w, rows, f.size), _mean_of_rows(rows, f.size)


def _rmse_of_rows(weights: np.ndarray, row_sums: np.ndarray, size: int) -> float:
    """The weighted RMSE from per-row sums of squared differences."""
    return math.sqrt(float(np.dot(weights, row_sums)) / size)


def _mean_of_rows(row_sums: np.ndarray, size: int) -> float:
    """The mean squared error from per-row sums of squared differences."""
    return float(row_sums.sum()) / size


def weighted_acc(forecast, reference, clim_field, weights, *, _with_rmse=False, _sq_sum=None):
    """Anomaly correlation coefficient of one field pair about a climatology.

    Weighted cosine similarity of (forecast - clim) and (reference - clim);
    raises ZeroAnomalyVariance when either anomaly has zero weighted energy.
    The result is clamped into [-1, 1] against rounding spill.  NaN or Inf in
    any field raises NonFiniteValue, before the variance test and the clamp.

    ``_with_rmse=True`` is private to ``evaluate_set``, which scores a pair
    for both metrics: the result is then ``(acc, weighted_rmse)``, both from
    the one pass of row sums and each with the bits of its own function's
    result.  ``_sq_sum``, also private, is a map's sum the pass adds d^2 to.
    """
    f, r, c = _fields_2d(forecast, reference, clim_field)
    w = _check_weights(weights, f.shape[0])
    sums = _row_sums(f, r, c, diff=_with_rmse, sq_sum=_sq_sum)
    num = float(np.dot(w, sums[-3]))
    den_f = float(np.dot(w, sums[-2]))
    den_r = float(np.dot(w, sums[-1]))
    if den_f == 0.0 or den_r == 0.0:
        raise ZeroAnomalyVariance("an anomaly field has zero weighted variance")
    acc = min(1.0, max(-1.0, num / math.sqrt(den_f * den_r)))
    if _with_rmse:
        return acc, _rmse_of_rows(w, sums[0], f.size)
    return acc


def psnr(candidate, reference, peak: float) -> float:
    """Peak signal-to-noise ratio in dB: 10*log10(peak^2 / MSE), unweighted.

    Fields of any shape; the MSE is summed without BLAS (same bits at any
    thread count).  A perfect match (MSE = 0) is signalled as PerfectMatch
    rather than returned as infinity; NaN or Inf in either field raises
    NonFiniteValue.
    """
    c, r = (np.atleast_1d(a) for a in _same_shape(candidate, reference))
    as_rows = (math.prod(c.shape[:-1]), c.shape[-1])
    err = _mean_of_rows(_row_sums(c.reshape(as_rows), r.reshape(as_rows))[0], c.size)
    return psnr_from_mse(err, peak)


def psnr_from_mse(err: float, peak: float) -> float:
    """PSNR in dB of a pair whose unweighted MSE is ``err``, as ``psnr`` defines it.

    NonPositivePeak unless the peak is positive and finite, and unless
    ``peak * peak / err`` is a positive finite float64 (a peak of 1e-200
    squares to 0, one of 1e200 to inf); PerfectMatch when ``err`` is zero.
    """
    if not 0.0 < peak < math.inf:
        raise NonPositivePeak(f"peak {peak} must be positive and finite")
    if err == 0.0:
        raise PerfectMatch("candidate equals reference; PSNR infinite")
    ratio = peak * peak / err
    if not 0.0 < ratio < math.inf:
        raise NonPositivePeak(f"peak {peak} squared over MSE {err} is {ratio}, "
                              f"not a positive finite float64")
    return 10.0 * math.log10(ratio)


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
    acc = 0.0
    for f, r in zip(forecasts, references):
        f, r = _same_shape(f, r)
        d = f.astype(np.float64) - r  # exact for float32 inputs
        acc += d * d
    return np.sqrt(acc / len(forecasts))


# --- evaluation-set pass ---------------------------------------------------

def evaluate_set(
    forecasts: Callable[[datetime, int, int], FieldCube],
    references: Callable[[datetime, int], FieldCube],
    eval_set: EvaluationSet,
    variables: Sequence,
    *,
    rmse: bool = True,
    climatologies: Callable[[datetime, int], FieldCube] | None = None,
    groups: Sequence[Sequence] | None = None,
    maps: bool = False,
    threads: int = 1,
) -> tuple[list[MetricRecord], dict[tuple[VariableId, int], np.ndarray]]:
    """Score every (init, lead) pair of an evaluation set in one pass.

    Pairs are scored one valid time at a time, in valid-time order
    (``eval_set.by_valid_time()``), so the last valid time any loader was
    called for is the one being scored when an error is raised.  ``groups``
    cuts the variables into groups, each variable named in exactly one, or
    ValueError is raised before any load; without it there is one group of
    all variables.  The groups are the same at every valid time.  With
    neither ``rmse`` nor ``climatologies`` there is nothing to score, and
    ValueError is raised before any load too.  For group k,
    ``forecasts(t0, lead, k)`` and ``references(valid_time, k)`` load cubes
    holding at least the group's variables; a KeyError or FileNotFoundError
    from either becomes MissingCube for the pair, and the reference is
    charged to the first pair.  Each variable gets the weighted RMSE when
    ``rmse``, the ACC about ``climatologies(valid_time, k)`` when that is
    given (both from one ``weighted_acc`` call when both are wanted), and with
    ``maps`` a pointwise-RMSE map with ``pointwise_rmse``'s bits, whose one
    float64 sum is held for the whole run: the kernel's pass adds each pair's
    d^2 to it, and it is finished in place.

    Returns one MetricRecord per (variable, lead, metric), the mean of the
    per-pair values, and the float64 maps keyed by (variable, lead), both in
    (lead, variable, metric) order.  Within a valid time, min(threads, the
    CPUs this process may run on) workers take the groups; one worker
    starts no thread.  A worker reads the first pair's forecast, the
    reference and the climatology of its group, then each later pair's
    forecast after releasing the one before and every channel view of it,
    so memory holds at most three cubes per worker.  A loader may read each
    cube into a new array, or view the file through a read-only mapping
    that is unmapped with the cube.  When several loads fail, the first in
    that order, group by group, is raised.  A valid time gives each
    (variable, lead) one value, from one worker, and valid-time order is
    init order for one lead, so each sum adds its values in init order and
    results are bitwise identical at any thread count.
    """
    var_ids = list(dict.fromkeys(_resolve_var(v) for v in variables))
    groups = [var_ids] if groups is None else [[_resolve_var(v) for v in g] for g in groups]
    named = [var for g in groups for var in g]
    if len(named) != len(var_ids) or set(named) != set(var_ids):
        raise ValueError("groups must name each variable once")
    if not rmse and climatologies is None:
        raise ValueError("nothing to score: rmse=False and no climatologies")
    names = (["rmse"] if rmse else []) + (["acc"] if climatologies is not None else [])
    leads = eval_set.lead_hours
    totals = {(var, lead, m): 0.0 for lead in leads for var in var_ids for m in names}
    sums = {(var, lead): None for lead in leads for var in var_ids} if maps else {}

    def load(loader, pair, *args):
        try:
            return loader(*args)
        except (KeyError, FileNotFoundError) as e:
            raise MissingCube(*pair, str(e)) from None

    def score_pair(fc, ref, clim, lead, group, weights):
        """Adds one pair's values; the channel views die on return, before the next load."""
        # No lock: in one valid time each key is added to by one group's worker only.
        for var in group:
            f2, r2 = select_channel(fc, var), select_channel(ref, var)
            c2 = None if clim is None else select_channel(clim, var)
            if maps and sums[(var, lead)] is None:
                sums[(var, lead)] = np.zeros(f2.shape)
            sq_sum = sums.get((var, lead))  # the kernel adds the pair's d^2 to its map
            if c2 is not None:  # with rmse, both scores from one pass of row sums
                scores = weighted_acc(f2, r2, c2, weights, _with_rmse=rmse, _sq_sum=sq_sum)
                acc, value = scores if rmse else (scores, None)
                totals[(var, lead, "acc")] += acc
            else:
                value = weighted_rmse(f2, r2, weights, _sq_sum=sq_sum)
            if rmse:
                totals[(var, lead, "rmse")] += value

    def score_range(valid, pairs, k):
        """Reads and scores group ``k`` of every pair of ``valid``; each cube dies when done."""
        fc = load(forecasts, pairs[0], *pairs[0], k)
        ref = load(references, pairs[0], valid, k)
        clim = None if climatologies is None else climatologies(valid, k)
        weights = latitude_weights(fc.spec)
        for i, pair in enumerate(pairs):
            if i:
                fc = load(forecasts, pair, *pair, k)
            score_pair(fc, ref, clim, pair[1], groups[k], weights)
            del fc

    def score_all(run):
        for valid, pairs in eval_set.by_valid_time().items():
            # Reading every result raises the first failed group's error.
            for _ in run(partial(score_range, valid, pairs), range(len(groups))):
                pass

    workers = min(threads, _usable_cpus())
    if workers > 1:
        # Imported here: concurrent.futures loads logging, which a serial run never needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            score_all(pool.map)
    else:
        score_all(map)

    n = len(eval_set.init_times)
    records = [
        MetricRecord(var, lead, metric, total / n, n)
        for (var, lead, metric), total in totals.items()
    ]
    for acc in sums.values():  # in place: the run holds one array per map
        np.sqrt(np.divide(acc, n, out=acc), out=acc)
    return records, sums


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_var(var) -> VariableId:
    if isinstance(var, VariableId):
        return var
    name, level = parse_variable_token(var) if isinstance(var, str) else var
    return VariableId(name, level)


# --- month x hour normalized-difference matrices --------------------------------

def synoptic_utc(valid_time: datetime) -> datetime:
    """``valid_time`` in UTC (a naive one is taken as UTC); NonSynopticTime unless it
    is one of SYNOPTIC_HOURS with no minutes, seconds or microseconds."""
    t = valid_time.astimezone(timezone.utc) if valid_time.tzinfo else valid_time
    if t.hour not in SYNOPTIC_HOURS or t.minute or t.second or t.microsecond:
        raise NonSynopticTime(f"{valid_time} is not a 6-hourly synoptic time")
    return t


def month_hour_matrix(
    model_samples: Iterable[tuple[datetime, float]],
    baseline_samples: Iterable[tuple[datetime, float]],
) -> np.ndarray:
    """12 x 4 normalized differences keyed by valid month and UTC hour.

    Each sample's time must pass ``synoptic_utc``.  Each populated cell
    aggregates first (mean of per-sample metrics for model and baseline
    separately) and then takes the normalized difference of the two
    aggregates.  Cells without samples on both sides, or with a zero
    baseline aggregate, are NaN (missing, never zero).
    """
    col = {h: k for k, h in enumerate(SYNOPTIC_HOURS)}

    def bucket(samples):
        sums = np.zeros((12, 4))
        counts = np.zeros((12, 4), dtype=int)
        for t, value in samples:
            t = synoptic_utc(t)
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
            try:
                out[i, j] = normalized_difference(m_sum[i, j] / m_n[i, j],
                                                  b_sum[i, j] / b_n[i, j])
            except ZeroBaseline:
                pass  # the cell stays NaN
    return out
