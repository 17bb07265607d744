"""Tests for skill scores, with naive-loop oracles for the weighted metrics."""

import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from geoverify import metrics
from geoverify import (
    EvaluationSet,
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    mbe,
    month_hour_matrix,
    normalized_difference,
    pointwise_rmse,
    psnr,
    weighted_acc,
    weighted_rmse,
)
from geoverify.errors import (
    EmptySeries,
    MissingCube,
    NonPositivePeak,
    NonSynopticTime,
    PerfectMatch,
    ShapeMismatch,
    ZeroAnomalyVariance,
    ZeroBaseline,
)
from conftest import hour_sequence, utc


# Oracles: plain double loops, no numpy reductions, independent of the
# implementations they check.

def oracle_weighted_rmse(forecast, reference, weights):
    n_lat, n_lon = forecast.shape
    total = 0.0
    for i in range(n_lat):
        for j in range(n_lon):
            d = float(forecast[i, j]) - float(reference[i, j])
            total += float(weights[i]) * d * d
    return math.sqrt(total / (n_lat * n_lon))


def oracle_weighted_acc(forecast, reference, clim, weights):
    num = den_f = den_r = 0.0
    n_lat, n_lon = forecast.shape
    for i in range(n_lat):
        for j in range(n_lon):
            fa = float(forecast[i, j]) - float(clim[i, j])
            ra = float(reference[i, j]) - float(clim[i, j])
            w = float(weights[i])
            num += w * fa * ra
            den_f += w * fa * fa
            den_r += w * ra * ra
    return num / math.sqrt(den_f * den_r)


def oracle_mbe(forecast, reference):
    total = 0.0
    for f, r in zip(forecast, reference):
        total += float(f) - float(r)
    return total / len(forecast)


def oracle_psnr(candidate, reference, peak):
    total = 0.0
    n = 0
    for c, r in zip(np.ravel(candidate), np.ravel(reference)):
        d = float(c) - float(r)
        total += d * d
        n += 1
    return 10.0 * math.log10(peak * peak / (total / n))


class TestWeightedRmse:
    def test_identical_fields(self):
        f = np.random.default_rng(0).normal(size=(3, 4))
        w = latitude_weights(np.array([45.0, 0.0, -45.0]))
        assert weighted_rmse(f, f, w) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(1)
        r = rng.normal(size=(5, 6))
        w = latitude_weights(np.linspace(60, -60, 5))
        assert weighted_rmse(r + 3.0, r, w) == pytest.approx(3.0, rel=1e-12)

    def test_hand_computed_two_by_two(self):
        """Symmetric +-45 grid has unit weights; value is sqrt(2.5)."""
        w = latitude_weights(np.array([45.0, -45.0]))
        f = np.array([[1.0, 1.0], [2.0, 2.0]])
        r = np.zeros((2, 2))
        assert weighted_rmse(f, r, w) == pytest.approx(math.sqrt(2.5), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        w = latitude_weights(np.linspace(50, -50, 4))
        assert weighted_rmse(a, b, w) == weighted_rmse(b, a, w)

    def test_linear_scaling(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        w = latitude_weights(np.linspace(50, -50, 4))
        assert weighted_rmse(2.5 * a, 2.5 * b, w) == pytest.approx(
            2.5 * weighted_rmse(a, b, w), rel=1e-12
        )

    def test_uniform_weights_reduce_to_plain_rmse(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        w = np.ones(4)
        plain = math.sqrt(np.mean((a - b) ** 2))
        assert weighted_rmse(a, b, w) == pytest.approx(plain, rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
            w = latitude_weights(rng.uniform(-80, 80, size=3))
            assert weighted_rmse(a, b, w) == pytest.approx(
                oracle_weighted_rmse(a, b, w), rel=1e-12
            )

    def test_shape_mismatch(self):
        w = np.ones(3)
        with pytest.raises(ShapeMismatch):
            weighted_rmse(np.zeros((3, 4)), np.zeros((3, 5)), w)
        with pytest.raises(ShapeMismatch):
            weighted_rmse(np.zeros((3, 4)), np.zeros((3, 4)), np.ones(4))

    def test_non_2d_fields(self):
        with pytest.raises(ShapeMismatch, match="2-D"):
            weighted_rmse(np.zeros(4), np.zeros(4), np.ones(4))


class TestWeightedAcc:
    def test_perfect_forecast(self):
        rng = np.random.default_rng(6)
        r = rng.normal(size=(3, 4))
        clim = rng.normal(size=(3, 4))
        w = latitude_weights(np.array([45.0, 0.0, -45.0]))
        assert weighted_acc(r, r, clim, w) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlated_anomalies(self):
        rng = np.random.default_rng(7)
        clim = rng.normal(size=(3, 4))
        anom = rng.normal(size=(3, 4))
        w = latitude_weights(np.array([45.0, 0.0, -45.0]))
        assert weighted_acc(clim + anom, clim - anom, clim, w) == pytest.approx(-1.0, abs=1e-12)

    def test_forecast_equal_to_climatology(self):
        rng = np.random.default_rng(8)
        clim = rng.normal(size=(3, 4))
        w = latitude_weights(np.array([45.0, 0.0, -45.0]))
        with pytest.raises(ZeroAnomalyVariance):
            weighted_acc(clim, clim + 1.0, clim, w)

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f, r, m = (rng.normal(size=(4, 3)) for _ in range(3))
            w = latitude_weights(rng.uniform(-80, 80, size=4))
            assert weighted_acc(f, r, m, w) == pytest.approx(
                oracle_weighted_acc(f, r, m, w), rel=1e-12
            )

    def test_bounded_on_random_fields(self):
        rng = np.random.default_rng(10)
        w = latitude_weights(np.linspace(80, -80, 5))
        for _ in range(200):
            f, r, m = (rng.normal(size=(5, 4)) for _ in range(3))
            assert -1.0 <= weighted_acc(f, r, m, w) <= 1.0

    def test_joint_shift_invariance(self):
        rng = np.random.default_rng(11)
        f, r, m = (rng.normal(size=(4, 4)) for _ in range(3))
        w = latitude_weights(np.linspace(60, -60, 4))
        base = weighted_acc(f, r, m, w)
        shifted = weighted_acc(f + 7.5, r + 7.5, m + 7.5, w)
        assert shifted == pytest.approx(base, abs=1e-10)

    def test_joint_rescale_invariance(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 4))
        fa, ra = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        w = latitude_weights(np.linspace(60, -60, 4))
        base = weighted_acc(m + fa, m + ra, m, w)
        scaled = weighted_acc(m + 3.0 * fa, m + 3.0 * ra, m, w)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_shape_mismatch(self):
        w = np.ones(3)
        with pytest.raises(ShapeMismatch):
            weighted_acc(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 5)), w)
        with pytest.raises(ShapeMismatch):
            weighted_acc(np.zeros((3, 5)), np.zeros((3, 4)), np.zeros((3, 4)), w)
        with pytest.raises(ShapeMismatch, match="2-D"):
            weighted_acc(np.zeros((1, 3, 4)), np.zeros((1, 3, 4)), np.zeros((1, 3, 4)), w)

    def test_rounding_spill_is_clamped(self):
        """Proportional anomalies have ACC 1 up to rounding, which spills above 1 in draw 6."""
        rng = np.random.default_rng(17)
        w = np.linspace(0.5, 1.5, 3)
        values = []
        for _ in range(10):
            m, a = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            values.append(weighted_acc(m + a, m + rng.uniform(0.1, 10.0) * a, m, w))
        assert max(values) == 1.0


# Today's whole-field formulas, which the row-blocked kernel replaced: a float64
# difference of the whole field, whole-array einsum row sums, then dot.

def _diff64(forecast, reference):
    d = np.asarray(forecast).astype(np.float64)
    d -= reference
    return d


def whole_field_rmse(forecast, reference, weights):
    d = _diff64(forecast, reference)
    return math.sqrt(float(np.dot(weights, np.einsum("ij,ij->i", d, d))) / d.size)


def whole_field_acc(forecast, reference, clim, weights):
    fa, ra = _diff64(forecast, clim), _diff64(reference, clim)
    num = float(np.dot(weights, np.einsum("ij,ij->i", fa, ra)))
    den_f = float(np.dot(weights, np.einsum("ij,ij->i", fa, fa)))
    den_r = float(np.dot(weights, np.einsum("ij,ij->i", ra, ra)))
    return min(1.0, max(-1.0, num / math.sqrt(den_f * den_r)))


def whole_field_mse(forecast, reference):
    d = np.atleast_1d(_diff64(forecast, reference))
    return float(np.einsum("...j,...j->...", d, d).sum()) / d.size


def _fields(shape, n, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [rng.normal(280.0, 20.0, size=shape).astype(dtype) for _ in range(n)]


class TestRowBlockedKernel:
    """weighted_rmse, weighted_acc and mse keep the bits of the whole-field formulas."""

    @pytest.mark.parametrize("shape", [
        (100, 1440),   # n_lat not a multiple of the 45 rows a 1440-wide block holds
        (1, 1440),     # a single row
        (1, 70000),    # a lone row longer than the block
        (5, 70000),    # rows longer than the block: the fewest rows a block takes
        (321, 481),    # the downscale grid
        (721, 1440),   # one 0.25 deg channel
    ], ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weighted_scores_equal_whole_field_formulas(self, shape, dtype):
        f, r, c = _fields(shape, 3, seed=shape[0] + shape[1], dtype=dtype)
        w = np.random.default_rng(18).uniform(0.0, 2.0, size=shape[0])
        assert weighted_rmse(f, r, w) == whole_field_rmse(f, r, w)
        assert weighted_acc(f, r, c, w) == whole_field_acc(f, r, c, w)

    @pytest.mark.parametrize("shape", [(1,), (1000,), (100000,), (321, 481), (3, 50, 481)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_mse_equals_whole_field_formula(self, shape):
        f, r = _fields(shape, 2, seed=len(shape))
        assert metrics.mse(f, r) == whole_field_mse(f, r)

    @pytest.mark.parametrize("score", ["rmse", "acc", "mse"])
    def test_no_full_size_float64_temporary(self, score):
        """One 721 x 1440 float64 copy is 7.9 MiB; the kernel holds a block or two."""
        f, r, c = _fields((721, 1440), 3, seed=19)
        w = latitude_weights(np.linspace(90.0, -90.0, 721))
        call = {
            "rmse": lambda: weighted_rmse(f, r, w),
            "acc": lambda: weighted_acc(f, r, c, w),
            "mse": lambda: metrics.mse(f, r),
        }[score]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestMbe:
    def test_identical_series(self):
        assert mbe([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_underestimation_is_negative(self):
        assert mbe([10.0, 10.0], [12.0, 14.0]) == -3.0

    def test_single_element(self):
        assert mbe([5.0], [3.0]) == 2.0

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            mbe([], [])

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        f, r = rng.normal(size=40), rng.normal(size=40)
        assert mbe(f, r) == pytest.approx(oracle_mbe(f, r), rel=1e-12)


class TestPsnr:
    def test_zero_db_when_mse_equals_peak_squared(self):
        c = np.full((4, 4), 10.0)
        r = np.zeros((4, 4))
        assert psnr(c, r, peak=10.0) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_match_raises(self):
        f = np.ones((3, 3))
        with pytest.raises(PerfectMatch):
            psnr(f, f, peak=1.0)

    def test_twenty_db_case(self):
        c = np.full((5, 5), 10.0)
        r = np.zeros((5, 5))
        assert psnr(c, r, peak=100.0) == pytest.approx(20.0, rel=1e-12)

    def test_nonpositive_peak(self):
        with pytest.raises(NonPositivePeak):
            psnr(np.ones((2, 2)), np.zeros((2, 2)), peak=0.0)

    @pytest.mark.parametrize("peak", [math.inf, -math.inf, math.nan])
    def test_non_finite_peak(self, peak):
        with pytest.raises(NonPositivePeak):
            psnr(np.ones((2, 2)), np.zeros((2, 2)), peak=peak)

    def test_decreases_with_mse(self):
        r = np.zeros((4, 4))
        values = [psnr(np.full((4, 4), e), r, peak=50.0) for e in (1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        c, r = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert psnr(c, r, 7.0) == pytest.approx(oracle_psnr(c, r, 7.0), rel=1e-12)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="a second BLAS thread needs a second CPU")
    def test_same_bits_at_any_blas_thread_count(self):
        """OpenBLAS splits a long dot product across its threads; mse must not.

        Unit-variance fields, so the squared differences do not all sum exactly
        and a different summation order shows in the last bits.
        """
        script = (
            "import numpy as np\n"
            "from geoverify.metrics import mse, psnr\n"
            "rng = np.random.default_rng(15)\n"
            "r = rng.normal(size=(401, 601)).astype(np.float32)\n"
            "c = rng.normal(size=r.shape).astype(np.float32)\n"
            "print(mse(c, r).hex(), psnr(c, r, 40.0).hex())\n"
        )
        src = str(Path(metrics.__file__).resolve().parents[1])
        outputs = []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestDynamicRange:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_the_float64_formula(self, dtype):
        field = np.random.default_rng(16).normal(loc=280.0, scale=30.0, size=(33, 47)).astype(dtype)
        as64 = np.asarray(field, dtype=np.float64)
        expected = float(as64.max() - as64.min())
        assert metrics.dynamic_range(field).hex() == expected.hex()


class TestNormalizedDifference:
    def test_equal_metrics(self):
        assert normalized_difference(2.0, 2.0) == 0.0

    def test_model_half_of_baseline(self):
        assert normalized_difference(1.0, 2.0) == -0.5

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            normalized_difference(1.0, 0.0)

    def test_negative_baseline_uses_absolute(self):
        assert normalized_difference(-1.0, -2.0) == 0.5


class TestRmseOverSet:
    @staticmethod
    def _sources(per_time_offsets, spec, catalog):
        """Forecast = reference + offset(t0); reference = zeros."""
        zeros = np.zeros((len(catalog), spec.n_lat, spec.n_lon), dtype=np.float32)

        def forecasts(t0, lead):
            offset = per_time_offsets[t0]
            return FieldCube(spec, catalog, t0, zeros + np.float32(offset))

        def references(valid):
            return FieldCube(spec, catalog, valid, zeros)

        return forecasts, references

    def test_single_init_time_equals_field_rmse(self):
        spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0 = utc(2024, 1, 1, 0)
        forecasts, references = self._sources({t0: 2.0}, spec, catalog)
        eval_set = EvaluationSet((t0,), (6,))
        records, _ = metrics.evaluate_set(forecasts, references, eval_set, ["T2M"])
        w = latitude_weights(spec)
        expected = weighted_rmse(
            np.full((2, 4), 2.0), np.zeros((2, 4)), w
        )
        assert records[0].value == expected
        assert records[0].n_samples == 1

    def test_mean_of_roots_not_pooled(self):
        """Per-time RMSEs 1 and 3 average to 2 (a pooled RMSE would give ~2.24)."""
        spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0s = hour_sequence(utc(2024, 1, 1, 0), 2, step_hours=24)
        forecasts, references = self._sources({t0s[0]: 1.0, t0s[1]: 3.0}, spec, catalog)
        eval_set = EvaluationSet(tuple(t0s), (6,))
        records, _ = metrics.evaluate_set(forecasts, references, eval_set, ["T2M"])
        assert records[0].value == 2.0

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(15)
        spec = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0s = hour_sequence(utc(2024, 3, 1, 0), 3, step_hours=12)
        fc_fields = {t0: rng.normal(size=(3, 4)).astype(np.float32) for t0 in t0s}
        ref_field = rng.normal(size=(3, 4)).astype(np.float32)

        def forecasts(t0, lead):
            return FieldCube(spec, catalog, t0, fc_fields[t0][None])

        def references(valid):
            return FieldCube(spec, catalog, valid, ref_field[None])

        eval_set = EvaluationSet(tuple(t0s), (6, 12))
        records, _ = metrics.evaluate_set(forecasts, references, eval_set, ["T2M"])

        w = latitude_weights(spec)
        for record in records:
            expected = 0.0
            for t0 in sorted(t0s):
                expected += oracle_weighted_rmse(fc_fields[t0], ref_field, w)
            expected /= len(t0s)
            assert record.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "init_times, leads, label",
        [((utc(2024, 1, 1), utc(2024, 1, 1)), (6,), "init time"),
         ((utc(2024, 1, 1),), (6, 6), "lead")],
    )
    def test_duplicates_rejected(self, init_times, leads, label):
        with pytest.raises(ValueError, match=f"duplicate {label}"):
            EvaluationSet(init_times, leads)

    def test_missing_cube(self):
        spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0 = utc(2024, 1, 1, 0)

        def forecasts(t0, lead):
            raise KeyError("absent")

        def references(valid):
            raise KeyError("absent")

        with pytest.raises(MissingCube):
            metrics.evaluate_set(forecasts, references, EvaluationSet((t0,), (6,)), ["T2M"])

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(64, 8, [8]), (64, 2, [2]), (2, 8, [2]), (64, None, []), (1, 8, [])],
    )
    def test_workers_bounded_by_pairs_and_cpus(self, monkeypatch, threads, cpus, workers):
        """A pool gets min(threads, cpus) workers, more than the 3 pairs; one worker starts none.

        The pool spans one pair's reads and variables, so the pair count no
        longer bounds it.
        """
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(metrics, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: cpus)
        spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0s = hour_sequence(utc(2024, 1, 1, 0), 3, step_hours=24)
        forecasts, references = self._sources(dict.fromkeys(t0s, 1.0), spec, catalog)
        records, _ = metrics.evaluate_set(
            forecasts, references, EvaluationSet(tuple(t0s), (6,)), ["T2M"], threads=threads
        )
        assert seen == workers
        assert records[0].value == 1.0


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so workers interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestOnePairAtATime:
    """evaluate_set holds one pair in memory and splits a pair's work over its workers."""

    SPEC = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
    CATALOG = VariableCatalog([VariableId("Z", 500), VariableId("T", 850), VariableId("T2M"),
                               VariableId("U10M"), VariableId("WS10M")])

    def _fields(self, seed, t0s, leads):
        """Forecast, reference and climatology values; every pair has its own valid time."""
        rng = np.random.default_rng(seed)
        shape = (len(self.CATALOG), self.SPEC.n_lat, self.SPEC.n_lon)
        fc = {(t0, lead): rng.normal(size=shape).astype(np.float32)
              for t0 in t0s for lead in leads}
        valids = [t0 + timedelta(hours=lead) for t0, lead in fc]
        assert len(set(valids)) == len(valids)
        ref = {v: rng.normal(size=shape).astype(np.float32) for v in valids}
        clim = {v: rng.normal(scale=0.1, size=shape) for v in valids}
        return fc, ref, lambda valid, var: clim[valid][self.CATALOG.index_of(var)]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.usefixtures("fast_switching")
    def test_no_cube_of_an_earlier_pair_is_alive_when_a_load_starts(self, monkeypatch, threads):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 4)
        t0s = hour_sequence(utc(2024, 3, 1), 3, step_hours=24)
        leads = (6, 12)
        fc, ref, clim_fields = self._fields(31, t0s, leads)
        order = {t0 + timedelta(hours=lead): k for k, (t0, lead) in enumerate(fc)}
        lock = threading.Lock()
        handed_out = []  # (pair index, weakref to the cube)
        stale = []       # (pair index of a load, pair index of a cube still alive then)

        def load(valid, values):
            k = order[valid]
            with lock:
                stale.extend((k, j) for j, cube in handed_out if j < k and cube() is not None)
            cube = FieldCube(self.SPEC, self.CATALOG, valid, values.copy())
            with lock:
                handed_out.append((k, weakref.ref(cube)))
            time.sleep(0.01)  # a slow read, so pairs scored side by side would overlap
            return cube

        metrics.evaluate_set(
            lambda t0, lead: load(t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid: load(valid, ref[valid]),
            EvaluationSet(tuple(t0s), leads), ["Z500", "T2M"],
            clim_fields=clim_fields, maps=True, threads=threads,
        )
        assert len(handed_out) == 2 * len(fc)
        assert stale == []

    @pytest.mark.parametrize("n_vars", [2, 5], ids=["fewer-vars-than-threads", "more-vars"])
    @pytest.mark.usefixtures("fast_switching")
    def test_reports_and_maps_bitwise_equal_at_1_2_3_threads(self, monkeypatch, n_vars):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 3)
        t0s = hour_sequence(utc(2024, 5, 1, 6), 3, step_hours=24)
        leads = (6, 12)
        fc, ref, clim_fields = self._fields(32, t0s, leads)
        variables = [var.token for var in self.CATALOG][:n_vars]
        results = []
        for threads in (1, 2, 3):
            records, maps = metrics.evaluate_set(
                lambda t0, lead: FieldCube(self.SPEC, self.CATALOG, t0 + timedelta(hours=lead),
                                           fc[(t0, lead)]),
                lambda valid: FieldCube(self.SPEC, self.CATALOG, valid, ref[valid]),
                EvaluationSet(tuple(t0s), leads), variables,
                clim_fields=clim_fields, maps=True, threads=threads,
            )
            results.append((
                [(r.variable, r.lead_hours, r.metric, r.value.hex(), r.n_samples)
                 for r in records],
                [(key, m.tobytes()) for key, m in maps.items()],
            ))
        assert len(results[0][0]) == n_vars * len(leads) * 2
        assert len(results[0][1]) == n_vars * len(leads)
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_forecast_error_wins_when_both_cubes_are_missing(self, monkeypatch):
        """At 2 threads the reference load fails first, yet the forecast's error is raised."""
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)
        reference_failed = threading.Event()
        waited = []

        def forecasts(t0, lead):
            waited.append(reference_failed.wait(timeout=5))
            raise KeyError("forecast absent")

        def references(valid):
            reference_failed.set()
            raise FileNotFoundError("reference absent")

        with pytest.raises(MissingCube, match="forecast absent"):
            metrics.evaluate_set(
                forecasts, references, EvaluationSet((utc(2024, 1, 1),), (6,)), ["T2M"],
                threads=2,
            )
        assert waited == [True]  # the two loads ran side by side


class TestOneReadPerValidTime:
    """evaluate_set reads each reference once when pairs share valid times."""

    SPEC = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
    CATALOG = VariableCatalog([VariableId("Z", 500), VariableId("T2M"), VariableId("WS10M")])
    T0S = tuple(hour_sequence(utc(2024, 3, 1), 3, step_hours=6))
    LEADS = (6, 12, 18)  # 9 pairs over 5 valid times

    def _fields(self, seed):
        rng = np.random.default_rng(seed)
        shape = (len(self.CATALOG), self.SPEC.n_lat, self.SPEC.n_lon)
        fc = {(t0, lead): rng.normal(size=shape).astype(np.float32)
              for t0 in self.T0S for lead in self.LEADS}
        valids = sorted({t0 + timedelta(hours=lead) for t0, lead in fc})
        assert len(valids) == 5
        ref = {v: rng.normal(size=shape).astype(np.float32) for v in valids}
        clim = {v: rng.normal(scale=0.1, size=shape) for v in valids}
        return fc, ref, lambda valid, var: clim[valid][self.CATALOG.index_of(var)]

    def _loaders(self, fc, ref):
        return (
            lambda t0, lead: FieldCube(self.SPEC, self.CATALOG, t0 + timedelta(hours=lead),
                                       fc[(t0, lead)]),
            lambda valid: FieldCube(self.SPEC, self.CATALOG, valid, ref[valid]),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_reference_loaded_once_and_each_forecast_once(self, monkeypatch, threads):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)
        fc, ref, clim_fields = self._fields(41)
        load_fc, load_ref = self._loaders(fc, ref)
        fc_calls, ref_calls = [], []
        lock = threading.Lock()

        def forecasts(t0, lead):
            with lock:
                fc_calls.append((t0, lead))
            return load_fc(t0, lead)

        def references(valid):
            with lock:
                ref_calls.append(valid)
            return load_ref(valid)

        metrics.evaluate_set(forecasts, references, EvaluationSet(self.T0S, self.LEADS),
                             ["Z500", "T2M"], clim_fields=clim_fields, maps=True, threads=threads)
        assert sorted(fc_calls) == sorted(fc)
        assert sorted(ref_calls) == sorted(ref)

    def test_records_and_maps_bitwise_equal_a_per_pair_loop_at_1_2_3_threads(self, monkeypatch):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 3)
        fc, ref, clim_fields = self._fields(42)
        variables = [var.token for var in self.CATALOG]

        # Oracle: every pair in (init, lead) order, each reference read for each pair.
        totals, sums = {}, {}
        for t0 in self.T0S:
            for lead in self.LEADS:
                valid = t0 + timedelta(hours=lead)
                w = latitude_weights(self.SPEC)
                for var in self.CATALOG:
                    k = self.CATALOG.index_of(var)
                    f2, r2 = fc[(t0, lead)][k], ref[valid][k]
                    for metric, value in (
                        ("rmse", weighted_rmse(f2, r2, w)),
                        ("acc", weighted_acc(f2, r2, clim_fields(valid, var), w)),
                    ):
                        totals[(var, lead, metric)] = totals.get((var, lead, metric), 0.0) + value
                    d = f2.astype(np.float64) - r2
                    prev = sums.get((var, lead))
                    sums[(var, lead)] = d * d if prev is None else prev + d * d
        n = len(self.T0S)
        expected = (
            [(var, lead, metric, (total / n).hex(), n)
             for (var, lead, metric), total in totals.items()],
            [(key, np.sqrt(acc / n).tobytes()) for key, acc in sums.items()],
        )

        for threads in (1, 2, 3):
            records, maps = metrics.evaluate_set(
                *self._loaders(fc, ref), EvaluationSet(self.T0S, self.LEADS), variables,
                clim_fields=clim_fields, maps=True, threads=threads,
            )
            got = (
                [(r.variable, r.lead_hours, r.metric, r.value.hex(), r.n_samples)
                 for r in records],
                [(key, m.tobytes()) for key, m in maps.items()],
            )
            assert got == expected, f"threads={threads}"

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.usefixtures("fast_switching")
    def test_no_cube_of_an_earlier_valid_time_is_alive_when_a_load_starts(
            self, monkeypatch, threads):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 4)
        fc, ref, clim_fields = self._fields(43)
        lock = threading.Lock()
        handed_out = []  # (valid time, weakref to the cube)
        stale = []       # (valid time of a load, valid time of a cube still alive then)

        def load(valid, values):
            with lock:
                stale.extend((valid, v) for v, cube in handed_out
                             if v < valid and cube() is not None)
            cube = FieldCube(self.SPEC, self.CATALOG, valid, values.copy())
            with lock:
                handed_out.append((valid, weakref.ref(cube)))
            time.sleep(0.01)  # a slow read, so loads of different valid times would overlap
            return cube

        metrics.evaluate_set(
            lambda t0, lead: load(t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid: load(valid, ref[valid]),
            EvaluationSet(self.T0S, self.LEADS), ["Z500", "T2M"],
            clim_fields=clim_fields, maps=True, threads=threads,
        )
        assert len(handed_out) == len(fc) + len(ref)
        assert stale == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_missing_shared_reference_names_its_earliest_init_pair(self, monkeypatch, threads):
        monkeypatch.setattr(metrics.os, "cpu_count", lambda: 2)
        fc, ref, _ = self._fields(44)
        shared = self.T0S[0] + timedelta(hours=18)  # also init 1 + 12 h and init 2 + 6 h
        del ref[shared]
        load_fc, _ = self._loaders(fc, ref)

        def references(valid):
            if valid not in ref:
                raise FileNotFoundError(f"no reference at {valid}")
            return FieldCube(self.SPEC, self.CATALOG, valid, ref[valid])

        with pytest.raises(MissingCube, match=re.escape(f"no reference at {shared}")) as info:
            metrics.evaluate_set(load_fc, references, EvaluationSet(self.T0S, self.LEADS),
                                 ["T2M"], threads=threads)
        assert (info.value.init_time, info.value.lead_hours) == (self.T0S[0], 18)


class TestAccOverSet:
    def test_matches_naive_per_pair_loop(self):
        rng = np.random.default_rng(21)
        spec = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("Z", 500), VariableId("T2M")])
        t0s = hour_sequence(utc(2024, 3, 1, 0), 3, step_hours=12)
        leads = (6, 12)
        fc_values = {
            (t0, lead): rng.normal(size=(2, 3, 4)).astype(np.float32)
            for t0 in t0s for lead in leads
        }
        valids = {t0 + timedelta(hours=lead) for t0 in t0s for lead in leads}
        ref_values = {v: rng.normal(size=(2, 3, 4)).astype(np.float32) for v in valids}
        clim_values = {v: rng.normal(scale=0.1, size=(3, 4)) for v in valids}

        def forecasts(t0, lead):
            return FieldCube(spec, catalog, t0 + timedelta(hours=lead), fc_values[(t0, lead)])

        def references(valid):
            return FieldCube(spec, catalog, valid, ref_values[valid])

        # Unsorted init times: the set sorts them, the loop below does too.
        eval_set = EvaluationSet(tuple(reversed(t0s)), leads)
        records, _ = metrics.evaluate_set(
            forecasts, references, eval_set, ["T2M"], rmse=False,
            clim_fields=lambda valid, _var: clim_values[valid],
        )

        w = latitude_weights(spec)
        assert [r.lead_hours for r in records] == list(leads)
        for record in records:
            total = 0.0
            for t0 in sorted(t0s):
                valid = t0 + timedelta(hours=record.lead_hours)
                pair = (fc_values[(t0, record.lead_hours)][1], ref_values[valid][1],
                        clim_values[valid], w)
                value = weighted_acc(*pair)
                assert value == pytest.approx(oracle_weighted_acc(*pair), rel=1e-12)
                total += value
            assert record.variable == VariableId("T2M")
            assert record.metric == "acc"
            assert record.n_samples == len(t0s)
            assert record.value == total / len(t0s)


class TestPointwiseRmse:
    def test_per_cell_over_time(self):
        f1, f2 = np.array([[1.0, 0.0]] * 2), np.array([[3.0, 0.0]] * 2)
        r = np.zeros((2, 2))
        out = pointwise_rmse([f1, f2], [r, r])
        np.testing.assert_allclose(out[:, 0], math.sqrt(5.0))
        np.testing.assert_allclose(out[:, 1], 0.0)


class TestMonthHourMatrix:
    def test_single_sample_leaves_47_missing(self):
        t = utc(2024, 2, 2, 18)
        matrix = month_hour_matrix([(t, 1.0)], [(t, 2.0)])
        assert np.isnan(matrix).sum() == 47
        assert matrix[1, 3] == -0.5

    def test_identical_sides_give_zero_cells(self):
        times = [utc(2024, m, 1, h) for m in (1, 7) for h in (0, 12)]
        samples = [(t, 1.5) for t in times]
        matrix = month_hour_matrix(samples, samples)
        populated = ~np.isnan(matrix)
        assert populated.sum() == 4
        assert (matrix[populated] == 0.0).all()

    def test_aggregate_then_normalize(self):
        """Two samples in one cell: means first, one normalized difference after."""
        t1, t2 = utc(2024, 5, 1, 6), utc(2024, 5, 2, 6)
        model = [(t1, 1.0), (t2, 2.0)]       # mean 1.5
        baseline = [(t1, 2.0), (t2, 4.0)]    # mean 3.0
        matrix = month_hour_matrix(model, baseline)
        assert matrix[4, 1] == pytest.approx((1.5 - 3.0) / 3.0, rel=1e-15)

    def test_off_synoptic_hour_rejected(self):
        t = utc(2024, 1, 1, 5)
        with pytest.raises(ValueError, match="synoptic"):
            month_hour_matrix([(t, 1.0)], [(t, 1.0)])

    def test_off_synoptic_hour_is_a_data_error(self):
        t = utc(2024, 1, 1, 3)
        with pytest.raises(NonSynopticTime) as err:
            month_hour_matrix([(t, 1.0)], [(t, 1.0)])
        assert err.value.exit_code == 2
