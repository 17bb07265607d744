"""Tests for skill scores, with naive-loop oracles for the weighted metrics."""

import concurrent.futures
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoverify import metrics
from geoverify import (
    EvaluationSet,
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    month_hour_matrix,
    normalized_difference,
    pointwise_rmse,
    psnr,
    weighted_acc,
    weighted_rmse,
)
from geoverify.errors import (
    MissingCube,
    NonFiniteValue,
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
        for f, r in ((clim, clim + 1.0), (clim + 1.0, clim)):
            with pytest.raises(ZeroAnomalyVariance):
                weighted_acc(f, r, clim, w, _with_rmse=True)

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
        """The MSE downscale-eval reports; psnr cuts fields of any shape into the same rows."""
        f, r = _fields(shape, 2, seed=len(shape))
        as_rows = (math.prod(shape[:-1]), shape[-1])
        err = metrics.weighted_rmse_and_mse(f.reshape(as_rows), r.reshape(as_rows),
                                            np.ones(as_rows[0]))[1]
        assert err == whole_field_mse(f, r)
        assert psnr(f, r, 40.0).hex() == metrics.psnr_from_mse(err, 40.0).hex()

    @pytest.mark.parametrize("shape", [(1, 1440), (100, 1440), (5, 70000), (321, 481), (721, 1440)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_rmse_and_mse_of_one_pass_equal_their_own_functions(self, shape):
        f, r = _fields(shape, 2, seed=shape[0] * 7 + shape[1])
        w = np.random.default_rng(20).uniform(0.0, 2.0, size=shape[0])
        rmse, err = metrics.weighted_rmse_and_mse(f, r, w)
        assert rmse.hex() == weighted_rmse(f, r, w).hex()
        assert err.hex() == whole_field_mse(f, r).hex()

    @settings(max_examples=40, deadline=None)
    @given(n_lon=st.sampled_from([1, 9, 481, 1440, 8193, 70000]), blocks=st.integers(0, 4),
           fill=st.floats(0.0, 1.0), dtype=st.sampled_from([np.float32, np.float64]),
           poles=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n_lon=70000, blocks=0, fill=0.0, dtype=np.float32, poles=False, seed=0)
    @example(n_lon=8193, blocks=0, fill=0.0, dtype=np.float64, poles=False, seed=1)
    @example(n_lon=1440, blocks=4, fill=0.5, dtype=np.float32, poles=True, seed=2)
    def test_fused_rmse_and_acc_have_the_bits_of_separate_calls(
            self, n_lon, blocks, fill, dtype, poles, seed):
        """The kernel cuts n_lat // step blocks; ``blocks`` 0 gives one block of fewer rows
        than a step, and n_lon over 8192 with one row a lone row longer than einsum's buffer.

        Values span six decades, so float64 differences round and the order of the
        subtractions shows in the bits.
        """
        step = max(2, metrics._BLOCK_VALUES // n_lon)
        n_lat = max(1, blocks * step + int(fill * (step - 1)))
        rng = np.random.default_rng(seed)
        f, r, c = ((rng.normal(size=(n_lat, n_lon)) * 10.0 ** rng.integers(-3, 4, (n_lat, n_lon)))
                   .astype(dtype) for _ in range(3))
        if poles and n_lat >= 3:
            w = latitude_weights(np.linspace(90.0, -90.0, n_lat))
            assert w[0] == w[-1] == 0.0
        else:
            w = rng.uniform(0.1, 2.0, size=n_lat)
        acc, rmse = weighted_acc(f, r, c, w, _with_rmse=True)
        assert (acc.hex(), rmse.hex()) == (weighted_acc(f, r, c, w).hex(),
                                           weighted_rmse(f, r, w).hex())

    @pytest.mark.parametrize("score", ["rmse", "acc", "rmse+acc", "mse"])
    def test_no_full_size_float64_temporary(self, score):
        """One 721 x 1440 float64 copy is 7.9 MiB; the kernel holds up to three blocks."""
        f, r, c = _fields((721, 1440), 3, seed=19)
        w = latitude_weights(np.linspace(90.0, -90.0, 721))
        call = {
            "rmse": lambda: weighted_rmse(f, r, w),
            "acc": lambda: weighted_acc(f, r, c, w),
            "rmse+acc": lambda: weighted_acc(f, r, c, w, _with_rmse=True),
            "mse": lambda: metrics.weighted_rmse_and_mse(f, r, w)[1],
        }[score]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _non_finite_cases():
    """(score, field) pairs: every field each score sums, the climatology only for ACC."""
    for score in ("weighted_rmse", "weighted_rmse_and_mse", "psnr_from_mse", "psnr", "weighted_acc",
                  "weighted_acc_with_rmse"):
        with_clim = score.startswith("weighted_acc")
        sides = ("forecast", "reference") + (("climatology",) if with_clim else ())
        for side in sides:
            yield pytest.param(score, side, id=f"{score}-{side}")


class TestNonFiniteInput:
    """NaN or Inf in any field raises NonFiniteValue, before any weight, test or clamp."""

    WEIGHTS = latitude_weights(np.linspace(90.0, -90.0, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("row", [2, 0], ids=["interior", "pole"])
    @pytest.mark.parametrize("score, side", _non_finite_cases())
    def test_raises_without_a_warning(self, score, side, row, bad):
        assert self.WEIGHTS[0] == 0.0  # the pole row weighs nothing
        f, r, c = _fields((5, 8), 3, seed=22)
        {"forecast": f, "reference": r, "climatology": c}[side][row, 3] = bad
        call = {
            "weighted_rmse": lambda: weighted_rmse(f, r, self.WEIGHTS),
            "weighted_rmse_and_mse": lambda: metrics.weighted_rmse_and_mse(f, r, self.WEIGHTS),
            "psnr_from_mse": lambda: metrics.psnr_from_mse(
                metrics.weighted_rmse_and_mse(f, r, self.WEIGHTS)[1], 1.0),
            "psnr": lambda: psnr(f, r, 1.0),
            "weighted_acc": lambda: weighted_acc(f, r, c, self.WEIGHTS),
            "weighted_acc_with_rmse": lambda: weighted_acc(f, r, c, self.WEIGHTS,
                                                           _with_rmse=True),
        }[score]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match="finite"):
                call()

    def test_the_same_infinity_in_forecast_and_reference_raises(self):
        """inf - inf is NaN: the difference of equal infinities is no zero error."""
        f, r = _fields((5, 8), 2, seed=23)
        f[1, 1] = r[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                weighted_rmse(f, r, self.WEIGHTS)


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

    @pytest.mark.parametrize("peak", [0.5, 7.0, 1e3])
    def test_from_mse_equals_psnr(self, peak):
        rng = np.random.default_rng(21)
        c, r = (rng.normal(280.0, 5.0, size=(31, 47)).astype(np.float32) for _ in range(2))
        err = metrics.weighted_rmse_and_mse(c, r, np.ones(c.shape[0]))[1]
        assert metrics.psnr_from_mse(err, peak).hex() == psnr(c, r, peak).hex()

    def test_from_mse_of_zero_is_a_perfect_match(self):
        with pytest.raises(PerfectMatch):
            metrics.psnr_from_mse(0.0, 1.0)

    @pytest.mark.parametrize("peak", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_from_mse_refuses_a_peak_that_is_not_positive_and_finite(self, peak):
        with pytest.raises(NonPositivePeak):
            metrics.psnr_from_mse(1.0, peak)

    @pytest.mark.parametrize("err, peak", [(1.0, 1e-200), (1.0, 1e200), (1e300, 1e-100),
                                           (1e-300, 1e10)])
    def test_from_mse_refuses_a_ratio_that_leaves_float64(self, err, peak):
        """peak * peak / err underflows to 0 or overflows to inf: NonPositivePeak, no
        ValueError from log10(0) and no infinite PSNR."""
        with pytest.raises(NonPositivePeak, match="not a positive finite float64"):
            metrics.psnr_from_mse(err, peak)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="a second BLAS thread needs a second CPU")
    def test_same_bits_at_any_blas_thread_count(self):
        """OpenBLAS splits a long dot product across its threads; the MSE must not.

        Unit-variance fields, so the squared differences do not all sum exactly
        and a different summation order shows in the last bits.
        """
        script = (
            "import numpy as np\n"
            "from geoverify.metrics import psnr, weighted_rmse_and_mse\n"
            "rng = np.random.default_rng(15)\n"
            "r = rng.normal(size=(401, 601)).astype(np.float32)\n"
            "c = rng.normal(size=r.shape).astype(np.float32)\n"
            "err = weighted_rmse_and_mse(c, r, np.ones(r.shape[0]))[1]\n"
            "print(err.hex(), psnr(c, r, 40.0).hex())\n"
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

        def forecasts(t0, lead, _k):
            offset = per_time_offsets[t0]
            return FieldCube(spec, catalog, t0, zeros + np.float32(offset))

        def references(valid, _k):
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

        def forecasts(t0, lead, _k):
            return FieldCube(spec, catalog, t0, fc_fields[t0][None])

        def references(valid, _k):
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

        def forecasts(t0, lead, _k):
            raise KeyError("absent")

        def references(valid, _k):
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

        # evaluate_set imports the pool class from concurrent.futures when it starts one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        # Where the OS gives no affinity mask, the CPU count bounds the pool.
        monkeypatch.delattr(metrics.os, "sched_getaffinity", raising=False)
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
def test_one_cpu_affinity_gives_one_worker_and_starts_no_thread(monkeypatch):
    """The host's CPU count does not matter: only the CPUs this process may run on do."""
    monkeypatch.setattr(metrics.os, "cpu_count", lambda: 8)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
    catalog = VariableCatalog([VariableId("T2M"), VariableId("Z", 500)])
    loaders = []

    def cube(valid):
        loaders.append(threading.get_ident())
        return FieldCube(spec, catalog, valid, np.ones((2, 2, 4), dtype=np.float32))

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert metrics._usable_cpus() == 1
        records, _ = metrics.evaluate_set(
            lambda t0, lead, _k: cube(t0 + timedelta(hours=lead)), lambda valid, _k: cube(valid),
            EvaluationSet((utc(2024, 1, 1), utc(2024, 1, 2)), (6,)), ["T2M", "Z500"],
            groups=[["T2M"], ["Z500"]], threads=4,
        )
    finally:
        os.sched_setaffinity(0, cpus)
    assert started == []
    assert set(loaders) == {threading.get_ident()}
    assert [r.value for r in records] == [0.0, 0.0]


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
        clim = {v: rng.normal(scale=0.1, size=shape).astype(np.float32) for v in valids}
        return fc, ref, lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, clim[valid])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.usefixtures("fast_switching")
    def test_no_cube_of_an_earlier_pair_is_alive_when_a_load_starts(self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 4)
        t0s = hour_sequence(utc(2024, 3, 1), 3, step_hours=24)
        leads = (6, 12)
        fc, ref, climatologies = self._fields(31, t0s, leads)
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
            lambda t0, lead, _k: load(t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid, _k: load(valid, ref[valid]),
            EvaluationSet(tuple(t0s), leads), ["Z500", "T2M"],
            climatologies=climatologies, maps=True, threads=threads,
        )
        assert len(handed_out) == 2 * len(fc)
        assert stale == []

    @pytest.mark.parametrize("n_vars", [2, 5], ids=["fewer-vars-than-threads", "more-vars"])
    @pytest.mark.usefixtures("fast_switching")
    def test_reports_and_maps_bitwise_equal_at_1_2_3_threads(self, monkeypatch, n_vars):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
        t0s = hour_sequence(utc(2024, 5, 1, 6), 3, step_hours=24)
        leads = (6, 12)
        fc, ref, climatologies = self._fields(32, t0s, leads)
        variables = [var.token for var in self.CATALOG][:n_vars]
        results = []
        for threads in (1, 2, 3):
            records, maps = metrics.evaluate_set(
                lambda t0, lead, _k: FieldCube(
                    self.SPEC, self.CATALOG, t0 + timedelta(hours=lead), fc[(t0, lead)]),
                lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, ref[valid]),
                EvaluationSet(tuple(t0s), leads), variables,
                climatologies=climatologies, maps=True, threads=threads,
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
        """At 2 threads the reference load fails first, yet the forecast's error is raised.

        The forecast is group 0's and the reference group 1's, which a second
        worker reads side by side; at 1 thread both cubes of group 0 are
        missing and the forecast, read first, is the one reported.
        """
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        reference_failed = threading.Event()
        waited = []

        def forecasts(t0, lead, k):
            if k:
                return FieldCube(self.SPEC, self.CATALOG, t0 + timedelta(hours=lead),
                                 np.zeros((len(self.CATALOG), 3, 4), dtype=np.float32))
            waited.append(reference_failed.wait(timeout=5 if threads > 1 else 0))
            raise KeyError("forecast absent")

        def references(valid, k):
            reference_failed.set()
            raise FileNotFoundError("reference absent")

        for threads in (1, 2):
            with pytest.raises(MissingCube, match="forecast absent"):
                metrics.evaluate_set(
                    forecasts, references, EvaluationSet((utc(2024, 1, 1),), (6,)),
                    ["T2M", "Z500"], groups=[["T2M"], ["Z500"]],
                    threads=threads,
                )
            if threads == 1:
                assert waited == [False]  # the forecast is read before any reference
                waited.clear()
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
        clim = {v: rng.normal(scale=0.1, size=shape).astype(np.float32) for v in valids}
        return fc, ref, lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, clim[valid])

    def _loaders(self, fc, ref):
        return (
            lambda t0, lead, _k: FieldCube(
                self.SPEC, self.CATALOG, t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, ref[valid]),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_reference_loaded_once_and_each_forecast_once(self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fc, ref, climatologies = self._fields(41)
        load_fc, load_ref = self._loaders(fc, ref)
        fc_calls, ref_calls = [], []
        lock = threading.Lock()

        def forecasts(t0, lead, _k):
            with lock:
                fc_calls.append((t0, lead))
            return load_fc(t0, lead, _k)

        def references(valid, _k):
            with lock:
                ref_calls.append(valid)
            return load_ref(valid, _k)

        metrics.evaluate_set(forecasts, references, EvaluationSet(self.T0S, self.LEADS),
                             ["Z500", "T2M"], climatologies=climatologies, maps=True,
                             threads=threads)
        assert sorted(fc_calls) == sorted(fc)
        assert sorted(ref_calls) == sorted(ref)

    def test_records_and_maps_bitwise_equal_a_per_pair_loop_at_1_2_3_threads(self, monkeypatch):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
        fc, ref, climatologies = self._fields(42)
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
                        ("acc", weighted_acc(f2, r2, climatologies(valid, 0).values[k], w)),
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
                climatologies=climatologies, maps=True, threads=threads,
            )
            got = (
                [(r.variable, r.lead_hours, r.metric, r.value.hex(), r.n_samples)
                 for r in records],
                [(key, m.tobytes()) for key, m in maps.items()],
            )
            assert got == expected, f"threads={threads}"

    def test_rmse_only_acc_only_and_both_give_the_same_record_values(self):
        """Both scores of a pair come from one pass; each keeps its single-metric bits."""
        fc, ref, climatologies = self._fields(43)
        eval_set = EvaluationSet(self.T0S, self.LEADS)
        variables = [var.token for var in self.CATALOG]

        def values(**kwargs):
            records, _ = metrics.evaluate_set(*self._loaders(fc, ref), eval_set, variables,
                                              **kwargs)
            return {(r.variable, r.lead_hours, r.metric): r.value.hex() for r in records}

        rmse_only = values()
        acc_only = values(rmse=False, climatologies=climatologies)
        both = values(climatologies=climatologies)
        assert {m for *_, m in rmse_only} == {"rmse"} and {m for *_, m in acc_only} == {"acc"}
        assert both == {**rmse_only, **acc_only}

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.usefixtures("fast_switching")
    def test_no_cube_of_an_earlier_valid_time_is_alive_when_a_load_starts(
            self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 4)
        fc, ref, climatologies = self._fields(43)
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
            lambda t0, lead, _k: load(t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid, _k: load(valid, ref[valid]),
            EvaluationSet(self.T0S, self.LEADS), ["Z500", "T2M"],
            climatologies=climatologies, maps=True, threads=threads,
        )
        assert len(handed_out) == len(fc) + len(ref)
        assert stale == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_missing_shared_reference_names_its_earliest_init_pair(self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fc, ref, _ = self._fields(44)
        shared = self.T0S[0] + timedelta(hours=18)  # also init 1 + 12 h and init 2 + 6 h
        del ref[shared]
        load_fc, _ = self._loaders(fc, ref)

        def references(valid, _k):
            if valid not in ref:
                raise FileNotFoundError(f"no reference at {valid}")
            return FieldCube(self.SPEC, self.CATALOG, valid, ref[valid])

        with pytest.raises(MissingCube, match=re.escape(f"no reference at {shared}")) as info:
            metrics.evaluate_set(load_fc, references, EvaluationSet(self.T0S, self.LEADS),
                                 ["T2M"], threads=threads)
        assert (info.value.init_time, info.value.lead_hours) == (self.T0S[0], 18)


class TestChannelRanges:
    """evaluate_set reads a valid time group by group, at most three cubes per worker."""

    SPEC = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
    CATALOG = VariableCatalog([VariableId("V", k) for k in range(1, 7)])
    GROUPS = [["V1", "V2"], ["V3"], ["V4", "V5", "V6"]]
    T0S = tuple(hour_sequence(utc(2024, 3, 1), 3, step_hours=6))
    LEADS = (6, 12, 18)  # 9 pairs over 5 valid times

    def _values(self, seed):
        rng = np.random.default_rng(seed)
        shape = (len(self.CATALOG), self.SPEC.n_lat, self.SPEC.n_lon)
        fc = {(t0, lead): rng.normal(size=shape).astype(np.float32)
              for t0 in self.T0S for lead in self.LEADS}
        valids = sorted({t0 + timedelta(hours=lead) for t0, lead in fc})
        ref = {v: rng.normal(size=shape).astype(np.float32) for v in valids}
        clim = {v: rng.normal(scale=0.1, size=shape).astype(np.float32) for v in valids}
        return fc, ref, clim

    def _cube(self, valid, full, k, grouped=True):
        """A cube of group k's channels, or of every channel."""
        names = [self.CATALOG.get(v) for v in self.GROUPS[k]] if grouped else self.CATALOG
        rows = [self.CATALOG.index_of(v) for v in names]
        return FieldCube(self.SPEC, VariableCatalog(names), valid, full[rows])

    def _run(self, values, threads, groups=None, load=None):
        fc, ref, clim = values
        load = load or (lambda valid, full, k: self._cube(valid, full, k, groups is not None))
        return metrics.evaluate_set(
            lambda t0, lead, k: load(t0 + timedelta(hours=lead), fc[(t0, lead)], k),
            lambda valid, k: load(valid, ref[valid], k),
            EvaluationSet(self.T0S, self.LEADS), [v.token for v in self.CATALOG],
            climatologies=lambda valid, k: load(valid, clim[valid], k),
            groups=groups, maps=True, threads=threads,
        )

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.usefixtures("fast_switching")
    def test_no_more_than_three_cubes_per_worker_are_alive_when_a_load_starts(
            self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
        lock = threading.Lock()
        handed_out, alive_at_load = [], []

        def load(valid, full, k):
            with lock:
                alive_at_load.append(sum(ref() is not None for ref in handed_out))
            cube = self._cube(valid, full, k)
            with lock:
                handed_out.append(weakref.ref(cube))
            time.sleep(0.002)  # a slow read, so the workers' reads overlap
            return cube

        self._run(self._values(51), threads, self.GROUPS, load)
        # Per valid time and group: one reference, one climatology, each pair's forecast.
        assert len(handed_out) == len(self.GROUPS) * (5 * 2 + 9)
        # The loading worker holds at most two cubes, every other worker three.
        assert max(alive_at_load) <= 3 * threads - 1

    @pytest.mark.usefixtures("fast_switching")
    def test_records_and_maps_bitwise_equal_one_group_at_1_2_3_threads(self, monkeypatch):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
        values = self._values(52)

        def flat(result):
            records, maps = result
            return ([(r.variable, r.lead_hours, r.metric, r.value.hex(), r.n_samples)
                     for r in records], [(key, m.tobytes()) for key, m in maps.items()])

        expected = flat(self._run(values, 1))
        assert len(expected[0]) == len(self.CATALOG) * len(self.LEADS) * 2
        for threads in (1, 2, 3):
            got = flat(self._run(values, threads, self.GROUPS))
            assert got == expected, f"threads={threads}"

    @pytest.mark.parametrize("groups", [
        [["V1", "V2"], ["V3", "V2"], ["V4", "V5", "V6"]],
        [["V1", "V2"], ["V3"], ["V4", "V6"]],
    ], ids=["V2 twice", "V5 left out"])
    def test_groups_must_name_each_variable_once_and_fail_before_any_load(self, groups):
        loads = []
        with pytest.raises(ValueError, match="each variable once"):
            self._run(self._values(53), 1, groups, lambda *args: loads.append(args))
        assert loads == []


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
        clim_values = {v: rng.normal(scale=0.1, size=(3, 4)).astype(np.float32) for v in valids}

        def forecasts(t0, lead, _k):
            return FieldCube(spec, catalog, t0 + timedelta(hours=lead), fc_values[(t0, lead)])

        def references(valid, _k):
            return FieldCube(spec, catalog, valid, ref_values[valid])

        # Unsorted init times: the set sorts them, the loop below does too.
        eval_set = EvaluationSet(tuple(reversed(t0s)), leads)
        records, _ = metrics.evaluate_set(
            forecasts, references, eval_set, ["T2M"], rmse=False,
            climatologies=lambda valid, _k: FieldCube(spec, catalog, valid,
                                                      np.stack([clim_values[valid]] * 2)),
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


class TestMapsInTheKernelPass:
    """evaluate_set's maps are summed in the kernels' row-sum pass, whatever it scores."""

    SPEC = GridSpec(6, 8, 60.0, -24.0, 0.0, 45.0)
    CATALOG = VariableCatalog([VariableId("Z", 500), VariableId("T2M")])
    T0S = tuple(hour_sequence(utc(2024, 3, 1), 3, step_hours=12))
    LEADS = (6, 12)

    def _loaders(self, seed):
        rng = np.random.default_rng(seed)
        shape = (len(self.CATALOG), self.SPEC.n_lat, self.SPEC.n_lon)
        fc = {(t0, lead): rng.normal(size=shape).astype(np.float32)
              for t0 in self.T0S for lead in self.LEADS}
        valids = {t0 + timedelta(hours=lead) for t0, lead in fc}
        ref = {v: rng.normal(size=shape).astype(np.float32) for v in valids}
        clim = {v: rng.normal(scale=0.1, size=shape).astype(np.float32) for v in valids}
        return fc, ref, (
            lambda t0, lead, _k: FieldCube(
                self.SPEC, self.CATALOG, t0 + timedelta(hours=lead), fc[(t0, lead)]),
            lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, ref[valid]),
            lambda valid, _k: FieldCube(self.SPEC, self.CATALOG, valid, clim[valid]),
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rmse,acc", [(True, False), (False, True), (True, True)],
                             ids=["rmse", "acc", "rmse+acc"])
    def test_maps_equal_pointwise_rmse_bitwise(self, monkeypatch, threads, rmse, acc):
        """A run that scores ACC alone still gets the maps, and records keep their bits."""
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fc, ref, (forecasts, references, climatologies) = self._loaders(51)
        variables = [var.token for var in self.CATALOG]

        def run(maps):
            return metrics.evaluate_set(
                forecasts, references, EvaluationSet(self.T0S, self.LEADS), variables,
                rmse=rmse, climatologies=climatologies if acc else None,
                groups=[[v] for v in variables], maps=maps, threads=threads)

        records, maps = run(maps=True)
        assert records == run(maps=False)[0]
        assert list(maps) == [(var, lead) for lead in self.LEADS for var in self.CATALOG]
        for (var, lead), got in maps.items():
            k = self.CATALOG.index_of(var)
            expected = pointwise_rmse(
                [fc[(t0, lead)][k] for t0 in self.T0S],
                [ref[t0 + timedelta(hours=lead)][k] for t0 in self.T0S])
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()
            assert expected.sum() > 0.0

    @pytest.mark.parametrize("maps", [False, True])
    def test_nothing_to_score_raises_before_any_load(self, maps):
        """rmse=False without climatologies scores nothing: maps alone are no score."""
        loads = []
        with pytest.raises(ValueError, match="nothing to score"):
            metrics.evaluate_set(lambda *args: loads.append(args), lambda *args: loads.append(args),
                                 EvaluationSet(self.T0S, self.LEADS), ["T2M"], rmse=False,
                                 maps=maps)
        assert loads == []

    def test_maps_hold_one_float64_field_each_and_no_full_size_temporary(self):
        """3 pairs of one 1024 x 1024 variable: the map's sum plus one row block.

        Summing each pair's d^2 outside the kernel held d, d*d and the new sum
        beside the old one (3 fields at the peak), and the finish a second map.
        """
        spec = GridSpec(1024, 1024, 89.0, -0.17, 0.0, 0.35)
        catalog = VariableCatalog([VariableId("T2M")])
        t0s = tuple(hour_sequence(utc(2024, 3, 1), 3, step_hours=24))
        rng = np.random.default_rng(52)

        def cube(valid):
            values = rng.normal(size=(1, 1024, 1024)).astype(np.float32)
            return FieldCube(spec, catalog, valid, values)

        valids = [t0 + timedelta(hours=6) for t0 in t0s]
        fc = {t0: cube(valid) for t0, valid in zip(t0s, valids)}
        ref = {valid: cube(valid) for valid in valids}
        field = 1024 * 1024 * 8
        tracemalloc.start()
        try:
            _, maps = metrics.evaluate_set(
                lambda t0, _lead, _k: fc[t0], lambda valid, _k: ref[valid],
                EvaluationSet(t0s, (6,)), ["T2M"], maps=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert maps[(VariableId("T2M"), 6)].nbytes == field
        assert peak < 1.5 * field


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

    def test_zero_baseline_cell_stays_nan(self):
        """A cell whose baseline mean is 0 is missing; the other cells are kept."""
        t_zero, t_kept = utc(2024, 3, 1, 0), utc(2024, 3, 1, 12)
        matrix = month_hour_matrix([(t_zero, 1.0), (t_kept, 1.0)],
                                   [(t_zero, 0.0), (t_kept, 2.0)])
        assert np.isnan(matrix[2, 0])
        assert matrix[2, 2] == -0.5
        assert np.isnan(matrix).sum() == 47

    def test_off_synoptic_hour_rejected(self):
        t = utc(2024, 1, 1, 5)
        with pytest.raises(ValueError, match="synoptic"):
            month_hour_matrix([(t, 1.0)], [(t, 1.0)])

    # A synoptic hour past the hour, such as 06:30, was counted in its hour's column.
    @pytest.mark.parametrize("t", [utc(2024, 1, 1, 3), utc(2024, 1, 1, 6).replace(minute=30),
                                   utc(2024, 1, 1, 6).replace(second=1),
                                   utc(2024, 1, 1, 6).replace(microsecond=1)],
                             ids=["03:00", "06:30", "06:00:01", "06:00:00.000001"])
    def test_off_synoptic_hour_is_a_data_error(self, t):
        with pytest.raises(NonSynopticTime) as err:
            month_hour_matrix([(t, 1.0)], [(t, 1.0)])
        assert err.value.exit_code == 2
