"""Property-based tests for the toolkit's structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoverify import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    MetricRecord,
    filter_case,
    great_circle_km,
    latitude_weights,
    open_token_recall,
    psnr,
    weighted_acc,
    weighted_rmse,
)
from geoverify.cubeio import read_cube, read_header, write_cube, write_report
from geoverify.errors import CubeFormatError
from conftest import utc

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
lat_arrays = st.lists(
    st.floats(min_value=-89.0, max_value=89.0, allow_nan=False), min_size=2, max_size=10
).map(np.array)


def field_pairs(draw):
    n_lat = draw(st.integers(2, 5))
    n_lon = draw(st.integers(1, 6))
    elems = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32)
    arr = st.lists(elems, min_size=n_lat * n_lon, max_size=n_lat * n_lon)
    a = np.array(draw(arr)).reshape(n_lat, n_lon)
    b = np.array(draw(arr)).reshape(n_lat, n_lon)
    lats = np.linspace(80.0, -80.0, n_lat)
    return a, b, latitude_weights(lats)


pair_strategy = st.composite(field_pairs)()


class TestLatitudeWeightProperties:
    @given(lat_arrays)
    def test_weights_sum_to_n_lat(self, lats):
        w = latitude_weights(lats)
        assert w.sum() == pytest.approx(lats.size, rel=1e-9)
        assert (w >= 0).all()

    @given(lat_arrays, st.floats(min_value=0.01, max_value=100.0))
    def test_scale_free_against_scaled_oracle(self, lats, scale):
        """Multiplying every cosine by a positive constant leaves weights unchanged."""
        w = latitude_weights(lats)
        scaled_cos = [scale * math.cos(math.radians(v)) for v in lats]
        total = sum(scaled_cos)
        oracle = [lats.size * c / total for c in scaled_cos]
        np.testing.assert_allclose(w, oracle, rtol=1e-12)

    @given(lat_arrays)
    def test_reversal_equivariance(self, lats):
        """Grids sharing a latitude multiset share the weight multiset."""
        np.testing.assert_allclose(
            latitude_weights(lats[::-1]), latitude_weights(lats)[::-1], rtol=1e-12
        )

    @given(
        st.integers(2, 12),
        st.floats(min_value=1.0, max_value=89.0, allow_nan=False),
        st.integers(1, 16),
    )
    def test_weight_sum_over_random_specs(self, n_lat, north, n_lon):
        spec = GridSpec(n_lat, n_lon, north, -(north + 85.0) / (n_lat - 1),
                        0.0, 360.0 / n_lon)
        w = latitude_weights(spec)
        assert w.sum() == pytest.approx(n_lat, rel=1e-9)


class TestMetricProperties:
    @given(pair_strategy)
    @settings(max_examples=60)
    def test_rmse_symmetry(self, data):
        a, b, w = data
        assert weighted_rmse(a, b, w) == weighted_rmse(b, a, w)

    @given(pair_strategy, st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=60)
    def test_rmse_linear_scaling(self, data, k):
        a, b, w = data
        assert weighted_rmse(k * a, k * b, w) == pytest.approx(
            abs(k) * weighted_rmse(a, b, w), rel=1e-9, abs=1e-12
        )

    @given(pair_strategy)
    @settings(max_examples=60)
    def test_acc_bounded(self, data):
        a, b, w = data
        m = np.zeros_like(a)
        try:
            value = weighted_acc(a, b, m, w)
        except Exception:
            return  # zero-variance draws are fine to skip
        assert -1.0 <= value <= 1.0

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=1.01, max_value=4.0))
    def test_psnr_strictly_decreasing_in_mse(self, peak, err, factor):
        ref = np.zeros((3, 3))
        low = psnr(np.full((3, 3), err), ref, peak)
        high = psnr(np.full((3, 3), err * factor), ref, peak)
        assert high < low


class TestGreatCircleMetricProperties:
    points = st.tuples(
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=360.0, allow_nan=False),
    )

    @given(points, points)
    def test_symmetry_and_nonnegativity(self, a, b):
        assert great_circle_km(a, b) == great_circle_km(b, a) >= 0.0

    @given(points)
    def test_identity(self, a):
        assert great_circle_km(a, a) == 0.0

    @given(points, points, points)
    @settings(max_examples=150)
    def test_triangle_inequality(self, a, b, c):
        assert great_circle_km(a, c) <= great_circle_km(a, b) + great_circle_km(b, c) + 1e-6


class TestCubeRoundTripProperty:
    @given(
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_random_cubes_round_trip(self, n_chan, n_lat, n_lon, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        spec = GridSpec(n_lat, n_lon, 60.0, -120.0 / (n_lat - 1) if n_lat > 1 else -1.0,
                        0.0, 360.0 / n_lon)
        catalog = VariableCatalog([VariableId("V", i) for i in range(1, n_chan + 1)])
        values = (rng.normal(scale=1e4, size=(n_chan, n_lat, n_lon))).astype(np.float32)
        cube = FieldCube(spec, catalog, utc(2024, 5, 5, 6), values)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "cube.gvc"
            write_cube(cube, path)
            back = read_cube(read_header(path))
        assert back.spec == cube.spec and back.catalog == cube.catalog
        assert back.valid_time == cube.valid_time
        np.testing.assert_array_equal(back.values, cube.values)


class TestCubeBytesProperty:
    """A truncated or single-byte-changed cube file never escapes the format errors.

    Each read either returns a cube whose roles are all known or raises
    CubeFormatError.  A changed payload or name byte can still give a valid
    cube that differs from the original: the format carries no checksum.
    """

    CATALOG = VariableCatalog(
        [VariableId("Z", 500), VariableId("T2M"), VariableId("LSM", role="input-only")]
    )

    @given(st.data())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_truncation_or_byte_change_reads_as_cube_or_format_error(
        self, tmp_path_factory, data
    ):
        path = tmp_path_factory.getbasetemp() / "mutated.gvc"
        values = np.arange(3 * 2 * 3, dtype=np.float32).reshape(3, 2, 3)
        write_cube(
            FieldCube(GridSpec(2, 3, 45.0, -90.0, 0.0, 120.0), self.CATALOG,
                      utc(2024, 5, 5, 6), values),
            path,
        )
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            del raw[pos:]
        else:
            raw[pos] ^= data.draw(st.integers(1, 255), label="xor mask")
        path.write_bytes(bytes(raw))

        roles = {"input-output", "input-only"}
        try:
            header = read_header(path)
        except CubeFormatError:
            return
        assert {v.role for v in header.catalog} <= roles
        try:
            cube = read_cube(header)
        except CubeFormatError:
            return
        assert {v.role for v in cube.catalog} <= roles


class TestReportDeterminismProperty:
    records_strategy = st.lists(
        st.builds(
            MetricRecord,
            variable=st.sampled_from([VariableId("Z", 500), VariableId("T2M")]),
            lead_hours=st.sampled_from([6, 12, 24]),
            metric=st.sampled_from(["rmse", "acc"]),
            value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            n_samples=st.integers(1, 5),
        ),
        max_size=12,
    )

    @given(records_strategy, st.randoms())
    @settings(max_examples=40)
    def test_any_permutation_same_bytes(self, records, rnd):
        import tempfile
        from pathlib import Path

        shuffled = list(records)
        rnd.shuffle(shuffled)
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a.csv", Path(d) / "b.csv"
            write_report(records, a)
            write_report(shuffled, b)
            assert a.read_bytes() == b.read_bytes()


class TestVqaProperties:
    @given(st.text(max_size=40), st.text(max_size=40))
    def test_recall_monotone_under_appending(self, prediction, suffix):
        truth = "left lower lobe"
        base = open_token_recall(prediction, truth)
        extended = open_token_recall(prediction + " " + suffix, truth)
        assert extended >= base

    @given(st.text(min_size=1, max_size=40))
    def test_recall_bounded(self, prediction):
        value = open_token_recall(prediction, "left lower lobe")
        assert 0.0 <= value <= 1.0


class TestFilterTotality:
    @given(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.booleans(),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_always_returns_a_decision(self, model, wrf, under, track_err):
        decision = filter_case(model, wrf, both_under=under, both_over=False,
                               track_err_km=track_err)
        assert decision.decision in {"Exclude", "Strengthen", "Weaken", "Keep"}
        again = filter_case(model, wrf, both_under=under, both_over=False,
                            track_err_km=track_err)
        assert again.decision == decision.decision
