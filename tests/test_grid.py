"""Tests for grid geometry, catalogs, cubes and latitude weighting."""

import warnings

import numpy as np
import pytest

from geoverify import (
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    parse_variable_token,
    select_channel,
)
from geoverify.errors import UnknownVariable, ZeroWeightSum
from conftest import utc
from synthetic import weather_catalog


class TestGridSpec:
    def test_latitudes_north_to_south(self):
        spec = GridSpec(5, 8, 90.0, -45.0, 0.0, 45.0)
        np.testing.assert_allclose(spec.latitudes, [90, 45, 0, -45, -90])

    def test_longitudes_modulo_360(self):
        spec = GridSpec(2, 4, 10.0, -20.0, 270.0, 45.0)
        np.testing.assert_allclose(spec.longitudes, [270, 315, 0, 45])

    def test_a_longitude_that_rounds_to_360_is_0(self):
        """(-1e-17) % 360.0 rounds to 360.0: the first column lies at 0, inside [0, 360)."""
        spec = GridSpec(3, 4, 10.0, -1.0, -1e-17, 1.0)
        np.testing.assert_array_equal(spec.longitudes, [0.0, 1.0, 2.0, 3.0])

    def test_axes_are_computed_once_and_read_only(self):
        """Each grid computes its axes once; no caller can write into the shared arrays."""
        spec = GridSpec(2, 4, 10.0, -20.0, 270.0, 45.0)
        for axis in ("latitudes", "longitudes"):
            values = getattr(spec, axis)
            assert values is getattr(spec, axis) and not values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[:] = 0.0
        np.testing.assert_array_equal(spec.latitudes, [10, -10])
        np.testing.assert_array_equal(spec.longitudes, [270, 315, 0, 45])

    def test_global_detection(self):
        assert GridSpec(3, 8, 45.0, -45.0, 0.0, 45.0).is_global_lon
        assert not GridSpec(3, 7, 45.0, -45.0, 0.0, 45.0).is_global_lon

    def test_contains_a_point_a_rounding_error_west_of_the_first_column(self):
        """0.7 - 0.6 is 3e-17 short of lon_start 0.1; (lon - lon_start) % 360 made it 360."""
        spec = GridSpec(5, 5, 10.0, -1.0, 0.1, 0.5)
        assert spec.contains(8.0, 0.7 - 0.6)
        assert spec.contains(8.0, 0.1 - 1e-7) and spec.contains(8.0, 2.1 + 1e-7)
        assert not spec.contains(8.0, 0.1 - 1e-5) and not spec.contains(8.0, 2.1 + 1e-5)

    def test_quarter_degree_global_shape(self):
        """The 0.25-degree global grid is 721 x 1440."""
        spec = GridSpec(721, 1440, 90.0, -0.25, 0.0, 0.25)
        assert spec.latitudes[0] == 90.0
        assert spec.latitudes[-1] == -90.0
        assert spec.is_global_lon

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="n_lat"):
            GridSpec(1, 4, 0.0, -1.0, 0.0, 1.0)

    def test_rejects_flat_latitudes(self):
        with pytest.raises(ValueError, match="lat_step"):
            GridSpec(3, 4, 30.0, 0.0, 0.0, 1.0)

    def test_rejects_out_of_range_latitudes(self):
        with pytest.raises(ValueError, match="outside"):
            GridSpec(5, 4, 90.0, 10.0, 0.0, 1.0)

    @pytest.mark.parametrize("field", ["lat_start", "lat_step", "lon_start", "lon_step"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_fields(self, field, bad):
        """A NaN compares false both ways, so `lon_step <= 0` alone let it through."""
        fields = dict(n_lat=3, n_lon=4, lat_start=45.0, lat_step=-45.0,
                      lon_start=0.0, lon_step=90.0)
        fields[field] = bad
        with pytest.raises(ValueError, match=field):
            GridSpec(**fields)


class TestVariableCatalog:
    def test_weather_catalog_has_70_channels(self):
        cat = weather_catalog()
        assert len(cat) == 70
        assert all(v.role == "input-output" for v in cat)

    def test_weather_catalog_ordering(self):
        cat = weather_catalog()
        assert cat.entries[0] == VariableId("Z", 50)
        assert cat.entries[12] == VariableId("Z", 1000)
        assert cat.entries[13] == VariableId("T", 50)
        assert cat.entries[65] == VariableId("T2M")
        assert cat.entries[69] == VariableId("WS10M")

    def test_input_only_extension(self):
        cat = weather_catalog(include_input_only=True)
        assert len(cat) == 77
        assert cat.get("LSM").role == "input-only"

    def test_equal_catalogs_hash_equal(self):
        a, b = weather_catalog(), weather_catalog()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "first"}[b] == "first"

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VariableCatalog([VariableId("Z", 500), VariableId("Z", 500)])

    def test_index_of_accepts_tokens(self):
        cat = weather_catalog()
        assert cat.index_of("Z500") == cat.index_of(VariableId("Z", 500))
        assert cat.index_of("T2M") == 65

    def test_unknown_variable(self):
        cat = VariableCatalog([VariableId("Z", 500), VariableId("T2M")])
        with pytest.raises(UnknownVariable, match="Z925"):
            cat.index_of(("Z", 925))

    def test_parse_token(self):
        assert parse_variable_token("Z500") == ("Z", 500)
        assert parse_variable_token("t2m") == ("T2M", None)
        assert parse_variable_token("WS10M") == ("WS10M", None)


class TestLatitudeWeights:
    def test_equal_latitudes_give_unit_weights(self):
        """All rows at the same latitude reduce the formula to 1."""
        w = latitude_weights(np.full(4, 30.0))
        np.testing.assert_array_equal(w, np.ones(4))

    def test_hand_computed_weights(self):
        w = latitude_weights(np.array([45.0, 0.0, -45.0]))
        np.testing.assert_allclose(w, [0.878680, 1.242641, 0.878680], atol=5e-7)

    def test_poles_only_grid_raises(self):
        with pytest.raises(ZeroWeightSum):
            latitude_weights(np.array([90.0, -90.0]))

    def test_weights_sum_to_n_lat(self):
        spec = GridSpec(721, 1440, 90.0, -0.25, 0.0, 0.25)
        w = latitude_weights(spec)
        assert abs(w.sum() - 721.0) / 721.0 < 1e-9
        assert (w >= 0).all()

    def test_pole_rows_weigh_zero(self):
        w = latitude_weights(np.array([90.0, 0.0, -90.0]))
        assert w[0] == 0.0 and w[2] == 0.0


class TestSelectChannel:
    def test_constant_channel(self, make_cube, small_catalog, small_spec):
        values = np.zeros((3, 3, 4), dtype=np.float32)
        values[0] = 5500.0
        cube = make_cube(values=values)
        np.testing.assert_array_equal(select_channel(cube, "Z500"), 5500.0)

    def test_surface_channel(self, make_cube):
        cube = make_cube()
        field = select_channel(cube, "T2M")
        np.testing.assert_array_equal(field, cube.values[1])

    def test_missing_level_raises(self, make_cube):
        cube = make_cube()
        with pytest.raises(UnknownVariable):
            select_channel(cube, ("Z", 925))

    def test_round_trip_bits(self, make_cube):
        values = np.random.default_rng(1).normal(size=(3, 3, 4)).astype(np.float32)
        cube = make_cube(values=values)
        np.testing.assert_array_equal(select_channel(cube, "Z500"), values[0])

    def test_slab_is_read_only(self, make_cube):
        cube = make_cube()
        with pytest.raises(ValueError):
            select_channel(cube, "T2M")[0, 0] = 1.0


class TestFieldCube:
    def test_rejects_nan(self, small_spec, small_catalog):
        values = np.zeros((3, 3, 4), dtype=np.float32)
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            from geoverify import FieldCube

            FieldCube(small_spec, small_catalog, utc(2024, 1, 1), values)

    @pytest.mark.parametrize("index", [0, 17, 35])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_scan_finds_every_position(self, small_spec, small_catalog, monkeypatch,
                                             index, bad):
        """With 5-value blocks, 36 values end in a partial block; every block is scanned."""
        from geoverify import FieldCube, grid

        monkeypatch.setattr(grid, "FINITE_SCAN_VALUES", 5)
        values = np.zeros((3, 3, 4), dtype=np.float32)
        FieldCube(small_spec, small_catalog, utc(2024, 1, 1), values.copy())
        values.reshape(-1)[index] = bad
        with pytest.raises(ValueError, match="finite"):
            FieldCube(small_spec, small_catalog, utc(2024, 1, 1), values)

    @pytest.mark.parametrize("index", [0, 4, 20, 35, 37],
                             ids=["block-first", "block-last", "inside", "short-block-first",
                                  "short-block-last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_all_finite_finds_every_position_without_a_warning(self, monkeypatch, index, bad):
        """With 5-value blocks, 38 values end in a 3-value block."""
        from geoverify import grid

        monkeypatch.setattr(grid, "FINITE_SCAN_VALUES", 5)
        values = np.arange(38, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert grid.all_finite(values)
            values[index] = bad
            assert not grid.all_finite(values)

    def test_a_cube_built_without_the_scan_is_scanned_when_replaced(self, small_spec,
                                                                   small_catalog):
        """Only the private keyword skips the scan; ``replace`` builds a checked cube."""
        from dataclasses import replace

        from geoverify import FieldCube

        values = np.zeros((3, 3, 4), dtype=np.float32)
        values[1, 2, 3] = np.inf
        cube = FieldCube(small_spec, small_catalog, utc(2024, 1, 1), values, _scan=False)
        with pytest.raises(ValueError, match="finite"):
            replace(cube, valid_time=utc(2024, 1, 2))

    def test_rejects_wrong_shape(self, small_spec, small_catalog):
        from geoverify import FieldCube

        with pytest.raises(ValueError, match="shape"):
            FieldCube(small_spec, small_catalog, utc(2024, 1, 1), np.zeros((3, 4, 3)))

    def test_freezes_a_view_not_the_callers_array(self, small_spec, small_catalog):
        """A C-contiguous float32 input is shared, and only the cube's view is read-only."""
        from geoverify import FieldCube

        values = np.zeros((3, 3, 4), dtype=np.float32)
        cube = FieldCube(small_spec, small_catalog, utc(2024, 1, 1), values)
        assert np.shares_memory(cube.values, values)
        assert values.flags.writeable
        assert not cube.values.flags.writeable
        values[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cube.values[0, 0, 0] = 2.0
