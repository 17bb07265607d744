"""Tests for bilinear interpolation between lat/lon grids."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from geoverify import FieldCube, GridSpec, VariableCatalog, VariableId, bilinear_upsample
from geoverify import regrid
from geoverify.errors import OutOfExtent
from geoverify.regrid import _ROW_BLOCK_VALUES, _lat_coeffs, _lon_coeffs
from conftest import utc


def _cube_on(spec, field):
    catalog = VariableCatalog([VariableId("T2M")])
    return FieldCube(spec, catalog, utc(2024, 2, 2, 18), np.asarray(field, np.float32)[None])


COARSE = GridSpec(20, 40, 50.0, -1.5, 100.0, 1.5)          # 1.5 degree regional
FINE = GridSpec(109, 229, 49.0, -0.25, 101.0, 0.25)        # 0.25 degree inside it


def four_gather_blend(cube, target):
    """Reference: the whole-cube blend with four 2-D fancy-index gathers."""
    i0, _, t = _lat_coeffs(cube.spec, target)
    j0, j1, u = _lon_coeffs(cube.spec, target)
    i1 = np.minimum(i0 + 1, cube.spec.n_lat - 1)
    t2 = t[None, :, None]
    u2 = u[None, None, :]
    vals = cube.values.astype(np.float64)
    v00 = vals[:, i0[:, None], j0[None, :]]
    v01 = vals[:, i0[:, None], j1[None, :]]
    v10 = vals[:, i1[:, None], j0[None, :]]
    v11 = vals[:, i1[:, None], j1[None, :]]
    blended = (
        (1.0 - t2) * (1.0 - u2) * v00
        + (1.0 - t2) * u2 * v01
        + t2 * (1.0 - u2) * v10
        + t2 * u2 * v11
    )
    return blended.astype(np.float32)


class TestBilinearUpsample:
    def test_constant_field_stays_constant(self):
        cube = _cube_on(COARSE, np.full((20, 40), 287.5))
        out = bilinear_upsample(cube, FINE)
        np.testing.assert_array_equal(out.values, np.float32(287.5))

    def test_linear_field_reproduced(self):
        """Bilinear interpolation is exact on fields linear in lat and lon."""
        lats, lons = COARSE.latitudes, COARSE.longitudes
        field = 2.0 * lats[:, None] + 0.5 * lons[None, :] + 3.0
        cube = _cube_on(COARSE, field)
        out = bilinear_upsample(cube, FINE)
        t_lats, t_lons = FINE.latitudes, FINE.longitudes
        expected = 2.0 * t_lats[:, None] + 0.5 * t_lons[None, :] + 3.0
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-6)

    def test_cell_center_blends_four_corners(self):
        spec = GridSpec(2, 2, 1.0, -1.0, 0.0, 1.0)
        cube = _cube_on(spec, [[0.0, 2.0], [4.0, 6.0]])
        target = GridSpec(2, 2, 1.0, -0.5, 0.25, 0.5)
        out = bilinear_upsample(cube, target)
        center = bilinear_upsample(cube, GridSpec(2, 2, 0.5, -0.5, 0.5, 0.5))
        assert center.values[0, 0, 0] == 3.0
        assert out.values[0, 0, 0] == pytest.approx((0.0 * 0.75 + 2.0 * 0.25), rel=1e-6)

    def test_idempotent_on_matching_grid(self):
        rng = np.random.default_rng(20)
        cube = _cube_on(COARSE, rng.normal(size=(20, 40)))
        out = bilinear_upsample(cube, COARSE)
        np.testing.assert_array_equal(out.values, cube.values)

    def test_output_within_source_hull(self):
        rng = np.random.default_rng(21)
        cube = _cube_on(COARSE, rng.normal(size=(20, 40)))
        out = bilinear_upsample(cube, FINE)
        assert out.values.max() <= cube.values.max()
        assert out.values.min() >= cube.values.min()

    def test_regional_source_refuses_extrapolation(self):
        cube = _cube_on(COARSE, np.zeros((20, 40)))
        beyond = GridSpec(4, 4, 55.0, -0.5, 101.0, 0.25)
        with pytest.raises(OutOfExtent):
            bilinear_upsample(cube, beyond)
        east = GridSpec(4, 4, 49.0, -0.5, 159.0, 1.0)
        with pytest.raises(OutOfExtent):
            bilinear_upsample(cube, east)

    def test_regional_source_takes_a_target_a_rounding_error_west_of_it(self):
        """0.7 - 0.6 lies 3e-17 degrees west of a first column at 0.1: it gets that column,
        as a latitude or a longitude that close beyond the other edges gets theirs."""
        source = GridSpec(6, 8, 50.0, -1.5, 0.1, 1.5)
        rng = np.random.default_rng(23)
        cube = _cube_on(source, rng.normal(size=(6, 8)))
        west = bilinear_upsample(cube, GridSpec(13, 9, 49.0, -0.5, 0.7 - 0.6, 1.25))
        at_edge = bilinear_upsample(cube, GridSpec(13, 9, 49.0, -0.5, 0.1, 1.25))
        np.testing.assert_array_equal(west.values[..., 0], at_edge.values[..., 0])
        with pytest.raises(OutOfExtent):
            bilinear_upsample(cube, GridSpec(13, 9, 49.0, -0.5, 0.1 - 1e-6, 1.25))

    def test_global_source_wraps_longitude(self):
        spec = GridSpec(3, 4, 45.0, -45.0, 0.0, 90.0)
        field = np.array([[0.0, 10.0, 20.0, 30.0]] * 3)
        cube = _cube_on(spec, field)
        target = GridSpec(3, 1, 45.0, -45.0, 315.0, 45.0)
        out = bilinear_upsample(cube, target)
        np.testing.assert_allclose(out.values[:, :, 0], 15.0, rtol=1e-6)

    def test_global_source_clamps_pole_rows(self):
        spec = GridSpec(3, 4, 60.0, -60.0, 0.0, 90.0)
        field = np.array([[1.0] * 4, [2.0] * 4, [3.0] * 4])
        cube = _cube_on(spec, field)
        target = GridSpec(2, 4, 90.0, -180.0, 0.0, 90.0)
        out = bilinear_upsample(cube, target)
        np.testing.assert_array_equal(out.values[0, 0], 1.0)
        np.testing.assert_array_equal(out.values[0, 1], 3.0)

    def test_channels_processed_independently(self):
        catalog = VariableCatalog([VariableId("T2M"), VariableId("WS10M")])
        values = np.stack([np.full((20, 40), 1.0), np.full((20, 40), 2.0)]).astype(np.float32)
        cube = FieldCube(COARSE, catalog, utc(2024, 1, 1), values)
        out = bilinear_upsample(cube, FINE)
        np.testing.assert_array_equal(out.values[0], 1.0)
        np.testing.assert_array_equal(out.values[1], 2.0)


class TestBitwisePinned:
    """bilinear_upsample keeps the bits of the four-gather blend."""

    @pytest.mark.parametrize(
        "source, target, n_chan",
        [
            # global 10 degree source; target columns cross the 0/360 seam
            (GridSpec(17, 36, 80.0, -10.0, 5.0, 10.0), GridSpec(33, 97, 78.0, -4.75, 352.5, 3.75), 1),
            # global source; target rows run beyond its first and last rows
            (GridSpec(36, 72, 87.5, -5.0, 0.0, 5.0), GridSpec(181, 144, 90.0, -1.0, 1.25, 2.5), 1),
            (COARSE, FINE, 1),
            (COARSE, FINE, 4),
            # 1.5 to 0.7 degrees: no integer ratio between the grids
            (COARSE, GridSpec(40, 81, 49.9, -0.7, 100.3, 0.7), 2),
            # global 1 to 0.25 degrees: 721 rows are not a multiple of the row block
            (GridSpec(181, 360, 90.0, -1.0, 0.0, 1.0), GridSpec(721, 1440, 90.0, -0.25, 0.0, 0.25), 1),
            # fewer target rows than one row block
            (COARSE, GridSpec(10, 229, 49.0, -0.25, 101.0, 0.25), 2),
            # wider than the row block's values: one row per block
            (GridSpec(36, 72, 87.5, -5.0, 0.0, 5.0), GridSpec(3, 36000, 40.0, -1.0, 0.0, 0.01), 1),
        ],
        ids=["seam-wrap", "pole-clamp", "regional", "multi-channel", "non-integer-ratio",
             "global-quarter-degree", "under-one-block", "one-row-per-block"],
    )
    def test_equals_four_gather_blend(self, source, target, n_chan):
        rng = np.random.default_rng(22)
        catalog = VariableCatalog([VariableId(f"V{k}") for k in range(n_chan)])
        values = rng.normal(280.0, 15.0, size=(n_chan, source.n_lat, source.n_lon))
        cube = FieldCube(source, catalog, utc(2024, 7, 1, 12), values.astype(np.float32))
        out = bilinear_upsample(cube, target)
        expected = four_gather_blend(cube, target)
        assert out.values.shape == expected.shape
        np.testing.assert_array_equal(out.values.view(np.uint32), expected.view(np.uint32))

    def test_row_block_cases_hit_their_edges(self):
        """The three row-block cases above test what their ids say of the block size."""
        assert 721 % (_ROW_BLOCK_VALUES // 1440)       # a short last block
        assert 10 < _ROW_BLOCK_VALUES // 229           # one short block
        assert 36000 > _ROW_BLOCK_VALUES               # one row per block


@pytest.fixture
def no_plan(monkeypatch):
    """An empty plan cache, restored after the test."""
    monkeypatch.setattr(regrid, "_last_plan", None)


@pytest.fixture
def coeff_calls(monkeypatch, no_plan):
    """The number of _lat_coeffs and _lon_coeffs calls, by name, from an empty plan cache."""
    calls = {"lat": 0, "lon": 0}
    for axis in calls:
        real = getattr(regrid, f"_{axis}_coeffs")

        def counted(source, target, axis=axis, real=real):
            calls[axis] += 1
            return real(source, target)
        monkeypatch.setattr(regrid, f"_{axis}_coeffs", counted)
    return calls


def _random_cube(spec, seed, n_chan=1):
    rng = np.random.default_rng(seed)
    catalog = VariableCatalog([VariableId(f"V{k}") for k in range(n_chan)])
    values = rng.normal(280.0, 15.0, size=(n_chan, spec.n_lat, spec.n_lon))
    return FieldCube(spec, catalog, utc(2024, 7, 1, 12), values.astype(np.float32))


class TestPlanCache:
    """The plan of the last grid pair is kept; every other pair gets its own."""

    def test_one_grid_pair_builds_its_plan_once(self, coeff_calls):
        cube = _random_cube(COARSE, 24)
        first = bilinear_upsample(cube, FINE)
        second = bilinear_upsample(_random_cube(COARSE, 25), FINE)
        assert coeff_calls == {"lat": 1, "lon": 1}
        assert not np.array_equal(first.values, second.values)
        bilinear_upsample(cube, GridSpec(40, 81, 49.9, -0.7, 100.3, 0.7))
        assert coeff_calls == {"lat": 2, "lon": 2}

    def test_interleaved_grid_pairs_keep_the_four_gather_bits(self, no_plan):
        global_source = GridSpec(36, 72, 87.5, -5.0, 0.0, 5.0)
        pairs = [(COARSE, FINE), (global_source, GridSpec(181, 144, 90.0, -1.0, 1.25, 2.5)),
                 (COARSE, GridSpec(40, 81, 49.9, -0.7, 100.3, 0.7)), (global_source, FINE)]
        for seed, (source, target) in enumerate(pairs + pairs[::-1] + pairs):
            cube = _random_cube(source, seed, n_chan=2)
            out = bilinear_upsample(cube, target)
            expected = four_gather_blend(cube, target)
            np.testing.assert_array_equal(out.values.view(np.uint32), expected.view(np.uint32))

    def test_specs_equal_but_for_the_sign_of_a_zero_get_their_own_plan(self, monkeypatch,
                                                                       no_plan):
        """On a source of -0.0 values, a target lat_start of 0.0 and one of -0.0 give
        72 and 81 negative zeros: the cache key is the specs' bits, not ``==``."""
        source = GridSpec(5, 5, 0.0, -1.0, 0.0, 1.0)
        cube = _cube_on(source, np.full((5, 5), -0.0))
        plus, minus = (GridSpec(9, 9, zero, -0.25, 0.0, 0.25) for zero in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        outs = [bilinear_upsample(cube, target).values for target in (plus, minus)]
        monkeypatch.setattr(regrid, "_last_plan", None)
        fresh = bilinear_upsample(cube, minus).values
        assert [int(np.signbit(out).sum()) for out in outs] == [72, 81]
        np.testing.assert_array_equal(outs[1].view(np.uint32), fresh.view(np.uint32))

    def test_threads_upsampling_onto_two_grid_pairs_keep_the_four_gather_bits(self, no_plan):
        """Each thread swaps the cached plan out from under the others, every few µs."""
        pairs = [(COARSE, FINE), (COARSE, GridSpec(40, 81, 49.9, -0.7, 100.3, 0.7))]
        cubes = [_random_cube(source, seed) for seed, (source, _) in enumerate(pairs)]
        expected = [four_gather_blend(cube, target).view(np.uint32)
                    for cube, (_, target) in zip(cubes, pairs)]

        def upsample_in_turn(first):
            outs = ((bilinear_upsample(cubes[k % 2], pairs[k % 2][1]), expected[k % 2])
                    for k in range(first, first + 20))
            return all(np.array_equal(out.values.view(np.uint32), want) for out, want in outs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(upsample_in_turn, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 4

    def test_cached_arrays_are_read_only(self, no_plan):
        plan = regrid._plan(COARSE, FINE)
        assert regrid._plan(COARSE, FINE) is plan
        for arr in plan:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0


class TestNoRescan:
    """The upsampled cube is not scanned for NaN/Inf: its values are finite by construction."""

    def test_float32_extremes_upsample_to_finite_values_inside_the_source_range(self):
        big = np.finfo(np.float32).max
        rng = np.random.default_rng(26)
        field = rng.choice([-big, big, 0.0, 1.0], size=(20, 40))
        field[:4, :4] = big
        cube = _cube_on(COARSE, field)
        out = bilinear_upsample(cube, FINE).values
        assert np.isfinite(out).all()
        assert out.min() >= -big and out.max() <= big
        assert (out == big).any() and (out == -big).any()
