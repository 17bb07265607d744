"""Tests for per-(day-of-year, hour) climatological means."""

import os
import tracemalloc

import numpy as np
import pytest

from geoverify import FieldCube, build_climatology, climatology_key, cubeio, select_channel
from geoverify.climatology import Climatology
from geoverify.errors import EmptyInput, MissingKey, NonFiniteValue, NonSynopticTime, SpecMismatch
from conftest import random_cube, utc, write_climatology


class TestClimatologyKey:
    def test_february_2nd_18z(self):
        assert climatology_key(utc(2024, 2, 2, 18)) == (33, 18)

    def test_leap_day_is_day_60(self):
        assert climatology_key(utc(2024, 2, 29, 6)) == (60, 6)
        assert climatology_key(utc(2020, 2, 29, 0)) == (60, 0)

    def test_march_1_is_day_61_every_year(self):
        """Non-leap March 1 never collides with the leap-day key."""
        assert climatology_key(utc(2023, 3, 1, 0)) == (61, 0)
        assert climatology_key(utc(2024, 3, 1, 0)) == (61, 0)

    def test_off_synoptic_hour_rejected(self):
        with pytest.raises(ValueError, match="synoptic"):
            climatology_key(utc(2024, 1, 1, 3))

    def test_off_synoptic_hour_is_a_data_error(self):
        with pytest.raises(NonSynopticTime) as err:
            climatology_key(utc(2024, 1, 1, 3))
        assert err.value.exit_code == 2


def _build(tmp_path, cubes, name="clim") -> Climatology:
    return Climatology.load(write_climatology(cubes, tmp_path / name))


def _mean(clim, valid_time) -> np.ndarray:
    """The key cube's values for a valid time, as built."""
    return cubeio.read_cube(clim.key_header(valid_time)).values


class TestBuildClimatology:
    def test_single_cube_mean_is_itself(self, tmp_path):
        rng = np.random.default_rng(2)
        cube = random_cube(rng, valid_time=utc(2020, 6, 1, 12))
        clim = _build(tmp_path, [cube])
        np.testing.assert_array_equal(_mean(clim, utc(2020, 6, 1, 12)), cube.values)

    def test_two_identical_cubes_same_field(self, tmp_path):
        rng = np.random.default_rng(3)
        a = random_cube(rng, valid_time=utc(2020, 6, 1, 12))
        b = random_cube(np.random.default_rng(3), valid_time=utc(2021, 6, 1, 12))
        clim = _build(tmp_path, [a, b])
        np.testing.assert_array_equal(_mean(clim, utc(2022, 6, 1, 12)), a.values)

    def test_two_sample_mean(self, tmp_path):
        rng = np.random.default_rng(4)
        a = random_cube(rng, n_chan=1, valid_time=utc(2020, 6, 1, 12))
        b_values = np.asarray(a.values).copy()
        b_values[0, 0, 0] = 20.0
        a_values = np.asarray(a.values).copy()
        a_values[0, 0, 0] = 10.0

        a = FieldCube(a.spec, a.catalog, utc(2020, 6, 1, 12), a_values)
        b = FieldCube(a.spec, a.catalog, utc(2021, 6, 1, 12), b_values)
        clim = _build(tmp_path, [a, b])
        assert _mean(clim, utc(2020, 6, 1, 12))[0, 0, 0] == 15.0

    @pytest.mark.parametrize("one_channel_ranges", [False, True])
    def test_brute_force_mean_oracle(self, tmp_path, monkeypatch, one_channel_ranges):
        """Mean per key matches a naive recomputation over <=10 tiny cubes, in any ranges."""
        if one_channel_ranges:
            monkeypatch.setattr(cubeio, "RANGE_BYTES", 4 * 3 * 4)
        rng = np.random.default_rng(5)
        cubes = []
        for year in (2018, 2019, 2020, 2021):
            for hour in (0, 12):
                cubes.append(random_cube(rng, valid_time=utc(year, 7, 15, hour)))
        clim = _build(tmp_path, cubes)
        assert set(clim.headers) == {(197, 0), (197, 12)}
        for hour in (0, 12):
            expected = np.zeros(cubes[0].values.shape)
            group = [c for c in cubes if c.valid_time.hour == hour]
            for c in group:
                expected += np.asarray(c.values, dtype=np.float64)
            expected /= len(group)
            np.testing.assert_array_equal(_mean(clim, utc(2022, 7, 15, hour)),
                                          expected.astype(np.float32))

    def test_keys_use_the_366_day_calendar(self, tmp_path):
        """Feb 29 builds day 60 from leap years only; Mar 1 is day 61 in every year."""
        rng = np.random.default_rng(12)
        times = [utc(2024, 2, 29, 6), utc(2023, 3, 1, 6), utc(2024, 3, 1, 6)]
        manifest = write_climatology([random_cube(rng, valid_time=t) for t in times],
                                     tmp_path / "clim")
        assert manifest.read_bytes() == (
            b"doy,hour,n_samples,filename\n"
            b"60,6,1,clim_d060_h06.gvc\n"
            b"61,6,2,clim_d061_h06.gvc\n"
        )
        assert cubeio.read_header(manifest.parent / "clim_d060_h06.gvc").valid_time == \
            utc(2000, 2, 29, 6)

    def test_any_order_of_paths_gives_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(6)
        cubes = [random_cube(rng, valid_time=utc(2018 + k, 7, 15, 0)) for k in range(6)]
        paths = []
        for k, cube in enumerate(cubes):
            paths.append(tmp_path / f"{k}.gvc")
            cubeio.write_cube(cube, paths[-1])
        orders = {"sorted": paths, "reversed": paths[::-1], "shuffled": paths[1::2] + paths[::2]}
        built = {name: build_climatology(order, tmp_path / name) for name, order in orders.items()}
        files = sorted(p.name for p in built["sorted"].parent.iterdir())
        assert files == ["clim_d197_h00.gvc", "manifest.csv"]
        for name in files:
            assert len({(m.parent / name).read_bytes() for m in built.values()}) == 1

    def test_peak_memory_does_not_grow_with_the_number_of_keys(self, tmp_path, monkeypatch):
        """One range's float64 sum and one range read at a time, whatever the key count."""
        rng = np.random.default_rng(13)
        plane = 60 * 120
        monkeypatch.setattr(cubeio, "RANGE_BYTES", 4 * plane)  # four one-channel ranges
        peaks = []
        for n_keys in (1, 8):
            paths = []
            for day in range(1, n_keys + 1):
                for year in (2019, 2020):
                    paths.append(tmp_path / f"{n_keys}-{day}-{year}.gvc")
                    cubeio.write_cube(random_cube(rng, n_chan=4, n_lat=60, n_lon=120,
                                                  valid_time=utc(year, 5, day, 6)), paths[-1])
            tracemalloc.start()
            try:
                build_climatology(paths, tmp_path / f"clim-{n_keys}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 8 * plane

    def test_missing_key(self, tmp_path):
        clim = _build(tmp_path, [random_cube(np.random.default_rng(7),
                                             valid_time=utc(2020, 6, 1, 12))])
        with pytest.raises(MissingKey):
            clim.key_header(utc(2020, 6, 1, 18))

    def test_empty_input(self, tmp_path):
        with pytest.raises(EmptyInput):
            build_climatology([], tmp_path / "clim")
        assert list(tmp_path.iterdir()) == []

    def test_spec_mismatch(self, tmp_path):
        rng = np.random.default_rng(8)
        a = random_cube(rng, n_lat=3, valid_time=utc(2020, 6, 1, 12))
        b = random_cube(rng, n_lat=4, valid_time=utc(2021, 6, 1, 12))
        with pytest.raises(SpecMismatch):
            write_climatology([a, b], tmp_path / "clim")
        assert list(tmp_path.iterdir()) == []


class TestClimatologySerialization:
    def test_build_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        cubes = [
            random_cube(rng, valid_time=utc(2020, 6, 1, 12)),
            random_cube(rng, valid_time=utc(2020, 6, 1, 18)),
        ]
        back = _build(tmp_path, cubes)
        assert set(back.headers) == {(153, 12), (153, 18)}
        for cube in cubes:
            for var in cube.catalog:
                np.testing.assert_array_equal(back.lookup_channel(cube.valid_time, var),
                                              select_channel(cube, var))

    def test_manifest_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        cubes = [random_cube(rng, valid_time=utc(year, 6, 1, hour))
                 for year in (2019, 2020) for hour in (12, 18)]
        manifest = write_climatology(cubes, tmp_path / "clim")
        assert manifest.read_bytes() == (
            b"doy,hour,n_samples,filename\n"
            b"153,12,2,clim_d153_h12.gvc\n"
            b"153,18,2,clim_d153_h18.gvc\n"
        )

    def test_failed_build_leaves_no_file(self, tmp_path, monkeypatch):
        """Nothing is moved into the output directory until every key is built."""
        rng = np.random.default_rng(9)
        paths = [tmp_path / f"{hour}.gvc" for hour in (12, 18)]
        for hour, path in zip((12, 18), paths):
            cubeio.write_cube(random_cube(rng, valid_time=utc(2020, 6, 1, hour)), path)
        cube_writer = cubeio.cube_writer
        calls = []

        def failing_second_key(spec, catalog, valid_time, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            return cube_writer(spec, catalog, valid_time, path)

        monkeypatch.setattr(cubeio, "cube_writer", failing_second_key)
        with pytest.raises(OSError, match="disk full"):
            build_climatology(paths, tmp_path / "clim")
        # Each key cube is written under its staged name, not its target's.
        assert [p.name for p in calls] == [f".clim_d153_h{hour}.gvc.{os.getpid()}.tmp"
                                           for hour in (12, 18)]
        assert sorted(tmp_path.iterdir()) == paths

    def test_key_cubes_must_share_the_whole_catalog(self, tmp_path):
        """Key cubes whose catalogs differ in one channel's name mismatch."""
        rng = np.random.default_rng(10)
        cubes = [random_cube(rng, n_chan=4, valid_time=utc(2020, 6, 1, hour))
                 for hour in (12, 18)]
        manifest = write_climatology(cubes, tmp_path / "clim")
        second = manifest.parent / "clim_d153_h18.gvc"
        second.write_bytes(second.read_bytes().replace(b"V,4,", b"W,4,"))
        with pytest.raises(SpecMismatch):
            Climatology.load(manifest)

    def test_key_ranges_bitwise_equal_to_lookup(self, tmp_path):
        """A key read in channel ranges, as verify reads it, has lookup_channel's bits."""
        rng = np.random.default_rng(10)
        cubes = [random_cube(rng, n_chan=4, valid_time=utc(2020, 6, 1, hour))
                 for hour in (12, 18)]
        clim = _build(tmp_path, cubes)
        for hour in (12, 18):
            t = utc(2024, 6, 1, hour)
            for variables, channels in ((["V1"], range(0, 1)), (["V3", "V2"], range(1, 4))):
                part = cubeio.read_cube(clim.key_header(t), variables, channels)
                assert [v.token for v in part.catalog] == sorted(variables)
                for var in variables:
                    assert select_channel(part, var).tobytes() == \
                        clim.lookup_channel(t, var).tobytes()

    def test_load_reads_no_payload(self, tmp_path):
        """A loaded climatology reads a key's cube when the key is looked up."""
        rng = np.random.default_rng(11)
        cubes = [random_cube(rng, valid_time=utc(2020, 6, 1, hour)) for hour in (12, 18)]
        manifest = write_climatology(cubes, tmp_path / "clim")
        key = manifest.parent / "clim_d153_h18.gvc"
        data = bytearray(key.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()
        key.write_bytes(bytes(data))
        back = Climatology.load(manifest)  # reads headers only
        with pytest.raises(NonFiniteValue):
            back.lookup_channel(utc(2024, 6, 1, 18), "V1")
