"""Tests for per-(day-of-year, hour) climatological means."""

import numpy as np
import pytest

from geoverify import build_climatology, climatology_key, cubeio, select_channel
from geoverify.climatology import Climatology
from geoverify.errors import (EmptyInput, GeoverifyError, MissingKey, NonFiniteValue,
                              NonSynopticTime, SpecMismatch)
from conftest import random_cube, utc


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


class TestBuildClimatology:
    def test_single_cube_mean_is_itself(self):
        rng = np.random.default_rng(2)
        cube = random_cube(rng, valid_time=utc(2020, 6, 1, 12))
        clim = build_climatology([cube])
        np.testing.assert_array_equal(clim.lookup(utc(2020, 6, 1, 12)), cube.values)

    def test_two_identical_cubes_same_field(self):
        rng = np.random.default_rng(3)
        a = random_cube(rng, valid_time=utc(2020, 6, 1, 12))
        b = random_cube(np.random.default_rng(3), valid_time=utc(2021, 6, 1, 12))
        clim = build_climatology([a, b])
        np.testing.assert_array_equal(clim.lookup(utc(2022, 6, 1, 12)), a.values)

    def test_two_sample_mean(self):
        rng = np.random.default_rng(4)
        a = random_cube(rng, n_chan=1, valid_time=utc(2020, 6, 1, 12))
        b_values = np.asarray(a.values).copy()
        b_values[0, 0, 0] = 20.0
        a_values = np.asarray(a.values).copy()
        a_values[0, 0, 0] = 10.0
        from geoverify import FieldCube

        a = FieldCube(a.spec, a.catalog, utc(2020, 6, 1, 12), a_values)
        b = FieldCube(a.spec, a.catalog, utc(2021, 6, 1, 12), b_values)
        clim = build_climatology([a, b])
        assert clim.lookup(utc(2020, 6, 1, 12))[0, 0, 0] == 15.0

    def test_brute_force_mean_oracle(self):
        """Mean per key matches a naive recomputation over <=10 tiny cubes."""
        rng = np.random.default_rng(5)
        cubes = []
        for year in (2018, 2019, 2020, 2021):
            for hour in (0, 12):
                cubes.append(random_cube(rng, valid_time=utc(year, 7, 15, hour)))
        clim = build_climatology(cubes)
        for hour in (0, 12):
            expected = np.zeros(cubes[0].values.shape)
            group = [c for c in cubes if c.valid_time.hour == hour]
            for c in group:
                expected += np.asarray(c.values, dtype=np.float64)
            expected /= len(group)
            np.testing.assert_array_equal(clim.lookup(utc(2022, 7, 15, hour)), expected)

    def test_permutation_invariant_to_zero_ulp(self):
        rng = np.random.default_rng(6)
        cubes = [random_cube(rng, valid_time=utc(2018 + k, 7, 15, 0)) for k in range(6)]
        a = build_climatology(cubes)
        b = build_climatology(cubes[::-1])
        np.testing.assert_array_equal(
            a.lookup(utc(2024, 7, 15, 0)), b.lookup(utc(2024, 7, 15, 0))
        )

        class Reversed:  # a sequence by protocol only, not a collections.abc.Sequence
            def __len__(self):
                return len(cubes)

            def __getitem__(self, k):
                return cubes[::-1][k]

        np.testing.assert_array_equal(build_climatology(Reversed()).lookup(utc(2024, 7, 15, 0)),
                                      a.lookup(utc(2024, 7, 15, 0)))

    def test_a_stream_in_time_order_gives_the_bits_of_a_list(self):
        rng = np.random.default_rng(6)
        cubes = [random_cube(rng, valid_time=utc(2018 + k, 7, 15, 0)) for k in range(6)]
        streamed = build_climatology(cube for cube in cubes)
        np.testing.assert_array_equal(streamed.lookup(utc(2024, 7, 15, 0)),
                                      build_climatology(cubes[::-1]).lookup(utc(2024, 7, 15, 0)))
        assert streamed.counts == {(197, 0): 6}

    def test_a_stream_out_of_time_order_or_repeating_a_time_is_refused(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_cube(rng, valid_time=utc(2018 + k, 7, 15, 0)) for k in range(3))
        with pytest.raises(ValueError, match="comes after"):
            build_climatology(iter([b, a]))
        with pytest.raises(ValueError, match="comes after"):
            build_climatology(cube for cube in [a, c, b])
        with pytest.raises(GeoverifyError, match="two cubes have valid time 2018-07-15"):
            build_climatology(iter([a, a]))

    def test_missing_key(self):
        clim = build_climatology([random_cube(np.random.default_rng(7),
                                              valid_time=utc(2020, 6, 1, 12))])
        with pytest.raises(MissingKey):
            clim.lookup(utc(2020, 6, 1, 18))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            build_climatology([])

    def test_spec_mismatch(self):
        rng = np.random.default_rng(8)
        a = random_cube(rng, n_lat=3, valid_time=utc(2020, 6, 1, 12))
        b = random_cube(rng, n_lat=4, valid_time=utc(2021, 6, 1, 12))
        with pytest.raises(SpecMismatch):
            build_climatology([a, b])


class TestClimatologySerialization:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        cubes = [
            random_cube(rng, valid_time=utc(2020, 6, 1, 12)),
            random_cube(rng, valid_time=utc(2020, 6, 1, 18)),
        ]
        clim = build_climatology(cubes)
        manifest = clim.save(tmp_path / "clim")
        back = Climatology.load(manifest)
        assert set(back.paths) == set(clim.means)
        assert back.counts == clim.counts
        for cube in cubes:
            np.testing.assert_array_equal(
                back.lookup(cube.valid_time),
                clim.lookup(cube.valid_time).astype(np.float32).astype(np.float64),
            )

    def test_manifest_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        cubes = [random_cube(rng, valid_time=utc(year, 6, 1, hour))
                 for year in (2019, 2020) for hour in (12, 18)]
        manifest = build_climatology(cubes).save(tmp_path / "clim")
        assert manifest.read_bytes() == (
            b"doy,hour,n_samples,filename\n"
            b"153,12,2,clim_d153_h12.gvc\n"
            b"153,18,2,clim_d153_h18.gvc\n"
        )

    def test_failed_save_leaves_no_manifest(self, tmp_path, monkeypatch):
        """The manifest is written last, so it never names a cube a failed save lacks."""
        rng = np.random.default_rng(9)
        clim = build_climatology(
            [random_cube(rng, valid_time=utc(2020, 6, 1, hour)) for hour in (12, 18)]
        )
        write_cube = cubeio.write_cube
        calls = []

        def failing_second_write(cube, path):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_cube(cube, path)

        monkeypatch.setattr(cubeio, "write_cube", failing_second_write)
        with pytest.raises(OSError, match="disk full"):
            clim.save(tmp_path / "clim")
        assert [p.name for p in (tmp_path / "clim").iterdir()] == ["clim_d153_h12.gvc"]

    def test_key_cubes_must_share_the_whole_catalog(self, tmp_path):
        """Key cubes whose catalogs differ in one channel's name mismatch."""
        rng = np.random.default_rng(10)
        cubes = [random_cube(rng, n_chan=4, valid_time=utc(2020, 6, 1, hour))
                 for hour in (12, 18)]
        manifest = build_climatology(cubes).save(tmp_path / "clim")
        second = manifest.parent / "clim_d153_h18.gvc"
        second.write_bytes(second.read_bytes().replace(b"V,4,", b"W,4,"))
        with pytest.raises(SpecMismatch):
            Climatology.load(manifest)

    def test_key_ranges_bitwise_equal_to_lookup(self, tmp_path):
        """A key read in channel ranges, as verify reads it, has lookup's bits."""
        rng = np.random.default_rng(10)
        cubes = [random_cube(rng, n_chan=4, valid_time=utc(2020, 6, 1, hour))
                 for hour in (12, 18)]
        clim = Climatology.load(build_climatology(cubes).save(tmp_path / "clim"))
        for hour in (12, 18):
            t = utc(2024, 6, 1, hour)
            for variables, channels in ((["V1"], range(0, 1)), (["V3", "V2"], range(1, 4))):
                part = cubeio.read_cube(clim.key_path(t), variables, channels)
                assert [v.token for v in part.catalog] == sorted(variables)
                for var in variables:
                    assert select_channel(part, var).tobytes() == \
                        clim.lookup_channel(t, var).tobytes()

    def test_load_reads_no_payload_and_saves_back_the_same_bytes(self, tmp_path):
        """A loaded climatology reads key cubes on lookup; its save writes the files it read."""
        rng = np.random.default_rng(11)
        cubes = [random_cube(rng, valid_time=utc(2020, 6, 1, hour)) for hour in (12, 18)]
        manifest = build_climatology(cubes).save(tmp_path / "a")
        key = manifest.parent / "clim_d153_h18.gvc"
        data = bytearray(key.read_bytes())
        good = bytes(data)
        data[-4:] = np.float32(np.nan).tobytes()
        key.write_bytes(bytes(data))
        back = Climatology.load(manifest)  # reads headers only
        assert back.means == {}
        with pytest.raises(NonFiniteValue):
            back.lookup(utc(2024, 6, 1, 18))
        key.write_bytes(good)
        copy = back.save(tmp_path / "b")
        for path in manifest.parent.iterdir():
            assert (copy.parent / path.name).read_bytes() == path.read_bytes()
