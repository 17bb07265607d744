"""Tests for tracking, track/intensity scoring, matching and pair filtering."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoverify import (
    GridSpec,
    TcPoint,
    TcTrack,
    concurrent_match,
    filter_case,
    great_circle_km,
)
from geoverify import tc
from geoverify.errors import EmptyInput, InvalidFlags, MissingChannel, SeedOutsideGrid
from geoverify.tc import (
    CycloneTracker,
    FilterDecision,
    intensity_errors,
    skill_rows,
    track_cyclone,
    track_errors_km,
)
from geoverify.grid import FieldCube, VariableCatalog, VariableId
from conftest import hour_sequence, utc
from synthetic import synthetic_vortex_series, tracker_catalog

WNP_SPEC = GridSpec(81, 121, 40.0, -0.25, 120.0, 0.25)


def _track(storm_id, start, positions, ws=None):
    times = hour_sequence(start, len(positions))
    ws = ws or [20.0] * len(positions)
    points = tuple(
        TcPoint(t, lat, lon, w) for t, (lat, lon), w in zip(times, positions, ws)
    )
    return TcTrack(storm_id=storm_id, points=points)


class TestGreatCircle:
    def test_identical_points(self):
        assert great_circle_km((12.3, 45.6), (12.3, 45.6)) == 0.0

    def test_antipodal_half_circumference(self):
        assert great_circle_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            math.pi * 6371.0, rel=1e-9
        )

    def test_quarter_circle(self):
        assert great_circle_km((0.0, 0.0), (0.0, 90.0)) == pytest.approx(
            math.pi * 6371.0 / 2.0, rel=1e-9
        )

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            pts = [(rng.uniform(-89, 89), rng.uniform(0, 360)) for _ in range(3)]
            a, b, c = pts
            assert great_circle_km(a, b) == great_circle_km(b, a)
            assert great_circle_km(a, c) <= great_circle_km(a, b) + great_circle_km(b, c) + 1e-9


class TestTrackCyclone:
    def test_stationary_vortex_stays_put(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 4, 30.0, 135.0
        )
        track = track_cyclone(cubes, truth.points[0])
        assert track.complete
        assert [(p.lat, p.lon) for p in track.points] == [(30.0, 135.0)] * 4
        for p, q in zip(track.points, truth.points):
            assert p.ws_max == pytest.approx(q.ws_max, rel=1e-6)

    def test_flat_field_terminates_at_seed(self):
        catalog = tracker_catalog()
        values = np.zeros((2, 81, 121), dtype=np.float32)
        values[0] = 1013.0
        cubes = [
            FieldCube(WNP_SPEC, catalog, t, values)
            for t in hour_sequence(utc(2024, 9, 1), 3)
        ]
        seed = TcPoint(utc(2024, 9, 1), 30.0, 135.0, 15.0, 1005.0)
        track = track_cyclone(cubes, seed)
        assert not track.complete
        assert len(track.points) == 1
        assert track.points[0] is seed

    def test_translating_vortex_followed(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 3, 30.0, 132.0, dlon_per_step=1.0
        )
        track = track_cyclone(cubes, truth.points[0])
        assert track.complete and len(track.points) == 3
        cell_km = 0.25 * 111.195
        for p, q in zip(track.points, truth.points):
            assert great_circle_km((p.lat, p.lon), (q.lat, q.lon)) <= cell_km * math.sqrt(2)

    def test_steps_bounded_by_search_radius(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 5, 32.0, 130.0, dlat_per_step=-0.5, dlon_per_step=1.5
        )
        track = track_cyclone(cubes, truth.points[0])
        for a, b in zip(track.points, track.points[1:]):
            assert great_circle_km((a.lat, a.lon), (b.lat, b.lon)) <= 250.0 + 1e-6

    def test_missing_channel(self):
        catalog = VariableCatalog([VariableId("MSL")])
        values = np.full((1, 81, 121), 1013.0, dtype=np.float32)
        cubes = [FieldCube(WNP_SPEC, catalog, utc(2024, 9, 1), values)]
        with pytest.raises(MissingChannel):
            track_cyclone(cubes, TcPoint(utc(2024, 9, 1), 30.0, 135.0, 15.0))

    def test_seed_outside_grid(self):
        cubes, _ = synthetic_vortex_series(WNP_SPEC, utc(2024, 9, 1), 1, 30.0, 135.0)
        with pytest.raises(SeedOutsideGrid):
            track_cyclone(cubes, TcPoint(utc(2024, 9, 1), -5.0, 135.0, 15.0))


def _reversed_channels(cube):
    """The same cube with its catalog and channels stored as [WS10M, MSL]."""
    catalog = VariableCatalog(list(cube.catalog)[::-1])
    return FieldCube(cube.spec, catalog, cube.valid_time, np.asarray(cube.values)[::-1].copy())


class TestCycloneTracker:
    """The per-storm step that track_cyclone loops over and tc-track drives."""

    def test_track_cyclone_is_a_loop_of_steps(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 4, 31.0, 131.0, dlat_per_step=0.4, dlon_per_step=1.2
        )
        tracker = CycloneTracker(truth.points[0], WNP_SPEC, storm_id="S", name="n")
        assert all(tracker.step(cube) for cube in cubes)
        assert tracker.track() == track_cyclone(cubes, truth.points[0], storm_id="S", name="n")
        assert tracker.track().complete

    def test_channels_are_found_in_each_cubes_own_catalog(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 3, 30.0, 132.0, dlon_per_step=1.0
        )
        swapped = [cubes[0], _reversed_channels(cubes[1]), cubes[2]]
        track = track_cyclone(swapped, truth.points[0])
        assert track == track_cyclone(cubes, truth.points[0])
        assert all(p.msl_min > 900.0 and p.ws_max < 100.0 for p in track.points)

    def test_later_cube_without_a_channel_names_its_valid_time(self):
        cubes, truth = synthetic_vortex_series(
            WNP_SPEC, utc(2024, 9, 1), 3, 30.0, 132.0, dlon_per_step=1.0
        )
        last = cubes[2]
        cubes[2] = FieldCube(WNP_SPEC, VariableCatalog([VariableId("MSL")]), last.valid_time,
                             np.asarray(last.values)[:1].copy())
        with pytest.raises(MissingChannel, match=r"2024-09-01 12:00:00\+00:00.*WS10M"):
            track_cyclone(cubes, truth.points[0])

    def test_first_cube_must_be_at_the_seed_time(self):
        cubes, truth = synthetic_vortex_series(WNP_SPEC, utc(2024, 9, 1), 2, 30.0, 135.0)
        with pytest.raises(ValueError, match="does not match first cube"):
            track_cyclone(cubes[1:], truth.points[0])

    def test_a_lost_storm_takes_no_more_cubes(self):
        cubes, truth = synthetic_vortex_series(WNP_SPEC, utc(2024, 9, 1), 2, 30.0, 135.0)
        flat = FieldCube(WNP_SPEC, tracker_catalog(), cubes[1].valid_time,
                         np.stack([np.full((81, 121), 1013.0), np.zeros((81, 121))])
                         .astype(np.float32))
        tracker = CycloneTracker(truth.points[0], WNP_SPEC)
        assert tracker.step(cubes[0]) and not tracker.step(flat)
        track = tracker.track()
        assert not track.complete and len(track.points) == 1
        with pytest.raises(ValueError, match="has stopped"):
            tracker.step(cubes[1])

    def test_seed_outside_the_grid_fails_before_any_cube(self):
        with pytest.raises(SeedOutsideGrid):
            CycloneTracker(TcPoint(utc(2024, 9, 1), -5.0, 135.0, 15.0), WNP_SPEC)


#: 0.5 degrees over the globe's longitudes, 80N to 10S.
GLOBAL_SPEC = GridSpec(181, 720, 80.0, -0.5, 0.0, 0.5)
#: 0.25 degrees from 70N to 50N and 350E to 30E: regional, across the 0/360 meridian.
REGIONAL_SPEC = GridSpec(81, 161, 70.0, -0.25, 350.0, 0.25)
#: 0.25 degrees over the globe's longitudes, from the north pole to 70N.
POLAR_SPEC = GridSpec(81, 1440, 90.0, -0.25, 0.0, 0.25)


class TestTrackerWindows:
    """Windows are cut as views where they can be; the nodes and values are unchanged."""

    def test_storm_crossing_the_seam_of_a_global_grid(self):
        cubes, truth = synthetic_vortex_series(
            GLOBAL_SPEC, utc(2024, 9, 1), 5, 20.0, 358.0, dlon_per_step=1.0
        )
        # The search box around the second fix wraps the seam: its columns are no run.
        assert isinstance(tc._window(GLOBAL_SPEC, 20.0, 359.0, 250.0)[1], np.ndarray)
        track = track_cyclone(cubes, truth.points[0])
        assert track.complete and len(track.points) == 5
        assert [p.lon for p in truth.points] == [358.0, 359.0, 0.0, 1.0, 2.0]
        for p, q in zip(track.points, truth.points):
            assert abs(p.lat - q.lat) <= 0.5
            assert abs((p.lon - q.lon + 180.0) % 360.0 - 180.0) <= 0.5
            assert p.ws_max == q.ws_max

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_the_box_holds_every_node_of_the_disk(self, data):
        """Every node within the radius, by distance over the whole grid, is in the window."""
        spec = data.draw(st.sampled_from([GLOBAL_SPEC, REGIONAL_SPEC, POLAR_SPEC]), label="grid")
        lats, lons = spec.latitudes, spec.longitudes
        # Centres above 80 degrees, where a box that is too narrow misses nodes, are drawn often.
        lat_hi = float(lats.max())
        lat0 = data.draw(st.one_of(st.floats(float(lats.min()), lat_hi),
                                   st.floats(min(80.0, lat_hi), lat_hi)), label="lat0")
        lon0 = data.draw(st.floats(0.0, 360.0, exclude_max=True), label="lon0")
        radius_km = data.draw(st.floats(20.0, 600.0), label="radius_km")

        rows, cols, dist = tc._window(spec, lat0, lon0, radius_km)
        inside = np.zeros((spec.n_lat, spec.n_lon), dtype=bool)
        inside[np.ix_(np.arange(spec.n_lat)[rows], np.arange(spec.n_lon)[cols])] = True
        near = tc._haversine_grid(lat0, lon0, lats, lons) <= radius_km
        assert not (near & ~inside).any()
        assert np.count_nonzero(dist <= radius_km) == np.count_nonzero(near)


class TestFixIntensity:
    """A fix's ws_max is the largest WS10M over every node within intensity_radius_km."""

    @staticmethod
    def _fix_ws_max(spec, lat_c, lon_c, ws):
        """The tracked ws_max, and the brute-force maximum, of a low at a node with winds ``ws``."""
        [cube], truth = synthetic_vortex_series(spec, utc(2024, 9, 1), 1, lat_c, lon_c)
        values = np.stack([np.asarray(cube.values)[0], ws]).astype(np.float32)
        cube = FieldCube(spec, cube.catalog, cube.valid_time, values)
        track = track_cyclone([cube], truth.points[0])
        assert track.complete and (track.points[0].lat, track.points[0].lon) == (lat_c, lon_c)
        near = tc._haversine_grid(lat_c, lon_c, spec.latitudes, spec.longitudes) <= 250.0
        return track.points[0].ws_max, float(values[1][near].max())

    def test_tropical_centre(self):
        ws = np.random.default_rng(33).random((WNP_SPEC.n_lat, WNP_SPEC.n_lon)) * 30.0
        tracked, brute = self._fix_ws_max(WNP_SPEC, 20.0, 130.0, ws)
        assert tracked == brute

    def test_centre_at_85n_with_the_maximum_at_the_disks_widest_node(self):
        lats, lons = POLAR_SPEC.latitudes, POLAR_SPEC.longitudes
        ws = np.random.default_rng(85).random((POLAR_SPEC.n_lat, POLAR_SPEC.n_lon)) * 30.0
        near = tc._haversine_grid(85.0, 10.0, lats, lons) <= 250.0
        # The node of the disk farthest east of the centre, beyond a box of half-width
        # 250 km / (km per degree * cos 85) plus one column.
        dlon = np.where(near, (lons - 10.0 + 180.0) % 360.0 - 180.0, -np.inf)
        r, c = np.unravel_index(np.argmax(dlon), dlon.shape)
        assert dlon[r, c] > 250.0 / (tc.KM_PER_DEG * math.cos(math.radians(85.0))) + 0.25
        ws[r, c] = 50.0
        tracked, brute = self._fix_ws_max(POLAR_SPEC, 85.0, 10.0, ws)
        assert tracked == brute == 50.0


def _pooled(forecast, reference, metric):
    """(value, n) of the forecast's pooled ``metric`` row for its storm, from skill_rows."""
    [row] = [r for r in skill_rows({"m": [forecast]}, [reference])
             if r[1] == forecast.storm_id and r[3] == metric]
    return row[4], row[5]


class TestTrackSkill:
    def test_identical_tracks_zero_error(self):
        t = _track("A", utc(2024, 9, 1), [(10.0, 130.0), (10.5, 131.0)])
        assert track_errors_km(t, t, t.times) == [(0, 0.0), (6, 0.0)]
        assert intensity_errors(t, t, t.times) == [(0, 0.0), (6, 0.0)]
        assert _pooled(t, t, "track_mae") == (0.0, 2)
        assert _pooled(t, t, "ws10m_rmse") == (0.0, 2)

    def test_one_degree_longitude_offset_at_equator(self):
        """1 degree of longitude on the equator is 2*pi*R/360 km."""
        ref = _track("A", utc(2024, 9, 1), [(0.0, lon) for lon in (130, 131, 132, 133)])
        fc = _track("A", utc(2024, 9, 1), [(0.0, lon + 1.0) for lon in (130, 131, 132, 133)])
        expected = 2.0 * math.pi * 6371.0 / 360.0
        assert _pooled(fc, ref, "track_mae")[0] == pytest.approx(expected, rel=1e-9)

    def test_intensity_rmse_hand_case(self):
        ref = _track("A", utc(2024, 9, 1), [(10.0, 130.0), (10.0, 131.0)], ws=[25.0, 15.0])
        fc = _track("A", utc(2024, 9, 1), [(10.0, 130.0), (10.0, 131.0)], ws=[20.0, 20.0])
        assert intensity_errors(fc, ref, ref.times) == [(0, -5.0), (6, 5.0)]
        assert _pooled(fc, ref, "ws10m_rmse") == (5.0, 2)

    def test_single_point_intensity(self):
        ref = _track("A", utc(2024, 9, 1), [(10.0, 130.0)], ws=[26.0])
        fc = _track("A", utc(2024, 9, 1), [(10.0, 130.0)], ws=[30.0])
        assert _pooled(fc, ref, "ws10m_rmse") == (4.0, 1)

    def test_by_lead_grouping(self):
        ref = _track("A", utc(2024, 9, 1), [(0.0, 130.0), (0.0, 131.0), (0.0, 132.0)])
        fc = _track("A", utc(2024, 9, 1), [(0.0, 130.0), (0.0, 132.0), (0.0, 134.0)])
        by_lead = [r for r in skill_rows({"m": [fc]}, [ref])
                   if r[1] == "ALL" and r[3] == "track_mae" and r[2].isdigit()]
        assert [r[2] for r in by_lead] == ["0", "6", "12"]
        assert by_lead[0][4] == 0.0
        assert by_lead[2][4] == pytest.approx(2.0 * 111.19492664455873, rel=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        positions = [(float(rng.uniform(5, 15)), float(rng.uniform(120, 140))) for _ in range(6)]
        ref = _track("A", utc(2024, 9, 1), positions)
        fc_positions = [(lat + 0.5, lon) for lat, lon in positions]
        fc = _track("A", utc(2024, 9, 1), fc_positions)
        # Matching is by valid time, so values cannot depend on the order of ``times``.
        expected = [great_circle_km(a, b) for a, b in zip(fc_positions, positions)]
        assert _pooled(fc, ref, "track_mae")[0] == pytest.approx(np.mean(expected), rel=1e-12)
        shuffled = [ref.times[i] for i in rng.permutation(len(ref.times))]
        assert sorted(track_errors_km(fc, ref, shuffled)) == track_errors_km(fc, ref, ref.times)


class TestSkillRows:
    def test_two_sources_two_storms_every_row_by_hand(self):
        """Source m2 lacks A at 12 h and B at 0 h, so both sources are scored on
        A at 0 and 6 h and B at 6 h; B's lead is counted from each forecast's first fix."""
        d = 2.0 * math.pi * 6371.0 / 360.0  # 1 degree of longitude on the equator, km
        t0 = utc(2024, 9, 1)
        ref_a = _track("A", t0, [(0.0, 130.0), (0.0, 131.0), (0.0, 132.0)], ws=[20.0, 25.0, 30.0])
        ref_b = _track("B", t0, [(0.0, 140.0), (0.0, 141.0)], ws=[30.0, 30.0])
        m1 = [_track("A", t0, [(0.0, 130.0), (0.0, 132.0), (0.0, 132.0)], ws=[22.0, 25.0, 27.0]),
              _track("B", t0, [(0.0, 140.0), (0.0, 140.0)], ws=[30.0, 33.0])]
        m2 = [_track("A", t0, [(0.0, 131.0), (0.0, 131.0)], ws=[20.0, 21.0]),
              _track("B", utc(2024, 9, 1, 6), [(0.0, 141.0)], ws=[26.0])]
        rows = skill_rows({"m1": m1, "m2": m2}, [ref_b, ref_a])
        expected = [
            ("m1", "A", "pooled", "track_mae", d / 2, 2),
            ("m1", "A", "pooled", "ws10m_rmse", math.sqrt(2.0), 2),
            ("m1", "B", "pooled", "track_mae", d, 1),
            ("m1", "B", "pooled", "ws10m_rmse", 3.0, 1),
            ("m1", "ALL", "pooled", "track_mae", 2 * d / 3, 3),
            ("m1", "ALL", "0", "track_mae", 0.0, 1),
            ("m1", "ALL", "6", "track_mae", d, 2),
            ("m1", "ALL", "per_lead_mean", "track_mae", d / 2, 2),
            ("m1", "ALL", "pooled", "ws10m_rmse", math.sqrt(13.0 / 3.0), 3),
            ("m1", "ALL", "0", "ws10m_rmse", 2.0, 1),
            ("m1", "ALL", "6", "ws10m_rmse", math.sqrt(4.5), 2),
            ("m1", "ALL", "per_lead_mean", "ws10m_rmse", (2.0 + math.sqrt(4.5)) / 2, 2),
            ("m2", "A", "pooled", "track_mae", d / 2, 2),
            ("m2", "A", "pooled", "ws10m_rmse", math.sqrt(8.0), 2),
            ("m2", "B", "pooled", "track_mae", 0.0, 1),
            ("m2", "B", "pooled", "ws10m_rmse", 4.0, 1),
            ("m2", "ALL", "pooled", "track_mae", d / 3, 3),
            ("m2", "ALL", "0", "track_mae", d / 2, 2),
            ("m2", "ALL", "6", "track_mae", 0.0, 1),
            ("m2", "ALL", "per_lead_mean", "track_mae", d / 4, 2),
            ("m2", "ALL", "pooled", "ws10m_rmse", math.sqrt(32.0 / 3.0), 3),
            ("m2", "ALL", "0", "ws10m_rmse", math.sqrt(8.0), 2),
            ("m2", "ALL", "6", "ws10m_rmse", 4.0, 1),
            ("m2", "ALL", "per_lead_mean", "ws10m_rmse", (math.sqrt(8.0) + 4.0) / 2, 2),
        ]
        assert [r[:4] + r[5:] for r in rows] == [e[:4] + e[5:] for e in expected]
        assert [r[4] for r in rows] == pytest.approx([e[4] for e in expected], rel=1e-12)

    def test_no_concurrent_pair_is_empty_input(self):
        ref = _track("A", utc(2024, 9, 1), [(10.0, 130.0), (10.0, 131.0)])
        fc = _track("A", utc(2024, 9, 3), [(10.0, 130.0), (10.0, 131.0)])
        with pytest.raises(EmptyInput, match="no concurrently detected"):
            skill_rows({"m": [fc]}, [ref])


class TestConcurrentMatch:
    def test_intersection_of_sources_and_reference(self):
        ref = _track("A", utc(2024, 9, 1, 6), [(10, 130), (10, 131), (10, 132)])
        s1 = _track("A", utc(2024, 9, 1, 0), [(10, 130), (10, 131), (10, 132)])
        s2 = _track("A", utc(2024, 9, 1, 6), [(10, 130), (10, 131), (10, 132)])
        matched = concurrent_match({"m1": [s1], "m2": [s2]}, [ref])
        assert matched == {"A": [utc(2024, 9, 1, 6), utc(2024, 9, 1, 12)]}

    def test_storm_missing_from_one_source_is_dropped(self):
        ref = _track("A", utc(2024, 9, 1), [(10, 130), (10, 131)])
        s1 = _track("A", utc(2024, 9, 1), [(10, 130), (10, 131)])
        matched = concurrent_match({"m1": [s1], "m2": []}, [ref])
        assert matched == {}

    def test_three_sources_against_brute_force(self):
        rng = np.random.default_rng(32)
        start = utc(2024, 9, 1)
        windows = {}
        sources = {}
        for name in ("m1", "m2", "m3"):
            offset = int(rng.integers(0, 3))
            length = int(rng.integers(2, 6))
            windows[name] = set(hour_sequence(start, length + offset)[offset:])
            track = _track("A", sorted(windows[name])[0], [(10, 130)] * len(windows[name]))
            sources[name] = [track]
        ref_times = hour_sequence(start, 6)
        ref = _track("A", start, [(10, 130)] * 6)
        matched = concurrent_match(sources, [ref])
        brute = set(ref_times)
        for times in windows.values():
            brute &= times
        assert set(matched.get("A", [])) == brute


class TestFilterCase:
    def test_model_closer_excluded(self):
        decision = filter_case(-2.0, -5.0, both_under=True, both_over=False, track_err_km=5.0)
        assert decision.decision == "Exclude"

    def test_both_underestimate_strengthens(self):
        decision = filter_case(-6.0, -3.0, both_under=True, both_over=False, track_err_km=5.0)
        assert decision.decision == "Strengthen"

    def test_comparable_with_large_track_error_excluded(self):
        decision = filter_case(-3.5, -3.0, both_under=True, both_over=False, track_err_km=15.0)
        assert decision.decision == "Exclude"
        assert "track" in decision.reason

    def test_both_overestimate_weakens(self):
        decision = filter_case(6.0, 3.0, both_under=False, both_over=True, track_err_km=5.0)
        assert decision.decision == "Weaken"

    def test_mixed_signs_kept(self):
        decision = filter_case(5.0, -3.0, both_under=False, both_over=False, track_err_km=5.0)
        assert decision.decision == "Keep"

    def test_contradictory_flags(self):
        with pytest.raises(InvalidFlags):
            filter_case(1.0, 2.0, both_under=True, both_over=True, track_err_km=0.0)

    def test_nonfinite_mbe_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            filter_case(float("nan"), 2.0, both_under=False, both_over=False, track_err_km=0.0)

    @pytest.mark.parametrize("track_err_km", [float("nan"), -50.0, float("inf"), -0.001])
    def test_bad_track_error_rejected(self, track_err_km):
        with pytest.raises(ValueError, match="track error must be finite and non-negative"):
            filter_case(1.2, 1.0, both_under=False, both_over=False, track_err_km=track_err_km)

    def test_zero_track_error_accepted(self):
        assert filter_case(1.2, 1.0, False, False, 0.0).decision == "Keep"

    def test_decision_is_a_frozen_value(self):
        decision = filter_case(5.0, -3.0, False, False, 5.0, 1.0, 10.0, "c1")
        assert [f.name for f in dataclasses.fields(FilterDecision)] == [
            "case_id", "decision", "reason"]
        assert decision == FilterDecision("c1", "Keep", "no rule applies")
        assert hash(decision) == hash(FilterDecision("c1", "Keep", "no rule applies"))
        assert decision != FilterDecision("c2", "Keep", "no rule applies")
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.decision = "Exclude"


class TestTcTrackType:
    def test_uneven_cadence_rejected(self):
        points = (
            TcPoint(utc(2024, 9, 1, 0), 10.0, 130.0, 20.0),
            TcPoint(utc(2024, 9, 1, 6), 10.0, 131.0, 20.0),
            TcPoint(utc(2024, 9, 1, 18), 10.0, 132.0, 20.0),
        )
        with pytest.raises(ValueError, match="cadence"):
            TcTrack(storm_id="A", points=points)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            TcPoint(utc(2024, 9, 1), 95.0, 130.0, 20.0)
        with pytest.raises(ValueError):
            TcPoint(utc(2024, 9, 1), 10.0, 130.0, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lon", "ws_max", "msl_min"])
    def test_a_non_finite_fix_is_rejected(self, field, bad):
        """A NaN longitude was scored as a 20015 km track error, with exit 0."""
        fix = dict(time=utc(2024, 9, 1), lat=10.0, lon=130.0, ws_max=20.0, msl_min=990.0)
        with pytest.raises(ValueError, match=f"{field} .* not finite"):
            TcPoint(**dict(fix, **{field: bad}))

    def test_longitude_normalized(self):
        assert TcPoint(utc(2024, 9, 1), 10.0, -30.0, 20.0).lon == 330.0
