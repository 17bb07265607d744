"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The oracles here are deliberately naive Python loops, independent of the
library's vectorized implementations.
"""

import math
import time
from datetime import timedelta

import numpy as np
import pytest

from geoverify import (
    EvaluationSet,
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    VqaItem,
    bilinear_upsample,
    closed_accuracy,
    filter_case,
    great_circle_km,
    latitude_weights,
    open_token_recall,
    weighted_acc,
    weighted_rmse,
)
from geoverify.cli import main, time_stem
from geoverify.cubeio import write_cube
from geoverify.metrics import evaluate_set, psnr
from geoverify.tc import track_cyclone
from conftest import utc, write_climatology
from synthetic import synthetic_vortex_series, tracker_catalog


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def _isclose(a: float, b: float, tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


# --- naive-loop oracles -----------------------------------------------------

def loop_weights(lats):
    cosines = [0.0 if abs(v) == 90.0 else math.cos(math.radians(v)) for v in lats]
    total = 0.0
    for c in cosines:
        total += c
    return [len(lats) * c / total for c in cosines]


def loop_weighted_rmse(forecast, reference, weights):
    total = 0.0
    n_lat, n_lon = len(forecast), len(forecast[0])
    for i in range(n_lat):
        for j in range(n_lon):
            d = float(forecast[i][j]) - float(reference[i][j])
            total += weights[i] * d * d
    return math.sqrt(total / (n_lat * n_lon))


def loop_weighted_acc(forecast, reference, clim, weights):
    num = den_f = den_r = 0.0
    for i in range(len(forecast)):
        for j in range(len(forecast[0])):
            fa = float(forecast[i][j]) - float(clim[i][j])
            ra = float(reference[i][j]) - float(clim[i][j])
            num += weights[i] * fa * ra
            den_f += weights[i] * fa * fa
            den_r += weights[i] * ra * ra
    return num / math.sqrt(den_f * den_r)


def loop_psnr(candidate, reference, peak):
    total = 0.0
    count = 0
    for i in range(len(candidate)):
        for j in range(len(candidate[0])):
            d = float(candidate[i][j]) - float(reference[i][j])
            total += d * d
            count += 1
    return 10.0 * math.log10(peak * peak / (total / count))


# --- criteria -----------------------------------------------------------------

def test_criterion_01_metric_oracle_equivalence():
    ok = False
    try:
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n_chan = int(rng.integers(1, 4))
            n_lat = int(rng.integers(2, 6))
            n_lon = int(rng.integers(1, 7))
            lats = rng.uniform(-85.0, 85.0, size=n_lat)
            w = latitude_weights(lats)
            w_oracle = loop_weights(lats)
            cube_f = rng.normal(size=(n_chan, n_lat, n_lon)).astype(np.float32)
            cube_r = rng.normal(size=(n_chan, n_lat, n_lon)).astype(np.float32)
            clim = rng.normal(size=(n_lat, n_lon)).astype(np.float32)
            for c in range(n_chan):
                f, r = cube_f[c], cube_r[c]
                assert _isclose(weighted_rmse(f, r, w), loop_weighted_rmse(f, r, w_oracle))
                assert _isclose(
                    weighted_acc(f, r, clim, w), loop_weighted_acc(f, r, clim, w_oracle)
                )
                assert _isclose(psnr(f, r, 5.0), loop_psnr(f, r, 5.0))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"
        ok = True
    finally:
        _verdict(1, "metric oracle equivalence (200 cubes, 1e-12)", ok)


def test_criterion_02_mean_of_roots_structure():
    ok = False
    try:
        # Latitudes +-45 give exactly unit weights, so a constant difference d
        # yields a per-time RMSE of exactly d.
        spec = GridSpec(2, 4, 45.0, -90.0, 0.0, 90.0)
        catalog = VariableCatalog([VariableId("T2M")])
        t0s = (utc(2024, 1, 1, 0), utc(2024, 1, 2, 0))
        offsets = {t0s[0]: np.float32(1.0), t0s[1]: np.float32(3.0)}
        zeros = np.zeros((1, 2, 4), dtype=np.float32)

        def forecasts(t0, lead, _k):
            return FieldCube(spec, catalog, t0, zeros + offsets[t0])

        def references(valid, _k):
            return FieldCube(spec, catalog, valid, zeros)

        [record], _ = evaluate_set(forecasts, references, EvaluationSet(t0s, (6,)), ["T2M"])
        assert record.value == 2.0, f"expected exactly 2.0, got {record.value!r}"
        ok = True
    finally:
        _verdict(2, "set RMSE is mean-of-roots (exactly 2.0)", ok)


def test_criterion_03_acc_bounds_and_invariances():
    ok = False
    try:
        rng = np.random.default_rng(103)
        w = latitude_weights(np.linspace(75.0, -75.0, 5))
        zero = np.zeros((5, 6))
        for _ in range(1000):
            fa = rng.normal(size=(5, 6))
            ra = rng.normal(size=(5, 6))
            value = weighted_acc(fa, ra, zero, w)
            assert -1.0 <= value <= 1.0
            k = float(rng.uniform(0.1, 50.0))
            assert abs(weighted_acc(k * fa, k * ra, zero, w) - value) < 1e-12
        f = rng.normal(size=(5, 6))
        assert abs(weighted_acc(f, f, zero, w) - 1.0) <= 1e-12
        ok = True
    finally:
        _verdict(3, "ACC bounds, rescaling invariance, self-ACC = 1", ok)


def test_criterion_04_bilinear_exactness():
    ok = False
    try:
        coarse = GridSpec(20, 40, 50.0, -1.5, 100.0, 1.5)       # 1.5 degree
        fine = GridSpec(109, 225, 49.0, -0.25, 101.0, 0.25)     # 0.25 degree inside
        catalog = VariableCatalog([VariableId("T2M")])

        lats, lons = coarse.latitudes, coarse.longitudes
        linear = (2.0 * lats[:, None] + 0.5 * lons[None, :] + 3.0).astype(np.float32)
        cube = FieldCube(coarse, catalog, utc(2024, 2, 2, 18), linear[None])
        out = bilinear_upsample(cube, fine)
        expected = 2.0 * fine.latitudes[:, None] + 0.5 * fine.longitudes[None, :] + 3.0
        rel = np.abs(np.asarray(out.values[0], dtype=np.float64) - expected) / np.abs(expected)
        assert rel.max() < 1e-6, f"max relative error {rel.max():.2e}"

        const = np.full((1, 20, 40), 287.375, dtype=np.float32)
        const_out = bilinear_upsample(
            FieldCube(coarse, catalog, utc(2024, 2, 2, 18), const), fine
        )
        ulp = np.spacing(np.float32(287.375))
        assert np.abs(const_out.values - np.float32(287.375)).max() <= ulp
        ok = True
    finally:
        _verdict(4, "bilinear exactness on linear fields, constants <= 1 ULP", ok)


def test_criterion_05_synthetic_vortex_tracking():
    ok = False
    try:
        spec = GridSpec(141, 201, 45.0, -0.25, 115.0, 0.25)
        rng = np.random.default_rng(105)
        cell = 0.25 + 1e-9
        for _ in range(50):
            lat0 = float(rng.uniform(22.0, 32.0))
            lon0 = float(rng.uniform(130.0, 150.0))
            dlat = float(rng.uniform(-1.0, 1.0))
            dlon = float(rng.uniform(-1.5, 1.5))
            cubes, truth = synthetic_vortex_series(
                spec, utc(2024, 9, 1), 5, lat0, lon0,
                dlat_per_step=dlat, dlon_per_step=dlon,
            )
            for a, b in zip(truth.points, truth.points[1:]):
                assert great_circle_km((a.lat, a.lon), (b.lat, b.lon)) <= 200.0
            track = track_cyclone(cubes, truth.points[0])
            assert track.complete and len(track.points) == 5
            for p, q in zip(track.points, truth.points):
                assert abs(p.lat - q.lat) <= cell
                dlon_err = abs((p.lon - q.lon + 180.0) % 360.0 - 180.0)
                assert dlon_err <= cell
                assert p.ws_max == pytest.approx(q.ws_max, rel=1e-6)

        catalog = tracker_catalog()
        flat = np.zeros((2, 141, 201), dtype=np.float32)
        flat[0] = 1013.0
        for k in range(20):
            seed_lat = float(rng.uniform(22.0, 32.0))
            seed_lon = float(rng.uniform(130.0, 150.0))
            cubes = [
                FieldCube(spec, catalog, utc(2024, 9, 1) + timedelta(hours=6 * s), flat)
                for s in range(3)
            ]
            from geoverify import TcPoint

            track = track_cyclone(cubes, TcPoint(utc(2024, 9, 1), seed_lat, seed_lon, 0.0))
            assert not track.complete and len(track.points) == 1
        ok = True
    finally:
        _verdict(5, "synthetic vortex recovery (50 storms) and no false tracks", ok)


def test_criterion_06_haversine_spot_values():
    ok = False
    try:
        assert great_circle_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
            math.pi * 6371.0, rel=1e-9
        )
        assert great_circle_km((0.0, 0.0), (0.0, 90.0)) == pytest.approx(
            math.pi * 6371.0 / 2.0, rel=1e-9
        )
        ok = True
    finally:
        _verdict(6, "haversine spot values (antipodal, quarter circle)", ok)


def test_criterion_07_filter_truth_table():
    ok = False
    try:
        start = time.perf_counter()
        mbe_cases = {
            "model_closer": {"under": (-2.0, -5.0), "over": (2.0, 5.0), "mixed": (-2.0, 5.0)},
            "wrf_closer": {"under": (-6.0, -3.0), "over": (6.0, 3.0), "mixed": (6.0, -3.0)},
            "comparable": {"under": (-3.5, -3.0), "over": (3.5, 3.0), "mixed": (0.5, -0.5)},
        }

        def expected(relation, bias, track_far):
            if relation == "model_closer":
                return "Exclude"
            if relation == "comparable" and track_far:
                return "Exclude"
            return {"under": "Strengthen", "over": "Weaken", "mixed": "Keep"}[bias]

        for relation, biases in mbe_cases.items():
            for bias, (model, wrf) in biases.items():
                for track_err, track_far in ((5.0, False), (15.0, True)):
                    decision = filter_case(
                        model,
                        wrf,
                        both_under=(bias == "under"),
                        both_over=(bias == "over"),
                        track_err_km=track_err,
                        comparable_tol=1.0,
                        track_threshold_km=10.0,
                    )
                    want = expected(relation, bias, track_far)
                    assert decision.decision == want, (
                        f"{relation}/{bias}/track={track_err}: "
                        f"got {decision.decision}, want {want}"
                    )
        assert time.perf_counter() - start < 1.0
        ok = True
    finally:
        _verdict(7, "WRF filter truth table (18 combinations)", ok)


VQA_CLOSED = [
    ("c01", "Yes", "yes", True),
    ("c02", "no.", "no", True),
    ("c03", " yes ", "yes", True),
    ("c04", "No", "yes", False),
    ("c05", "right", "Right", True),
    ("c06", "left", "Left.", True),
    ("c07", "maybe", "yes", False),
    ("c08", "YES!", "yes", True),
    ("c09", "no", "no", True),
    ("c10", "two  lesions", "two lesions", True),
    ("c11", "one", "two", False),
    ("c12", "Benign", "benign", True),
    ("c13", "malignant", "benign", False),
    ("c14", "present", "Present ", True),
    ("c15", "absent?", "absent", True),
]

VQA_OPEN = [
    ("o01", "vasculature", "vasculature", 1.0),
    ("o02", "coronary artery", "vasculature", 0.0),
    ("o03", "ACTH-dependent Cushing",
     "a patient with ACTH-dependent Cushing syndrome", 3.0 / 7.0),
    ("o04", "the left lobe", "left lower lobe", 2.0 / 3.0),
    ("o05", "hypodense lesion", "right lower lateral lung field", 0.0),
    ("o06", "Left", "left", 1.0),
    ("o07", "right lower lateral lung field", "right lower lateral lung field", 1.0),
    ("o08", "nothing", "right lower lateral lung field", 0.0),
    ("o09", "in the right upper lobe", "right upper lobe", 1.0),
    ("o10", "lower lobe of the left lung", "left lower lobe", 1.0),
    ("o11", "chest x-ray", "chest X-ray", 1.0),
    ("o12", "CT scan", "chest X-ray", 0.0),
    ("o13", "mild cardiomegaly", "cardiomegaly", 1.0),
    ("o14", "yes yes yes", "yes", 1.0),
    ("o15", "the spleen", "spleen enlargement", 0.5),
]


def test_criterion_08_vqa_hand_scored_fixture():
    ok = False
    try:
        closed_items = [VqaItem(qid, "closed", pred, truth) for qid, pred, truth, _ in VQA_CLOSED]
        expected_accuracy = sum(1 for *_, match in VQA_CLOSED if match) / len(VQA_CLOSED)
        assert closed_accuracy(closed_items) == expected_accuracy

        recalls = [open_token_recall(pred, truth) for _, pred, truth, _ in VQA_OPEN]
        for (qid, _, _, want), got in zip(VQA_OPEN, recalls):
            assert got == want, f"{qid}: recall {got} != {want}"
        ok = True
    finally:
        _verdict(8, "VQA hand-scored 30-item fixture (exact)", ok)


def _write_verify_fixture(root, init_times, leads, spec, catalog, seed):
    rng = np.random.default_rng(seed)
    forecast_dir = root / "forecast"
    reference_dir = root / "reference"
    forecast_dir.mkdir()
    reference_dir.mkdir()
    shape = (len(catalog), spec.n_lat, spec.n_lon)
    clim_samples = []
    for t0 in init_times:
        for lead in leads:
            valid = t0 + timedelta(hours=lead)
            ref_path = reference_dir / f"{time_stem(valid)}.gvc"
            if not ref_path.exists():
                ref = FieldCube(spec, catalog, valid, rng.normal(size=shape).astype(np.float32))
                write_cube(ref, ref_path)
                clim_samples.append(
                    FieldCube(
                        spec, catalog, valid.replace(year=2020),
                        rng.normal(size=shape).astype(np.float32),
                    )
                )
            fc = FieldCube(
                spec, catalog, valid,
                (rng.normal(size=shape) * 0.5).astype(np.float32),
            )
            write_cube(fc, forecast_dir / f"{time_stem(t0)}_{lead}.gvc")
    manifest = write_climatology(clim_samples, root / "clim")
    times_file = root / "inits.txt"
    times_file.write_text("".join(f"{t.isoformat()}\n" for t in init_times))
    return forecast_dir, reference_dir, manifest, times_file


def test_criterion_09_thread_count_determinism(tmp_path):
    ok = False
    try:
        spec = GridSpec(5, 8, 60.0, -30.0, 0.0, 45.0)
        catalog = VariableCatalog([VariableId("Z", 500), VariableId("T2M")])
        init_times = [utc(2024, 1, 1, 0) + timedelta(hours=24 * k) for k in range(5)]
        fdir, rdir, manifest, times_file = _write_verify_fixture(
            tmp_path, init_times, [6, 12], spec, catalog, seed=109
        )
        reports = []
        for threads, name in ((1, "t1.csv"), (8, "t8.csv")):
            out = tmp_path / name
            code = main([
                "verify", "--forecast", str(fdir), "--reference", str(rdir),
                "--climatology", str(manifest), "--variables", "Z500,T2M",
                "--init-times", str(times_file), "--leads", "6,12",
                "--threads", str(threads), "--out", str(out),
            ])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        ok = True
    finally:
        _verdict(9, "verify byte-identical at --threads 1 and 8", ok)


def test_criterion_10_performance(tmp_path):
    ok = False
    try:
        # Single full-size cube pair.
        spec = GridSpec(721, 1440, 90.0, -0.25, 0.0, 0.25)
        w = latitude_weights(spec)
        rng = np.random.default_rng(110)
        a = rng.normal(size=(70, 721, 1440)).astype(np.float32)
        b = rng.normal(size=(70, 721, 1440)).astype(np.float32)
        start = time.perf_counter()
        values = [weighted_rmse(a[c], b[c], w) for c in range(70)]
        single = time.perf_counter() - start
        assert len(values) == 70 and all(v > 0 for v in values)
        assert single < 1.0, f"70-channel cube RMSE took {single:.2f}s"
        del a, b

        # Batch verify: 40 init times x 10 leads x 3 variables at 1 degree.
        batch_spec = GridSpec(181, 360, 90.0, -1.0, 0.0, 1.0)
        catalog = VariableCatalog(
            [VariableId("Z", 500), VariableId("T2M"), VariableId("WS10M")]
        )
        init_times = [utc(2024, 1, 1, 0) + timedelta(hours=6 * k) for k in range(40)]
        leads = list(range(6, 61, 6))
        fdir, rdir, manifest, times_file = _write_verify_fixture(
            tmp_path, init_times, leads, batch_spec, catalog, seed=110
        )
        out = tmp_path / "report.csv"
        start = time.perf_counter()
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500,T2M,WS10M",
            "--init-times", str(times_file), "--leads", "6:60:6",
            "--threads", "8", "--out", str(out),
        ])
        batch = time.perf_counter() - start
        assert code == 0
        assert len(out.read_text().splitlines()) == 2 + 3 * 10 * 2
        assert batch < 60.0, f"batch verify took {batch:.1f}s"
        ok = True
    finally:
        _verdict(10, "performance (cube RMSE < 1 s, batch verify < 60 s)", ok)
