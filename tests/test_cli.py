"""End-to-end tests of the batch CLI: subcommands, exit codes, determinism."""

import argparse
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from geoverify import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    bilinear_upsample,
    build_climatology,
)
from geoverify.cli import build_parser, main, parse_leads, time_stem
from geoverify.cubeio import read_csv_rows, read_cube, read_tracks, write_cube
from geoverify.errors import InvalidFlags
from conftest import utc, write_vortex


SPEC = GridSpec(5, 8, 60.0, -30.0, 0.0, 45.0)
CATALOG = VariableCatalog([VariableId("Z", 500), VariableId("T2M")])


def _random_field_cube(rng, valid_time, offset=0.0):
    values = rng.normal(size=(2, 5, 8)) + offset
    return FieldCube(SPEC, CATALOG, valid_time, values.astype(np.float32))


def make_verify_fixture(tmp_path, init_times, leads, seed=0):
    """Forecast/reference cube dirs, an init-times file and a climatology."""
    rng = np.random.default_rng(seed)
    forecast_dir = tmp_path / "forecast"
    reference_dir = tmp_path / "reference"
    forecast_dir.mkdir()
    reference_dir.mkdir()
    from datetime import timedelta

    for t0 in init_times:
        for lead in leads:
            valid = t0 + timedelta(hours=lead)
            ref = _random_field_cube(rng, valid)
            fc = FieldCube(
                SPEC, CATALOG, valid,
                (np.asarray(ref.values) + rng.normal(scale=0.3, size=ref.values.shape))
                .astype(np.float32),
            )
            write_cube(fc, forecast_dir / f"{time_stem(t0)}_{lead}.gvc")
            ref_path = reference_dir / f"{time_stem(valid)}.gvc"
            if not ref_path.exists():
                write_cube(ref, ref_path)

    clim_cubes = []
    seen = set()
    for t0 in init_times:
        for lead in leads:
            valid = t0 + timedelta(hours=lead)
            key = (valid.month, valid.day, valid.hour)
            if key in seen:
                continue
            seen.add(key)
            clim_cubes.append(
                _random_field_cube(rng, valid.replace(year=2020), offset=0.1)
            )
    clim_dir = tmp_path / "clim"
    manifest = build_climatology(clim_cubes).save(clim_dir)

    times_file = tmp_path / "inits.txt"
    times_file.write_text("".join(f"{t.isoformat()}\n" for t in init_times))
    return forecast_dir, reference_dir, manifest, times_file


class TestVerify:
    def test_one_pair_gives_two_rows(self, tmp_path):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        out = tmp_path / "report.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500",
            "--init-times", str(times_file), "--leads", "6", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# params:")
        assert lines[1] == "variable,level,lead_hours,metric,value"
        assert len(lines) == 4
        assert lines[2].startswith("Z,500,6,acc,")
        assert lines[3].startswith("Z,500,6,rmse,")

    def test_missing_climatology_manifest_exits_2(self, tmp_path, capsys):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, _, times_file = make_verify_fixture(tmp_path, init_times, [6])
        missing = tmp_path / "nowhere" / "manifest.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(missing), "--variables", "Z500",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_leads_range_spec(self, tmp_path):
        init_times = [utc(2024, 1, 1, 0)]
        leads = [6, 12, 18, 24]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, leads)
        out = tmp_path / "report.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "T2M", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6:24:6", "--out", str(out),
        ])
        assert code == 0
        leads_seen = [int(line.split(",")[2]) for line in out.read_text().splitlines()[2:]]
        assert leads_seen == leads

    def test_valid_time_mismatch_is_hard_error(self, tmp_path):
        """A forecast file whose header valid time is not init + lead exits 2."""
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        good = fdir / f"{time_stem(init_times[0])}_6.gvc"
        rogue = _random_field_cube(np.random.default_rng(5), utc(2024, 1, 1, 18))
        write_cube(rogue, good)
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_missing_forecast_cube_exits_2(self, tmp_path):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        (fdir / f"{time_stem(init_times[0])}_6.gvc").unlink()
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        init_times = [utc(2024, 1, d, h) for d in (1, 2) for h in (0, 12)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6, 12])
        outputs = []
        for threads, name in ((1, "a.csv"), (8, "b.csv")):
            out = tmp_path / name
            code = main([
                "verify", "--forecast", str(fdir), "--reference", str(rdir),
                "--climatology", str(manifest), "--variables", "Z500,T2M",
                "--init-times", str(times_file), "--leads", "6,12",
                "--threads", str(threads), "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_rerun_is_byte_identical(self, tmp_path):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        args = [
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500",
            "--init-times", str(times_file), "--leads", "6",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("side", ["forecast", "reference"])
    def test_corrupt_catalog_entry_exits_2(self, tmp_path, side):
        """One flipped byte turns the catalog entry Z,500 into Zx500: a data error."""
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = (fdir if side == "forecast" else rdir).glob("*.gvc")
        data = path.read_bytes()
        assert data.count(b"Z,500") == 1
        path.write_bytes(data.replace(b"Z,500", b"Zx500"))
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("side", ["forecast", "reference"])
    def test_unknown_catalog_role_exits_2(self, tmp_path, side):
        """One changed byte in a role is a data error, not a cube with an unknown role."""
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = (fdir if side == "forecast" else rdir).glob("*.gvc")
        path.write_bytes(path.read_bytes().replace(b"Z,500,input-output", b"Z,500,input-outpuX"))
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("side", ["forecast", "reference"])
    def test_out_of_range_valid_time_exits_2(self, tmp_path, side):
        """A valid-time epoch of 10**12 s (year ~33658) is a corrupt header."""
        import struct

        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = (fdir if side == "forecast" else rdir).glob("*.gvc")
        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, 51, 10**12)  # i64 valid time after the 51-byte prefix
        path.write_bytes(bytes(data))
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "manifest_text, row",
        [("doy,hour,filename\n1,6,clim_d001_h06.gvc\n", 1),
         ("doy,hour,n_samples,filename\n1,6,two,clim_d001_h06.gvc\n", 2)],
        ids=["missing-column", "non-integer-n_samples"],
    )
    def test_malformed_climatology_manifest_exits_3(self, tmp_path, capsys, manifest_text, row):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        manifest.write_text(manifest_text)
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 3
        assert f"parse error: row {row}:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_4(self, tmp_path, threads):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse", "--threads", threads,
            "--init-times", str(times_file), "--leads", "6", "--out", str(out),
        ])
        assert code == 4
        assert not out.exists()

    def test_duplicate_init_time_exits_4(self, tmp_path, capsys):
        init_times = [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        times_file.write_text(times_file.read_text() + f"{init_times[0].isoformat()}\n")
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6", "--out", str(out),
        ])
        assert code == 4
        assert "duplicate init time" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_leads_spec_exits_4(self, tmp_path):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6:x",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 4

    def test_usage_error_exits_4(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--forecast", "x"])
        assert err.value.code == 4

    def test_input_only_variable_exits_4(self, tmp_path):
        from geoverify import weather_catalog

        init_times = [utc(2024, 1, 1, 0)]
        fdir = tmp_path / "forecast"
        rdir = tmp_path / "reference"
        fdir.mkdir()
        rdir.mkdir()
        catalog = weather_catalog(include_input_only=True)
        rng = np.random.default_rng(11)
        spec = GridSpec(3, 4, 45.0, -45.0, 0.0, 90.0)
        valid = utc(2024, 1, 1, 6)
        values = rng.normal(size=(len(catalog), 3, 4)).astype(np.float32)
        write_cube(FieldCube(spec, catalog, valid, values),
                   fdir / f"{time_stem(init_times[0])}_6.gvc")
        write_cube(FieldCube(spec, catalog, valid, values),
                   rdir / f"{time_stem(valid)}.gvc")
        times_file = tmp_path / "inits.txt"
        times_file.write_text(f"{init_times[0].isoformat()}\n")
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "LSM", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 4

    def test_rmse_map_output(self, tmp_path):
        from geoverify.cubeio import read_cube

        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        map_dir = tmp_path / "maps"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"), "--map-dir", str(map_dir),
        ])
        assert code == 0
        cube = read_cube(map_dir / "rmsemap_Z500_6.gvc")
        assert cube.values.shape == (1, 5, 8)
        assert (np.asarray(cube.values) >= 0).all()

    def test_keeping_scored_channels_changes_no_output_byte(self, tmp_path, monkeypatch):
        """Report and maps are the bytes that full reads of every cube give."""
        from geoverify import cubeio

        init_times = [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6, 12])
        outputs = []
        for name in ("selective", "full"):
            if name == "full":
                read_cube = cubeio.read_cube
                monkeypatch.setattr(cubeio, "read_cube", lambda path, variables=None: read_cube(path))
            code = main([
                "verify", "--forecast", str(fdir), "--reference", str(rdir),
                "--climatology", str(manifest), "--variables", "T2M",
                "--init-times", str(times_file), "--leads", "6,12",
                "--out", str(tmp_path / f"{name}.csv"), "--map-dir", str(tmp_path / name),
            ])
            assert code == 0
            outputs.append([(tmp_path / f"{name}.csv").read_bytes()] + [
                p.read_bytes() for p in sorted((tmp_path / name).iterdir())])
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_cube_is_read_once(self, tmp_path, monkeypatch, threads):
        """3 inits 6 h apart x leads 6, 12, 18: 9 forecast reads and 5 reference reads."""
        from geoverify import cubeio

        init_times = [utc(2024, 1, 1, h) for h in (0, 6, 12)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6, 12, 18])
        read_cube, reads = cubeio.read_cube, []

        def counted(path, variables=None):
            reads.append(Path(path))
            return read_cube(path, variables)

        monkeypatch.setattr(cubeio, "read_cube", counted)
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500,T2M", "--metrics", "rmse", "--threads", str(threads),
            "--init-times", str(times_file), "--leads", "6,12,18",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 0
        assert len(reads) == 14
        assert sorted(reads) == sorted(fdir.glob("*.gvc")) + sorted(rdir.glob("*.gvc"))
        assert len(list(fdir.glob("*.gvc"))) == 9

    @pytest.mark.parametrize("side", ["forecast", "reference", "climatology"])
    def test_non_finite_value_in_an_unscored_channel_exits_2(self, tmp_path, capsys, side):
        """verify keeps only Z500 but still checks T2M, the channel it does not score."""
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = {"forecast": fdir, "reference": rdir, "climatology": manifest.parent}[side] \
            .glob("*.gvc")
        data = bytearray(path.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()  # last value of T2M, the last channel
        path.write_bytes(bytes(data))
        out = tmp_path / "r.csv"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500",
            "--init-times", str(times_file), "--leads", "6", "--out", str(out),
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_variable_missing_from_a_reference_cube_exits_4(self, tmp_path, capsys):
        from geoverify.cubeio import read_cube

        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = rdir.glob("*.gvc")
        ref = read_cube(path)
        write_cube(FieldCube(SPEC, VariableCatalog([VariableId("Z", 500)]), ref.valid_time,
                             ref.values[:1]), path)
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500,T2M", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 4
        assert "T2M not in catalog" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["forecast", "reference"])
    def test_nan_lon_step_exits_2(self, tmp_path, side):
        import struct

        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        [path] = (fdir if side == "forecast" else rdir).glob("*.gvc")
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 43, float("nan"))  # lon_step, the fourth f64 at byte 19
        path.write_bytes(bytes(data))
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("line", [b"not-a-time", b"\xff2024-01-02T00:00:00Z"],
                             ids=["not-a-time", "not-utf8"])
    def test_malformed_init_time_line_exits_3(self, tmp_path, capsys, line):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        times_file.write_bytes(b"# inits\n%s\r\n%s\n" % (init_times[0].isoformat().encode(), line))
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 3
        assert "parse error: row 3:" in capsys.readouterr().err

    def test_init_times_file_without_times_exits_4(self, tmp_path, capsys):
        init_times = [utc(2024, 1, 1, 0)]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, [6])
        times_file.write_text("# no times yet\n\n")
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--variables", "Z500", "--metrics", "rmse",
            "--init-times", str(times_file), "--leads", "6",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 4
        assert "no init times" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rmse_maps_equal_pointwise_rmse_bitwise(self, tmp_path, threads):
        from datetime import timedelta

        from geoverify import pointwise_rmse, select_channel
        from geoverify.cubeio import read_cube

        init_times = [utc(2024, 1, 2, 0), utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)]
        leads = [6, 12]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, leads)
        map_dir = tmp_path / "maps"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500,T2M",
            "--init-times", str(times_file), "--leads", "6,12",
            "--threads", str(threads), "--out", str(tmp_path / "r.csv"),
            "--map-dir", str(map_dir),
        ])
        assert code == 0
        first = min(init_times)
        for token, var in (("Z500", ("Z", 500)), ("T2M", ("T2M", None))):
            for lead in leads:
                fcs, refs = [], []
                for t0 in sorted(init_times):
                    fcs.append(select_channel(
                        read_cube(fdir / f"{time_stem(t0)}_{lead}.gvc"), var))
                    refs.append(select_channel(read_cube(
                        rdir / f"{time_stem(t0 + timedelta(hours=lead))}.gvc"), var))
                expected = pointwise_rmse(fcs, refs)[None].astype(np.float32)
                cube = read_cube(map_dir / f"rmsemap_{token}_{lead}.gvc")
                assert cube.values.tobytes() == expected.tobytes()
                assert cube.valid_time == first + timedelta(hours=lead)


class TestDownscaleEval:
    COARSE_SPEC = GridSpec(20, 40, 50.0, -1.5, 100.0, 1.5)
    FINE_SPEC = GridSpec(25, 33, 48.0, -0.25, 102.0, 0.25)
    DS_CATALOG = VariableCatalog([VariableId("T2M"), VariableId("WS10M")])

    def _write_fixture(self, tmp_path, times, model_mode):
        rng = np.random.default_rng(7)
        coarse_dir, truth_dir, model_dir = (tmp_path / n for n in ("coarse", "truth", "model"))
        for d in (coarse_dir, truth_dir, model_dir):
            d.mkdir()
        for t in times:
            coarse = FieldCube(
                self.COARSE_SPEC, self.DS_CATALOG, t,
                rng.normal(loc=285.0, scale=5.0, size=(2, 20, 40)).astype(np.float32),
            )
            baseline = bilinear_upsample(coarse, self.FINE_SPEC)
            truth_vals = np.asarray(baseline.values) + rng.normal(
                scale=0.5, size=baseline.values.shape
            ).astype(np.float32)
            truth = FieldCube(self.FINE_SPEC, self.DS_CATALOG, t, truth_vals)
            if model_mode == "identity":
                model = truth
            else:
                model = baseline
            write_cube(coarse, coarse_dir / f"{time_stem(t)}.gvc")
            write_cube(truth, truth_dir / f"{time_stem(t)}.gvc")
            write_cube(model, model_dir / f"{time_stem(t)}.gvc")
        return coarse_dir, truth_dir, model_dir

    def test_identity_model_reports_inf_and_caps_nd(self, tmp_path):
        times = [utc(2024, 2, 2, 18)]
        coarse, truth, model = self._write_fixture(tmp_path, times, "identity")
        out = tmp_path / "ds.csv"
        code = main([
            "downscale-eval", "--coarse", str(coarse), "--truth", str(truth),
            "--model", str(model), "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        model_psnr_rows = [
            line for line in text.splitlines() if ",model,psnr," in line
        ]
        assert model_psnr_rows and all(",inf," in row for row in model_psnr_rows)
        nd = (tmp_path / "ds_nd_T2M_psnr.csv").read_text().splitlines()
        assert "capped_cells=1" in nd[0]
        assert nd[3] == "2,NA,NA,NA,1"

    def test_single_sample_single_cell(self, tmp_path):
        times = [utc(2024, 2, 2, 18)]
        coarse, truth, model = self._write_fixture(tmp_path, times, "bilinear")
        out = tmp_path / "ds.csv"
        assert main([
            "downscale-eval", "--coarse", str(coarse), "--truth", str(truth),
            "--model", str(model), "--out", str(out),
        ]) == 0
        nd = (tmp_path / "ds_nd_T2M_rmse.csv").read_text().splitlines()
        cells = [c for line in nd[2:] for c in line.split(",")[1:]]
        assert cells.count("NA") == 47

    def test_grid_mismatch_reported_per_file(self, tmp_path, capsys):
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        coarse, truth, model = self._write_fixture(tmp_path, times, "bilinear")
        bad_spec = GridSpec(10, 12, 48.0, -0.25, 102.0, 0.25)
        rng = np.random.default_rng(9)
        bad = FieldCube(bad_spec, self.DS_CATALOG, times[0],
                        rng.normal(size=(2, 10, 12)).astype(np.float32))
        write_cube(bad, model / f"{time_stem(times[0])}.gvc")
        out = tmp_path / "ds.csv"
        code = main([
            "downscale-eval", "--coarse", str(coarse), "--truth", str(truth),
            "--model", str(model), "--out", str(out),
        ])
        assert code == 0  # the other sample still evaluates
        err = capsys.readouterr().err
        assert "skipping" in err and time_stem(times[0]) in err
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    @pytest.mark.parametrize("side", ["coarse", "model"])
    def test_cube_lacking_a_channel_skips_the_sample(self, tmp_path, capsys, side):
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        _drop_last_channel(dirs[side] / f"{time_stem(times[0])}.gvc")
        out = tmp_path / "ds.csv"
        assert main(_argv("downscale-eval", out=out, **dirs)) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"geoverify: skipping {time_stem(times[0])}: {side} cube lacks WS10M"
            f" for {time_stem(times[0])}",
            "geoverify: 1 sample(s) skipped",
        ]
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    @pytest.mark.parametrize("peak, code", [("-1", 4), ("0", 4), ("inf", 4), ("-inf", 4),
                                            ("nan", 4), ("2.5", 0)])
    def test_psnr_peak_must_be_positive(self, tmp_path, peak, code):
        times = [utc(2024, 2, 2, 18)]
        coarse, truth, model = self._write_fixture(tmp_path, times, "bilinear")
        out = tmp_path / "ds.csv"
        assert main([
            "downscale-eval", "--coarse", str(coarse), "--truth", str(truth),
            "--model", str(model), f"--psnr-peak={peak}", "--out", str(out),
        ]) == code
        if code:
            assert not out.exists()
        else:
            lines = out.read_text().splitlines()
            assert lines[0].endswith("psnr_peak=2.5")
            assert all(line.endswith(",2.5") for line in lines[2:])
            assert sum(",psnr," in line for line in lines) == 4

    def test_bilinear_vs_bilinear_gives_zero_cells(self, tmp_path):
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        coarse, truth, model = self._write_fixture(tmp_path, times, "bilinear")
        out = tmp_path / "ds.csv"
        assert main([
            "downscale-eval", "--coarse", str(coarse), "--truth", str(truth),
            "--model", str(model), "--out", str(out),
        ]) == 0
        for metric in ("rmse", "psnr"):
            nd = (tmp_path / f"ds_nd_T2M_{metric}.csv").read_text().splitlines()
            values = [
                c for line in nd[2:] for c in line.split(",")[1:] if c != "NA"
            ]
            assert values and all(float(v) == 0.0 for v in values)


class TestTcSubcommands:
    def test_synth_then_track_recovers_planted_track(self, tmp_path):
        out_dir = write_vortex(tmp_path / "vortex", steps=4,
                               spec=GridSpec(81, 121, 40.0, -0.25, 120.0, 0.25))
        tracked = tmp_path / "tracked.csv"
        code = main([
            "tc-track", "--cubes", str(out_dir), "--seeds", str(out_dir / "seeds.csv"),
            "--out", str(tracked),
        ])
        assert code == 0
        [result] = read_tracks(tracked)
        [truth] = read_tracks(out_dir / "truth.csv")
        assert len(result.points) == 4
        from geoverify import great_circle_km

        cell_km = 0.25 * 111.195
        for p, q in zip(result.points, truth.points):
            assert great_circle_km((p.lat, p.lon), (q.lat, q.lon)) <= cell_km * 1.5

    def test_tc_eval_identical_tracks_zero_errors(self, tmp_path):
        out_dir = write_vortex(tmp_path / "vortex", steps=3)
        out = tmp_path / "eval.csv"
        code = main([
            "tc-eval", "--forecast", str(out_dir / "truth.csv"),
            "--reference", str(out_dir / "truth.csv"),
            "--sources", "model", "--out", str(out),
        ])
        assert code == 0
        pooled = [
            line for line in out.read_text().splitlines()
            if line.startswith("model,ALL,pooled,")
        ]
        assert len(pooled) == 2
        assert all(line.split(",")[4] == "0" for line in pooled)

    def test_tc_eval_scores_every_source_on_concurrent_pairs_only(self, tmp_path):
        """Source b lacks the last fix, so source a is scored on 3 of its 4 fixes too."""
        from geoverify import TcPoint, TcTrack
        from geoverify.cubeio import write_tracks
        from geoverify.tc import track_errors_km
        from conftest import hour_sequence

        times = hour_sequence(utc(2024, 9, 1), 4)

        def track(lons, ws):
            return TcTrack("A", tuple(
                TcPoint(t, 15.0, lon, w) for t, lon, w in zip(times, lons, ws)))

        reference = track([130.0, 131.0, 132.0, 133.0], [20.0, 25.0, 30.0, 35.0])
        a = track([130.5, 131.5, 132.0, 140.0], [22.0, 25.0, 27.0, 60.0])
        b = track([130.0, 132.0, 133.0], [20.0, 21.0, 30.0])
        for name, t in (("ref", reference), ("a", a), ("b", b)):
            write_tracks([t], tmp_path / f"{name}.csv")
        out = tmp_path / "eval.csv"
        assert main([
            "tc-eval", "--forecast", f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}",
            "--reference", str(tmp_path / "ref.csv"), "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert {r[2] for r in rows} == {"pooled", "0", "6", "12", "per_lead_mean"}
        pooled = {(r[0], r[1], r[3]): r for r in rows if r[2] == "pooled"}
        a_errors = [e for _, e in track_errors_km(a, reference, times[:3])]
        assert pooled[("a", "A", "track_mae")][4:] == [
            format(float(np.mean(a_errors)), ".6g"), "3"]
        assert pooled[("a", "ALL", "ws10m_rmse")][4:] == [
            format(float(np.sqrt(np.mean(np.square([2.0, 0.0, -3.0])))), ".6g"), "3"]
        assert pooled[("b", "A", "ws10m_rmse")][4:] == [
            format(float(np.sqrt(np.mean(np.square([0.0, -4.0, 0.0])))), ".6g"), "3"]

    def test_synth_vortex_is_not_a_subcommand(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["synth-vortex", "--out", str(tmp_path / "v")])
        assert err.value.code == 4
        assert not (tmp_path / "v").exists()

    def test_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        """tc-track and tc-filter quote such fields as the CSV reader parses them."""
        name = 'Haiyan, "Yolanda"'
        out_dir = write_vortex(tmp_path / "vortex", name=name)
        tracked = tmp_path / "tracked.csv"
        assert main(_argv("tc-track", cubes=out_dir, seeds=out_dir / "seeds.csv",
                          out=tracked)) == 0
        assert [t.name for t in read_tracks(tracked)] == [name]
        assert main(_argv("tc-eval", forecast=tracked, reference=out_dir / "truth.csv",
                          out=tmp_path / "eval.csv")) == 0

        cases = tmp_path / "cases.csv"
        cases.write_text('case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n'
                         '"c1, ""north""",-2,-5,true,false,5\n')
        decisions = tmp_path / "decisions.csv"
        assert main(_argv("tc-filter", cases=cases, out=decisions)) == 0
        [(_, row)] = read_csv_rows(decisions, ["case_id", "decision", "reason"])
        assert row[:2] == ['c1, "north"', "Exclude"]

    def test_tc_filter_rule_exemplars(self, tmp_path):
        cases = tmp_path / "cases.csv"
        cases.write_text(
            "case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
            "c1,-2,-5,true,false,5\n"
            "c2,-6,-3,true,false,5\n"
            "c3,-3.5,-3,true,false,15\n"
        )
        out = tmp_path / "decisions.csv"
        assert main(["tc-filter", "--cases", str(cases), "--out", str(out)]) == 0
        decisions = [line.split(",")[1] for line in out.read_text().splitlines()[2:]]
        assert decisions == ["Exclude", "Strengthen", "Exclude"]

    def test_tc_filter_bad_row_exits_3(self, tmp_path):
        cases = tmp_path / "cases.csv"
        cases.write_text(
            "case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
            "c1,notanumber,-5,true,false,5\n"
        )
        assert main(["tc-filter", "--cases", str(cases),
                     "--out", str(tmp_path / "d.csv")]) == 3

    def test_outputs_start_with_params_line(self, tmp_path):
        out_dir = write_vortex(tmp_path / "vortex", steps=2)
        tracked = tmp_path / "tracked.csv"
        main(["tc-track", "--cubes", str(out_dir), "--seeds", str(out_dir / "seeds.csv"),
              "--out", str(tracked)])
        assert tracked.read_text().startswith("# params:")
        assert "search_radius_km=250" in tracked.read_text().splitlines()[0]


class TestClimatologyCommand:
    def test_build_and_reuse(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        cube_dir = tmp_path / "cubes"
        cube_dir.mkdir()
        for year in (2019, 2020):
            cube = _random_field_cube(rng, utc(year, 6, 1, 12))
            write_cube(cube, cube_dir / f"{time_stem(cube.valid_time)}.gvc")
        out_dir = tmp_path / "clim"
        assert main(["climatology", "--cubes", str(cube_dir), "--out", str(out_dir)]) == 0
        manifest = out_dir / "manifest.csv"
        assert manifest.exists()
        from geoverify.climatology import Climatology

        clim = Climatology.load(manifest)
        assert clim.counts[(153, 12)] == 2


class TestVqaCommand:
    def test_scores_to_report(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text(
            "question_id,type,prediction,ground_truth\n"
            "q1,closed,Yes,yes\n"
            "q2,closed,no,yes\n"
            "q3,open,the left lobe,left lower lobe\n"
        )
        out = tmp_path / "scores.csv"
        assert main(["vqa-score", "--items", str(items), "--benchmark", "vqa-rad",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2] == "VQA-RAD,surface,0,closed_accuracy,0.5"
        assert lines[3].startswith("VQA-RAD,surface,0,open_recall,0.666667")

    def test_parse_error_exits_3(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text("question_id,type,prediction,ground_truth\nq1,weird,a,b\n")
        assert main(["vqa-score", "--items", str(items),
                     "--out", str(tmp_path / "s.csv")]) == 3


# --- failure table: one row per documented failure of each subcommand -------------
#
# Each row builds its inputs under tmp_path and returns the argv of a run that
# must fail.  The run must exit with the row's code, end stderr with exactly one
# "geoverify: <category> error:" line, and leave every file under tmp_path as it
# was: a failed run writes no report, partial or whole.

CATEGORY = {2: "data", 3: "parse", 4: "config"}
FAILURES = []


def failure(code, fragment):
    """Registers ``build(tmp_path) -> argv`` as a row that exits ``code``, naming ``fragment``."""
    def register(build):
        FAILURES.append(pytest.param(build, code, fragment, id=build.__name__))
        return build
    return register


def _argv(command, **flags):
    """``command --flag-name=value ...``; a flag whose value is None is left out."""
    return [command] + [f"--{k.replace('_', '-')}={v}" for k, v in flags.items() if v is not None]


def _poison(path):
    """Overwrites the last float32 of a cube file's payload with NaN."""
    data = bytearray(path.read_bytes())
    data[-4:] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))


def _drop_last_channel(path):
    """Rewrites a cube file without its last channel."""
    cube = read_cube(path)
    write_cube(FieldCube(cube.spec, VariableCatalog(list(cube.catalog)[:-1]), cube.valid_time,
                         cube.values[:-1]), path)


def _verify(tmp, **flags):
    fdir, rdir, manifest, times_file = make_verify_fixture(tmp, [utc(2024, 1, 1, 0)], [6])
    args = dict(forecast=fdir, reference=rdir, climatology=manifest, variables="Z500,T2M",
                init_times=times_file, leads="6", out=tmp / "r.csv", map_dir=tmp / "maps")
    return _argv("verify", **dict(args, **flags))


@failure(2, "missing cube")
def verify_missing_forecast_cube(tmp):
    argv = _verify(tmp)
    (tmp / "inits.txt").write_text("2024-01-01T00:00:00Z\n2024-01-02T00:00:00Z\n")
    return argv


@failure(2, "finite")
def verify_nan_in_a_reference_cube(tmp):
    argv = _verify(tmp)
    [path] = (tmp / "reference").glob("*.gvc")
    _poison(path)
    return argv


@failure(2, "synoptic")
def verify_acc_at_a_non_synoptic_valid_time(tmp):
    argv = _verify(tmp)
    rng = np.random.default_rng(4)
    for path in (tmp / "forecast" / f"{time_stem(utc(2024, 1, 1, 3))}_6.gvc",
                 tmp / "reference" / f"{time_stem(utc(2024, 1, 1, 9))}.gvc"):
        write_cube(_random_field_cube(rng, utc(2024, 1, 1, 9)), path)
    (tmp / "inits.txt").write_text("2024-01-01T03:00:00Z\n")
    return argv


@failure(2, "valid_time")
def verify_reference_header_valid_time_unlike_its_file_name(tmp):
    argv = _verify(tmp)
    [path] = (tmp / "reference").glob("*.gvc")
    write_cube(_random_field_cube(np.random.default_rng(6), utc(2024, 1, 1, 12)), path)
    return argv


@failure(3, "row 2")
def verify_bad_init_time_line(tmp):
    argv = _verify(tmp)
    (tmp / "inits.txt").write_text("2024-01-01T00:00:00Z\nyesterday\n")
    return argv


@failure(3, "row 2")
def verify_bad_climatology_manifest_row(tmp):
    argv = _verify(tmp)
    (tmp / "clim" / "manifest.csv").write_text("doy,hour,n_samples,filename\n1,x,1,a.gvc\n")
    return argv


# The key cube is clim_d001_h06.gvc; a second row must not replace or add a key.

@failure(3, "row 3: repeated key doy 1 hour 6")
def verify_repeated_climatology_manifest_key(tmp):
    argv = _verify(tmp)
    (tmp / "clim" / "manifest.csv").write_text(
        "doy,hour,n_samples,filename\n1,6,1,clim_d001_h06.gvc\n1,6,4,clim_d001_h06.gvc\n")
    return argv


@failure(3, "row 3: doy 367 hour 6 is not a climatology key")
def verify_impossible_climatology_manifest_key(tmp):
    argv = _verify(tmp)
    (tmp / "clim" / "manifest.csv").write_text(
        "doy,hour,n_samples,filename\n1,6,1,clim_d001_h06.gvc\n367,6,1,clim_d001_h06.gvc\n")
    return argv


@failure(4, "--threads")
def verify_zero_threads(tmp):
    return _verify(tmp, threads=0)


@failure(4, "leads")
def verify_bad_leads(tmp):
    return _verify(tmp, leads="6:x")


@failure(4, "--climatology")
def verify_acc_without_climatology(tmp):
    return _verify(tmp, climatology="")


@failure(4, "not in catalog")
def verify_unknown_variable(tmp):
    return _verify(tmp, variables="Q700")


@failure(2, "File exists")
def verify_map_dir_is_a_file(tmp):
    (tmp / "maps").write_text("not a directory\n")
    return _verify(tmp)


def _downscale(tmp, times, **flags):
    coarse, truth, model = TestDownscaleEval()._write_fixture(tmp, times, "bilinear")
    args = dict(coarse=coarse, truth=truth, model=model, out=tmp / "ds.csv")
    return _argv("downscale-eval", **dict(args, **flags))


@failure(2, "synoptic")
def downscale_truth_at_a_non_synoptic_time(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 3)])


@failure(2, "no truth cubes")
def downscale_no_truth_cubes(tmp):
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    for path in (tmp / "truth").glob("*.gvc"):
        path.unlink()
    return argv


@failure(2, "no downscaling samples")
def downscale_missing_model_cube(tmp):
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    for path in (tmp / "model").glob("*.gvc"):
        path.unlink()
    return argv


@failure(2, "no downscaling samples")
def downscale_model_cube_lacks_a_channel(tmp):
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    [path] = (tmp / "model").glob("*.gvc")
    _drop_last_channel(path)
    return argv


@failure(2, "no downscaling samples")
def downscale_nan_in_the_truth_cube(tmp):
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    [path] = (tmp / "truth").glob("*.gvc")
    _poison(path)
    return argv


@failure(4, "--psnr-peak")
def downscale_zero_psnr_peak(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak=0)


@failure(4, "--psnr-peak")
def downscale_infinite_psnr_peak(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak="inf")


def _tc_track(tmp, **flags):
    vortex = write_vortex(tmp / "vortex")
    args = dict(cubes=vortex, seeds=vortex / "seeds.csv", out=tmp / "track.csv")
    return _argv("tc-track", **dict(args, **flags))


@failure(2, "no cubes")
def tc_track_no_cubes(tmp):
    (tmp / "empty").mkdir()
    return _tc_track(tmp, cubes=tmp / "empty")


@failure(2, "finite")
def tc_track_nan_in_a_cube(tmp):
    argv = _tc_track(tmp)
    _poison(sorted((tmp / "vortex").glob("*.gvc"))[-1])
    return argv


# A NaN threshold made the closed-low test always false, so tracking never stopped.
@failure(4, "--closed-low-hpa")
def tc_track_nan_closed_low(tmp):
    return _tc_track(tmp, closed_low_hpa="nan")


@failure(4, "--closed-low-hpa")
def tc_track_negative_closed_low(tmp):
    return _tc_track(tmp, closed_low_hpa=-0.5)


@failure(2, "matches no cube")
def tc_track_seed_time_matches_no_cube(tmp):
    argv = _tc_track(tmp)
    seeds = tmp / "vortex" / "seeds.csv"
    seeds.write_text(seeds.read_text().replace("2024-09-01T00:00:00Z", "2024-09-02T00:00:00Z"))
    return argv


@failure(3, "row 2")
def tc_track_bad_seed_row(tmp):
    argv = _tc_track(tmp)
    (tmp / "vortex" / "seeds.csv").write_text(
        "storm_id,name,time,lat,lon,ws_max,msl_min\nS,,2024-09-01T00:00:00Z,north,130,40,\n")
    return argv


@failure(4, "--search-radius-km")
def tc_track_nonpositive_radius(tmp):
    return _tc_track(tmp, search_radius_km=0)


@failure(2, "negative")
def tc_track_negative_wind(tmp):
    argv = _tc_track(tmp)
    for path in (tmp / "vortex").glob("*.gvc"):
        cube = read_cube(path)
        values = np.array(cube.values)
        values[cube.catalog.index_of(("WS10M", None))] = -1.0
        write_cube(FieldCube(cube.spec, cube.catalog, cube.valid_time, values), path)
    return argv


def _tc_eval(tmp, **flags):
    truth = write_vortex(tmp / "vortex") / "truth.csv"
    return _argv("tc-eval", **dict(dict(forecast=truth, reference=truth, out=tmp / "e.csv"),
                                   **flags))


@failure(4, "--forecast")
def tc_eval_forecast_list_names_no_csv(tmp):
    return _tc_eval(tmp, forecast=",")


@failure(4, "--sources")
def tc_eval_sources_do_not_match_forecasts(tmp):
    return _tc_eval(tmp, sources="a,b")


# The CSVs named below do not exist: the repeated names are rejected before any is read.

@failure(4, "source names must differ")
def tc_eval_repeated_forecast_csv(tmp):
    return _tc_eval(tmp, forecast=f"{tmp / 'a.csv'},{tmp / 'a.csv'}")


@failure(4, "source names must differ")
def tc_eval_repeated_source_name(tmp):
    return _tc_eval(tmp, forecast=f"{tmp / 'a.csv'},{tmp / 'b.csv'}", sources="m,m")


@failure(2, "No such file")
def tc_eval_missing_forecast_csv(tmp):
    return _tc_eval(tmp, forecast=tmp / "nowhere.csv")


@failure(3, "row 2")
def tc_eval_bad_reference_row(tmp):
    bad = tmp / "bad.csv"
    bad.write_text("storm_id,name,time,lat,lon,ws_max,msl_min\nS,,noon,30,130,40,\n")
    return _tc_eval(tmp, reference=bad)


@failure(3, "storm S")
def tc_eval_uneven_track_times(tmp):
    bad = tmp / "bad.csv"
    bad.write_text("storm_id,name,time,lat,lon,ws_max,msl_min\n"
                   + "".join(f"S,,2024-09-01T{h:02d}:00:00Z,30,130,40,\n" for h in (0, 6, 18)))
    return _tc_eval(tmp, reference=bad)


@failure(2, "no concurrently detected")
def tc_eval_no_concurrent_pairs(tmp):
    other = tmp / "other.csv"
    other.write_text("storm_id,name,time,lat,lon,ws_max,msl_min\n"
                     "OTHER,,2024-09-01T00:00:00Z,30,130,40,\n")
    return _tc_eval(tmp, reference=other)


def _tc_filter(tmp, row, **flags):
    cases = tmp / "cases.csv"
    cases.write_text(f"case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n{row}\n")
    return _argv("tc-filter", cases=cases, out=tmp / "d.csv", **flags)


@failure(3, "row 2")
def tc_filter_bad_number(tmp):
    return _tc_filter(tmp, "c1,-2,lots,true,false,5")


@failure(3, "row 2")
def tc_filter_both_under_and_over(tmp):
    return _tc_filter(tmp, "c1,-2,-5,true,true,5")


# An Exclude case (comparable MBEs, 50 km track error) that a NaN or negative
# tolerance or a NaN threshold would turn into Strengthen.
EXCLUDE_CASE = "c1,3,2.5,true,false,50"


@failure(4, "--comparable-tol")
def tc_filter_nan_comparable_tol(tmp):
    return _tc_filter(tmp, EXCLUDE_CASE, comparable_tol="nan")


@failure(4, "--comparable-tol")
def tc_filter_negative_comparable_tol(tmp):
    return _tc_filter(tmp, EXCLUDE_CASE, comparable_tol=-1)


@failure(4, "--track-threshold-km")
def tc_filter_nan_track_threshold(tmp):
    return _tc_filter(tmp, EXCLUDE_CASE, track_threshold_km="nan")


@failure(4, "--track-threshold-km")
def tc_filter_negative_track_threshold(tmp):
    return _tc_filter(tmp, EXCLUDE_CASE, track_threshold_km=-1)


@failure(2, "No such file")
def tc_filter_missing_cases(tmp):
    return _argv("tc-filter", cases=tmp / "cases.csv", out=tmp / "d.csv")


def _climatology(tmp, *times):
    cubes = tmp / "cubes"
    cubes.mkdir()
    rng = np.random.default_rng(8)
    for t in times:
        write_cube(_random_field_cube(rng, t), cubes / f"{time_stem(t)}.gvc")
    return _argv("climatology", cubes=cubes, out=tmp / "clim")


@failure(2, "synoptic")
def climatology_cube_at_a_non_synoptic_time(tmp):
    return _climatology(tmp, utc(2024, 1, 1, 0), utc(2024, 1, 1, 3))


@failure(2, "no cubes")
def climatology_no_cubes(tmp):
    return _climatology(tmp)


@failure(2, "two cubes have valid time 2024-01-01T00:00:00Z")
def climatology_two_cubes_at_one_valid_time(tmp):
    argv = _climatology(tmp, utc(2024, 1, 1, 0), utc(2024, 1, 1, 6))
    write_cube(_random_field_cube(np.random.default_rng(9), utc(2024, 1, 1, 0)),
               tmp / "cubes" / "copy.gvc")
    return argv


@failure(2, "finite")
def climatology_nan_in_a_cube(tmp):
    argv = _climatology(tmp, utc(2024, 1, 1, 0))
    [path] = (tmp / "cubes").glob("*.gvc")
    _poison(path)
    return argv


def _vqa(tmp, rows):
    items = tmp / "items.csv"
    items.write_text("question_id,type,prediction,ground_truth\n" + rows)
    return _argv("vqa-score", items=items, out=tmp / "s.csv")


@failure(3, "row 2")
def vqa_unknown_question_type(tmp):
    return _vqa(tmp, "q1,weird,a,b\n")


@failure(3, "row 3: repeated question_id 'q1'")
def vqa_repeated_question_id(tmp):
    return _vqa(tmp, "q1,closed,yes,yes\nq1,closed,no,yes\n")


@failure(4, "--benchmark")
def vqa_empty_benchmark(tmp):
    return _vqa(tmp, "q1,closed,yes,yes\n") + ["--benchmark="]


@failure(2, "no items")
def vqa_no_items(tmp):
    return _vqa(tmp, "")


@failure(2, "No such file")
def vqa_missing_items(tmp):
    return _argv("vqa-score", items=tmp / "items.csv", out=tmp / "s.csv")


def _tree(root):
    """Every path under root with its bytes, None for a directory."""
    return {p: (p.read_bytes() if p.is_file() else None) for p in root.rglob("*")}


@pytest.mark.parametrize("build, code, fragment", FAILURES)
def test_failure_exits_with_its_code_and_writes_nothing(tmp_path, capsys, build, code, fragment):
    argv = build(tmp_path)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert [line for line in lines if " error: " in line] == lines[-1:]
    assert lines[-1].startswith(f"geoverify: {CATEGORY[code]} error: ")
    assert fragment in lines[-1]
    assert _tree(tmp_path) == before


# --- flag fuzz: any value of any flag exits 0, 2, 3 or 4 ---------------------------

#: Caps on what a drawn value asks for, so no draw starts many threads or asks
#: for many cubes: the value of --threads, the number of leads.
SIZE_CAPS = {"threads": 8, "leads": 8}

#: Flag values other than the valid one.  Random text has no "/", so a drawn
#: path names a file in the run's own empty directory or, as "..", its parent.
OTHER_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "nan", "inf"]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00/"), max_size=12),
)


def _small(flag, value):
    """Whether a drawn value stays under its flag's size cap; one that does not parse does."""
    if flag not in SIZE_CAPS:
        return True
    try:
        size = len(parse_leads(value)) if flag == "leads" else int(value)
    except (ValueError, InvalidFlags):
        return True
    return size <= SIZE_CAPS[flag]


def _option_dests():
    """{subcommand: the dest of each of its options}, as the parser defines them."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {command: {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
            for command, p in sub.choices.items()}


@pytest.fixture(scope="module")
def valid_flags(tmp_path_factory):
    """Valid flag values of every subcommand, over inputs in one module-wide directory."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "in").mkdir()
    (root / "out").mkdir()
    (root / "runs").mkdir()
    fdir, rdir, manifest, times_file = make_verify_fixture(root / "in", [utc(2024, 1, 1, 0)], [6])
    (root / "in" / "ds").mkdir()
    coarse, truth, model = TestDownscaleEval()._write_fixture(
        root / "in" / "ds", [utc(2024, 2, 2, 18)], "bilinear")
    vortex = write_vortex(root / "in" / "vortex")
    cases = root / "in" / "cases.csv"
    cases.write_text("case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
                     "c1,-2,-5,true,false,5\nc2,-6,-3,false,true,15\n")
    items = root / "in" / "items.csv"
    items.write_text("question_id,type,prediction,ground_truth\nq1,closed,yes,Yes\n"
                     "q2,open,left lobe,left lower lobe\n")
    out = root / "out"
    flags = {
        "verify": dict(forecast=fdir, reference=rdir, climatology=manifest,
                       variables="Z500,T2M", init_times=times_file, leads="6",
                       metrics="rmse,acc", out=out / "r.csv", threads=2, map_dir=out / "maps"),
        "downscale-eval": dict(coarse=coarse, truth=truth, model=model, psnr_peak=2.5,
                               out=out / "ds.csv"),
        "tc-track": dict(cubes=vortex, seeds=vortex / "seeds.csv", search_radius_km=250,
                         intensity_radius_km=250, closed_low_hpa=0.5, ring_width_km=100,
                         out=out / "track.csv"),
        "tc-eval": dict(forecast=vortex / "truth.csv", reference=vortex / "truth.csv",
                        sources="model", out=out / "eval.csv"),
        "tc-filter": dict(cases=cases, comparable_tol=1, track_threshold_km=10,
                          out=out / "decisions.csv"),
        "climatology": dict(cubes=rdir, out=out / "clim"),
        "vqa-score": dict(items=items, benchmark="vqa-rad", out=out / "scores.csv"),
    }
    return root / "runs", {command: {k: str(v) for k, v in f.items()} for command, f in flags.items()}


def test_fuzz_covers_every_option_of_every_subcommand(valid_flags):
    _, flags = valid_flags
    assert {command: set(values) for command, values in flags.items()} == _option_dests()


@pytest.mark.parametrize("command", sorted(_option_dests()))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_flag_values_exit_with_a_documented_code(valid_flags, command, data):
    runs, flags = valid_flags
    drawn = dict(flags[command])
    for flag in data.draw(st.sets(st.sampled_from(sorted(drawn)), max_size=3), label="changed"):
        drawn[flag] = data.draw(OTHER_VALUES.filter(lambda v, f=flag: _small(f, v)), label=flag)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=runs) as run_dir:
        os.chdir(run_dir)
        try:
            code = main(_argv(command, **drawn))
        except SystemExit as e:  # argparse rejected a value
            code = e.code
        finally:
            os.chdir(cwd)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4)
