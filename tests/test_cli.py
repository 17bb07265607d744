"""End-to-end tests of the batch CLI: subcommands, exit codes, determinism."""

import argparse
import contextlib
import gc
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import geoverify
from geoverify import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    bilinear_upsample,
    build_climatology,
    cubeio,
    tc,
)
from geoverify.cli import build_parser, main, parse_leads, time_stem
from geoverify.cubeio import (
    read_csv_rows,
    read_cube,
    read_header,
    read_tracks,
    write_cube,
    write_tracks,
)
from geoverify.errors import InvalidFlags, NonFiniteValue
from conftest import utc, write_climatology, write_vortex
from synthetic import synthetic_vortex_series, tracker_catalog, weather_catalog


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
    manifest = write_climatology(clim_cubes, tmp_path / "clim")

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

    def test_an_out_name_that_fits_the_name_limit_once_staged_is_written(self, tmp_path):
        # The staged name ".<name>.<pid>.tmp" is exactly as long as the file system
        # allows; a name staged twice over would pass the limit.
        wrap = len(f"..{os.getpid()}.tmp")
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        out = tmp_path / ("r" * (limit - wrap - len(".csv")) + ".csv")
        assert len(out.name) + wrap == limit < len(out.name) + 2 * wrap
        assert main(_verify(tmp_path, out=out)) == 0
        assert out.read_text().splitlines()[1] == "variable,level,lead_hours,metric,value"

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

    def test_a_variable_named_twice_is_scored_once(self, tmp_path):
        """Z500 named twice added each pair's value twice: RMSE doubled, ACC a traceback."""
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, [utc(2024, 1, 1, 0)], [6])
        reports = []
        for variables in ("Z500", "Z500,Z500"):
            out = tmp_path / f"{variables}.csv"
            assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                              variables=variables, init_times=times_file, leads="6",
                              out=out)) == 0
            reports.append(out.read_text().splitlines()[1:])
        assert reports[1] == reports[0]
        assert len(reports[0]) == 3

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
         ("doy,hour,n_samples,filename\n1,6,two,clim_d001_h06.gvc\n", 2),
         ("doy,hour,n_samples,filename\n1,6,-5,clim_d001_h06.gvc\n", 2)],
        ids=["missing-column", "non-integer-n_samples", "n_samples-below-1"],
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
        cube = read_cube(read_header(map_dir / "rmsemap_Z500_6.gvc"))
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
                monkeypatch.setattr(cubeio, "read_cube",
                                    lambda header, variables=None, channels=None, *,
                                    _scan_kept=True: read_cube(header, _scan_kept=_scan_kept))
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

        def counted(header, variables=None, channels=None, *, _scan_kept=True):
            reads.append(Path(header.path))
            return read_cube(header, variables, channels, _scan_kept=_scan_kept)

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
        ref = read_cube(read_header(path))
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
    @pytest.mark.parametrize("wanted", ["rmse", "acc", "rmse,acc"])
    def test_rmse_maps_equal_pointwise_rmse_bitwise(self, tmp_path, wanted, threads):
        """The kernel adds each pair's d^2 to its map, whichever scores it makes."""
        from datetime import timedelta

        from geoverify import select_channel
        from geoverify.cubeio import read_cube
        from geoverify.metrics import pointwise_rmse

        init_times = [utc(2024, 1, 2, 0), utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)]
        leads = [6, 12]
        fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path, init_times, leads)
        map_dir = tmp_path / "maps"
        code = main([
            "verify", "--forecast", str(fdir), "--reference", str(rdir),
            "--climatology", str(manifest), "--variables", "Z500,T2M",
            "--init-times", str(times_file), "--leads", "6,12", "--metrics", wanted,
            "--threads", str(threads), "--out", str(tmp_path / "r.csv"),
            "--map-dir", str(map_dir),
        ])
        assert code == 0
        assert sorted(p.name for p in map_dir.iterdir()) == sorted(
            f"rmsemap_{token}_{lead}.gvc" for token in ("Z500", "T2M") for lead in leads)
        first = min(init_times)
        for token, var in (("Z500", ("Z", 500)), ("T2M", ("T2M", None))):
            for lead in leads:
                fcs, refs = [], []
                for t0 in sorted(init_times):
                    fcs.append(select_channel(
                        read_cube(read_header(fdir / f"{time_stem(t0)}_{lead}.gvc")), var))
                    refs.append(select_channel(read_cube(
                        read_header(rdir / f"{time_stem(t0 + timedelta(hours=lead))}.gvc")), var))
                expected = pointwise_rmse(fcs, refs)[None].astype(np.float32)
                cube = read_cube(read_header(map_dir / f"rmsemap_{token}_{lead}.gvc"))
                assert cube.values.tobytes() == expected.tobytes()
                assert cube.valid_time == first + timedelta(hours=lead)


class TestVerifyChannelRanges:
    """verify reads each cube in channel ranges; a range of these 2-channel cubes holds one."""

    INITS = [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12), utc(2024, 1, 2, 0)]

    @pytest.fixture
    def one_channel_ranges(self, monkeypatch):
        monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)

    def _verify(self, tmp_path, fixture, out, threads=1):
        fdir, rdir, manifest, times_file = fixture
        return main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                          variables="Z500,T2M", init_times=times_file, leads="6,12",
                          threads=threads, out=tmp_path / f"{out}.csv",
                          map_dir=tmp_path / out))

    def _outputs(self, tmp_path, out):
        return [(tmp_path / f"{out}.csv").read_bytes()] + [
            p.read_bytes() for p in sorted((tmp_path / out).iterdir())]

    def _counted_reads(self, monkeypatch):
        from geoverify import cubeio

        read_cube, reads = cubeio.read_cube, []

        def counted(header, variables=None, channels=None, *, _scan_kept=True):
            reads.append((Path(header.path).name, channels))
            return read_cube(header, variables, channels, _scan_kept=_scan_kept)

        monkeypatch.setattr(cubeio, "read_cube", counted)
        return reads

    def test_cut_of_the_025_degree_weather_catalog_keeps_two_channels_a_range(self):
        from geoverify.cli import _cut

        catalog = weather_catalog()
        groups, [spans] = _cut([catalog], list(catalog), 721 * 1440 * 4)
        assert [len(g) for g in groups] == [2] * 35
        assert spans == [range(2 * k, 2 * k + 2) for k in range(35)]

    def test_cut_is_used_only_where_every_catalog_agrees(self):
        from geoverify.cli import _cut
        from geoverify.cubeio import RANGE_BYTES

        a = VariableCatalog([VariableId("V", k) for k in range(1, 9)])
        b = VariableCatalog([a.get(f"V{k}") for k in (2, 1, 5, 3, 4, 7, 6, 8)])
        order = [a.get(token) for token in ("V2", "V4", "V5", "V7")]
        # b stores V5 before V4, so no cut falls between them.
        groups, spans = _cut([a, b], order, RANGE_BYTES)
        assert groups == [order[:1], order[1:3], order[3:]]
        assert spans == [[range(0, 2), range(2, 5), range(5, 8)],
                         [range(0, 1), range(1, 5), range(5, 8)]]
        groups, [spans] = _cut([a], order, RANGE_BYTES // 2)
        assert groups == [order[:2], order[2:]]
        assert spans == [range(0, 4), range(4, 8)]
        reversed_a = VariableCatalog(list(a)[::-1])
        assert _cut([a, reversed_a], order, 1) == ([order], [[range(0, 8)], [range(0, 8)]])

    def test_each_range_is_read_once_and_bytes_match_whole_file_reads(
            self, tmp_path, monkeypatch):
        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        assert self._verify(tmp_path, fixture, "whole") == 0
        monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)
        reads = self._counted_reads(monkeypatch)
        assert self._verify(tmp_path, fixture, "ranges") == 0
        # Each forecast, reference and key cube once per range: Z500, then T2M.
        files = [p.name for d in (fixture[0], fixture[1], fixture[2].parent)
                 for p in d.glob("*.gvc")]
        assert len(files) == 6 + 6 + 6
        assert len(reads) == len(set(reads))
        assert set(reads) == {(name, c) for name in files for c in (range(0, 1), range(1, 2))}
        assert self._outputs(tmp_path, "ranges") == self._outputs(tmp_path, "whole")

    @pytest.mark.usefixtures("one_channel_ranges")
    def test_reference_and_key_in_reversed_channel_order_give_the_same_bytes(
            self, tmp_path, monkeypatch):
        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        assert self._verify(tmp_path, fixture, "stored") == 0
        for path in [*fixture[1].glob("*.gvc"), *fixture[2].parent.glob("*.gvc")]:
            _reverse_channels(path)
        reads = self._counted_reads(monkeypatch)
        assert self._verify(tmp_path, fixture, "reversed") == 0
        assert {c for _, c in reads} == {range(0, 2)}  # no cut agrees: one range per file
        assert self._outputs(tmp_path, "reversed") == self._outputs(tmp_path, "stored")

    @pytest.mark.usefixtures("one_channel_ranges")
    def test_one_file_in_another_channel_order_gives_one_range_at_every_valid_time(
            self, tmp_path, monkeypatch):
        """The run has one plan: one cut over every catalog of every valid time."""
        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        assert self._verify(tmp_path, fixture, "stored") == 0
        _reverse_channels(sorted(fixture[1].glob("*.gvc"))[-1])  # the last valid time's reference
        reads = self._counted_reads(monkeypatch)
        assert self._verify(tmp_path, fixture, "reversed") == 0
        assert len(reads) == 6 + 6 + 6  # each forecast, reference and key once, whole
        assert {c for _, c in reads} == {range(0, 2)}
        assert self._outputs(tmp_path, "reversed") == self._outputs(tmp_path, "stored")

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.usefixtures("one_channel_ranges")
    def test_single_run_ranges_take_no_buffer(self, tmp_path, monkeypatch, threads):
        """Each range keeps one channel: its values are a view of a mapping of its pages.

        Inits are 6 h apart at leads 6, 12, 18, so up to three pairs share a valid time.
        """
        from geoverify import cubeio, metrics

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, h) for h in (0, 6, 12)], [6, 12, 18])
        mmap, calls = cubeio.mmap.mmap, []
        monkeypatch.setattr(cubeio.mmap, "mmap", lambda *args, **kwargs: calls.append("map")
                            or mmap(*args, **kwargs))
        reads = self._counted_reads(monkeypatch)
        assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                          variables="Z500,T2M", init_times=times_file, leads="6,12,18",
                          threads=threads, out=tmp_path / "out.csv")) == 0
        assert len(reads) == (9 + 5 + 5) * 2  # 9 forecasts, 5 references and 5 keys, 2 ranges
        assert calls == ["map"] * len(reads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_multi_run_ranges_give_the_bytes_of_adjacent_channels(
            self, tmp_path, monkeypatch, threads):
        """With T850 stored between Z500 and T2M, each file is one range of two kept runs,
        copied into an array of its own rather than mapped."""
        from geoverify import metrics

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        assert self._verify(tmp_path, fixture, "adjacent", threads) == 0
        for directory in (fixture[0], fixture[1], fixture[2].parent):
            for path in directory.glob("*.gvc"):
                _insert_channel(path, 1, VariableId("T", 850))
        mmap, calls = cubeio.mmap.mmap, []
        monkeypatch.setattr(cubeio.mmap, "mmap", lambda *args, **kwargs: calls.append("map")
                            or mmap(*args, **kwargs))
        reads = self._counted_reads(monkeypatch)
        assert self._verify(tmp_path, fixture, "between", threads) == 0
        assert len(reads) == 6 + 6 + 6  # each forecast, reference and key once, whole
        assert {c for _, c in reads} == {range(0, 3)}
        assert calls == []
        assert self._outputs(tmp_path, "between") == self._outputs(tmp_path, "adjacent")

    @pytest.mark.usefixtures("one_channel_ranges")
    def test_report_and_maps_equal_at_1_2_3_threads(self, tmp_path, monkeypatch):
        from geoverify import metrics

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 3)
        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        for threads in (1, 2, 3):
            assert self._verify(tmp_path, fixture, f"t{threads}", threads) == 0
        assert self._outputs(tmp_path, "t2") == self._outputs(tmp_path, "t1")
        assert self._outputs(tmp_path, "t3") == self._outputs(tmp_path, "t1")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rmse_and_acc_take_one_row_sums_pass_per_pair_and_variable(
            self, tmp_path, monkeypatch, threads):
        from geoverify import metrics

        fixture = make_verify_fixture(tmp_path, self.INITS, [6, 12])
        row_sums, passes = metrics._row_sums, []

        def counted(*args, **kwargs):
            passes.append(args[0].shape)
            return row_sums(*args, **kwargs)

        monkeypatch.setattr(metrics, "_row_sums", counted)
        assert self._verify(tmp_path, fixture, "out", threads) == 0
        assert len(passes) == len(self.INITS) * 2 * 2  # (init, lead) pairs x Z500, T2M
        assert set(passes) == {(SPEC.n_lat, SPEC.n_lon)}

    @pytest.mark.usefixtures("one_channel_ranges")
    def test_nan_in_the_last_range_exits_2_after_earlier_ranges_were_scored(
            self, tmp_path, monkeypatch, capsys):
        from geoverify import metrics

        fixture = make_verify_fixture(tmp_path, self.INITS[:1], [6, 12])
        _poison(sorted(fixture[1].glob("*.gvc"))[-1])  # T2M of the last valid time
        # An rmse,acc run scores both metrics of a pair in one weighted_acc call.
        weighted_acc, scored = metrics.weighted_acc, []

        def counted(*args, **kwargs):
            try:
                value = weighted_acc(*args, **kwargs)
            except NonFiniteValue:
                scored.append("raised")
                raise
            scored.append(value)
            return value

        monkeypatch.setattr(metrics, "weighted_acc", counted)
        assert self._verify(tmp_path, fixture, "out") == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"geoverify: data error: {sorted(fixture[1].glob('*.gvc'))[-1]}: "
            "cube values must be finite")
        # Z500 and T2M at the first valid time and Z500 at the last are scored;
        # the row sums of T2M at the last find the NaN.
        assert len(scored) == 4 and scored[3] == "raised"
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out").exists()

    def test_nan_in_a_key_no_valid_time_uses_is_not_read(self, tmp_path):
        fixture = make_verify_fixture(tmp_path, self.INITS[:1], [6, 12])
        manifest = fixture[2]
        [used, *_] = sorted(manifest.parent.glob("*.gvc"))
        unused = manifest.parent / "clim_d200_h00.gvc"
        unused.write_bytes(used.read_bytes())
        _poison(unused)
        with open(manifest, "a") as f:
            f.write("200,0,1,clim_d200_h00.gvc\n")
        assert self._verify(tmp_path, fixture, "out") == 0


class TestVerifyHeaderPass:
    """verify reads and checks every header of the run before any payload."""

    @pytest.mark.parametrize("fault", ["flipped magic byte", "deleted"])
    def test_a_header_fault_at_the_last_valid_time_beats_a_nan_at_the_first(
            self, tmp_path, monkeypatch, capsys, fault):
        from geoverify import cubeio, metrics
        from geoverify.cli import forecast_path

        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)], [6, 12])
        _poison(forecast_path(fdir, utc(2024, 1, 1, 0), 6))  # the first valid time's forecast
        last = forecast_path(fdir, utc(2024, 1, 1, 12), 12)  # the last valid time's only one
        if fault == "deleted":
            last.unlink()
        else:
            raw = bytearray(last.read_bytes())
            raw[0] ^= 0xFF
            last.write_bytes(bytes(raw))
        calls = []
        for module, name in ((metrics, "_row_sums"), (cubeio, "read_cube")):
            def counted(*args, name=name, call=getattr(module, name), **kwargs):
                calls.append(name)
                return call(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                          variables="Z500,T2M", init_times=times_file, leads="6,12",
                          out=tmp_path / "r.csv", map_dir=tmp_path / "maps")) == 2
        _one_error_line(capsys.readouterr().err, 2, last)
        assert calls == []
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("side", ["forecast", "reference"])
    def test_a_variable_missing_from_a_later_cube_exits_4_naming_it(self, tmp_path, capsys,
                                                                   side):
        from geoverify.cli import forecast_path, reference_path

        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)], [6, 12])
        last = {"forecast": forecast_path(fdir, utc(2024, 1, 1, 12), 12),
                "reference": reference_path(rdir, utc(2024, 1, 2, 0))}[side]
        _drop_last_channel(last)  # T2M
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                          variables="Z500,T2M", init_times=times_file, leads="6,12",
                          out=tmp_path / "r.csv", map_dir=tmp_path / "maps")) == 4
        assert _one_error_line(capsys.readouterr().err, 4, last) == (
            f"geoverify: config error: {last}: variable T2M not in catalog")
        assert _tree(tmp_path) == before

    def test_plan_hashes_as_many_variables_for_one_init_time_as_for_four(self, tmp_path,
                                                                          monkeypatch):
        """A catalog hashes its entries once, when it is made, not at each file's lookup."""
        from geoverify import cli, cubeio

        plan, var_hash, counts, counting = cli._plan, VariableId.__hash__, [], [False]

        def counted_hash(var):
            if counting[0]:
                counts[-1] += 1
            return var_hash(var)

        def counted_plan(*args):
            counting[0] = True
            try:
                return plan(*args)
            finally:
                counting[0] = False

        monkeypatch.setattr(VariableId, "__hash__", counted_hash)
        monkeypatch.setattr(cli, "_plan", counted_plan)
        for n in (1, 4):
            (tmp_path / str(n)).mkdir()
            inits = [utc(2024, 1, 1 + day, 0) for day in range(n)]
            fdir, rdir, manifest, times_file = make_verify_fixture(tmp_path / str(n), inits,
                                                                   [6, 12])
            monkeypatch.setattr(cubeio, "_CATALOGS", {})  # each run makes its catalogs anew
            counts.append(0)
            assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                              variables="Z500,T2M", init_times=times_file, leads="6,12",
                              out=tmp_path / f"r{n}.csv")) == 0
        assert counts[0] == counts[1]


class TestVerifyNonFiniteScoredValue:
    """verify reads scored channels unscanned: the metric kernels' row sums find a NaN or
    Inf, and a rescan of that valid time's files names the file that holds it."""

    @pytest.mark.parametrize("map_dir", [False, True], ids=["report", "maps"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("wanted, side", [
        (m, side) for m in ("rmse", "acc", "rmse,acc")
        for side in ("forecast", "reference", "climatology") if "acc" in m or side != "climatology"
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_exits_2_naming_the_file_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                        bad, wanted, side, threads, map_dir):
        from geoverify import metrics

        # One channel a range, and two workers on any machine: Z500 and T2M go to
        # different workers, and the NaN/Inf is in T2M, the second range.
        monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, 0)], [6, 12])
        directory = {"forecast": fdir, "reference": rdir, "climatology": manifest.parent}[side]
        path = sorted(directory.glob("*.gvc"))[-1]
        _poison(path, 13 - SPEC.n_lat * SPEC.n_lon, bad)  # value 13 of T2M, the last channel
        before = _tree(tmp_path)
        capsys.readouterr()
        argv = _argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                     variables="Z500,T2M", metrics=wanted, init_times=times_file, leads="6,12",
                     threads=threads, out=tmp_path / "r.csv",
                     map_dir=tmp_path / "maps" if map_dir else None)
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"geoverify: data error: {path}: cube values must be finite"]
        assert _tree(tmp_path) == before

    def test_no_kept_channel_is_scanned_when_every_channel_is_scored(self, tmp_path,
                                                                      monkeypatch):
        """Each kept value enters a row sum, so only the channels verify does not keep
        are scanned: T2M when Z500 alone is scored, nothing when both are."""
        from geoverify import cubeio, grid

        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, 0)], [6, 12])
        scans = []
        for module in (grid, cubeio):
            def counted(values, module=module, all_finite=module.all_finite):
                scans.append((module.__name__, values.size))
                return all_finite(values)

            monkeypatch.setattr(module, "all_finite", counted)
        for variables in ("Z500,T2M", "Z500"):
            assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                              variables=variables, init_times=times_file, leads="6,12",
                              out=tmp_path / "r.csv")) == 0
            # Two forecasts, two references and two climatology keys.
            assert scans == ([] if variables == "Z500,T2M" else
                             [("geoverify.cubeio", SPEC.n_lat * SPEC.n_lon)] * 6)


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
    def test_cube_lacking_a_channel_skips_the_sample(self, tmp_path, capsys, monkeypatch, side):
        """The skipped sample's headers are checked before any payload is read, so it
        reads none, its truth's included: only the other sample's three cubes are read."""
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        _drop_last_channel(dirs[side] / f"{time_stem(times[0])}.gvc")
        kept = _kept_channels(monkeypatch)
        out = tmp_path / "ds.csv"
        assert main(_argv("downscale-eval", out=out, **dirs)) == 0
        assert kept == [["T2M", "WS10M"]] * 3
        assert capsys.readouterr().err.splitlines() == [
            f"geoverify: skipping {time_stem(times[0])}: {side} cube lacks WS10M"
            f" for {time_stem(times[0])}",
            "geoverify: 1 sample(s) skipped",
        ]
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    @pytest.mark.parametrize("side", ["coarse", "model"])
    def test_cube_at_another_valid_time_skips_the_sample_before_upsampling(
            self, tmp_path, capsys, monkeypatch, side):
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        path = dirs[side] / f"{time_stem(times[0])}.gvc"
        write_cube(replace(read_cube(read_header(path)), valid_time=utc(2024, 3, 13, 18)), path)
        upsampled = _upsampled_times(monkeypatch)
        out = tmp_path / "ds.csv"
        assert main(_argv("downscale-eval", out=out, **dirs)) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"geoverify: skipping {time_stem(times[0])}: {side} cube valid_time"
            f" 2024-03-13T18:00:00Z != truth valid_time 2024-02-02T18:00:00Z"
            f" for {time_stem(times[0])}",
            "geoverify: 1 sample(s) skipped",
        ]
        assert upsampled == [times[1]]
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    @pytest.mark.parametrize("side", ["coarse", "model"])
    def test_nan_in_a_scored_channel_skips_its_sample(self, tmp_path, capsys, monkeypatch,
                                                      side):
        """read_cube scans the coarse and model cubes it reads; only the upsampled cube goes
        unscanned.  The model payload is read after the upsample, so its NaN costs one."""
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        path = dirs[side] / f"{time_stem(times[0])}.gvc"
        spec = self.COARSE_SPEC if side == "coarse" else self.FINE_SPEC
        _poison(path, index=-2 * spec.n_lat * spec.n_lon + 417)  # in the first channel, T2M
        upsampled = _upsampled_times(monkeypatch)
        out = tmp_path / "ds.csv"
        assert main(_argv("downscale-eval", out=out, **dirs)) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"geoverify: skipping {time_stem(times[0])}: {path}: ")
        assert lines[1:] == ["geoverify: 1 sample(s) skipped"]
        assert upsampled == (times[1:] if side == "coarse" else times)
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    def test_a_non_synoptic_truth_time_fails_at_its_header_naming_the_file(
            self, tmp_path, capsys, monkeypatch):
        """Found from the 12:30 header, the last one, before any payload of any sample
        is read."""
        times = [utc(2024, 2, 2, 0), utc(2024, 2, 2, 6), utc(2024, 2, 2, 12).replace(minute=30)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        upsampled = _upsampled_times(monkeypatch)
        _refuse_payload_reads(monkeypatch)
        assert main(_argv("downscale-eval", out=tmp_path / "ds.csv", **dirs)) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"geoverify: data error: {dirs['truth'] / '20240202T123000Z.gvc'}: "
            f"2024-02-02 12:30:00+00:00 is not a 6-hourly synoptic time")
        assert upsampled == []
        assert not list(tmp_path.glob("ds*"))

    def test_a_sample_never_holds_four_cubes(self, tmp_path, monkeypatch):
        """Three samples of 16-channel cubes, each twice the size of the bilinear plan.

        While it upsamples, a sample holds its truth and the last and new baselines;
        while it scores, truth, baseline and model.  The traced peak stays under three
        cubes, the plan and half a cube for the coarse cube and working buffers: a
        fourth cube would exceed it by at least half a cube.
        """
        rng = np.random.default_rng(3)
        fine = GridSpec(161, 241, 48.0, -0.25, 102.0, 0.25)
        coarse_spec = GridSpec(23, 33, 50.0, -2.0, 100.0, 2.0)
        catalog = VariableCatalog([VariableId("T", level) for level in range(100, 1700, 100)])
        dirs = {side: tmp_path / side for side in ("coarse", "truth", "model")}
        for directory in dirs.values():
            directory.mkdir()
        for t in (utc(2024, 2, 2, 0), utc(2024, 2, 2, 6), utc(2024, 2, 2, 12)):
            coarse = FieldCube(coarse_spec, catalog, t, rng.normal(
                size=(len(catalog), coarse_spec.n_lat, coarse_spec.n_lon)).astype(np.float32))
            truth = bilinear_upsample(coarse, fine)
            truth, model = (replace(truth, values=truth.values + rng.normal(
                scale=0.1, size=truth.values.shape).astype(np.float32)) for _ in range(2))
            for side, cube in (("coarse", coarse), ("truth", truth), ("model", model)):
                write_cube(cube, dirs[side] / f"{time_stem(t)}.gvc")
        monkeypatch.setattr("geoverify.regrid._last_plan", None)
        tracemalloc.start()
        try:
            assert main(_argv("downscale-eval", out=tmp_path / "ds.csv", **dirs)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cube = len(catalog) * 4 * fine.n_lat * fine.n_lon
        plan = sum(a.nbytes for a in geoverify.regrid._last_plan[1])
        assert peak < 3 * cube + plan + cube // 2

    def _add_unscored_channels(self, dirs):
        """Stores an input-only LSM between T2M and WS10M in every cube, and a Q850, which
        truth lacks, first in every coarse cube."""
        rng = np.random.default_rng(11)
        for side, directory in dirs.items():
            spec = self.COARSE_SPEC if side == "coarse" else self.FINE_SPEC
            for path in sorted(directory.glob("*.gvc")):
                _insert_channel(path, 1, VariableId("LSM", role="input-only"),
                                rng.uniform(size=(spec.n_lat, spec.n_lon)))
                if side == "coarse":
                    _insert_channel(path, 0, VariableId("Q", 850),
                                    rng.normal(size=(spec.n_lat, spec.n_lon)))

    def test_unscored_channels_are_neither_kept_nor_upsampled(self, tmp_path, monkeypatch):
        """Every cube keeps and every upsample gets truth's input-output channels only, and
        the outputs keep the bytes of a run on cubes without the other channels."""
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        argv = _argv("downscale-eval", out=tmp_path / "ds.csv", **dirs)
        assert main(argv) == 0
        expected = {p.name: p.read_bytes() for p in tmp_path.glob("ds*.csv")}
        assert len(expected) == 5
        self._add_unscored_channels(dirs)
        kept, upsampled = _kept_channels(monkeypatch), []
        monkeypatch.setattr("geoverify.regrid.bilinear_upsample",
                            lambda cube, spec: upsampled.append([v.token for v in cube.catalog])
                            or bilinear_upsample(cube, spec))
        assert main(argv) == 0
        assert kept == [["T2M", "WS10M"]] * 6
        assert upsampled == [["T2M", "WS10M"]] * 2
        assert {p.name: p.read_bytes() for p in tmp_path.glob("ds*.csv")} == expected

    @pytest.mark.parametrize("side", ["coarse", "truth", "model"])
    def test_nan_in_an_input_only_channel_skips_its_sample(self, tmp_path, capsys, side):
        """The channels a sample does not keep are still checked for NaN/Inf."""
        times = [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)]
        dirs = dict(zip(("coarse", "truth", "model"),
                        self._write_fixture(tmp_path, times, "bilinear")))
        self._add_unscored_channels(dirs)
        path = dirs[side] / f"{time_stem(times[0])}.gvc"
        spec = self.COARSE_SPEC if side == "coarse" else self.FINE_SPEC
        _poison(path, index=-spec.n_lat * spec.n_lon - 7)  # in LSM, the last channel but one
        out = tmp_path / "ds.csv"
        assert main(_argv("downscale-eval", out=out, **dirs)) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"geoverify: skipping {time_stem(times[0])}: {path}: cube values must be finite",
            "geoverify: 1 sample(s) skipped",
        ]
        times_in_report = {line.split(",")[0] for line in out.read_text().splitlines()[2:]}
        assert times_in_report == {"2024-07-01T06:00:00Z"}

    @pytest.mark.parametrize("poisoned", [None, "20240202T180000Z.gvc", "copy.gvc"])
    def test_two_truth_cubes_at_one_valid_time_are_named(self, tmp_path, capsys, monkeypatch,
                                                         poisoned):
        """Found from the copy's header before any payload is read, so a NaN in either
        payload cannot hide it."""
        argv = _repeated_truth(tmp_path, poisoned)
        _refuse_payload_reads(monkeypatch)
        assert main(argv) == 2
        truth = tmp_path / "truth"
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"geoverify: data error: two truth cubes have valid time 2024-02-02T18:00:00Z: "
            f"{truth / '20240202T180000Z.gvc'} and {truth / 'copy.gvc'}")

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

    def test_a_matrix_that_cannot_be_written_exits_2_and_leaves_no_report(self, tmp_path,
                                                                         capsys):
        """A run that fails to write a matrix leaves no report and no other matrix."""
        coarse, truth, model = self._write_fixture(tmp_path, [utc(2024, 2, 2, 18)], "bilinear")
        (tmp_path / "ds_nd_WS10M_rmse.csv").mkdir()
        assert main(_argv("downscale-eval", coarse=coarse, truth=truth, model=model,
                          out=tmp_path / "ds.csv")) == 2
        assert "ds_nd_WS10M_rmse.csv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "coarse", "ds_nd_WS10M_rmse.csv", "model", "truth"]


@pytest.mark.skipif(geoverify.metrics._usable_cpus() < 2,
                    reason="a second BLAS thread needs a second CPU")
def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """verify (RMSE, ACC and maps) and downscale-eval, each in a fresh interpreter.

    With OPENBLAS_NUM_THREADS unset, geoverify loads OpenBLAS with one thread;
    with it set to 2, OpenBLAS keeps two.  Every output file keeps its bytes.
    """
    inputs = tmp_path / "in"
    inputs.mkdir()
    fdir, rdir, manifest, times_file = make_verify_fixture(
        inputs, [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)], [6, 12])
    (inputs / "ds").mkdir()
    coarse, truth, model = TestDownscaleEval()._write_fixture(
        inputs / "ds", [utc(2024, 2, 2, 18), utc(2024, 2, 3, 0)], "bilinear")
    commands = [
        _argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
              variables="Z500,T2M", init_times=times_file, leads="6,12", metrics="rmse,acc",
              out="r.csv", map_dir="maps"),
        _argv("downscale-eval", coarse=coarse, truth=truth, model=model, out="ds.csv"),
    ]
    src = str(Path(geoverify.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for blas_threads in (None, "2"):
        run = tmp_path / f"blas-{blas_threads}"
        run.mkdir()
        run_env = env if blas_threads is None else dict(env, OPENBLAS_NUM_THREADS=blas_threads)
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "geoverify.cli", *argv], cwd=run,
                                  env=run_env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs.append({p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()})
    assert Path("r.csv") in outputs[0] and Path("ds.csv") in outputs[0]
    assert any(p.parts[0] == "maps" for p in outputs[0])
    assert outputs[0] == outputs[1]


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

    def test_tc_filter_keeps_a_case_id_that_starts_with_hash(self, tmp_path):
        cases = tmp_path / "cases.csv"
        cases.write_text("case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
                         '"#7",-2,-5,true,false,5\n# a comment\nc2,-6,-3,true,false,5\n')
        decisions = tmp_path / "decisions.csv"
        assert main(_argv("tc-filter", cases=cases, out=decisions)) == 0
        rows = read_csv_rows(decisions, ["case_id", "decision", "reason"])
        assert [row[:2] for _, row in rows] == [["#7", "Exclude"], ["c2", "Strengthen"]]

    def test_tc_filter_reads_the_case_below_a_comment_holding_a_quote(self, tmp_path):
        cases = tmp_path / "cases.csv"
        cases.write_text('case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n'
                         '# note,"unclosed\nc1,-2,-5,true,false,5\n')
        decisions = tmp_path / "decisions.csv"
        assert main(_argv("tc-filter", cases=cases, out=decisions)) == 0
        rows = read_csv_rows(decisions, ["case_id", "decision", "reason"])
        assert [row[:2] for _, row in rows] == [["c1", "Exclude"]]

    def test_tc_eval_reads_a_track_whose_params_line_holds_a_quote(self, tmp_path):
        """tc-track's "# params:" line names a --cubes path with a quote after a comma."""
        out_dir = write_vortex(tmp_path / 'cubes,"q')
        tracked = tmp_path / "tracked.csv"
        assert main(_argv("tc-track", cubes=out_dir, seeds=out_dir / "seeds.csv",
                          out=tracked)) == 0
        assert tracked.read_text().startswith(f"# params: cubes={out_dir} ")
        out = tmp_path / "eval.csv"
        assert main(_argv("tc-eval", forecast=tracked, reference=out_dir / "truth.csv",
                          sources="model", out=out)) == 0
        pooled = [line for line in out.read_text().splitlines()
                  if line.startswith("model,ALL,pooled,track_mae,")]
        assert pooled == ["model,ALL,pooled,track_mae,0,3"]

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


#: (storm id, first step, last step, lat, lon at the first step) of each storm that
#: write_storms plants; each moves 1 degree east per 6 h.  A and B overlap in time,
#: B dies before the last cube, so its track stops early, and C lives only in it.
STORMS = (("A", 0, 5, 35.0, 124.0), ("B", 1, 3, 25.0, 132.0), ("C", 5, 5, 24.0, 143.0))
STORM_SPEC = GridSpec(41, 61, 40.0, -0.5, 120.0, 0.5)


def write_storms(directory, steps=6, names_against_time=False):
    """Cubes holding every STORMS vortex alive at their step, and the seeds of all three.

    Cubes are named by valid time, or with ``names_against_time`` by names that
    sort the other way; returns the cubes in time order.
    """
    directory.mkdir()
    start = utc(2024, 9, 1)
    msl = np.full((steps, STORM_SPEC.n_lat, STORM_SPEC.n_lon), 1013.0)
    ws = np.zeros_like(msl)
    seeds = []
    for storm_id, first, last, lat, lon in STORMS:
        cubes, truth = synthetic_vortex_series(
            STORM_SPEC, start + timedelta(hours=6 * first), last - first + 1, lat, lon,
            dlon_per_step=1.0, storm_id=storm_id)
        for k, cube in enumerate(cubes, start=first):
            msl[k] += cube.values[0] - 1013.0
            ws[k] = np.maximum(ws[k], cube.values[1])
        seeds.append(replace(truth, name=f"storm {storm_id}", points=truth.points[:1]))
    write_tracks(seeds, directory / "seeds.csv")
    cubes = []
    for k in range(steps):
        cube = FieldCube(STORM_SPEC, tracker_catalog(), start + timedelta(hours=6 * k),
                         np.stack([msl[k], ws[k]]).astype(np.float32))
        name = f"{99 - k:02d}" if names_against_time else time_stem(cube.valid_time)
        write_cube(cube, directory / f"{name}.gvc")
        cubes.append(cube)
    return cubes


class TestTcTrackStreaming:
    """tc-track reads the cubes once, in valid-time order, holding one at a time."""

    def _run(self, directory, out, **flags):
        return main(_argv("tc-track", cubes=directory, seeds=directory / "seeds.csv", out=out,
                          **flags))

    def test_bytes_equal_a_per_storm_track_cyclone_oracle(self, tmp_path, capsys):
        directory = tmp_path / "storms"
        cubes = write_storms(directory)
        out = tmp_path / "track.csv"
        assert self._run(directory, out) == 0
        times = [cube.valid_time for cube in cubes]
        oracle = [
            tc.track_cyclone(cubes[times.index(seed.points[0].time):], seed.points[0],
                             storm_id=seed.storm_id, name=seed.name)
            for seed in read_tracks(directory / "seeds.csv")
        ]
        assert [(t.storm_id, len(t.points), t.complete) for t in oracle] == [
            ("A", 6, True), ("B", 3, False), ("C", 1, True)]
        params = {"cubes": directory, "seeds": directory / "seeds.csv", "search_radius_km": 250.0,
                  "intensity_radius_km": 250.0, "closed_low_hpa": 0.5, "ring_width_km": 100.0}
        write_tracks(oracle, tmp_path / "oracle.csv", params)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert capsys.readouterr().err == "geoverify: tracking stopped early for: B\n"

    def test_each_cube_read_once_in_time_order_with_no_earlier_cube_alive(
            self, tmp_path, monkeypatch):
        from geoverify import cubeio

        directory = tmp_path / "storms"
        write_storms(directory, names_against_time=True)
        read_cube, reads, alive = cubeio.read_cube, [], []

        def watched(header, variables=None, *, _scan_kept=True):
            alive.extend(str(p) for p, cube in reads if cube() is not None)
            cube = read_cube(header, variables, _scan_kept=_scan_kept)
            reads.append((Path(header.path), weakref.ref(cube)))
            return cube

        monkeypatch.setattr(cubeio, "read_cube", watched)
        assert self._run(directory, tmp_path / "track.csv") == 0
        assert alive == []
        paths = [p for p, _ in reads]
        assert paths == sorted(directory.glob("*.gvc"), reverse=True)  # valid-time order
        assert len(paths) == 6

    def test_each_cube_keeps_only_the_tracked_channels(self, tmp_path, monkeypatch):
        """Channels the tracker does not read, before and between its two, change no byte
        of the tracks and are not kept."""
        directory = tmp_path / "storms"
        write_storms(directory)
        out = tmp_path / "track.csv"
        assert self._run(directory, out) == 0
        before = out.read_bytes()
        rng = np.random.default_rng(5)
        for path in directory.glob("*.gvc"):
            _insert_channel(path, 0, VariableId("T2M"), rng.normal(size=(STORM_SPEC.n_lat,
                                                                          STORM_SPEC.n_lon)))
            _insert_channel(path, 2, VariableId("Z", 500), 5500.0)
        kept = _kept_channels(monkeypatch)
        assert self._run(directory, out) == 0
        assert kept == [["MSL", "WS10M"]] * 6
        assert out.read_bytes() == before

    def test_channel_order_is_read_from_each_cube(self, tmp_path):
        """Storing step 2 as [WS10M, MSL] changes no byte of the tracks."""
        directory = write_vortex(tmp_path / "vortex")
        out = tmp_path / "track.csv"
        assert self._run(directory, out) == 0
        before = out.read_bytes()
        _reverse_channels(sorted(directory.glob("*.gvc"))[1])
        assert self._run(directory, out) == 0
        assert out.read_bytes() == before

    def test_nan_in_the_last_cube_after_fixes_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        directory = write_vortex(tmp_path / "vortex", steps=3)
        _poison(sorted(directory.glob("*.gvc"))[-1])
        step, found = tc.CycloneTracker.step, []

        def counted(tracker, cube):
            found.append(step(tracker, cube))
            return found[-1]

        monkeypatch.setattr(tc.CycloneTracker, "step", counted)
        out = tmp_path / "track.csv"
        assert self._run(directory, out) == 2
        assert found == [True, True]
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    def test_seed_faults_are_reported_before_any_payload_fault(self, tmp_path, capsys):
        """Seeds are checked against the headers first: a seed row that does not
        parse is reported (exit 3) although a cube holds a NaN."""
        directory = write_vortex(tmp_path / "vortex")
        _poison(sorted(directory.glob("*.gvc"))[0])
        (directory / "seeds.csv").write_text("storm_id,name,time,lat,lon,ws_max,msl_min\n"
                                             "S,,2024-09-01T00:00:00Z,north,130,40,\n")
        assert self._run(directory, tmp_path / "track.csv") == 3
        assert "row 2" in capsys.readouterr().err


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
        assert manifest.read_text().splitlines()[1:] == ["153,12,2,clim_d153_h12.gvc"]
        from geoverify.climatology import Climatology

        assert set(Climatology.load(manifest).headers) == {(153, 12)}

    #: Six cubes over three keys, two years each, in time order.
    TIMES = sorted(utc(year, 6, day, hour) for year in (2019, 2020)
                   for day, hour in ((1, 0), (1, 12), (2, 0)))

    def _cubes(self, cube_dir):
        """The TIMES cubes, in files whose names sort against valid time."""
        cube_dir.mkdir()
        rng = np.random.default_rng(4)
        cubes = [_random_field_cube(rng, t) for t in self.TIMES]
        for cube in cubes:
            write_cube(cube, cube_dir / f"{99 - self.TIMES.index(cube.valid_time):02d}.gvc")
        return cubes

    @pytest.mark.parametrize("one_channel_ranges", [False, True])
    def test_each_cube_read_once_a_range_in_key_then_time_order_with_no_earlier_cube_alive(
            self, tmp_path, monkeypatch, one_channel_ranges):
        cube_dir = tmp_path / "cubes"
        self._cubes(cube_dir)
        if one_channel_ranges:
            monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)
        read_cube, reads, alive = cubeio.read_cube, [], []

        def watched(header, variables=None, channels=None, *, _scan_kept=True):
            alive.extend(str(p) for p, _, cube in reads if cube() is not None)
            cube = read_cube(header, variables, channels, _scan_kept=_scan_kept)
            reads.append((Path(header.path), channels, weakref.ref(cube)))
            return cube

        monkeypatch.setattr(cubeio, "read_cube", watched)
        assert main(_argv("climatology", cubes=cube_dir, out=tmp_path / "clim")) == 0
        assert alive == []
        # Files 99..94 hold TIMES in order; a key's two cubes are a year apart.
        ranges = [range(0, 1), range(1, 2)] if one_channel_ranges else [range(0, 2)]
        assert [(p.name, c) for p, c, _ in reads] == [
            (f"{99 - k - year}.gvc", c) for k in (0, 1, 2) for c in ranges for year in (0, 3)]

    def test_a_later_cube_with_another_catalog_fails_before_any_read(
            self, tmp_path, monkeypatch, capsys):
        from geoverify import cubeio

        cube_dir = tmp_path / "cubes"
        last = self._cubes(cube_dir)[-1]
        write_cube(FieldCube(last.spec, VariableCatalog(list(last.catalog)[::-1]),
                             last.valid_time, last.values[::-1]), cube_dir / "94.gvc")
        reads = []
        monkeypatch.setattr(cubeio, "read_cube", lambda *a, **k: reads.append(a))
        assert main(_argv("climatology", cubes=cube_dir, out=tmp_path / "clim")) == 2
        assert reads == []
        assert "94.gvc: grid or catalog differs from" in capsys.readouterr().err
        assert not (tmp_path / "clim").exists()

    def test_a_later_cube_on_another_grid_fails_before_any_read(
            self, tmp_path, monkeypatch, capsys):
        from geoverify import cubeio

        cube_dir = tmp_path / "cubes"
        self._cubes(cube_dir)
        _move_lat_start(cube_dir / "94.gvc")
        reads = []
        monkeypatch.setattr(cubeio, "read_cube", lambda *a, **k: reads.append(a))
        assert main(_argv("climatology", cubes=cube_dir, out=tmp_path / "clim")) == 2
        assert reads == []
        assert "94.gvc: grid or catalog differs from" in capsys.readouterr().err
        assert not (tmp_path / "clim").exists()

    def test_key_cubes_and_manifest_are_the_bytes_of_a_build_from_any_order_of_paths(
            self, tmp_path):
        self._cubes(tmp_path / "cubes")
        assert main(_argv("climatology", cubes=tmp_path / "cubes", out=tmp_path / "clim")) == 0
        paths = cubeio.cube_paths(tmp_path / "cubes")
        build_climatology(paths[::-1], tmp_path / "reversed")
        build_climatology(paths[1::2] + paths[::2], tmp_path / "shuffled")
        written = sorted((tmp_path / "clim").iterdir())
        assert [p.name for p in written] == [
            "clim_d153_h00.gvc", "clim_d153_h12.gvc", "clim_d154_h00.gvc", "manifest.csv"]
        for other in ("reversed", "shuffled"):
            assert [p.read_bytes() for p in written] == [
                (tmp_path / other / p.name).read_bytes() for p in written]

    def test_nan_in_the_last_key_leaves_an_existing_climatology_and_no_temporary_directory(
            self, tmp_path, capsys):
        cube_dir = tmp_path / "cubes"
        self._cubes(cube_dir)
        out = tmp_path / "clim"
        assert main(_argv("climatology", cubes=cube_dir, out=out)) == 0
        last = cube_dir / "00.gvc"
        write_cube(_random_field_cube(np.random.default_rng(5), utc(2020, 6, 3, 0)), last)
        _poison(last)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(_argv("climatology", cubes=cube_dir, out=out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"geoverify: data error: {last}: cube values must be finite"]
        assert _tree(tmp_path) == before

    def test_a_failed_build_into_a_new_nested_directory_leaves_nothing(self, tmp_path):
        cube_dir = tmp_path / "cubes"
        self._cubes(cube_dir)
        _poison(cube_dir / "94.gvc")
        assert main(_argv("climatology", cubes=cube_dir, out=tmp_path / "a" / "b" / "clim")) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cubes"]
        assert main(_argv("climatology", cubes=cube_dir, out=cube_dir / "clim")) == 2
        assert len(list(cube_dir.iterdir())) == 6


class TestHeadersByTime:
    def test_indexes_every_cube_by_header_time_without_reading_payloads(
            self, tmp_path, monkeypatch):
        cube_dir = tmp_path / "cubes"
        cubes = TestClimatologyCommand()._cubes(cube_dir)
        monkeypatch.setattr(cubeio, "read_cube", mock.Mock(side_effect=AssertionError))
        headers = cubeio.headers_by_time(cubeio.cube_paths(cube_dir))
        assert sorted(headers) == TestClimatologyCommand.TIMES
        for k, cube in enumerate(cubes):
            header = headers[cube.valid_time]
            assert header.path.name == f"{99 - k:02d}.gvc"
            assert header.valid_time == cube.valid_time
            assert (header.spec, header.catalog) == (cube.spec, cube.catalog)

    def test_two_cubes_at_one_valid_time_name_both_files(self, tmp_path):
        from geoverify.errors import GeoverifyError

        cube_dir = tmp_path / "cubes"
        TestClimatologyCommand()._cubes(cube_dir)
        shutil.copyfile(cube_dir / "99.gvc", cube_dir / "copy.gvc")
        with pytest.raises(GeoverifyError) as err:
            cubeio.headers_by_time(cubeio.cube_paths(cube_dir))
        message = str(err.value)
        assert message.startswith("two cubes have valid time 2019-06-01T00:00:00Z: ")
        assert "99.gvc" in message and "copy.gvc" in message
        assert err.value.exit_code == 2


class TestOneHeaderParsePerFile:
    """Each cube file's header is parsed once per run, by read_header, however often
    its payload is read."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """{path: header parses}, counting each read of a cube's fixed header from byte 0."""
        parses = {}

        class Counted(io.BufferedReader):
            def read(self, size=-1):
                if size == cubeio._FIXED_HEADER.size and self.tell() == 0:
                    path = Path(self.name)
                    parses[path] = parses.get(path, 0) + 1
                return super().read(size)

        def counted_open(file, mode="r", **kwargs):
            return Counted(io.FileIO(file)) if mode == "rb" else open(file, mode, **kwargs)

        monkeypatch.setattr(cubeio, "open", counted_open, raising=False)
        return parses

    def test_verify_with_acc_in_one_channel_ranges(self, tmp_path, monkeypatch, parses):
        monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)
        fdir, rdir, manifest, times_file = make_verify_fixture(
            tmp_path, [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)], [6, 12])
        parses.clear()  # of the fixture's climatology build
        assert main(_argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                          variables="Z500,T2M", init_times=times_file, leads="6,12",
                          out=tmp_path / "r.csv")) == 0
        files = [*fdir.glob("*.gvc"), *rdir.glob("*.gvc"), *manifest.parent.glob("*.gvc")]
        assert parses == dict.fromkeys(files, 1)

    def test_tc_track(self, tmp_path, parses):
        directory = tmp_path / "storms"
        write_storms(directory)
        assert main(_argv("tc-track", cubes=directory, seeds=directory / "seeds.csv",
                          out=tmp_path / "track.csv")) == 0
        assert parses == dict.fromkeys(directory.glob("*.gvc"), 1)

    def test_climatology_in_one_channel_ranges(self, tmp_path, monkeypatch, parses):
        monkeypatch.setattr(cubeio, "RANGE_BYTES", SPEC.n_lat * SPEC.n_lon * 4)
        cube_dir = tmp_path / "cubes"
        TestClimatologyCommand()._cubes(cube_dir)
        assert main(_argv("climatology", cubes=cube_dir, out=tmp_path / "clim")) == 0
        assert parses == dict.fromkeys(cube_dir.glob("*.gvc"), 1)

    def test_downscale_eval(self, tmp_path, parses):
        dirs = TestDownscaleEval()._write_fixture(tmp_path, [utc(2024, 2, 2, 18)], "bilinear")
        coarse, truth, model = dirs
        assert main(_argv("downscale-eval", coarse=coarse, truth=truth, model=model,
                          out=tmp_path / "ds.csv")) == 0
        assert parses == dict.fromkeys([p for d in dirs for p in d.glob("*.gvc")], 1)


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

    def test_item_id_that_starts_with_hash_is_counted(self, tmp_path):
        items = tmp_path / "items.csv"
        items.write_text('question_id,type,prediction,ground_truth\n'
                         '"#q",closed,yes,yes\nq2,closed,no,yes\n')
        out = tmp_path / "scores.csv"
        assert main(_argv("vqa-score", items=items, out=out)) == 0
        assert out.read_text().splitlines()[2] == "VQA,surface,0,closed_accuracy,0.5"

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


def _poison(path, index=-1, value=np.nan):
    """Overwrites a float32 of a cube file's payload, by default the last, with ``value``.

    ``index`` counts from the payload's end, which is the file's end: -1 is the last value.
    """
    data = bytearray(path.read_bytes())
    offset = len(data) + 4 * index
    data[offset:offset + 4] = np.float32(value).tobytes()
    path.write_bytes(bytes(data))


def _drop_last_channel(path):
    """Rewrites a cube file without its last channel."""
    cube = read_cube(read_header(path))
    write_cube(FieldCube(cube.spec, VariableCatalog(list(cube.catalog)[:-1]), cube.valid_time,
                         cube.values[:-1]), path)


def _reverse_channels(path):
    """Rewrites a cube file with its channels stored in reverse order."""
    cube = read_cube(read_header(path))
    write_cube(FieldCube(cube.spec, VariableCatalog(list(cube.catalog)[::-1]), cube.valid_time,
                         cube.values[::-1]), path)


def _insert_channel(path, index, var, value=0.0):
    """Rewrites a cube file with a channel ``var`` before its channel ``index``, holding
    ``value``: a number or an H x W field."""
    cube = read_cube(read_header(path))
    entries = list(cube.catalog)
    write_cube(FieldCube(cube.spec, VariableCatalog(entries[:index] + [var] + entries[index:]),
                         cube.valid_time, np.insert(cube.values, index, value, axis=0)), path)


def _kept_channels(monkeypatch) -> list:
    """Makes ``cubeio.read_cube`` record the tokens each cube it returns keeps, in a list
    that this returns."""
    read_cube, kept = cubeio.read_cube, []

    def watched(header, variables=None):
        cube = read_cube(header, variables)
        kept.append([var.token for var in cube.catalog])
        return cube

    monkeypatch.setattr(cubeio, "read_cube", watched)
    return kept


def _refuse_payload_reads(monkeypatch):
    """Makes ``cubeio.read_cube`` fail the test if it is called."""
    def read(*args, **kwargs):
        raise AssertionError("a payload was read")

    monkeypatch.setattr(cubeio, "read_cube", read)


def _upsampled_times(monkeypatch) -> list:
    """Makes ``regrid.bilinear_upsample`` record the valid time of each cube it upsamples,
    in a list that this returns."""
    upsampled = []
    monkeypatch.setattr("geoverify.regrid.bilinear_upsample",
                        lambda cube, spec: upsampled.append(cube.valid_time)
                        or bilinear_upsample(cube, spec))
    return upsampled


def _move_lat_start(path, lat_start=59.0):
    """Rewrites a cube file with its grid's first latitude at ``lat_start``; same shape."""
    cube = read_cube(read_header(path))
    write_cube(FieldCube(replace(cube.spec, lat_start=lat_start), cube.catalog, cube.valid_time,
                         cube.values), path)


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


@failure(2, "climatology file clim_d002_h06.gvc mismatches manifest")
def verify_climatology_keys_with_different_catalogs(tmp):
    """A key no valid time uses must still share the first key's whole catalog."""
    argv = _verify(tmp)
    key = read_cube(read_header(tmp / "clim" / "clim_d001_h06.gvc"))
    write_cube(FieldCube(key.spec, VariableCatalog(list(key.catalog)[::-1]), key.valid_time,
                         key.values[::-1]), tmp / "clim" / "clim_d002_h06.gvc")
    with open(tmp / "clim" / "manifest.csv", "a") as f:
        f.write("2,6,1,clim_d002_h06.gvc\n")
    return argv


# A file of the same shape on another grid was scored with the first forecast's
# latitude weights, and exited 0.

@failure(2, "20240101T060000Z.gvc: grid differs from the first forecast's grid")
def verify_reference_on_another_grid(tmp):
    argv = _verify(tmp)
    _move_lat_start(tmp / "reference" / "20240101T060000Z.gvc")
    return argv


@failure(2, "clim_d001_h06.gvc: grid differs from the first forecast's grid")
def verify_climatology_key_on_another_grid(tmp):
    argv = _verify(tmp)
    _move_lat_start(tmp / "clim" / "clim_d001_h06.gvc")
    return argv


@failure(2, "20240101T060000Z_6.gvc: grid differs from the first forecast's grid")
def verify_later_forecast_on_another_grid(tmp):
    """The second pair at 12 UTC, after 20240101T000000Z_12.gvc."""
    fdir, rdir, manifest, times_file = make_verify_fixture(
        tmp, [utc(2024, 1, 1, 0), utc(2024, 1, 1, 6)], [6, 12])
    _move_lat_start(fdir / "20240101T060000Z_6.gvc")
    return _argv("verify", forecast=fdir, reference=rdir, climatology=manifest,
                 variables="Z500,T2M", init_times=times_file, leads="6,12",
                 out=tmp / "r.csv", map_dir=tmp / "maps")


@failure(4, "--threads")
def verify_zero_threads(tmp):
    return _verify(tmp, threads=0)


@failure(4, "leads")
def verify_bad_leads(tmp):
    return _verify(tmp, leads="6:x")


# A valid time past the calendar raised OverflowError out of the run's plan.

@failure(4, "past the calendar")
def verify_a_lead_past_the_calendar(tmp):
    return _verify(tmp, leads="1000000000")


@failure(4, "past the calendar")
def verify_a_lead_beyond_a_c_int_of_hours(tmp):
    return _verify(tmp, leads="999999999999")


@failure(4, "past the calendar")
def verify_an_init_time_at_the_calendar_end(tmp):
    argv = _verify(tmp)
    (tmp / "inits.txt").write_text("9999-12-31T18:00:00Z\n")
    return argv


@failure(4, "--climatology")
def verify_acc_without_climatology(tmp):
    return _verify(tmp, climatology="")


@failure(4, "not in catalog")
def verify_unknown_variable(tmp):
    return _verify(tmp, variables="Q700")


@failure(2, "maps' is not a directory")
def verify_map_dir_is_a_file(tmp):
    (tmp / "maps").write_text("a regular file\n")
    return _verify(tmp)


@failure(2, "file' is not a directory")
def verify_out_under_a_file(tmp):
    (tmp / "file").write_text("a regular file\n")
    return _verify(tmp, out=tmp / "file" / "sub" / "r.csv")


# A run's output files replace their targets together, after every one is
# written: a target that cannot be written leaves no map, matrix or report.

@failure(2, "rmsemap_T2M_6.gvc")
def verify_a_directory_at_a_map_path(tmp):
    (tmp / "maps" / "rmsemap_T2M_6.gvc").mkdir(parents=True)
    return _verify(tmp)


# Finite float32 inputs can give an RMSE beyond float32's range: the cast of its
# map to float32 made inf, and FieldCube raised a bare ValueError.

@failure(2, "rmsemap_T2M_6.gvc: an RMSE value is beyond float32's range")
def verify_an_rmse_map_value_beyond_float32(tmp):
    argv = _verify(tmp, metrics="rmse", climatology=None)
    big = np.finfo(np.float32).max
    _poison(next((tmp / "forecast").glob("*.gvc")), value=big)
    _poison(next((tmp / "reference").glob("*.gvc")), value=-big)
    return argv


@failure(2, "directory")
def verify_out_is_a_directory_with_a_new_map_dir(tmp):
    (tmp / "out").mkdir()
    return _verify(tmp, out=tmp / "out", map_dir=tmp / "a" / "b" / "maps")


def _downscale(tmp, times, **flags):
    coarse, truth, model = TestDownscaleEval()._write_fixture(tmp, times, "bilinear")
    args = dict(coarse=coarse, truth=truth, model=model, out=tmp / "ds.csv")
    return _argv("downscale-eval", **dict(args, **flags))


@failure(2, "synoptic")
def downscale_truth_at_a_non_synoptic_time(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 3)])


# A 06:30 truth was counted in the h06 cell of every matrix, and the run exited 0.
@failure(2, "synoptic")
def downscale_truth_at_a_non_synoptic_minute(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 6).replace(minute=30)])


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


@failure(2, "no downscaling samples")
def downscale_coarse_cube_at_another_valid_time(tmp):
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    [path] = (tmp / "coarse").glob("*.gvc")
    write_cube(replace(read_cube(read_header(path)), valid_time=utc(2024, 3, 13, 18)), path)
    return argv


def _repeated_truth(tmp, poisoned=None):
    """A second truth, coarse and model triple at one valid time, under another name.

    ``poisoned`` names the truth file, "20240202T180000Z.gvc" (read first) or
    "copy.gvc", whose payload gets a NaN.
    """
    argv = _downscale(tmp, [utc(2024, 2, 2, 18)])
    for side in ("coarse", "truth", "model"):
        [path] = (tmp / side).glob("*.gvc")
        (tmp / side / "copy.gvc").write_bytes(path.read_bytes())
    if poisoned:
        _poison(tmp / "truth" / poisoned)
    return argv


@failure(2, "two truth cubes have valid time 2024-02-02T18:00:00Z")
def downscale_repeated_truth_valid_time(tmp):
    return _repeated_truth(tmp)


@failure(2, "two truth cubes have valid time 2024-02-02T18:00:00Z")
def downscale_repeated_truth_valid_time_nan_in_the_first(tmp):
    return _repeated_truth(tmp, "20240202T180000Z.gvc")


@failure(2, "two truth cubes have valid time 2024-02-02T18:00:00Z")
def downscale_repeated_truth_valid_time_nan_in_the_copy(tmp):
    return _repeated_truth(tmp, "copy.gvc")


@failure(4, "--psnr-peak")
def downscale_zero_psnr_peak(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak=0)


@failure(4, "--psnr-peak")
def downscale_infinite_psnr_peak(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak="inf")


@failure(4, "--psnr-peak")
def downscale_psnr_peak_squaring_to_zero(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak="1e-200")


@failure(4, "--psnr-peak")
def downscale_psnr_peak_squaring_to_inf(tmp):
    return _downscale(tmp, [utc(2024, 2, 2, 18)], psnr_peak="1e200")


@failure(2, "ds_nd_WS10M_rmse.csv")
def downscale_a_directory_at_a_matrix_path(tmp):
    (tmp / "ds_nd_WS10M_rmse.csv").mkdir()
    return _downscale(tmp, [utc(2024, 2, 2, 18)])


@failure(2, "ds_nd_Q850_rmse.csv")
def downscale_a_directory_at_a_later_samples_matrix_path(tmp):
    """Only the second sample's truth, coarse and model cubes carry Q850."""
    argv = _downscale(tmp, [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)])
    for side in ("coarse", "truth", "model"):
        _insert_channel(tmp / side / "20240701T060000Z.gvc", 2, VariableId("Q", 850))
    (tmp / "ds_nd_Q850_rmse.csv").mkdir()
    return argv


@failure(2, "directory")
def downscale_out_is_a_directory(tmp):
    (tmp / "out").mkdir()
    return _downscale(tmp, [utc(2024, 2, 2, 18)], out=tmp / "out")


def _tc_track(tmp, **flags):
    vortex = write_vortex(tmp / "vortex")
    args = dict(cubes=vortex, seeds=vortex / "seeds.csv", out=tmp / "track.csv")
    return _argv("tc-track", **dict(args, **flags))


@failure(2, "directory")
def tc_track_out_is_a_directory(tmp):
    (tmp / "out").mkdir()
    return _tc_track(tmp, out=tmp / "out")


@failure(2, "no cubes")
def tc_track_no_cubes(tmp):
    (tmp / "empty").mkdir()
    return _tc_track(tmp, cubes=tmp / "empty")


@failure(2, "finite")
def tc_track_nan_in_a_cube(tmp):
    argv = _tc_track(tmp)
    _poison(sorted((tmp / "vortex").glob("*.gvc"))[-1])
    return argv


@failure(2, "finite")
def tc_track_nan_in_a_channel_the_tracker_does_not_read(tmp):
    """Every cube carries T2M after MSL and WS10M; the last cube's T2M holds a NaN."""
    argv = _tc_track(tmp)
    paths = sorted((tmp / "vortex").glob("*.gvc"))
    for path in paths:
        _insert_channel(path, 2, VariableId("T2M"), 290.0)
    _poison(paths[-1])
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
        cube = read_cube(read_header(path))
        values = np.array(cube.values)
        values[cube.catalog.index_of(("WS10M", None))] = -1.0
        write_cube(FieldCube(cube.spec, cube.catalog, cube.valid_time, values), path)
    return argv


@failure(2, "two cubes have valid time 2024-09-01T00:00:00Z")
def tc_track_two_cubes_at_one_valid_time(tmp):
    argv = _tc_track(tmp)
    first = sorted((tmp / "vortex").glob("*.gvc"))[0]
    (tmp / "vortex" / "copy.gvc").write_bytes(first.read_bytes())
    return argv


@failure(2, "no seed rows in")
def tc_track_no_seed_rows(tmp):
    argv = _tc_track(tmp)
    (tmp / "vortex" / "seeds.csv").write_text(
        "# params: none\nstorm_id,name,time,lat,lon,ws_max,msl_min\n# a comment row\n")
    return argv


@failure(2, "cube at 2024-09-01 12:00:00+00:00: variable WS10M not in catalog")
def tc_track_later_cube_lacks_a_channel(tmp):
    argv = _tc_track(tmp)
    _drop_last_channel(sorted((tmp / "vortex").glob("*.gvc"))[-1])
    return argv


@failure(2, "not inside grid")
def tc_track_seed_outside_the_grid(tmp):
    argv = _tc_track(tmp)
    seeds = tmp / "vortex" / "seeds.csv"
    [track] = read_tracks(seeds)
    write_tracks([replace(track, points=(replace(track.points[0], lat=-5.0),))], seeds)
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


@failure(3, "row 2: track error must be finite and non-negative; got nan")
def tc_filter_nan_track_error(tmp):
    return _tc_filter(tmp, "A,1.2,1.0,0,0,nan")


@failure(3, "row 2: track error must be finite and non-negative; got -50.0")
def tc_filter_negative_track_error(tmp):
    return _tc_filter(tmp, "B,1.2,1.0,0,0,-50")


@failure(3, "row 2: track error must be finite and non-negative; got inf")
def tc_filter_infinite_track_error(tmp):
    return _tc_filter(tmp, "C,1.2,1.0,0,0,inf")


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


@failure(2, "no case rows in")
def tc_filter_no_case_rows(tmp):
    return _tc_filter(tmp, "# no cases yet")


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


@pytest.mark.parametrize("build", [verify_out_is_a_directory_with_a_new_map_dir,
                                   verify_a_directory_at_a_map_path,
                                   verify_map_dir_is_a_file,
                                   verify_out_under_a_file,
                                   downscale_out_is_a_directory,
                                   tc_track_out_is_a_directory],
                         ids=lambda build: build.__name__)
def test_an_output_that_cannot_be_written_fails_before_any_cube_is_read(tmp_path, monkeypatch,
                                                                       build):
    argv = build(tmp_path)

    def read(*args, **kwargs):
        raise AssertionError("a cube was read before the run's outputs were checked")

    monkeypatch.setattr(cubeio, "read_header", read)
    monkeypatch.setattr(cubeio, "read_cube", read)
    assert main(argv) == 2


@pytest.mark.parametrize("build, name", [
    (downscale_a_directory_at_a_matrix_path, "ds_nd_WS10M_rmse.csv"),
    (downscale_a_directory_at_a_later_samples_matrix_path, "ds_nd_Q850_rmse.csv"),
], ids=["first-sample", "later-sample"])
def test_a_matrix_path_that_cannot_be_written_fails_before_any_payload_is_read(
        tmp_path, monkeypatch, capsys, build, name):
    """Every header is read first; the matrix paths of every input-output channel of every
    sample kept by those headers are checked before any payload is read."""
    argv = build(tmp_path)
    _refuse_payload_reads(monkeypatch)
    assert main(argv) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("build, outputs", [
    (_verify, 3),
    (lambda tmp: _downscale(tmp, [utc(2024, 2, 2, 18)]), 5),
    (lambda tmp: _climatology(tmp, utc(2024, 1, 1, 0), utc(2024, 1, 1, 6)), 3),
    (_tc_track, 1),
    (_tc_eval, 1),
    (lambda tmp: _tc_filter(tmp, EXCLUDE_CASE), 1),
    (lambda tmp: _vqa(tmp, "q1,closed,yes,yes\n"), 1),
], ids=["verify-map-dir", "downscale-eval", "climatology", "tc-track", "tc-eval", "tc-filter",
        "vqa-score"])
def test_each_output_file_is_renamed_once_from_its_staged_name(tmp_path, monkeypatch, build,
                                                                 outputs):
    argv = build(tmp_path)
    before = _tree(tmp_path)
    renames, replace = [], os.replace

    def spy(src, dst):
        renames.append((Path(src), Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    assert main(argv) == 0
    written = [p for p, data in _tree(tmp_path).items() if data is not None and p not in before]
    assert len(written) == outputs
    assert sorted(dst for _, dst in renames) == sorted(written)
    assert [src for src, _ in renames] == [
        dst.with_name(f".{dst.name}.{os.getpid()}.tmp") for _, dst in renames]


def test_a_tc_filter_write_that_fails_after_its_header_keeps_the_old_out(
        tmp_path, monkeypatch, capsys):
    argv = _tc_filter(tmp_path, EXCLUDE_CASE)
    (tmp_path / "d.csv").write_text("# params: run=1\nold,decisions\n")
    before = _tree(tmp_path)
    write_csv = cubeio.write_csv

    def rows():
        raise OSError("disk full")
        yield

    def failing(path, params, header, _):
        write_csv(path, params, header, rows())

    monkeypatch.setattr(cubeio, "write_csv", failing)
    assert main(argv) == 2
    assert "disk full" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "paused"])
@pytest.mark.parametrize("build, code", [
    (lambda tmp: _tc_filter(tmp, EXCLUDE_CASE), 0),
    (tc_filter_missing_cases, 2),
    (tc_filter_bad_number, 3),
    (tc_filter_nan_comparable_tol, 4),
], ids=["exit-0", "exit-2", "exit-3", "exit-4"])
def test_main_pauses_the_collector_and_gives_back_the_callers_state(
        tmp_path, capsys, monkeypatch, build, code, collecting):
    from geoverify import cli

    argv, during, cmd_tc_filter = build(tmp_path), [], cli.cmd_tc_filter

    def spied(args):
        during.append(gc.isenabled())
        return cmd_tc_filter(args)

    monkeypatch.setattr(cli, "cmd_tc_filter", spied)
    caller = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if caller else gc.disable)()
    assert during == [False]


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


@pytest.mark.parametrize("command", sorted(_option_dests()))
def test_a_command_leaves_no_more_cyclic_garbage_than_its_parser(valid_flags, command):
    """main pauses the collector while a command runs, so a command must make no garbage
    cycles of its own: the parser that main builds is the only one."""
    _, flags = valid_flags
    gc.collect()
    build_parser()
    parser_garbage = gc.collect()
    assert parser_garbage > 0
    assert main(_argv(command, **flags[command])) == 0
    assert gc.collect() <= parser_garbage


# --- verify input fuzz: one damaged input cube fails the run with a data error ------

#: Header bytes that no change leaves readable: magic, version, orientation and the
#: n_lat, n_lon and n_chan sizes (bytes 0-18), and the catalog length (59-62).  A
#: change to a float field or a catalog entry may leave a valid header of another
#: grid or variable, which GVC1, having no checksum, cannot tell from the original.
STRUCTURAL_HEADER_BYTES = [*range(19), *range(59, 63)]


def _damage(path, data, values=2 * SPEC.n_lat * SPEC.n_lon):
    """Draws and makes one damage to a cube file whose payload holds ``values`` values.

    A NaN or Inf over a payload value, a truncation, or a flipped structural
    header byte.  The default ``values`` is a SPEC, CATALOG cube's.
    """
    raw = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["value", "truncate", "header"]), label="kind")
    event(kind)
    if kind == "value":
        index = data.draw(st.integers(-values, -1), label="index")
        _poison(path, index, data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    elif kind == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    else:
        raw[data.draw(st.sampled_from(STRUCTURAL_HEADER_BYTES), label="byte")] ^= 0xFF
        path.write_bytes(bytes(raw))


def _one_error_line(stderr, code, path):
    """The run's one error line, which ends stderr, has the exit code's category and names path."""
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert [line for line in lines if " error: " in line] == lines[-1:]
    assert lines[-1].startswith(f"geoverify: {CATEGORY[code]} error: ")
    assert str(path) in lines[-1]
    return lines[-1]


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    """Pristine verify inputs in ``in``, 2 inits x leads 6 and 12: four valid times."""
    root = tmp_path_factory.mktemp("verify-fuzz")
    (root / "in").mkdir()
    make_verify_fixture(root / "in", [utc(2024, 1, 1, 0), utc(2024, 1, 1, 12)], [6, 12])
    return root


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_input_cube_fails_verify_naming_it(verify_inputs, data):
    """A NaN or Inf anywhere in a payload, a truncation or a broken header field."""
    from geoverify import metrics

    with tempfile.TemporaryDirectory(dir=verify_inputs) as tmp:
        root = Path(tmp) / "run"
        shutil.copytree(verify_inputs / "in", root)
        paths = sorted(root.rglob("*.gvc"))
        assert len(paths) == 12  # four forecasts, four references, four climatology keys
        path = data.draw(st.sampled_from(paths), label="file")
        _damage(path, data)
        one_channel_ranges = data.draw(st.booleans(), label="one channel a range")
        argv = _argv("verify", forecast=root / "forecast", reference=root / "reference",
                     climatology=root / "clim" / "manifest.csv", variables="Z500,T2M",
                     init_times=root / "inits.txt", leads="6,12",
                     threads=data.draw(st.sampled_from([1, 2]), label="threads"),
                     out=root / "r.csv", map_dir=root / "maps")
        before = _tree(root)
        stderr = io.StringIO()
        with contextlib.ExitStack() as stack:
            if one_channel_ranges:
                stack.enter_context(mock.patch.object(cubeio, "RANGE_BYTES",
                                                      SPEC.n_lat * SPEC.n_lon * 4))
            stack.enter_context(mock.patch.object(metrics, "_usable_cpus", lambda: 2))
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            stack.enter_context(contextlib.redirect_stderr(stderr))
            code = main(argv)
        assert code in (2, 3, 4)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        line = _one_error_line(stderr.getvalue(), code, path)
        assert line.startswith(f"geoverify: {CATEGORY[code]} error: {path}")
        assert _tree(root) == before


# --- tc-track input fuzz: one damaged cube fails the run and writes nothing --------

@pytest.fixture(scope="module")
def tc_track_inputs(tmp_path_factory):
    """Pristine tc-track inputs in ``in``: write_storms's six cubes and three seeds."""
    root = tmp_path_factory.mktemp("tc-track-fuzz")
    write_storms(root / "in")
    return root


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_input_cube_fails_tc_track_naming_it(tc_track_inputs, data):
    """A NaN or Inf anywhere in a payload, a truncation or a broken header field."""
    with tempfile.TemporaryDirectory(dir=tc_track_inputs) as tmp:
        cubes = Path(tmp) / "cubes"
        shutil.copytree(tc_track_inputs / "in", cubes)
        paths = sorted(cubes.glob("*.gvc"))
        assert len(paths) == 6
        path = data.draw(st.sampled_from(paths), label="file")
        _damage(path, data, len(tracker_catalog()) * STORM_SPEC.n_lat * STORM_SPEC.n_lon)
        out = Path(tmp) / "track.csv"
        before = _tree(Path(tmp))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(_argv("tc-track", cubes=cubes, seeds=cubes / "seeds.csv", out=out))
        assert code in (2, 3, 4)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        _one_error_line(stderr.getvalue(), code, path)
        assert _tree(Path(tmp)) == before


# --- climatology input fuzz: one damaged cube fails the run and writes nothing ------

@pytest.fixture(scope="module")
def climatology_inputs(tmp_path_factory):
    """Pristine climatology input in ``in``: six cubes over three keys."""
    root = tmp_path_factory.mktemp("climatology-fuzz")
    TestClimatologyCommand()._cubes(root / "in")
    return root


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_input_cube_fails_climatology_naming_it(climatology_inputs, data):
    """A NaN or Inf anywhere in a payload, a truncation or a broken header field.

    A damaged header may make another cube's grid look different from it, so
    the error line names the damaged cube but need not start with it.
    """
    with tempfile.TemporaryDirectory(dir=climatology_inputs) as tmp:
        cubes = Path(tmp) / "cubes"
        shutil.copytree(climatology_inputs / "in", cubes)
        paths = sorted(cubes.glob("*.gvc"))
        assert len(paths) == 6
        path = data.draw(st.sampled_from(paths), label="file")
        _damage(path, data)
        out = Path(tmp) / "clim"
        before = _tree(Path(tmp))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(_argv("climatology", cubes=cubes, out=out))
        assert code in (2, 3, 4)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        _one_error_line(stderr.getvalue(), code, path)
        assert _tree(Path(tmp)) == before


# --- downscale-eval input fuzz: one damaged input cube skips its sample -------------

@pytest.fixture(scope="module")
def downscale_inputs(tmp_path_factory):
    """Pristine downscale-eval inputs in ``in``: two samples of a coarse, truth and model cube."""
    root = tmp_path_factory.mktemp("downscale-fuzz")
    (root / "in").mkdir()
    TestDownscaleEval()._write_fixture(root / "in", [utc(2024, 2, 2, 18), utc(2024, 7, 1, 6)],
                                       "bilinear")
    return root


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_input_cube_skips_its_downscale_sample(downscale_inputs, data):
    """A NaN or Inf anywhere in a payload, a truncation or a broken header field.

    A damaged truth, coarse or model cube skips its sample with a line that names
    the file, and the outputs are those of a run without that sample.  When it is
    the only sample, nothing is evaluated: the run fails and writes nothing.
    """
    with tempfile.TemporaryDirectory(dir=downscale_inputs) as tmp:
        root = Path(tmp)
        shutil.copytree(downscale_inputs / "in", root, dirs_exist_ok=True)
        dirs = {side: root / side for side in ("coarse", "truth", "model")}
        side = data.draw(st.sampled_from(sorted(dirs)), label="side")
        path = data.draw(st.sampled_from(sorted(dirs[side].glob("*.gvc"))), label="file")
        argv = _argv("downscale-eval", out=root / "ds.csv", **dirs)
        alone = data.draw(st.booleans(), label="only sample")
        if alone:
            for p in root.rglob("*.gvc"):
                if p.name != path.name:
                    p.unlink()
        else:  # the outputs of a run whose truth lacks the damaged sample
            truth = dirs["truth"] / path.name
            truth.rename(root / "aside")
            assert main(argv) == 0
            expected = {p.name: p.read_bytes() for p in root.glob("ds*.csv")}
            for name in expected:
                (root / name).unlink()
            (root / "aside").rename(truth)
        spec = TestDownscaleEval.COARSE_SPEC if side == "coarse" else TestDownscaleEval.FINE_SPEC
        _damage(path, data, 2 * spec.n_lat * spec.n_lon)
        before = _tree(root)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "Traceback" not in stderr.getvalue()
        lines = stderr.getvalue().splitlines()
        assert lines[0].startswith(f"geoverify: skipping {path.stem}: {path}: ")
        if alone:
            assert code == 2
            assert len(lines) == 2
            _one_error_line(stderr.getvalue(), code, "no downscaling samples evaluated")
            assert _tree(root) == before
        else:
            assert code == 0
            assert lines[1:] == ["geoverify: 1 sample(s) skipped"]
            assert {p.name: p.read_bytes() for p in root.glob("ds*.csv")} == expected


# --- CSV input fuzz: one damaged row fails with a parse error naming it or is read ---

def _run_capturing(argv) -> tuple[int, str]:
    """(exit code, stderr) of ``main(argv)``; a RuntimeWarning fails the test."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in stderr.getvalue()
    return code, stderr.getvalue()


def _damage_row(data, text: str, damages: dict, fields_of) -> tuple[bytes, int | None, int]:
    """(``text`` with one drawn damage to a data row, expected exit code or None, damaged row).

    ``damages`` maps each kind that ``fields_of(kind, fields, data)`` makes to the exit
    code of the run that reads it; the kinds every CSV shares are added here.  None
    expects 0 or 3.
    """
    shared = {"dropped field": 3, "comment line": 0, "non-UTF-8 byte": 3, "stray quote": None}
    damages = {**damages, **shared}
    lines = text.splitlines(keepends=True)
    row = data.draw(st.integers(2, len(lines)), label="row")
    fields = lines[row - 1].rstrip("\n").split(",")
    kind = data.draw(st.sampled_from(sorted(damages)), label="kind")
    event(kind)
    if kind == "dropped field":
        del fields[data.draw(st.integers(0, len(fields) - 1))]
    elif kind not in shared:
        fields_of(kind, fields, data)
    line = ",".join(fields) + "\n"
    if kind == "stray quote":
        at = data.draw(st.integers(0, len(line) - 1))
        line = line[:at] + '"' + line[at:]
    lines[row - 1] = line
    if kind == "comment line":
        lines.insert(data.draw(st.integers(0, len(lines))), '# a note, "quoted\n')
    raw = "".join(lines).encode("utf-8")
    if kind == "non-UTF-8 byte":
        start = raw.index(lines[row - 1].encode("utf-8"))
        at = start + data.draw(st.integers(0, len(lines[row - 1]) - 1))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw, damages[kind], row


def _one_damaged_csv_run(tmp, argv, damaged, raw, want, row, out):
    """Runs ``argv`` clean, then with ``damaged`` holding ``raw``, and checks the second run."""
    assert main(argv) == 0
    expected = out.read_bytes()
    out.unlink()
    damaged.write_bytes(raw)
    before = _tree(tmp)
    code, stderr = _run_capturing(argv)
    assert code in ((0, 3) if want is None else (want,))
    if code:
        _one_error_line(stderr, code, f"row {row}: ")
        assert _tree(tmp) == before
    elif want == 0:  # the comment line changes nothing
        assert out.read_bytes() == expected


# --- tc-filter input fuzz ------------------------------------------------------------

#: A valid cases CSV: rows 2-4 take the Exclude, Strengthen and Weaken rules.
CASES_CSV = ("case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n"
             "c1,-2,-5,true,false,5\n"
             "c2,-6,-3,1,0,15\n"
             "c3,6,3,no,yes,3\n")

#: Damages to one case, each with the exit code of the run that reads it.
CASE_DAMAGES = {"number": 3, "boolean": 3, "non-finite": 3, "both flags": 3}


def _damage_case(kind, fields, data):
    if kind == "number":
        fields[data.draw(st.sampled_from([1, 2, 5]))] = data.draw(
            st.sampled_from(["lots", "", "1.2.3", "--1"]))
    elif kind == "boolean":
        fields[data.draw(st.sampled_from([3, 4]))] = data.draw(
            st.sampled_from(["maybe", "", "2", "tru"]))
    elif kind == "non-finite":  # an MBE or the track error
        fields[data.draw(st.sampled_from([1, 2, 5]))] = data.draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf"]))
    else:
        fields[3:5] = ["true", "yes"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_case_row_fails_tc_filter_naming_it(tmp_path_factory, data):
    """A bad number, boolean or flag pair, a NaN, a dropped field, a non-UTF-8 byte or a
    stray quote fails the run with one parse error naming the row; a comment is skipped."""
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        tmp = Path(tmp)
        cases, out = tmp / "cases.csv", tmp / "decisions.csv"
        cases.write_text(CASES_CSV)
        raw, want, row = _damage_row(data, CASES_CSV, CASE_DAMAGES, _damage_case)
        _one_damaged_csv_run(tmp, _argv("tc-filter", cases=cases, out=out),
                             cases, raw, want, row, out)


# --- tc-eval input fuzz: one damaged track row fails with a parse error or is read ---

#: A best track and a forecast of storm S1, each with the 6-hourly fixes at rows 2-4.
BEST_CSV = ("storm_id,name,time,lat,lon,ws_max,msl_min\n"
            "S1,Alpha,2024-09-01T00:00:00Z,20.0000,130.0000,30,990\n"
            "S1,Alpha,2024-09-01T06:00:00Z,20.5000,129.0000,35,985\n"
            "S1,Alpha,2024-09-01T12:00:00Z,21.0000,128.0000,40,\n")
MODEL_CSV = ("storm_id,name,time,lat,lon,ws_max,msl_min\n"
             "S1,Alpha,2024-09-01T00:00:00Z,20.1000,130.2000,28,992\n"
             "S1,Alpha,2024-09-01T06:00:00Z,20.7000,129.1000,33,\n"
             "S1,Alpha,2024-09-01T12:00:00Z,21.3000,127.8000,41,980\n")

#: Damages to one fix, each with the exit code of the run that reads it.
TRACK_DAMAGES = {"number": 3, "time": 3, "out of range": 3, "non-finite": 3}


def _damage_fix(kind, fields, data):
    if kind == "number":  # msl_min may be empty; the other numbers may not
        column = data.draw(st.sampled_from([3, 4, 5, 6]))
        fields[column] = data.draw(st.sampled_from(
            ["lots", "1.2.3", "--1"] + ([""] if column < 6 else [])))
    elif kind == "time":
        fields[2] = data.draw(st.sampled_from(["", "yesterday", "2024-13-01T00:00:00Z"]))
    elif kind == "out of range":
        fields[3:6:2] = data.draw(st.sampled_from([("91", fields[5]), ("-90.5", fields[5]),
                                                   (fields[3], "-1")]))
    else:
        fields[data.draw(st.sampled_from([3, 4, 5, 6]))] = data.draw(
            st.sampled_from(["nan", "inf", "-inf"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_track_row_fails_tc_eval_naming_it(tmp_path_factory, data):
    """A bad number or time, a fix off the globe, a NaN or Inf, a dropped field, a
    non-UTF-8 byte or a stray quote in the best track or the forecast fails the run
    with one parse error naming the row; a comment is skipped."""
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        tmp = Path(tmp)
        best, model, out = tmp / "best.csv", tmp / "model.csv", tmp / "tc.csv"
        best.write_text(BEST_CSV)
        model.write_text(MODEL_CSV)
        damaged = data.draw(st.sampled_from([best, model]), label="file")
        raw, want, row = _damage_row(data, damaged.read_text(), TRACK_DAMAGES, _damage_fix)
        _one_damaged_csv_run(tmp, _argv("tc-eval", forecast=model, reference=best, out=out),
                             damaged, raw, want, row, out)


# --- vqa-score input fuzz: one damaged item row fails with a parse error or is read ---

#: Two closed and two open items at rows 2-5.
ITEMS_CSV = ("question_id,type,prediction,ground_truth\n"
             "q1,closed,yes,yes\n"
             "q2,closed,no,yes\n"
             "q3,open,left lower lobe,lower lobe of the left lung\n"
             "q4,open,a mass,mass\n")

#: Damages to one item, each with the exit code of the run that reads it.
ITEM_DAMAGES = {"type": 3, "empty ground truth": 3, "tokenless ground truth": None,
                "extra field": 3}


def _damage_item(kind, fields, data):
    if kind == "type":
        fields[1] = data.draw(st.sampled_from(["", "opened", "Closed", "yes"]))
    elif kind == "empty ground truth":
        fields[3] = data.draw(st.sampled_from(["", "  "]))
    elif kind == "tokenless ground truth":  # closed items score it; open ones cannot
        fields[3] = data.draw(st.sampled_from(["?", "...", "_"]))
    else:
        fields.insert(data.draw(st.integers(0, len(fields))), "extra")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_damaged_item_row_fails_vqa_score_naming_it(tmp_path_factory, data):
    """A bad question type, an empty ground truth, a dropped or extra field, a non-UTF-8
    byte or a stray quote fails the run with one parse error naming the row; a comment
    is skipped."""
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as tmp:
        tmp = Path(tmp)
        items, out = tmp / "items.csv", tmp / "scores.csv"
        items.write_text(ITEMS_CSV)
        raw, want, row = _damage_row(data, ITEMS_CSV, ITEM_DAMAGES, _damage_item)
        _one_damaged_csv_run(tmp, _argv("vqa-score", items=items, out=out),
                             items, raw, want, row, out)
