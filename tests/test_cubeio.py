"""Tests for the GVC1 cube format and the CSV readers/writers."""

import mmap
import os
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoverify import (
    FieldCube,
    GridSpec,
    MetricRecord,
    VariableCatalog,
    VariableId,
    cubeio,
    select_channel,
)
from geoverify.cubeio import (
    read_csv_rows,
    read_cube,
    read_header,
    read_tracks,
    write_csv,
    write_cube,
    write_month_hour_matrix,
    write_report,
    write_tracks,
)
from geoverify.errors import (
    BadMagic,
    CorruptHeader,
    NonFiniteValue,
    NonMonotonicTime,
    ParseError,
    TruncatedPayload,
    UnknownVariable,
    UnsupportedVersion,
)
from geoverify.grid import FINITE_SCAN_VALUES
from geoverify.tc import TcPoint, TcTrack
from conftest import random_cube, utc
from synthetic import weather_catalog


class TestCubeRoundTrip:
    def test_bit_identical(self, make_cube, tmp_path):
        cube = make_cube()
        path = tmp_path / "cube.gvc"
        write_cube(cube, path)
        back = read_cube(read_header(path))
        assert back.spec == cube.spec
        assert back.catalog == cube.catalog
        assert back.valid_time == cube.valid_time
        np.testing.assert_array_equal(back.values, cube.values)

    def test_repeated_write_is_byte_identical(self, make_cube, tmp_path):
        cube = make_cube()
        a, b = tmp_path / "a.gvc", tmp_path / "b.gvc"
        write_cube(cube, a)
        write_cube(cube, b)
        assert a.read_bytes() == b.read_bytes()

    def test_channel_ranges_appended_in_order_give_write_cubes_bytes(self, tmp_path):
        cube = random_cube(np.random.default_rng(21), n_chan=5)
        write_cube(cube, tmp_path / "whole.gvc")
        with cubeio.cube_writer(cube.spec, cube.catalog, cube.valid_time,
                                tmp_path / "ranges.gvc") as write:
            for start, stop in ((0, 2), (2, 3), (3, 5)):
                write(cube.values[start:stop].astype(np.float64))
        assert (tmp_path / "ranges.gvc").read_bytes() == (tmp_path / "whole.gvc").read_bytes()

    def test_a_writer_left_short_of_its_channels_writes_no_file(self, tmp_path):
        # The writer writes its path itself; the staged block around it removes the file.
        cube = random_cube(np.random.default_rng(22), n_chan=3)
        with pytest.raises(ValueError, match="payload bytes"):
            with cubeio.staged_outputs() as stage, cubeio.cube_writer(
                    cube.spec, cube.catalog, cube.valid_time, stage(tmp_path / "s.gvc")) as write:
                write(cube.values[:2])
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagic):
            read_cube(read_header(path))

    def test_unsupported_version(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(UnsupportedVersion):
            read_cube(read_header(path))

    def test_truncated_payload(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TruncatedPayload):
            read_cube(read_header(path))

    def test_trailing_bytes_rejected(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(TruncatedPayload):
            read_cube(read_header(path))

    def test_nonfinite_payload_rejected(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        cube = make_cube()
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        nan = np.float32(np.nan).tobytes()
        data[-4:] = nan
        path.write_bytes(bytes(data))
        with pytest.raises(NonFiniteValue):
            read_cube(read_header(path))

    def test_orientation_flag_cross_checked(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        data = bytearray(path.read_bytes())
        data[6] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptHeader, match="orientation"):
            read_cube(read_header(path))

    @pytest.mark.parametrize(
        "entry",
        [b"\xff,500,input-output", b"Zx500,input-output", b"Z,5x0,input-output"],
        ids=["bad-utf8", "field-count", "non-integer-level"],
    )
    def test_bad_catalog_entry_is_corrupt_header(self, make_cube, tmp_path, entry):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        path.write_bytes(path.read_bytes().replace(b"Z,500,input-output", entry, 1))
        with pytest.raises(CorruptHeader, match="catalog entry"):
            read_cube(read_header(path))


    def test_nan_lon_step_is_corrupt_header(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, 43, float("nan"))  # lon_step, the fourth f64 at byte 19
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptHeader, match="lon_step"):
            read_cube(read_header(path))


class TestWriteCube:
    def test_failure_leaves_existing_cube_and_no_stray_file(self, make_cube, tmp_path,
                                                           monkeypatch):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        before = path.read_bytes()

        def failing_catalog(catalog):
            raise OSError("disk full")

        monkeypatch.setattr(cubeio, "_encode_catalog", failing_catalog)
        with pytest.raises(OSError, match="disk full"):
            with cubeio.staged_outputs() as stage:
                write_cube(make_cube(valid_time=utc(2024, 1, 2)), stage(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cube.gvc"]


def _tree(root):
    """Every path under root with its bytes, None for a directory."""
    return {p: (p.read_bytes() if p.is_file() else None) for p in root.rglob("*")}


class TestStagedOutputs:
    def test_targets_are_replaced_together_in_the_order_staged(self, tmp_path, monkeypatch):
        (tmp_path / "report.csv").write_text("old report\n")
        targets = [tmp_path / "maps" / "b.gvc", tmp_path / "a" / "b" / "m.csv",
                   tmp_path / "report.csv"]
        replaced = []
        replace = os.replace

        def spy(src, dst):
            replaced.append(dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        with cubeio.staged_outputs() as stage:
            for k, target in enumerate(targets):
                tmp = stage(target)
                assert tmp == target.with_name(f".{target.name}.{os.getpid()}.tmp")
                tmp.write_text(f"new {k}\n")
            assert replaced == []
            assert (tmp_path / "report.csv").read_text() == "old report\n"
        assert replaced == targets
        assert [t.read_text() for t in targets] == ["new 0\n", "new 1\n", "new 2\n"]
        assert sorted(p.name for p in tmp_path.rglob(".*")) == []

    def test_a_failure_removes_staged_files_and_made_directories_innermost_first(
            self, tmp_path, monkeypatch):
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "report.csv").write_text("old report\n")
        (tmp_path / "old" / "m.gvc").write_bytes(b"old map")
        before = _tree(tmp_path)
        removed = []
        rmdir = Path.rmdir

        def spy(self):
            removed.append(self)
            rmdir(self)

        monkeypatch.setattr(Path, "rmdir", spy)
        with pytest.raises(RuntimeError, match="run failed"):
            with cubeio.staged_outputs() as stage:
                stage(tmp_path / "new" / "a" / "x.gvc").write_bytes(b"x")
                stage(tmp_path / "old" / "m.gvc").write_bytes(b"new map")
                stage(tmp_path / "new" / "b" / "y.gvc").write_bytes(b"y")
                stage(tmp_path / "old" / "report.csv").write_text("new report\n")
                raise RuntimeError("run failed")
        assert removed == [tmp_path / "new" / "b", tmp_path / "new" / "a", tmp_path / "new"]
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("target", ["", ".", "d"])
    def test_a_directory_target_raises_at_stage_before_any_file_is_written(self, tmp_path,
                                                                          monkeypatch, target):
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        before = _tree(tmp_path)
        named = re.escape(repr(str(Path(target))))  # "" is the working directory, "."
        with pytest.raises(IsADirectoryError, match=f"^{named} is a directory$"):
            with cubeio.staged_outputs() as stage:
                stage(tmp_path / "new" / "x.csv").write_text("x\n")
                stage(target)
                pytest.fail("stage returned a name for a directory")
        assert _tree(tmp_path) == before

    def test_a_report_into_a_new_directory_is_written(self, tmp_path):
        def rows():
            yield ("v",)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            with cubeio.staged_outputs() as stage:
                write_csv(stage(tmp_path / "x" / "y" / "report.csv"), None, ["h"], rows())
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "a" / "b" / "report.csv"
        with cubeio.staged_outputs() as stage:
            write_csv(stage(path), None, ["h"], [("v",)])
        assert path.read_text() == "h\nv\n"
        assert [p.name for p in path.parent.iterdir()] == ["report.csv"]


class TestSelectiveRead:
    """read_cube(header, variables) keeps some channels and still validates all of them."""

    # Six 30 x 40 channels: a 28 KiB payload, more than the reader's 8 KiB buffer holds.
    PLANE = 30 * 40
    SELECTION = ["V2", "V5"]

    @pytest.fixture
    def cube_path(self, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(random_cube(np.random.default_rng(12), n_chan=6, n_lat=30, n_lon=40), path)
        return path

    def _poison(self, path, index, value):
        """Write ``value`` over the payload's float32 number ``index``."""
        data = bytearray(path.read_bytes())
        offset = len(data) - 6 * self.PLANE * 4 + 4 * index
        data[offset:offset + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(data))

    @pytest.mark.parametrize(
        "selection",
        [["V2", "V3", "V5"], ["V5", "V3", "V2"], ["V3", "V2", "V5", "V3"],
         [VariableId("V", 5), ("V", 2), "V3"]],
        ids=["catalog-order", "reverse", "repeated", "mixed-forms"],
    )
    @pytest.mark.parametrize("block", [7, FINITE_SCAN_VALUES])
    def test_channels_bitwise_equal_to_full_read(self, cube_path, monkeypatch, selection, block):
        monkeypatch.setattr(cubeio, "FINITE_SCAN_VALUES", block)
        full = read_cube(read_header(cube_path))
        part = read_cube(read_header(cube_path), selection)
        assert [v.token for v in part.catalog] == ["V2", "V3", "V5"]
        assert (part.spec, part.valid_time) == (full.spec, full.valid_time)
        for var in selection:
            assert select_channel(part, var).tobytes() == select_channel(full, var).tobytes()

    def test_every_channel_named_is_the_full_read(self, cube_path):
        full = read_cube(read_header(cube_path))
        part = read_cube(read_header(cube_path), [v.token for v in full.catalog][::-1])
        assert part.catalog == full.catalog
        assert part.values.tobytes() == full.values.tobytes()

    def test_variable_the_file_lacks_is_not_kept(self, cube_path):
        part = read_cube(read_header(cube_path), ["V2", "Z500"])
        assert [v.token for v in part.catalog] == ["V2"]
        with pytest.raises(UnknownVariable):
            select_channel(part, "Z500")

    @pytest.mark.parametrize(
        "index",
        [0, 2 * PLANE + 7, 6 * PLANE - 1, PLANE + 3],
        ids=["first-value", "inside-V3", "last-value", "kept-V2"],
    )
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("block", [7, FINITE_SCAN_VALUES])
    def test_non_finite_value_in_any_channel_raises(self, cube_path, monkeypatch,
                                                    index, bad, block):
        monkeypatch.setattr(cubeio, "FINITE_SCAN_VALUES", block)
        self._poison(cube_path, index, bad)
        for variables in (None, self.SELECTION):
            with pytest.raises(NonFiniteValue, match="finite"):
                read_cube(read_header(cube_path), variables)

    @pytest.mark.parametrize("nan_at", [None, PLANE + 3, 2 * PLANE + 7],
                             ids=["finite", "nan-in-V2", "nan-in-V3"])
    @pytest.mark.parametrize("variables", [None, SELECTION, ["V6"]],
                             ids=["full", "last-channel-scanned", "last-channel-kept"])
    def test_file_shrinking_mid_read_is_truncated(self, cube_path, variables, nan_at):
        """The read goes on past a NaN, in a kept block or a scanned one, so a file
        that shrank after its header was read raises TruncatedPayload, not NonFiniteValue."""
        if nan_at is not None:
            self._poison(cube_path, nan_at, np.nan)
        header = read_header(cube_path)  # the length check passes here
        os.truncate(cube_path, os.path.getsize(cube_path) - 4)
        with pytest.raises(TruncatedPayload, match="shrank"):
            read_cube(header, variables)

    @pytest.mark.parametrize("variables, runs", [
        (None, [6]),
        (["V2", "V3", "V5"], [1, 2, 1, 1, 1]),
        (["V1", "V6"], [1, 4, 1]),
    ], ids=["full", "two-kept-runs", "first-and-last-kept"])
    def test_each_block_is_checked_once_as_it_is_read(self, cube_path, monkeypatch,
                                                      variables, runs):
        """A kept run of several blocks is checked block by block, as the scanned runs
        are: no check spans two blocks or the kept array, and none sees a value twice."""
        from geoverify import grid

        block = 500  # a 1200-value channel is three blocks, the last one short
        monkeypatch.setattr(cubeio, "FINITE_SCAN_VALUES", block)
        checked = []
        for module in (grid, cubeio):
            def spy(values, check=module.all_finite):
                checked.append(np.array(values).reshape(-1))  # a copy: the scan block is reused
                return check(values)

            monkeypatch.setattr(module, "all_finite", spy)
        read_cube(read_header(cube_path), variables)
        sizes = [min(block, n * self.PLANE - start) for n in runs
                 for start in range(0, n * self.PLANE, block)]
        assert [c.size for c in checked] == sizes
        payload = cube_path.read_bytes()[-6 * self.PLANE * 4:]
        assert np.concatenate(checked).tobytes() == payload

    @pytest.mark.parametrize(
        "damage, error",
        [(lambda d: b"XXXX" + d[4:], BadMagic),
         (lambda d: d[:-5], TruncatedPayload),
         (lambda d: d + b"\0\0", TruncatedPayload),
         (lambda d: d.replace(b"V,3,input-output", b"V,3,input-outpuX"), CorruptHeader)],
        ids=["magic", "short", "trailing-bytes", "role-of-unkept-channel"],
    )
    def test_header_faults_raise_as_on_a_full_read(self, cube_path, damage, error):
        cube_path.write_bytes(damage(cube_path.read_bytes()))
        for variables in (None, self.SELECTION):
            with pytest.raises(error):
                read_cube(read_header(cube_path), variables)


class TestChannelRange:
    """read_cube(header, variables, channels) reads one run of channels and checks all of it."""

    PLANE = 30 * 40  # six channels V1..V6, as in TestSelectiveRead

    @pytest.fixture
    def cube_path(self, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(random_cube(np.random.default_rng(13), n_chan=6, n_lat=30, n_lon=40), path)
        return path

    @pytest.mark.parametrize("variables", [None, ["V5", "V3"], ["V1", "V6"]],
                             ids=["all", "two-inside", "outside"])
    @pytest.mark.parametrize("channels", [range(0, 6), range(2, 5), range(4, 6), range(3, 3)])
    @pytest.mark.parametrize("block", [7, FINITE_SCAN_VALUES])
    def test_channels_bitwise_equal_to_full_read(self, cube_path, monkeypatch,
                                                 variables, channels, block):
        monkeypatch.setattr(cubeio, "FINITE_SCAN_VALUES", block)
        full = read_cube(read_header(cube_path))
        part = read_cube(read_header(cube_path), variables, channels)
        kept = [v for i, v in enumerate(full.catalog) if i in channels
                and (variables is None or v.token in variables)]
        assert list(part.catalog) == kept
        assert (part.spec, part.valid_time) == (full.spec, full.valid_time)
        for var in kept:
            assert select_channel(part, var).tobytes() == select_channel(full, var).tobytes()

    @pytest.mark.parametrize("variables", [None, ["V2"]], ids=["kept", "scanned"])
    def test_non_finite_value_is_found_only_in_its_own_range(self, cube_path, variables):
        data = bytearray(cube_path.read_bytes())
        offset = len(data) - 6 * self.PLANE * 4 + 4 * (2 * self.PLANE + 5)  # inside V3
        data[offset:offset + 4] = np.float32(np.nan).tobytes()
        cube_path.write_bytes(bytes(data))
        for channels in (range(0, 2), range(3, 6)):
            read_cube(read_header(cube_path), variables, channels)
        for channels in (range(2, 3), range(1, 4), range(0, 6)):
            with pytest.raises(NonFiniteValue, match="finite"):
                read_cube(read_header(cube_path), variables, channels)

    def test_without_the_kept_scan_only_the_unkept_channels_are_checked(self, cube_path):
        """verify's reads leave the kept channels to the metric kernels' NaN/Inf check."""
        data = bytearray(cube_path.read_bytes())
        offset = len(data) - 6 * self.PLANE * 4 + 4 * (2 * self.PLANE + 5)  # inside V3
        data[offset:offset + 4] = np.float32(np.nan).tobytes()
        cube_path.write_bytes(bytes(data))
        cube = read_cube(read_header(cube_path), ["V3"], range(1, 4), _scan_kept=False)
        assert np.isnan(select_channel(cube, "V3")).sum() == 1
        with pytest.raises(NonFiniteValue, match="finite"):
            read_cube(read_header(cube_path), ["V2", "V4"], range(1, 4), _scan_kept=False)
        with pytest.raises(NonFiniteValue, match="finite"):
            read_cube(read_header(cube_path), ["V3"], range(1, 4))

    @pytest.mark.parametrize("damage", [lambda d: d[:-4], lambda d: d + b"\0\0\0\0"],
                             ids=["short", "long"])
    def test_a_file_of_the_wrong_length_fails_for_every_range(self, cube_path, damage):
        cube_path.write_bytes(damage(cube_path.read_bytes()))
        with pytest.raises(TruncatedPayload, match="header implies"):
            read_cube(read_header(cube_path), None, range(0, 1))

    def test_file_shrinking_inside_the_range_is_truncated(self, cube_path):
        header = read_header(cube_path)
        os.truncate(cube_path, os.path.getsize(cube_path) - 3 * self.PLANE * 4)
        with pytest.raises(TruncatedPayload, match="shrank"):
            read_cube(header, ["V2"], range(1, 4))

    def test_range_beyond_the_catalog_is_a_corrupt_header(self, cube_path):
        with pytest.raises(CorruptHeader, match="outside its 6 channels"):
            read_cube(read_header(cube_path), None, range(4, 7))
        with pytest.raises(ValueError, match="step-1"):
            read_cube(read_header(cube_path), None, range(0, 6, 2))


def _mapping(cube):
    """The mmap that a cube's values view, or None when they are in an array of their own."""
    base = cube.values
    while isinstance(base, np.ndarray):
        base = base.base
    return base.obj if isinstance(base, memoryview) else None


class TestMappedRead:
    """verify's read (``_scan_kept=False``) views kept channels in one run through a mapping."""

    PLANE = 30 * 40  # six channels V1..V6: 4800 bytes each, more than one granule

    @pytest.fixture(scope="class")
    def cube_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("mapped") / "cube.gvc"
        write_cube(random_cube(np.random.default_rng(14), n_chan=6, n_lat=30, n_lon=40), path)
        return path

    def _payload_offset(self, path):
        return os.path.getsize(path) - 6 * 4 * self.PLANE

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(bounds=st.tuples(st.integers(0, 6), st.integers(0, 6)).map(sorted),
           variables=st.none() | st.sets(st.sampled_from([f"V{k}" for k in range(1, 7)])))
    @example(bounds=(1, 6), variables=None)           # channel 1 starts past the first granule
    @example(bounds=(3, 6), variables={"V4", "V5"})   # a run inside the range
    @example(bounds=(0, 6), variables={"V2", "V5"})   # two runs: copied
    def test_bitwise_equal_to_the_scanned_read(self, cube_path, bounds, variables):
        assert self._payload_offset(cube_path) % 4 != 0
        channels = range(*bounds)
        scanned = read_cube(read_header(cube_path), variables, channels)
        cube = read_cube(read_header(cube_path), variables, channels, _scan_kept=False)
        assert (cube.spec, cube.catalog, cube.valid_time) == (
            scanned.spec, scanned.catalog, scanned.valid_time)
        assert cube.values.tobytes() == scanned.values.tobytes()
        kept = [i for i in channels if variables is None or f"V{i + 1}" in variables]
        one_run = bool(kept) and kept == list(range(kept[0], kept[-1] + 1))
        assert (_mapping(cube) is not None) == one_run
        assert _mapping(scanned) is None

    def test_values_are_read_only(self, cube_path):
        cube = read_cube(read_header(cube_path), ["V3", "V4"], range(1, 5), _scan_kept=False)
        assert isinstance(_mapping(cube), mmap.mmap)
        with pytest.raises(ValueError):
            cube.values.flags.writeable = True
        with pytest.raises((ValueError, TypeError)):
            _mapping(cube)[0] = 0

    def test_the_mapping_dies_with_the_cube_and_its_channel_views(self, cube_path):
        cube = read_cube(read_header(cube_path), ["V3", "V4"], range(1, 5), _scan_kept=False)
        channel = select_channel(cube, "V4")
        mapping = weakref.ref(_mapping(cube))
        del cube
        assert mapping() is not None
        del channel
        assert mapping() is None

    @pytest.mark.parametrize("variables, message", [
        (["V5", "V6"], "shrank before its payload was mapped"),
        (["V4", "V5"], "shrank while its payload was read"),  # V6 is scanned after the mapping
    ])
    def test_file_shrinking_after_the_header_read_is_truncated(self, tmp_path, variables,
                                                               message):
        path = tmp_path / "cube.gvc"
        write_cube(random_cube(np.random.default_rng(15), n_chan=6, n_lat=30, n_lon=40), path)
        header = read_header(path)  # the length check passes here
        os.truncate(path, os.path.getsize(path) - 4)
        with pytest.raises(TruncatedPayload, match=re.escape(f"{path}: file {message}")):
            read_cube(header, variables, range(3, 6), _scan_kept=False)

    def test_only_kept_channels_in_one_run_are_mapped(self, tmp_path, monkeypatch):
        spec = GridSpec(16, 32, 60.0, -8.0, 0.0, 11.25)
        catalog = weather_catalog()
        path = tmp_path / "weather.gvc"
        values = np.random.default_rng(16).normal(size=(70, 16, 32)).astype(np.float32)
        write_cube(FieldCube(spec, catalog, utc(2024, 1, 1), values), path)
        channel_bytes = 4 * 16 * 32
        mapped, real = [], mmap.mmap

        def spied(fileno, length, *args, **kwargs):
            mapped.append(length)
            return real(fileno, length, *args, **kwargs)

        monkeypatch.setattr(cubeio.mmap, "mmap", spied)
        sparse = read_cube(read_header(path), ["Z500", "T850", "T2M", "MSL"], _scan_kept=False)
        assert len(sparse.catalog) == 4 and mapped == []
        for channels, n in [(None, 70), (range(4, 8), 4), (range(68, 70), 2)]:
            mapped.clear()
            cube = read_cube(read_header(path), None, channels, _scan_kept=False)
            assert len(cube.catalog) == n
            [length] = mapped
            assert n * channel_bytes <= length < n * channel_bytes + mmap.ALLOCATIONGRANULARITY


class TestOwnArray:
    """Every read that is not mapped copies its kept channels into a new array of its own."""

    PLANE = 200 * 300  # six channels V1..V6, 240 kB each

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("own")
        paths = [directory / f"cube{k}.gvc" for k in range(2)]
        for k, path in enumerate(paths):
            write_cube(random_cube(np.random.default_rng(20 + k), n_chan=6, n_lat=200, n_lon=300),
                       path)
        return paths

    @pytest.mark.parametrize("variables, channels", [
        (None, None), (["V5", "V3"], range(2, 5)), (["V1"], range(0, 6)), (None, range(3, 3)),
    ], ids=["whole", "two-runs", "one-of-six", "empty"])
    def test_a_cube_keeps_its_values_through_later_reads(self, paths, variables, channels):
        expected = [read_cube(read_header(path), variables, channels).values.tobytes()
                    for path in paths]
        first = read_cube(read_header(paths[0]), variables, channels)
        # A channel view alone keeps the values too.
        channel = None if not first.catalog else select_channel(first, list(first.catalog)[-1])
        second = read_cube(read_header(paths[1]), variables, channels)
        assert _mapping(first) is None and _mapping(second) is None
        assert not np.shares_memory(first.values, second.values)
        del first
        third = read_cube(read_header(paths[0]), variables, channels)
        assert second.values.tobytes() == expected[1]
        assert third.values.tobytes() == expected[0]
        if channel is not None:
            assert channel.tobytes() == expected[0][-4 * self.PLANE:]

    def test_a_range_read_holds_its_kept_channels_and_nothing_once_released(self, paths):
        """Two of a 3-channel range kept: the scan block of the third is freed by the return."""
        header = read_header(paths[0])
        range_bytes = 3 * 4 * self.PLANE
        tracemalloc.start()
        try:
            cube = read_cube(header, ["V3", "V5"], range(2, 5))
            held = tracemalloc.get_traced_memory()[0]
            del cube
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 2 / 3 * range_bytes <= held < 2 / 3 * range_bytes + 4096
        assert left < 4096

    def test_there_is_no_array_to_read_into(self, paths):
        header = read_header(paths[0])
        with pytest.raises(TypeError):
            read_cube(header, None, None, np.empty(6 * self.PLANE, "<f4"))
        with pytest.raises(TypeError):
            read_cube(header, out=np.empty(6 * self.PLANE, "<f4"))


class TestReadHeader:
    def test_header_without_payload_scan(self, make_cube, tmp_path):
        """read_header gives the file's header but never looks at payload values."""
        cube = make_cube()
        path = tmp_path / "cube.gvc"
        write_cube(cube, path)
        data = bytearray(path.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        header = read_header(path)
        assert (header.path, header.spec, header.catalog, header.valid_time) == \
            (path, cube.spec, cube.catalog, cube.valid_time)
        assert header.offset == len(data) - cube.values.nbytes
        with pytest.raises(NonFiniteValue):
            read_cube(header)

    def test_read_cube_reads_the_payload_without_parsing_the_header_again(self, make_cube,
                                                                         tmp_path):
        cube = make_cube()
        path = tmp_path / "cube.gvc"
        write_cube(cube, path)
        header = read_header(path)
        with open(path, "r+b") as f:
            f.write(b"XXXX")  # a bad magic, which read_header would reject
        back = read_cube(header)
        assert back.values.tobytes() == cube.values.tobytes()
        assert (back.spec, back.catalog, back.valid_time) == \
            (cube.spec, cube.catalog, cube.valid_time)
        with pytest.raises(BadMagic):
            read_header(path)

    def test_payload_length_checked_against_file_size(self, make_cube, tmp_path):
        path = tmp_path / "cube.gvc"
        write_cube(make_cube(), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TruncatedPayload, match="header implies"):
            read_header(path)


def _short_payload(data):
    del data[-4:]


def _flip_orientation(data):
    data[6] ^= 1


def _n_chan_plus_one(data):
    struct.pack_into("<I", data, 15, struct.unpack_from("<I", data, 15)[0] + 1)


def _bad_catalog_entry_byte(data):
    data[data.index(b"Z,500,input-output") + 1] = 0xFF  # the comma: no longer UTF-8


class TestHeaderCache:
    """Byte-identical headers are parsed once per process, and every file is checked."""

    @pytest.mark.parametrize("damage, error, fragment", [
        (_short_payload, TruncatedPayload, "header implies"),
        (_flip_orientation, CorruptHeader, "orientation"),
        (_n_chan_plus_one, CorruptHeader, "n_chan 4 != catalog length 3"),
        (_bad_catalog_entry_byte, CorruptHeader, "bad catalog entry"),
    ], ids=["short-payload", "orientation", "n_chan", "catalog-entry"])
    def test_a_file_after_a_good_one_with_its_header_raises_its_own_error(
            self, make_cube, tmp_path, damage, error, fragment):
        cube = make_cube()
        good, bad = tmp_path / "good.gvc", tmp_path / "bad.gvc"
        write_cube(cube, good)
        data = bytearray(good.read_bytes())
        damage(data)
        bad.write_bytes(bytes(data))
        read_header(good)  # its grid and catalog bytes are now known
        with pytest.raises(error) as info:
            read_header(bad)
        assert str(info.value).startswith(f"{bad}: ") and fragment in str(info.value)
        assert read_cube(read_header(good)).spec == cube.spec  # and the good file still reads

    def test_identical_headers_share_one_spec_and_catalog(self, make_cube, tmp_path):
        first, second = tmp_path / "first.gvc", tmp_path / "second.gvc"
        write_cube(make_cube(), first)
        write_cube(make_cube(valid_time=utc(2024, 1, 2)), second)
        header = read_header(first)
        cube = read_cube(read_header(second))
        assert cube.spec is header.spec and cube.catalog is header.catalog
        assert cube.valid_time == utc(2024, 1, 2)

    def test_a_zero_of_either_sign_keeps_its_own_spec(self, tmp_path):
        """0.0 == -0.0, so a cache keyed by value would hand one grid the other's sign."""
        specs = []
        for name, lat_start in (("plus", 0.0), ("minus", -0.0)):
            spec = GridSpec(3, 4, lat_start, -10.0, 0.0, 90.0)
            path = tmp_path / f"{name}.gvc"
            write_cube(FieldCube(spec, VariableCatalog([VariableId("MSL")]), utc(2024, 1, 1),
                                 np.zeros((1, 3, 4), np.float32)), path)
            specs.append(read_cube(read_header(path)).spec)
        plus, minus = specs
        assert plus == minus and plus is not minus
        assert [np.signbit(s.lat_start) for s in specs] == [False, True]
        assert [np.signbit(s.latitudes[0]) for s in specs] == [False, True]


class TestReadCsvRows:
    def test_comment_and_blank_rows_skipped_with_physical_row_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# params: x=1\n\na,b\n1,2\n\n# note\n3,4\n")
        assert read_csv_rows(path, ["a", "b"]) == [(4, ["1", "2"]), (7, ["3", "4"])]

    @pytest.mark.parametrize(
        "text, row",
        [("# params: x=1\na,c\n1,2\n", 2), ("a,b\n1,2\n3\n", 3), ("# only\n", 2)],
        ids=["wrong-header", "short-row", "no-header"],
    )
    def test_parse_error_names_the_row(self, tmp_path, text, row):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_csv_rows(path, ["a", "b"])
        assert err.value.row == row

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n\n3,4\n5\n6,7\n",
        "a,b\n1,2\n# note\n3,4\n5\n6,7\n",
        "a,b\n1,2\n\n3,4\n5\n# note\n6,7\n",
    ], ids=["no-comment", "comment-before", "comment-after"])
    def test_a_bad_row_has_one_number_with_or_without_a_comment_line(self, tmp_path, text):
        """Text without a '#' is parsed without the comment filter, with the same numbers."""
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_csv_rows(path, ["a", "b"])
        assert err.value.row == 5

    def test_quoted_hash_starts_a_data_row(self, tmp_path):
        """Only a line that starts with an unquoted '#' is a comment."""
        path = tmp_path / "t.csv"
        path.write_text('a,b\n"#7",x\n#c,y\n"#8\n#9",z\n# note\nq2,y\n')
        assert read_csv_rows(path, ["a", "b"]) == [
            (2, ["#7", "x"]), (4, ["#8\n#9", "z"]), (6, ["q2", "y"])]

    def test_quote_in_a_comment_joins_no_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# params: x=a,"b\na,b\n# note,"unclosed\n1,2\n"#3",4\n')
        assert read_csv_rows(path, ["a", "b"]) == [(4, ["1", "2"]), (5, ["#3", "4"])]

    def test_text_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n\xff,2\n")
        with pytest.raises(ParseError):
            read_csv_rows(path, ["a", "b"])

    def test_non_utf8_byte_names_its_own_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(ParseError) as err:
            read_csv_rows(path, ["a", "b"])
        assert err.value.row == 3


class TestReadTracks:
    HEADER = "storm_id,name,time,lat,lon,ws_max,msl_min\n"

    def test_interleaved_storms_grouped_and_sorted(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(
            self.HEADER
            + "A,ALPHA,2024-01-01T06:00:00Z,10,130,20,1000\n"
            + "B,BRAVO,2024-01-01T00:00:00Z,12,140,30,990\n"
            + "A,ALPHA,2024-01-01T00:00:00Z,10,129,18,1002\n"
            + "B,BRAVO,2024-01-01T06:00:00Z,12.5,141,31,\n"
        )
        tracks = read_tracks(path)
        assert [t.storm_id for t in tracks] == ["A", "B"]
        assert tracks[0].points[0].time == utc(2024, 1, 1, 0)
        assert tracks[0].points[1].time == utc(2024, 1, 1, 6)
        assert tracks[1].points[1].msl_min is None

    def test_bad_latitude_reports_row(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(
            self.HEADER
            + "A,ALPHA,2024-01-01T00:00:00Z,10,130,20,1000\n"
            + "A,ALPHA,2024-01-01T06:00:00Z,95,130,20,1000\n"
        )
        with pytest.raises(ParseError) as err:
            read_tracks(path)
        assert err.value.row == 3

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(self.HEADER)
        assert read_tracks(path) == []

    def test_duplicate_time_rejected(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(
            self.HEADER
            + "A,ALPHA,2024-01-01T00:00:00Z,10,130,20,\n"
            + "A,ALPHA,2024-01-01T00:00:00Z,11,131,21,\n"
        )
        with pytest.raises(NonMonotonicTime):
            read_tracks(path)

    def test_uneven_cadence_rejected(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(
            self.HEADER
            + "A,ALPHA,2024-01-01T00:00:00Z,10,130,20,\n"
            + "A,ALPHA,2024-01-01T06:00:00Z,10,131,20,\n"
            + "A,ALPHA,2024-01-01T18:00:00Z,10,132,20,\n"
        )
        with pytest.raises(NonMonotonicTime, match="cadence"):
            read_tracks(path)

    def test_round_trip_via_writer(self, tmp_path):
        track = TcTrack(
            storm_id="A",
            name="ALPHA",
            points=(
                TcPoint(utc(2024, 1, 1, 0), 10.0, 130.0, 20.0, 1000.0),
                TcPoint(utc(2024, 1, 1, 6), 10.5, 131.0, 22.0, 998.0),
            ),
        )
        path = tmp_path / "tracks.csv"
        write_tracks([track], path, params={"source": "test"})
        back = read_tracks(path)
        assert len(back) == 1 and len(back[0].points) == 2
        assert back[0].points[1].ws_max == 22.0


    def test_storm_id_starting_with_hash_round_trips(self, tmp_path):
        track = TcTrack("#7", (TcPoint(utc(2024, 1, 1, 0), 10.0, 130.0, 20.0),), name="#x")
        other = TcTrack("q2", (TcPoint(utc(2024, 1, 1, 0), 11.0, 131.0, 21.0),))
        path = tmp_path / "tracks.csv"
        write_tracks([track, other], path, params={"source": "test"})
        assert read_tracks(path) == [track, other]


class TestWriteReport:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([], path)
        assert path.read_text() == "variable,level,lead_hours,metric,value\n"

    def test_single_record(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([MetricRecord(VariableId("Z", 500), 24, "rmse", 112.5, 1)], path)
        lines = path.read_text().splitlines()
        assert lines[1] == "Z,500,24,rmse,112.5"
        assert len(lines) == 2

    def test_rows_ordered_by_lead(self, tmp_path):
        path = tmp_path / "report.csv"
        records = [
            MetricRecord(VariableId("T2M"), 12, "rmse", 2.0, 1),
            MetricRecord(VariableId("T2M"), 6, "rmse", 1.0, 1),
        ]
        write_report(records, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("T2M,surface,6,")
        assert lines[2].startswith("T2M,surface,12,")

    def test_input_order_irrelevant(self, tmp_path):
        records = [
            MetricRecord(VariableId("Z", 500), 6, "rmse", 1.0, 2),
            MetricRecord(VariableId("T2M"), 6, "acc", 0.9, 2),
            MetricRecord(VariableId("Z", 500), 6, "acc", 0.8, 2),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(records, a)
        write_report(records[::-1], b)
        assert a.read_bytes() == b.read_bytes()

    def test_params_line(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report([], path, params={"leads": "6:24:6", "threads_seen": 8})
        assert path.read_text().splitlines()[0] == "# params: leads=6:24:6 threads_seen=8"


class TestWriteCsv:
    def test_params_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, {"a": 1, "b": "x"}, ["h1", "h2"], [(1, "p"), ("q", 2.5)])
        assert path.read_text() == "# params: a=1 b=x\nh1,h2\n1,p\nq,2.5\n"

    def test_row_whose_first_field_starts_with_hash_is_quoted(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, None, ["a", "b"], [("#7", "x"), ("q2", "y"), ("#8", "z")])
        assert path.read_text() == 'a,b\n"#7","x"\nq2,y\n"#8","z"\n'
        assert read_csv_rows(path, ["a", "b"]) == [
            (2, ["#7", "x"]), (3, ["q2", "y"]), (4, ["#8", "z"])]

    def test_failure_leaves_existing_report_and_no_stray_file(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("# params: run=1\nold,report\n")

        def rows():
            yield ("new", "row")
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            with cubeio.staged_outputs() as stage:
                write_csv(stage(path), {"run": 2}, ["new", "report"], rows())
        assert path.read_text() == "# params: run=1\nold,report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


class TestMatrixWriter:
    def test_na_for_missing(self, tmp_path):
        matrix = np.full((12, 4), np.nan)
        matrix[0, 1] = 0.25
        path = tmp_path / "nd.csv"
        write_month_hour_matrix(matrix, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "month,h00,h06,h12,h18"
        assert lines[1] == "1,NA,0.25,NA,NA"
        assert lines[12] == "12,NA,NA,NA,NA"

    def test_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="12, 4"):
            write_month_hour_matrix(np.zeros((3, 4)), tmp_path / "nd.csv")
