"""Span recording around geoverify's public entry points, from outside the program.

``install()`` replaces module attributes (the names ``geoverify.cli`` looks
up at call time) with wrappers that record one span per call: an id, a
name, start and end on ``time.perf_counter``, the parent span and the
thread id, plus a few attributes taken from the arguments and the result.
A span opened on a worker thread with nothing open on that thread gets the
open ``cli.cmd`` span as its parent.  Spans stay in memory; the child
writes them out when its commands have finished.  The program's files are
not edited, and nothing here changes an argument or a result.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import threading
import time
import weakref
from pathlib import Path

MIB = 1 << 20


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.threads_started = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = None
        self._cube_paths: dict[int, tuple] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None, root: bool = False):
        """A wrapper of ``fn`` recording a span; ``attrs(args, result)`` adds fields."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else rec._root
            span_id = next(rec._ids)
            stack.append(span_id)
            if root:
                rec._root = span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if root:
                    rec._root = None
            extra = attrs(args, result) if attrs else None
            rec.spans.append((span_id, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    # --- attribute helpers ------------------------------------------------

    def remember_cube(self, cube, path) -> None:
        self._cube_paths[id(cube)] = (weakref.ref(cube), str(path))

    def cube_path(self, cube):
        entry = self._cube_paths.get(id(cube))
        if entry is not None and entry[0]() is cube:
            return entry[1]
        return None


def install() -> Recorder:
    """Wrap the layer entry points geoverify's CLI calls; returns the recorder."""
    from geoverify import cli, cubeio, metrics, regrid, tc
    from geoverify import climatology as clim_mod

    rec = Recorder()

    def read_attrs(args, cube):
        rec.remember_cube(cube, args[0])
        return {"path": str(args[0]), "mb": cube.values.nbytes / MIB,
                "chan_bytes": cube.values.nbytes // cube.n_channels}

    def select_attrs(args, _):
        return {"cube": rec.cube_path(args[0]), "chan": args[0].catalog.index_of(args[1])}

    def file_attrs(args, _):
        return {"mb": os.path.getsize(args[1]) / MIB}

    def points_attrs(args, _):
        return {"points": int(args[0].size)}

    def upsample_attrs(args, out):
        src = rec.cube_path(args[0])
        return {"points": int(out.values.size),
                "uses": [[src, c] for c in range(args[0].n_channels)] if src else []}

    def track_attrs(args, track):
        cubes = args[0]
        names = [v.key for v in cubes[0].catalog]
        chans = [names.index(("MSL", None)), names.index(("WS10M", None))]
        fixes = len(track.points) if track.points[0] is not args[1] else 0
        touched = cubes[:min(len(cubes), fixes + 1)]
        return {"fixes": fixes,
                "uses": [[rec.cube_path(c), ch] for c in touched for ch in chans if rec.cube_path(c)]}

    def load_attrs(args, clim):
        manifest = Path(args[0])
        with open(manifest, newline="", encoding="utf-8") as f:
            paths = {f"{row['doy']},{row['hour']}": str(manifest.parent / row["filename"])
                     for row in csv.DictReader(f)}
        return {"mb": sum(v.nbytes for v in clim.means.values()) / MIB, "keys": len(clim.means),
                "key_paths": paths}

    def lookup_attrs(args, _):
        doy, hour = clim_mod.climatology_key(args[1])
        return {"key": f"{doy},{hour}", "chan": args[0].catalog.index_of(args[2])}

    for name in dir(cli):
        if name.startswith("cmd_"):
            setattr(cli, name, rec.wrap("cli.cmd", getattr(cli, name), root=True))
    cubeio.read_cube = rec.wrap("cubeio.read_cube", cubeio.read_cube, read_attrs)
    cubeio.write_cube = rec.wrap(
        "cubeio.write", cubeio.write_cube, lambda a, _: {"mb": a[0].values.nbytes / MIB})
    for name in ("write_report", "write_month_hour_matrix", "write_tracks"):
        setattr(cubeio, name, rec.wrap("cubeio.write", getattr(cubeio, name), file_attrs))
    for name in ("read_tracks", "read_csv_rows"):
        setattr(cubeio, name, rec.wrap("cubeio.read_text", getattr(cubeio, name)))
    cli.latitude_weights = rec.wrap("grid.latitude_weights", cli.latitude_weights)
    cli.select_channel = rec.wrap("grid.select_channel", cli.select_channel, select_attrs)
    clim_cls = clim_mod.Climatology
    clim_cls.load = staticmethod(rec.wrap("climatology.load", clim_cls.load, load_attrs))
    clim_cls.lookup_channel = rec.wrap(
        "climatology.lookup_channel", clim_cls.lookup_channel, lookup_attrs)
    metrics.weighted_rmse = rec.wrap("metrics.weighted_rmse", metrics.weighted_rmse, points_attrs)
    metrics.weighted_acc = rec.wrap("metrics.weighted_acc", metrics.weighted_acc, points_attrs)
    for name in ("psnr", "dynamic_range", "month_hour_matrix", "pointwise_rmse"):
        setattr(metrics, name, rec.wrap(f"metrics.{name}", getattr(metrics, name)))
    regrid.bilinear_upsample = rec.wrap(
        "regrid.bilinear_upsample", regrid.bilinear_upsample, upsample_attrs)
    tc.track_cyclone = rec.wrap("tc.track_cyclone", tc.track_cyclone, track_attrs)
    tc.concurrent_match = rec.wrap("tc.concurrent_match", tc.concurrent_match)
    tc.filter_case = rec.wrap("tc.filter_case", tc.filter_case)

    start = threading.Thread.start

    def counted_start(thread):
        rec.threads_started += 1
        return start(thread)

    threading.Thread.start = counted_start
    return rec
