"""Batch command-line front end.

Every subcommand writes CSVs that start with a "# params:" metadata line
recording the result-affecting parameter values, so re-running with the
same inputs and flags yields byte-identical files.  Exit codes: 0 success,
2 data error, 3 parse error, 4 configuration error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from itertools import accumulate
from pathlib import Path

import numpy as np

# metrics, climatology, regrid and vqa are imported by the subcommands that run
# them, so a process pays only for what its command uses.
from . import cubeio, tc
from .errors import (
    CorruptHeader,
    EmptyInput,
    GeoverifyError,
    InvalidFlags,
    MissingCube,
    NonFiniteValue,
    NonSynopticTime,
    ParseError,
    PerfectMatch,
    SpecMismatch,
    UnknownVariable,
)
from .grid import (
    FieldCube,
    GridSpec,
    VariableCatalog,
    VariableId,
    latitude_weights,
    parse_variable_token,
    select_channel,
)

#: stderr label of each exit code that errors.py assigns.
_CATEGORY = {2: "data", 3: "parse", 4: "config"}


@contextmanager
def _flag_values():
    """Turns a ValueError from a value the CLI builds out of flags into InvalidFlags."""
    try:
        yield
    except (ValueError, OverflowError) as e:
        raise InvalidFlags(str(e)) from None


#: Range rules for float flags; NaN breaks each.
_RULES = {
    "positive": lambda v: v > 0.0,
    "non-negative": lambda v: v >= 0.0,
}


def _check_flags(args, rule: str, *flags) -> None:
    """InvalidFlags naming the first of ``flags`` whose value breaks ``rule``."""
    for flag in flags:
        value = getattr(args, flag)
        if not _RULES[rule](value):
            raise InvalidFlags(f"--{flag.replace('_', '-')} must be {rule}; got {value}")


def time_stem(t: datetime) -> str:
    return t.astimezone(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def forecast_path(directory, t0: datetime, lead: int) -> Path:
    return Path(directory) / f"{time_stem(t0)}_{lead}.gvc"


def reference_path(directory, valid: datetime) -> Path:
    return Path(directory) / f"{time_stem(valid)}.gvc"


def parse_leads(spec: str) -> list[int]:
    """Lead spec: either "6,12,24" or an inclusive range "start:stop:step"."""
    try:
        if ":" in spec:
            start, stop, step = (int(p) for p in spec.split(":"))
            if step <= 0 or start <= 0 or stop < start:
                raise ValueError
            return list(range(start, stop + 1, step))
        leads = [int(p) for p in spec.split(",")]
        if not leads or any(lead <= 0 for lead in leads):
            raise ValueError
        return leads
    except ValueError:
        raise InvalidFlags(f"bad leads spec {spec!r}; use '6:24:6' or '6,12'") from None


def read_init_times(path) -> list[datetime]:
    """Init times, one per "\n"-ended line; blank and '#' lines are skipped.

    A line that is not UTF-8 or not an ISO time raises ParseError with its
    1-based number; lines are decoded one by one so that number is exact.
    """
    times = []
    with open(path, "rb") as f:
        for line_no, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line and not line.startswith("#"):
                    times.append(cubeio.parse_time(line))
            except (ValueError, OverflowError) as e:  # includes UnicodeDecodeError
                raise ParseError(line_no, str(e)) from None
    if not times:
        raise InvalidFlags(f"no init times in {path}")
    return times


# --- verify -------------------------------------------------------------------

def _cut(catalogs, order, channel_bytes) -> tuple[list, list[list[range]]]:
    """Groups of the variables ``order``, and each catalog's channel range per group.

    ``order`` lists the variables in the first catalog's order.  A cut
    between two of them is allowed when every catalog stores all variables
    before it ahead of all those after it.  A group closes at the last
    allowed cut before its channels would pass cubeio.RANGE_BYTES; a group between
    two allowed cuts that passes it stays whole.  A catalog's ranges run
    from channel 0 to its end, each ending at its group's last channel, so
    every channel is in exactly one range.
    """
    positions = [[catalog.index_of(var) for var in order] for catalog in catalogs]
    ahead = [list(accumulate(p, max)) for p in positions]
    behind = [list(accumulate(reversed(p), min))[::-1] for p in positions]
    n = len(order)
    cuts, end = [0], 0
    for stop in range(1, n + 1):
        if stop < n and any(a[stop - 1] > b[stop] for a, b in zip(ahead, behind)):
            continue
        if (stop - cuts[-1]) * channel_bytes > cubeio.RANGE_BYTES and end > cuts[-1]:
            cuts.append(end)
        end = stop
    bounds = list(zip(cuts, cuts[1:] + [n]))
    spans = []
    for a, catalog in zip(ahead, catalogs):
        stops = [a[stop - 1] + 1 for _, stop in bounds[:-1]] + [len(catalog)]
        spans.append([range(start, stop) for start, stop in zip([0] + stops, stops)])
    return [order[start:stop] for start, stop in bounds], spans


def _plan(args, variables, clim, eval_set) -> tuple[GridSpec, list, dict]:
    """(grid, groups, {valid time: {path: (header, channel range per group)}}) of a verify run.

    One pass over the run's headers, before any payload is read, valid time by
    valid time in pass order: the first forecast, the reference, the key cube
    of the loaded climatology ``clim`` (checked when it loaded) and the other
    forecasts.  A missing cube raises MissingCube for its pair.  A header of
    another valid time raises CorruptHeader, one on another grid than the first
    forecast's SpecMismatch, each naming the file.  A scored variable missing from
    a catalog raises UnknownVariable naming the first file that holds that catalog;
    one that is input-only in the first forecast raises InvalidFlags.  One cut
    over the distinct catalogs groups the variables in the first forecast's
    catalog order, and equal catalogs share one list of ranges.
    """
    grid, catalogs, files = None, {}, {}

    def add(valid, header):
        nonlocal grid
        path, spec, catalog = header.path, header.spec, header.catalog
        if catalog not in catalogs:  # each distinct catalog is checked at its first file
            try:
                for var in variables:
                    catalog.index_of(var)
            except UnknownVariable as e:
                raise UnknownVariable(f"{path}: {e}") from None
            catalogs[catalog] = None
        if grid is None:  # the first forecast's header: the output grid and catalog
            grid = spec
            for name, level in variables:
                if catalog.get((name, level)).role != "input-output":
                    raise InvalidFlags(f"variable {name} is input-only and carries no skill metrics")
        if spec != grid:
            raise SpecMismatch(f"{path}: grid differs from the first forecast's grid")
        files.setdefault(valid, {})[path] = header

    def add_file(valid, path, pair, expected):
        try:
            header = cubeio.read_header(path)
        except FileNotFoundError as e:
            raise MissingCube(*pair, str(e)) from None
        if header.valid_time != valid:
            raise CorruptHeader(f"{path}: valid_time {header.valid_time} != {expected}")
        add(valid, header)

    for valid, pairs in eval_set.by_valid_time().items():
        fc_paths = [forecast_path(args.forecast, *pair) for pair in pairs]
        add_file(valid, fc_paths[0], pairs[0], f"init {pairs[0][0]} + {pairs[0][1]}h")
        add_file(valid, reference_path(args.reference, valid), pairs[0],
                 f"{valid} of the file name")
        if clim is not None:
            add(valid, clim.key_header(valid))
        for path, (t0, lead) in zip(fc_paths[1:], pairs[1:]):
            add_file(valid, path, (t0, lead), f"init {t0} + {lead}h")
    order = sorted(dict.fromkeys(variables), key=next(iter(catalogs)).index_of)
    groups, spans = _cut(list(catalogs), order, 4 * grid.n_lat * grid.n_lon)
    spans_of = dict(zip(catalogs, spans))
    return grid, groups, {valid: {path: (header, spans_of[header.catalog])
                                  for path, header in headers.items()}
                          for valid, headers in files.items()}


def cmd_verify(args) -> int:
    from . import climatology as clim_mod
    from . import metrics

    if args.threads < 1:
        raise InvalidFlags(f"--threads must be at least 1; got {args.threads}")
    variables = [parse_variable_token(tok) for tok in args.variables.split(",") if tok]
    if not variables:
        raise InvalidFlags("--variables is empty")
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    bad = set(wanted) - {"rmse", "acc"}
    if bad or not wanted:
        raise InvalidFlags(f"--metrics must be drawn from rmse,acc; got {args.metrics!r}")
    with _flag_values():
        eval_set = metrics.EvaluationSet(read_init_times(args.init_times), parse_leads(args.leads))

    if "acc" in wanted and not args.climatology:
        raise InvalidFlags("computing acc requires --climatology MANIFEST")

    def map_path(var, lead):
        return Path(args.map_dir) / f"rmsemap_{var.token}_{lead}.gvc"

    cubeio.output_path(args.out)
    if args.map_dir:
        for var in variables:
            for lead in eval_set.lead_hours:
                cubeio.output_path(map_path(VariableId(*var), lead))

    clim = clim_mod.Climatology.load(args.climatology) if "acc" in wanted else None

    spec, groups, plan = _plan(args, variables, clim, eval_set)
    last_valid = None  # the valid time of the last read

    def read(valid, path, k):
        # Every kept channel is scored, so the kernels' row sums check it for NaN/Inf.
        nonlocal last_valid
        last_valid = valid
        header, spans = plan[valid][path]
        return cubeio.read_cube(header, groups[k], spans[k], _scan_kept=False)

    try:
        records, rmse_maps = metrics.evaluate_set(
            lambda t0, lead, k: read(t0 + timedelta(hours=lead),
                                     forecast_path(args.forecast, t0, lead), k),
            lambda valid, k: read(valid, reference_path(args.reference, valid), k),
            eval_set,
            variables,
            rmse="rmse" in wanted,
            climatologies=None if clim is None else (
                lambda valid, k: read(valid, clim.key_header(valid).path, k)),
            groups=groups,
            maps=bool(args.map_dir),
            threads=args.threads,
        )
    except NonFiniteValue:
        # evaluate_set scores valid times in order, so the last one read failed. Scan
        # its files range by range in pass order: the error names the first file
        # that holds a NaN or Inf.
        for k, group in enumerate(groups):
            for header, spans in plan[last_valid].values():
                cubeio.read_cube(header, group, spans[k])
        raise
    params = {
        "forecast": args.forecast,
        "reference": args.reference,
        "climatology": args.climatology or "none",
        "variables": args.variables,
        "init_times": args.init_times,
        "leads": args.leads,
        "metrics": ",".join(wanted),
    }
    with cubeio.staged_outputs() as stage:
        for (var, lead), rmse_map in rmse_maps.items():
            cube = FieldCube(
                spec,
                VariableCatalog([var]),
                eval_set.init_times[0] + timedelta(hours=lead),
                rmse_map[None].astype(np.float32),
            )
            cubeio.write_cube(cube, stage(map_path(var, lead)))
        cubeio.write_report(records, stage(args.out), params)
    return 0


# --- downscale-eval -------------------------------------------------------------

def _downscale_inputs(args, truth_path: Path,
                      truth: FieldCube) -> tuple[FieldCube, cubeio.CubeHeader]:
    """(bilinear baseline, model header) of the truth cube's channels; GeoverifyError skips
    the sample.

    The coarse and model headers are read and every check runs on them before either
    payload is read, so a sample that fails one costs no upsample and no coarse or model
    payload.  The caller reads the model payload once the baseline is assigned, so a NaN
    in it costs its sample an upsample.  The caller's previous baseline stays alive
    through the upsample on purpose: its freed pages would be faulted in again.
    """
    from . import regrid

    stem = truth_path.stem
    coarse, model = (cubeio.read_header(Path(directory) / truth_path.name)
                     for directory in (args.coarse, args.model))
    for side, header in (("coarse", coarse), ("model", model)):
        if header.valid_time != truth.valid_time:
            raise GeoverifyError(f"{side} cube valid_time {cubeio.format_time(header.valid_time)}"
                                 f" != truth valid_time {cubeio.format_time(truth.valid_time)}"
                                 f" for {stem}")
        missing = [var.token for var in truth.catalog if var not in header.catalog]
        if missing:
            raise GeoverifyError(f"{side} cube lacks {','.join(missing)} for {stem}")
    if model.spec != truth.spec:
        raise GeoverifyError(f"model grid differs from truth grid for {stem}")
    return regrid.bilinear_upsample(cubeio.read_cube(coarse, truth.catalog), truth.spec), model


def _downscale_scores(truth: FieldCube, baseline: FieldCube, model: FieldCube,
                      psnr_peak: float | None) -> list[tuple]:
    """(variable, method, metric, value, peak) of each channel of one sample's truth."""
    from . import metrics

    weights = latitude_weights(truth.spec)
    scores = []
    for var in truth.catalog:
        t2 = select_channel(truth, var)
        peak = metrics.dynamic_range(t2) if psnr_peak is None else psnr_peak
        for method, cube in (("bilinear", baseline), ("model", model)):
            rmse, err = metrics.weighted_rmse_and_mse(select_channel(cube, var), t2, weights)
            values = {"rmse": rmse}
            if peak > 0.0:
                try:
                    values["psnr"] = metrics.psnr_from_mse(err, peak)
                except PerfectMatch:
                    values["psnr"] = float("inf")
            scores += [(var, method, metric, value, peak) for metric, value in values.items()]
    return scores


def cmd_downscale_eval(args) -> int:
    from . import metrics

    # PSNR squares the peak: 1e-200 would square to 0 and 1e200 to inf.
    if args.psnr_peak is not None and not (
            0.0 < args.psnr_peak and 0.0 < args.psnr_peak * args.psnr_peak < math.inf):
        raise InvalidFlags(f"--psnr-peak must be positive with a positive finite square; "
                           f"got {args.psnr_peak}")
    cubeio.output_path(args.out)
    truth_paths = cubeio.cube_paths(args.truth)
    if not truth_paths:
        raise EmptyInput(f"no truth cubes in {args.truth}")

    out_base = Path(args.out)

    def matrix_path(token, metric):
        return out_base.parent / f"{out_base.stem}_nd_{token}_{metric}.csv"

    rows = []          # (time, var, method, metric, value, peak)
    samples: dict = {} # (var token, metric, method) -> list of (time, value)
    truth_at: dict = {} # header valid time -> the first truth path whose header was read
    failures = 0
    for truth_path in truth_paths:
        # Per sample: the truth payload, the coarse and model headers and every check
        # on them, the coarse payload and the upsample, and only then the model
        # payload, so a NaN in it costs its sample an upsample.  A sample holds three
        # full cubes at most: truth and the last and new baselines while upsampling,
        # truth, baseline and model while scoring.  The last sample's truth and model
        # die before the next ones are read.  The last baseline lives through the
        # upsample on purpose: when freed before it, its pages went back to the OS and
        # the upsample faulted in new ones (bench downscale, 2-vCPU VM: 120k minor
        # faults for 14k, 1.03-1.26 s wall for 0.72-0.98 s, 1.8 MiB lower peak RSS).
        truth = model = None
        try:
            header = cubeio.read_header(truth_path)
        except (GeoverifyError, OSError) as e:
            header = e  # raised in the try below, which skips the sample
        # Outside the try: an unwritable matrix path and a repeated valid time fail the
        # run, not the sample, whatever either payload holds.
        if isinstance(header, cubeio.CubeHeader):
            scored = [var for var in header.catalog if var.role == "input-output"]
            if not truth_at:
                for var in scored:
                    cubeio.output_path(matrix_path(var.token, "rmse"))
                    cubeio.output_path(matrix_path(var.token, "psnr"))
            first = truth_at.setdefault(header.valid_time, truth_path)
            if first != truth_path:
                # Scored twice, the time would count twice in its month-hour cell.
                raise GeoverifyError(f"two truth cubes have valid time "
                                     f"{cubeio.format_time(header.valid_time)}: "
                                     f"{first} and {truth_path}")
            # month_hour_matrix would refuse the time too, but only after every upsample.
            try:
                metrics.synoptic_utc(header.valid_time)
            except NonSynopticTime as e:
                raise NonSynopticTime(f"{truth_path}: {e}") from None
        try:
            if isinstance(header, Exception):
                raise header
            truth = cubeio.read_cube(header, scored)
            # Assigned before the model is read: this frees the last sample's baseline.
            baseline, model_header = _downscale_inputs(args, truth_path, truth)
            model = cubeio.read_cube(model_header, scored)
        except (GeoverifyError, OSError) as e:
            print(f"geoverify: skipping {truth_path.stem}: {e}", file=sys.stderr)
            failures += 1
            continue
        for var, method, metric, value, peak in _downscale_scores(truth, baseline, model,
                                                                  args.psnr_peak):
            rows.append((truth.valid_time, var, method, metric, value, peak))
            samples.setdefault((var.token, metric, method), []).append((truth.valid_time, value))
    if not rows:
        raise EmptyInput("no downscaling samples evaluated")

    matrices = [
        (token, metric, metrics.month_hour_matrix(values, samples[token, metric, "bilinear"]))
        for (token, metric, method), values in samples.items() if method == "model"
    ]

    params = {
        "coarse": args.coarse,
        "truth": args.truth,
        "model": args.model,
        "psnr_peak": "reference-range" if args.psnr_peak is None else args.psnr_peak,
    }
    with cubeio.staged_outputs() as stage:
        for token, metric, matrix in matrices:
            capped = int(np.isinf(matrix).sum())
            matrix[np.isposinf(matrix)] = 1.0
            matrix[np.isneginf(matrix)] = -1.0
            matrix_params = dict(params, variable=token, metric=metric, capped_cells=capped)
            cubeio.write_month_hour_matrix(matrix, stage(matrix_path(token, metric)),
                                           matrix_params)
        rows.sort(key=lambda r: (r[0], r[1].token, r[2], r[3]))
        cubeio.write_csv(
            stage(args.out), params,
            ["time", "variable", "level", "method", "metric", "value", "peak"],
            ((cubeio.format_time(t), var.name, "surface" if var.level is None else var.level,
              method, metric, format(value, ".6g"), format(peak, ".6g"))
             for t, var, method, metric, value, peak in rows),
        )

    if failures:
        print(f"geoverify: {failures} sample(s) skipped", file=sys.stderr)
    return 0


# --- tropical cyclones ------------------------------------------------------------

def cmd_tc_track(args) -> int:
    _check_flags(args, "positive", "search_radius_km", "intensity_radius_km", "ring_width_km")
    _check_flags(args, "non-negative", "closed_low_hpa")
    headers = cubeio.headers_by_time(cubeio.cube_paths(args.cubes))
    if not headers:
        raise EmptyInput(f"no cubes in {args.cubes}")

    seed_tracks = cubeio.read_tracks(args.seeds)
    if not seed_tracks:
        raise EmptyInput(f"no seed rows in {args.seeds}")
    trackers = []
    starting: dict[datetime, list] = {}
    for seed_track in seed_tracks:
        seed = seed_track.points[0]
        if seed.time not in headers:
            raise GeoverifyError(
                f"seed time {seed.time} for {seed_track.storm_id} matches no cube"
            )
        tracker = tc.CycloneTracker(
            seed,
            headers[seed.time].spec,
            search_radius_km=args.search_radius_km,
            intensity_radius_km=args.intensity_radius_km,
            closed_low_hpa=args.closed_low_hpa,
            ring_width_km=args.ring_width_km,
            storm_id=seed_track.storm_id,
            name=seed_track.name,
        )
        trackers.append(tracker)
        starting.setdefault(seed.time, []).append(tracker)

    # One pass in valid-time order, holding one cube of the tracked channels at a time.
    active = []
    for valid in sorted(headers):
        cube = cubeio.read_cube(headers[valid], tc.TRACKED_CHANNELS)
        active = [t for t in active + starting.get(valid, []) if t.step(cube)]
        del cube
    out_tracks = [t.track() for t in trackers]
    params = {
        "cubes": args.cubes,
        "seeds": args.seeds,
        "search_radius_km": args.search_radius_km,
        "intensity_radius_km": args.intensity_radius_km,
        "closed_low_hpa": args.closed_low_hpa,
        "ring_width_km": args.ring_width_km,
    }
    cubeio.write_tracks(out_tracks, args.out, params)
    incomplete = [t.storm_id for t in out_tracks if not t.complete]
    if incomplete:
        print(
            f"geoverify: tracking stopped early for: {', '.join(incomplete)}",
            file=sys.stderr,
        )
    return 0


def cmd_tc_eval(args) -> int:
    forecast_paths = [p for p in args.forecast.split(",") if p]
    if not forecast_paths:
        raise InvalidFlags(f"--forecast names no track CSV; got {args.forecast!r}")
    source_names = (
        [s for s in args.sources.split(",") if s]
        if args.sources
        else [Path(p).stem for p in forecast_paths]
    )
    if len(source_names) != len(forecast_paths):
        raise InvalidFlags("--sources must name each --forecast CSV")
    if len(set(source_names)) != len(source_names):
        raise InvalidFlags(f"source names must differ (set --sources); got {','.join(source_names)}")
    reference = cubeio.read_tracks(args.reference)
    tracks_by_source = {
        name: cubeio.read_tracks(path) for name, path in zip(source_names, forecast_paths)
    }
    rows = tc.skill_rows(tracks_by_source, reference)

    params = {
        "forecast": args.forecast,
        "reference": args.reference,
        "sources": ",".join(source_names),
    }
    cubeio.write_csv(
        args.out, params, ["source", "storm_id", "lead_hours", "metric", "value", "n_samples"],
        (row[:4] + (format(row[4], ".6g"), row[5]) for row in rows),
    )
    return 0


def cmd_tc_filter(args) -> int:
    _check_flags(args, "non-negative", "comparable_tol", "track_threshold_km")
    columns = ["case_id", "model_mbe", "wrf_mbe", "both_under", "both_over", "track_err_km"]
    filter_case, tol, threshold = tc.filter_case, args.comparable_tol, args.track_threshold_km
    decisions = []
    for row_no, (case_id, model_mbe, wrf_mbe, under, over, track_err) in \
            cubeio.read_csv_rows(args.cases, columns):
        try:
            decisions.append(filter_case(float(model_mbe), float(wrf_mbe), _parse_bool(under),
                                         _parse_bool(over), float(track_err), tol, threshold,
                                         case_id))
        except (ValueError, InvalidFlags) as e:
            raise ParseError(row_no, str(e)) from None
    if not decisions:
        raise EmptyInput(f"no case rows in {args.cases}")
    params = {
        "cases": args.cases,
        "comparable_tol": args.comparable_tol,
        "track_threshold_km": args.track_threshold_km,
    }
    cubeio.write_csv(
        args.out, params, ["case_id", "decision", "reason"],
        ((d.case_id, d.decision, d.reason) for d in decisions),
    )
    return 0


# --- climatology and VQA ---------------------------------------------------------------

def cmd_climatology(args) -> int:
    from . import climatology as clim_mod

    print(clim_mod.build_climatology(cubeio.cube_paths(args.cubes), args.out))
    return 0


def cmd_vqa_score(args) -> int:
    from . import vqa

    if not args.benchmark.strip():
        raise InvalidFlags(f"--benchmark names no benchmark; got {args.benchmark!r}")
    items = vqa.read_vqa_items(args.items)
    records = vqa.score_items(items, benchmark=args.benchmark)
    params = {"items": args.items, "benchmark": args.benchmark}
    cubeio.write_report(records, args.out, params)
    return 0


# --- argument plumbing ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the code of InvalidFlags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(InvalidFlags.exit_code)


#: Spellings of a boolean cell, after stripping and lower-casing.
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    value = _BOOLS.get(text)
    if value is None:
        value = _BOOLS.get(text.strip().lower())
        if value is None:
            raise ValueError(f"bad boolean {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoverify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="latitude-weighted RMSE/ACC report")
    p.add_argument("--forecast", required=True, help="dir of <ISO>_<lead>.gvc forecast cubes")
    p.add_argument("--reference", required=True, help="dir of <ISO>.gvc reference cubes")
    p.add_argument("--climatology", default=None, help="climatology manifest CSV (for acc)")
    p.add_argument("--variables", required=True, help="comma list, e.g. Z500,T2M,WS10M")
    p.add_argument("--init-times", required=True, help="file of ISO init times, one per line")
    p.add_argument("--leads", required=True, help="lead hours: '6:240:6' or '6,12'")
    p.add_argument("--metrics", default="rmse,acc", help="subset of rmse,acc")
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--map-dir", default=None, help="also write per-gridpoint RMSE map cubes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("downscale-eval", help="RMSE/PSNR vs bilinear baseline")
    p.add_argument("--coarse", required=True, help="dir of coarse <ISO>.gvc cubes")
    p.add_argument("--truth", required=True, help="dir of high-resolution truth cubes")
    p.add_argument("--model", required=True, help="dir of model downscaled cubes")
    p.add_argument("--psnr-peak", type=float, default=None,
                   help="fixed PSNR peak (default: reference max-min per field)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_downscale_eval)

    p = sub.add_parser("tc-track", help="track MSL minima from seed fixes")
    p.add_argument("--cubes", required=True, help="dir of <ISO>.gvc cubes; keeps MSL, WS10M")
    p.add_argument("--seeds", required=True, help="track CSV; first fix per storm seeds")
    p.add_argument("--search-radius-km", type=float, default=250.0)
    p.add_argument("--intensity-radius-km", type=float, default=250.0)
    p.add_argument("--closed-low-hpa", type=float, default=0.5)
    p.add_argument("--ring-width-km", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tc_track)

    p = sub.add_parser("tc-eval", help="track MAE and intensity RMSE vs reference")
    p.add_argument("--forecast", required=True, help="comma list of forecast track CSVs")
    p.add_argument("--reference", required=True, help="reference (best track) CSV")
    p.add_argument("--sources", default=None, help="names for the forecast CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tc_eval)

    p = sub.add_parser("tc-filter", help="apply the training-pair filter rules")
    p.add_argument("--cases", required=True,
                   help="CSV: case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km")
    p.add_argument("--comparable-tol", type=float, default=1.0)
    p.add_argument("--track-threshold-km", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tc_filter)

    p = sub.add_parser("climatology", help="build per-(day,hour) mean fields")
    p.add_argument("--cubes", required=True)
    p.add_argument("--out", required=True, help="output directory (manifest + cubes)")
    p.set_defaults(func=cmd_climatology)

    p = sub.add_parser("vqa-score", help="score VQA predictions")
    p.add_argument("--items", required=True,
                   help="CSV: question_id,type,prediction,ground_truth")
    p.add_argument("--benchmark", default="vqa")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vqa_score)

    return parser


#: Whether main has frozen the process's start-up objects; it does so once per process.
_frozen = False


def main(argv=None) -> int:
    """Runs one subcommand and returns its exit code.

    The first call moves every object then alive into the collector's permanent
    generation (``gc.freeze``): numpy's and geoverify's start-up objects are never
    garbage, and a run's collections and the exit collections no longer walk them.
    A command runs with the cyclic collector paused, since its only cyclic garbage
    is the argument parser; the caller's collector state is restored on return.
    ``gc.unfreeze()`` hands the frozen objects back to the collector.
    """
    global _frozen
    if not _frozen:
        gc.freeze()
        _frozen = True
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except GeoverifyError as e:
        code, error = e.exit_code, e
    except OSError as e:  # a file that cannot be read or written is a data error
        code, error = GeoverifyError.exit_code, e
    finally:
        if collecting:
            gc.enable()
    print(f"geoverify: {_CATEGORY[code]} error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
