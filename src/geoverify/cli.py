"""Batch command-line front end.

Every subcommand writes CSVs that start with a "# params:" metadata line
recording the result-affecting parameter values, so re-running with the
same inputs and flags yields byte-identical files.  Exit codes: 0 success,
2 data error, 3 parse error, 4 configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import climatology as clim_mod
from . import cubeio, metrics, regrid, tc, vqa
from .errors import (
    CorruptHeader,
    EmptyInput,
    GeoverifyError,
    InvalidFlags,
    ParseError,
    PerfectMatch,
)
from .grid import (
    FieldCube,
    GridSpec,
    VariableCatalog,
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


def _read_cube_at(path: Path, valid: datetime, variables, expected: str) -> FieldCube:
    """read_cube; CorruptHeader naming ``path`` if the header's valid time is not ``valid``."""
    cube = cubeio.read_cube(path, variables)
    if cube.valid_time != valid:
        raise CorruptHeader(f"{path}: valid_time {cube.valid_time} != {expected}")
    return cube


def _load_forecast_cube(directory, t0: datetime, lead: int, variables) -> FieldCube:
    return _read_cube_at(forecast_path(directory, t0, lead), t0 + timedelta(hours=lead),
                         variables, f"init {t0} + {lead}h")


def _load_reference_cube(directory, valid: datetime, variables) -> FieldCube:
    return _read_cube_at(reference_path(directory, valid), valid, variables,
                         f"{valid} of the file name")


def _output_grid(directory, eval_set, variables) -> GridSpec:
    """Grid of the first forecast cube; InvalidFlags if a variable is input-only.

    Reads only the cube's header, before the evaluation pass, so a bad
    variable fails before any pair is scored.
    """
    spec, catalog, _ = cubeio.read_header(
        forecast_path(directory, eval_set.init_times[0], eval_set.lead_hours[0])
    )
    for name, level in variables:
        if catalog.get((name, level)).role != "input-output":
            raise InvalidFlags(f"variable {name} is input-only and carries no skill metrics")
    return spec


# --- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
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

    clim_fields = None
    if "acc" in wanted:
        if not args.climatology:
            raise InvalidFlags("computing acc requires --climatology MANIFEST")
        clim_fields = clim_mod.Climatology.load(args.climatology, variables).lookup_channel

    spec = _output_grid(args.forecast, eval_set, variables)
    records, rmse_maps = metrics.evaluate_set(
        lambda t0, lead: _load_forecast_cube(args.forecast, t0, lead, variables),
        lambda valid: _load_reference_cube(args.reference, valid, variables),
        eval_set,
        variables,
        rmse="rmse" in wanted,
        clim_fields=clim_fields,
        maps=bool(args.map_dir),
        threads=args.threads,
    )
    params = {
        "forecast": args.forecast,
        "reference": args.reference,
        "climatology": args.climatology or "none",
        "variables": args.variables,
        "init_times": args.init_times,
        "leads": args.leads,
        "metrics": ",".join(wanted),
    }
    if args.map_dir:  # the maps go first, so a failure to write one leaves no report
        out_dir = Path(args.map_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for (var, lead), rmse_map in rmse_maps.items():
            cube = FieldCube(
                spec,
                VariableCatalog([var]),
                eval_set.init_times[0] + timedelta(hours=lead),
                rmse_map[None].astype(np.float32),
            )
            cubeio.write_cube(cube, out_dir / f"rmsemap_{var.token}_{lead}.gvc")
    cubeio.write_report(records, args.out, params)
    return 0


# --- downscale-eval -------------------------------------------------------------

def cmd_downscale_eval(args) -> int:
    if args.psnr_peak is not None and not 0.0 < args.psnr_peak < math.inf:
        raise InvalidFlags(f"--psnr-peak must be positive and finite; got {args.psnr_peak}")
    truth_paths = cubeio.cube_paths(args.truth)
    if not truth_paths:
        raise EmptyInput(f"no truth cubes in {args.truth}")

    rows = []          # (time, var, method, metric, value, peak)
    samples: dict = {} # (var token, metric, method) -> list of (time, value)
    failures = 0
    for truth_path in truth_paths:
        stem = truth_path.stem
        try:
            truth = cubeio.read_cube(truth_path)
            coarse = cubeio.read_cube(Path(args.coarse) / truth_path.name)
            model = cubeio.read_cube(Path(args.model) / truth_path.name)
            for side, cube in (("coarse", coarse), ("model", model)):
                missing = [var.token for var in truth.catalog
                           if var.role == "input-output" and var not in cube.catalog]
                if missing:
                    raise GeoverifyError(f"{side} cube lacks {','.join(missing)} for {stem}")
            baseline = regrid.bilinear_upsample(coarse, truth.spec)
            if model.spec != truth.spec:
                raise GeoverifyError(f"model grid differs from truth grid for {stem}")
        except (GeoverifyError, OSError) as e:
            print(f"geoverify: skipping {stem}: {e}", file=sys.stderr)
            failures += 1
            continue
        weights = latitude_weights(truth.spec)
        for var in truth.catalog:
            if var.role != "input-output":
                continue
            t2 = select_channel(truth, var)
            peak = metrics.dynamic_range(t2) if args.psnr_peak is None else args.psnr_peak
            for method, cube in (("bilinear", baseline), ("model", model)):
                c2 = select_channel(cube, var)
                scores = {"rmse": metrics.weighted_rmse(c2, t2, weights)}
                if peak > 0.0:
                    try:
                        scores["psnr"] = metrics.psnr(c2, t2, peak)
                    except PerfectMatch:
                        scores["psnr"] = float("inf")
                for metric, value in scores.items():
                    rows.append((truth.valid_time, var, method, metric, value, peak))
                    samples.setdefault((var.token, metric, method), []).append(
                        (truth.valid_time, value)
                    )
    if not rows:
        raise EmptyInput("no downscaling samples evaluated")

    # Every matrix is built before any file is written: a failure leaves no partial report.
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
    rows.sort(key=lambda r: (r[0], r[1].token, r[2], r[3]))
    cubeio.write_csv(
        args.out, params, ["time", "variable", "level", "method", "metric", "value", "peak"],
        ((cubeio.format_time(t), var.name, "surface" if var.level is None else var.level,
          method, metric, format(value, ".6g"), format(peak, ".6g"))
         for t, var, method, metric, value, peak in rows),
    )

    out_base = Path(args.out)
    for token, metric, matrix in matrices:
        capped = int(np.isinf(matrix).sum())
        matrix[np.isposinf(matrix)] = 1.0
        matrix[np.isneginf(matrix)] = -1.0
        matrix_params = dict(params, variable=token, metric=metric, capped_cells=capped)
        path = out_base.with_name(f"{out_base.stem}_nd_{token}_{metric}.csv")
        cubeio.write_month_hour_matrix(matrix, path, matrix_params)

    if failures:
        print(f"geoverify: {failures} sample(s) skipped", file=sys.stderr)
    return 0


# --- tropical cyclones ------------------------------------------------------------

def cmd_tc_track(args) -> int:
    _check_flags(args, "positive", "search_radius_km", "intensity_radius_km", "ring_width_km")
    _check_flags(args, "non-negative", "closed_low_hpa")
    cubes = [cubeio.read_cube(p) for p in cubeio.cube_paths(args.cubes)]
    if not cubes:
        raise EmptyInput(f"no cubes in {args.cubes}")
    cubes.sort(key=lambda c: c.valid_time)
    times = [c.valid_time for c in cubes]
    if len(set(times)) != len(times):
        raise GeoverifyError("duplicate cube valid times in input directory")

    seed_tracks = cubeio.read_tracks(args.seeds)
    out_tracks = []
    for seed_track in seed_tracks:
        seed = seed_track.points[0]
        if seed.time not in times:
            raise GeoverifyError(
                f"seed time {seed.time} for {seed_track.storm_id} matches no cube"
            )
        tail = cubes[times.index(seed.time):]
        out_tracks.append(
            tc.track_cyclone(
                tail,
                seed,
                search_radius_km=args.search_radius_km,
                intensity_radius_km=args.intensity_radius_km,
                closed_low_hpa=args.closed_low_hpa,
                ring_width_km=args.ring_width_km,
                storm_id=seed_track.storm_id,
                name=seed_track.name,
            )
        )
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
    decisions = []
    for row_no, row in cubeio.read_csv_rows(args.cases, columns):
        try:
            decision = tc.filter_case(
                model_mbe=float(row[1]),
                wrf_mbe=float(row[2]),
                both_under=_parse_bool(row[3]),
                both_over=_parse_bool(row[4]),
                track_err_km=float(row[5]),
                comparable_tol=args.comparable_tol,
                track_threshold_km=args.track_threshold_km,
                case_id=row[0],
            )
        except (ValueError, InvalidFlags) as e:
            raise ParseError(row_no, str(e)) from None
        decisions.append(decision)
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
    cubes = [cubeio.read_cube(p) for p in cubeio.cube_paths(args.cubes)]
    clim = clim_mod.build_climatology(cubes)
    manifest = clim.save(args.out)
    print(manifest)
    return 0


def cmd_vqa_score(args) -> int:
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


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("1", "true", "yes"):
        return True
    if norm in ("0", "false", "no"):
        return False
    raise ValueError(f"bad boolean {text!r}")


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
    p.add_argument("--cubes", required=True, help="dir of <ISO>.gvc cubes (MSL, WS10M)")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeoverifyError as e:
        code, error = e.exit_code, e
    except OSError as e:  # a file that cannot be read or written is a data error
        code, error = GeoverifyError.exit_code, e
    print(f"geoverify: {_CATEGORY[code]} error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
