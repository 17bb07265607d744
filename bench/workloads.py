"""The four benchmark workloads: fixtures, command lines and output checks.

A workload writes its inputs under ``<root>/in`` from the seed alone, names
the geoverify commands one child process runs (paths relative to the
checkout root, which is the child's working directory), and checks the
files the commands leave under ``<root>/out`` against the oracles.
"""

from __future__ import annotations

import csv
import re
from datetime import timedelta
from pathlib import Path

import numpy as np

import oracle
from fields import (
    SURFACE_CHANNELS,
    WEATHER_CHANNELS,
    FieldModel,
    StormSeason,
    clim_key,
    grid_axes,
    iso,
    stem,
    utc,
)
from gvcfile import read_cube, write_cube

MIB = 1 << 20

G025 = (721, 1440, 90.0, -0.25, 0.0, 0.25)      # global 0.25 degrees
G2 = (91, 180, 90.0, -2.0, 0.0, 2.0)            # global 2 degrees
DS_FINE = (321, 481, 60.0, -0.25, 60.0, 0.25)   # regional 0.25 degrees
DS_COARSE = (81, 121, 60.0, -1.0, 60.0, 1.0)    # the same region at 1 degree
TC_GRID = (161, 241, 40.0, -0.25, 100.0, 0.25)  # regional 0.25 degrees


def token(name: str, level) -> str:
    return name if level is None else f"{name}{level}"


def cube_bytes(grid, n_chan: int) -> int:
    return 4 * grid[0] * grid[1] * n_chan


def read_report(path) -> list[list[str]]:
    """Data rows of a geoverify CSV: the params line and the header dropped."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[1:]


# --- verify ------------------------------------------------------------------

class Verify:
    """`verify` over a set of (init, lead) pairs with a climatology."""

    def __init__(self, name, why, grid, inits, leads, variables, threads, map_dir, tag, peak_rss):
        self.name, self.why = name, why
        self.grid = grid
        self.inits = inits
        self.leads = leads
        self.variables = variables
        self.threads = threads
        self.map_dir = map_dir
        self.tag = tag
        self.peak_rss = peak_rss
        self.pairs = [(t0, lead) for t0 in inits for lead in leads]
        self.valids = sorted({t0 + timedelta(hours=lead) for t0, lead in self.pairs})
        self.keys = sorted({clim_key(v) for v in self.valids})
        self.units = len(self.pairs)

    def fixture_bytes(self) -> int:
        n = len(self.pairs) + len(self.valids) + len(self.keys)
        return n * cube_bytes(self.grid, len(WEATHER_CHANNELS))

    def _indices(self, t0, lead):
        valid = t0 + timedelta(hours=lead)
        return self.keys.index(clim_key(valid)), self.valids.index(valid), self.pairs.index((t0, lead))

    def build(self, root: Path, seed: int) -> None:
        model = FieldModel(seed, self.tag, self.grid, len(WEATHER_CHANNELS))
        chans = range(len(WEATHER_CHANNELS))
        for d in ("fc", "ref", "clim"):
            (root / "in" / d).mkdir(parents=True, exist_ok=True)
        with open(root / "in" / "clim" / "manifest.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("doy,hour,n_samples,filename\n")
            for ki, (doy, hour) in enumerate(self.keys):
                name = f"clim_d{doy:03d}_h{hour:02d}.gvc"
                f.write(f"{doy},{hour},30,{name}\n")
                stamp = utc(2000, 1, 1, hour) + timedelta(days=doy - 1)
                write_cube(root / "in" / "clim" / name, self.grid, WEATHER_CHANNELS, stamp,
                           (model.clim(ki, c) for c in chans))
        for vi, valid in enumerate(self.valids):
            ki = self.keys.index(clim_key(valid))
            write_cube(root / "in" / "ref" / f"{stem(valid)}.gvc", self.grid, WEATHER_CHANNELS,
                       valid, (model.ref(model.clim(ki, c), vi, c) for c in chans))
        for t0, lead in self.pairs:
            ki, vi, pi = self._indices(t0, lead)
            write_cube(root / "in" / "fc" / f"{stem(t0)}_{lead}.gvc", self.grid, WEATHER_CHANNELS,
                       t0 + timedelta(hours=lead),
                       (model.fc(model.ref(model.clim(ki, c), vi, c), pi, lead, c) for c in chans))
        with open(root / "in" / "inits.txt", "w", encoding="utf-8", newline="\n") as f:
            f.writelines(iso(t) + "\n" for t in self.inits)

    def leads_arg(self) -> str:
        if len(self.leads) == 1:
            return str(self.leads[0])
        return f"{self.leads[0]}:{self.leads[-1]}:{self.leads[1] - self.leads[0]}"

    def commands(self, root: Path, threads: int) -> list[list[str]]:
        cmd = [
            "verify",
            "--forecast", f"{root}/in/fc",
            "--reference", f"{root}/in/ref",
            "--climatology", f"{root}/in/clim/manifest.csv",
            "--variables", ",".join(token(*v) for v in self.variables),
            "--init-times", f"{root}/in/inits.txt",
            "--leads", self.leads_arg(),
            "--metrics", "rmse,acc",
            "--out", f"{root}/out/report.csv",
            "--threads", str(threads),
        ]
        if self.map_dir:
            cmd += ["--map-dir", f"{root}/out/maps"]
        return [cmd]

    def check(self, root: Path, seed: int, stderr: str) -> list[str]:
        problems: list[str] = []
        model = FieldModel(seed, self.tag, self.grid, len(WEATHER_CHANNELS))
        weights = oracle.latitude_weights(grid_axes(self.grid)[0])
        reported = {}
        for name, level, lead, metric, value in read_report(root / "out" / "report.csv"):
            reported[(name, None if level == "surface" else int(level), int(lead), metric)] = float(value)
        expected_rows = len(self.variables) * len(self.leads) * 2
        if len(reported) != expected_rows:
            problems.append(f"report has {len(reported)} rows, expected {expected_rows}")
        for name, level in self.variables:
            c = WEATHER_CHANNELS.index((name, level))
            clims = [model.clim(ki, c) for ki in range(len(self.keys))]
            refs = [model.ref(clims[self.keys.index(clim_key(v))], vi, c) for vi, v in enumerate(self.valids)]
            clims64 = [m.astype(np.float64) for m in clims]
            refs64 = [r.astype(np.float64) for r in refs]
            for lead in self.leads:
                fields = []
                for t0 in self.inits:
                    ki, vi, pi = self._indices(t0, lead)
                    fc = model.fc(refs[vi], pi, lead, c).astype(np.float64)
                    fields.append((fc, refs64[vi], clims64[ki]))
                want = {
                    "rmse": sum(oracle.rmse(f, r, weights) for f, r, _ in fields) / len(fields),
                    "acc": sum(oracle.acc(f, r, m, weights) for f, r, m in fields) / len(fields),
                }
                for metric, value in want.items():
                    got = reported.get((name, level, lead, metric))
                    if got is None or not oracle.close(got, value):
                        problems.append(f"{token(name, level)} lead {lead} {metric}: {got} != {value:.8g}")
                if self.map_dir:
                    self._check_map(root, c, lead, [f for f, _, _ in fields],
                                    [r for _, r, _ in fields], problems)
        return problems

    def _check_map(self, root, c, lead, forecasts, references, problems) -> None:
        path = root / "out" / "maps" / f"rmsemap_{token(*WEATHER_CHANNELS[c])}_{lead}.gvc"
        if not path.exists():
            problems.append(f"missing {path.name}")
            return
        _, valid, values = read_cube(path)
        want = oracle.pointwise_rmse(forecasts, references)
        if valid != self.inits[0] + timedelta(hours=lead) or values.shape[0] != 1:
            problems.append(f"{path.name}: wrong valid time or channel count")
        elif not np.allclose(values[0], want, rtol=1e-6, atol=0.0):
            problems.append(f"{path.name}: max error {np.abs(values[0] - want).max():.3g}")

    def outputs_expected(self) -> int:
        return 1 + (len(self.variables) * len(self.leads) if self.map_dir else 0)


# --- downscale ---------------------------------------------------------------

class Downscale:
    """`downscale-eval`: 1 degree coarse cubes vs 0.25 degree truth and model cubes."""

    name = "downscale"
    why = ("bilinear_upsample dominates; unweighted PSNR and 10 matrix CSV writes; "
           "one truth sample without a model cube must be skipped")
    peak_rss = 200 * MIB
    threads = 1

    def __init__(self, fine=DS_FINE, coarse=DS_COARSE):
        self.fine, self.coarse = fine, coarse
        self.ratio = round(coarse[3] / fine[3])
        self.times = [utc(2023, month, 5 + hour, hour) for month in range(1, 13) for hour in (0, 6, 12, 18)]
        self.orphan = utc(2023, 3, 12, 6)   # truth and coarse cube, no model cube
        self.units = len(self.times)

    def fixture_bytes(self) -> int:
        n = len(self.times)
        return (2 * n + 1) * cube_bytes(self.fine, 5) + (n + 1) * cube_bytes(self.coarse, 5)

    def build(self, root: Path, seed: int) -> None:
        model = FieldModel(seed, 3, self.fine, len(SURFACE_CHANNELS))
        k = self.ratio
        for d in ("coarse", "truth", "model"):
            (root / "in" / d).mkdir(parents=True, exist_ok=True)
        chans = range(len(SURFACE_CHANNELS))
        for s, t in enumerate(self.times + [self.orphan]):
            name = f"{stem(t)}.gvc"
            truth = [model.truth(s, c) for c in chans]
            write_cube(root / "in" / "truth" / name, self.fine, SURFACE_CHANNELS, t, truth)
            write_cube(root / "in" / "coarse" / name, self.coarse, SURFACE_CHANNELS, t,
                       (f[::k, ::k] for f in truth))
            if t != self.orphan:
                write_cube(root / "in" / "model" / name, self.fine, SURFACE_CHANNELS, t,
                           (model.model(f, s, c) for c, f in enumerate(truth)))

    def commands(self, root: Path, threads: int) -> list[list[str]]:
        return [["downscale-eval", "--coarse", f"{root}/in/coarse", "--truth", f"{root}/in/truth",
                 "--model", f"{root}/in/model", "--out", f"{root}/out/ds.csv"]]

    def check(self, root: Path, seed: int, stderr: str) -> list[str]:
        problems: list[str] = []
        model = FieldModel(seed, 3, self.fine, len(SURFACE_CHANNELS))
        weights = oracle.latitude_weights(grid_axes(self.fine)[0])
        k = self.ratio
        if "1 sample(s) skipped" not in stderr or f"skipping {stem(self.orphan)}" not in stderr:
            problems.append("the sample without a model cube was not reported as the one skipped")
        rows = {}
        for t, name, level, method, metric, value, peak in read_report(root / "out" / "ds.csv"):
            rows[(t, name, method, metric)] = (float(value), float(peak))
        want_rows = len(self.times) * len(SURFACE_CHANNELS) * 4
        if len(rows) != want_rows:
            problems.append(f"downscale report has {len(rows)} rows, expected {want_rows}")
        cells: dict = {}
        for s, t in enumerate(self.times):
            for c, (name, _) in enumerate(SURFACE_CHANNELS):
                truth = model.truth(s, c)
                peak = oracle.dynamic_range(truth)
                candidates = {
                    "bilinear": oracle.bilinear(truth[::k, ::k], self.coarse, self.fine).astype(np.float32),
                    "model": model.model(truth, s, c),
                }
                for method, field in candidates.items():
                    for metric, value in (("rmse", oracle.rmse(field, truth, weights)),
                                          ("psnr", oracle.psnr(field, truth, peak))):
                        got = rows.get((iso(t), name, method, metric))
                        if got is None or not (oracle.close(got[0], value) and oracle.close(got[1], peak)):
                            problems.append(f"{iso(t)} {name} {method} {metric}: {got} != {value:.8g}")
                        cells.setdefault((name, metric, t.month, t.hour, method), []).append(value)
        self._check_matrices(root, cells, problems)
        return problems

    def _check_matrices(self, root, cells, problems) -> None:
        for name, _ in SURFACE_CHANNELS:
            for metric in ("rmse", "psnr"):
                path = root / "out" / f"ds_nd_{name}_{metric}.csv"
                if not path.exists():
                    problems.append(f"missing {path.name}")
                    continue
                for row in read_report(path):
                    month = int(row[0])
                    for col, hour in enumerate((0, 6, 12, 18)):
                        want = oracle.normalized_difference(
                            cells[(name, metric, month, hour, "model")],
                            cells[(name, metric, month, hour, "bilinear")],
                        )
                        if not oracle.close(float(row[col + 1]), want):
                            problems.append(f"{path.name} month {month} h{hour:02d}: {row[col + 1]} != {want:.8g}")

    def outputs_expected(self) -> int:
        return 1 + 2 * len(SURFACE_CHANNELS)


# --- tropical cyclones -------------------------------------------------------

class TcSeason:
    """`tc-track` over a season of small cubes, then `tc-eval` and `tc-filter`."""

    name = "tc-season"
    why = ("the only tc workload: many small cube reads, track and case CSVs; "
           "adds per-file overhead and start-up where the others read few large files")
    peak_rss = 300 * MIB
    threads = 1

    def __init__(self, n_steps=480, n_storms=16, life=24, n_cases=20000):
        self.n_steps, self.n_storms, self.life, self.n_cases = n_steps, n_storms, life, n_cases
        self.units = n_storms

    def season(self, seed: int) -> StormSeason:
        return StormSeason(seed, TC_GRID, self.n_steps, self.n_storms, self.life, utc(2024, 6, 1))

    def fixture_bytes(self) -> int:
        return self.n_steps * cube_bytes(TC_GRID, 2) + 60 * self.n_cases

    def build(self, root: Path, seed: int) -> None:
        season = self.season(seed)
        (root / "in" / "cubes").mkdir(parents=True, exist_ok=True)
        for step in range(self.n_steps):
            t = season.time(step)
            write_cube(root / "in" / "cubes" / f"{stem(t)}.gvc", TC_GRID,
                       [("MSL", None), ("WS10M", None)], t, season.fields(step))
        rng = np.random.default_rng([seed, 8])
        header = "storm_id,name,time,lat,lon,ws_max,msl_min\n"
        with open(root / "in" / "seeds.csv", "w", encoding="utf-8", newline="\n") as seeds, \
                open(root / "in" / "best.csv", "w", encoding="utf-8", newline="\n") as best, \
                open(root / "in" / "modelb.csv", "w", encoding="utf-8", newline="\n") as other:
            for f in (seeds, best, other):
                f.write(header)
            for storm in season.storms:
                sid = storm["id"]
                ws = 4.0 + storm["ws_peak"]
                msl = 1004.0 - storm["depth"]
                for age in range(self.life):
                    step = storm["first"] + age
                    lat, lon = season.centre(storm, step)
                    when = iso(season.time(step))
                    line = f"{sid},{sid},{when},{lat:.4f},{lon:.4f},{ws:.3f},{msl + 0.2 * lat:.3f}\n"
                    best.write(line)
                    if age == 0:
                        seeds.write(line)
                    dlat, dlon, dws = rng.normal(0.0, [0.3, 0.3, 3.0])
                    other.write(f"{sid},{sid},{when},{lat + dlat:.4f},{lon + dlon:.4f},"
                                f"{max(0.0, ws + dws):.3f},\n")
        flags = rng.integers(0, 3, self.n_cases)          # 0 neither, 1 under, 2 over
        mbe = rng.uniform(-5.0, 5.0, (self.n_cases, 2))
        err = rng.uniform(0.0, 30.0, self.n_cases)
        with open(root / "in" / "cases.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("case_id,model_mbe,wrf_mbe,both_under,both_over,track_err_km\n")
            for i in range(self.n_cases):
                f.write(f"C{i:05d},{mbe[i, 0]:.3f},{mbe[i, 1]:.3f},{int(flags[i] == 1)},"
                        f"{int(flags[i] == 2)},{err[i]:.2f}\n")

    def commands(self, root: Path, threads: int) -> list[list[str]]:
        return [
            ["tc-track", "--cubes", f"{root}/in/cubes", "--seeds", f"{root}/in/seeds.csv",
             "--out", f"{root}/out/track.csv"],
            ["tc-eval", "--forecast", f"{root}/out/track.csv,{root}/in/modelb.csv",
             "--sources", "track,modelb", "--reference", f"{root}/in/best.csv",
             "--out", f"{root}/out/tc_eval.csv"],
            ["tc-filter", "--cases", f"{root}/in/cases.csv", "--out", f"{root}/out/decisions.csv"],
        ]

    def check(self, root: Path, seed: int, stderr: str) -> list[str]:
        problems: list[str] = []
        season = self.season(seed)
        by_id = {s["id"]: s for s in season.storms}
        step_of = {iso(season.time(k)): k for k in range(self.n_steps)}
        fixes: dict = {}
        for sid, _, when, lat, lon, _, _ in read_report(root / "out" / "track.csv"):
            fixes.setdefault(sid, []).append((step_of.get(when), float(lat), float(lon)))
        tol = abs(TC_GRID[3]) + 1e-6
        for sid, storm in by_id.items():
            found = fixes.get(sid, [])
            if len(found) != self.life:
                problems.append(f"{sid}: {len(found)} fixes, {self.life} planted")
            for step, lat, lon in found:
                centre = None if step is None else season.centre(storm, step)
                if centre is None or abs(lat - centre[0]) > tol or \
                        abs((lon - centre[1] + 180.0) % 360.0 - 180.0) > tol:
                    problems.append(f"{sid} step {step}: fix ({lat}, {lon}) not within one grid step of {centre}")
        sources = {row[0] for row in read_report(root / "out" / "tc_eval.csv")}
        if sources != {"track", "modelb"}:
            problems.append(f"tc-eval scored sources {sorted(sources)}")
        self._check_decisions(root, problems)
        return problems

    def _check_decisions(self, root, problems) -> None:
        cases = read_report(root / "in" / "cases.csv")
        decisions = read_report(root / "out" / "decisions.csv")
        if len(decisions) != len(cases):
            problems.append(f"{len(decisions)} decisions for {len(cases)} cases")
        for case, got in zip(cases, decisions):
            want = oracle.filter_decision(float(case[1]), float(case[2]), case[3] == "1",
                                          case[4] == "1", float(case[5]))
            if got[0] != case[0] or tuple(got[1:]) != want:
                problems.append(f"case {case[0]}: {got[1:]} != {want}")

    def outputs_expected(self) -> int:
        return 3


def _verify_global() -> Verify:
    return Verify(
        name="verify-global",
        why=("0.25 deg, all 70 channels, rmse+acc, 2 threads: the metric kernels do the most "
             "work and every channel read is used"),
        grid=G025, inits=[utc(2022, 1, 1), utc(2023, 1, 1)], leads=[24],
        variables=WEATHER_CHANNELS, threads=2, map_dir=False, tag=1, peak_rss=2300 * MIB,
    )


def _verify_batch() -> Verify:
    return Verify(
        name="verify-batch",
        why=("2 deg, 3 of 70 channels, 40 pairs over 13 valid times, maps, 1 thread: "
             "I/O-bound re-reads of whole cubes"),
        grid=G2, inits=[utc(2023, 3, 1) + timedelta(hours=6 * k) for k in range(4)],
        leads=list(range(6, 61, 6)), variables=[("Z", 500), ("T2M", None), ("WS10M", None)],
        threads=1, map_dir=True, tag=2, peak_rss=400 * MIB,
    )


WORKLOADS = {w.name: w for w in (_verify_global(), _verify_batch(), Downscale(), TcSeason())}


def parse_stderr_skipped(stderr: str) -> int:
    m = re.search(r"(\d+) sample\(s\) skipped", stderr)
    return int(m.group(1)) if m else 0


def mib(n: float) -> float:
    return n / MIB
