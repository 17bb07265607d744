"""Benchmark of geoverify's batch CLI on seeded synthetic fixtures.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: verify-global, verify-batch, downscale, tc-season (see
bench/README.md).  One invocation prepares the workload's fixtures for the
seed under .bench_work/ (timed apart, as prepare_s), makes one checked run
whose outputs must match the oracles, then runs a closed loop with one
client for --seconds: a fresh interpreter per run, the next started only
after the previous one exited, each bracketed by calibration children so
that times can be reported at reference speed (REFERENCE_CALIBRATION_S).
Every timed run's output files must be byte-identical to the checked run's.  With --trace 1, traced runs
alternate with untraced ones and the per-layer metrics are reported
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are a
human-readable summary and the environment; a full record is also written
to .bench_work/<workload>/result-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_work")
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
#: Bump when the generator's output changes, so stale fixtures are rebuilt.
FIXTURE_VERSION = "3"
MIN_RUNS = 3
#: Median calibration time (bench/calibrate.py, spawn to exit) on the reference
#: machine, a 2-vCPU Xeon VM at 2.0 GHz, in a quiet period.  Each run's times
#: are reported scaled by this over the mean of the two calibrations around
#: the run, i.e. in seconds at reference speed, so that drift in a shared
#: machine's speed does not read as a change of the program.
REFERENCE_CALIBRATION_S = 0.25
#: Seconds after which no new run starts and a running child is killed.
INVOCATION_BUDGET_S = 165.0
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")]


@dataclass
class Run:
    """Outcome of one child process."""

    traced: bool
    values: dict
    stderr: str
    report: dict
    digests: dict
    ok: bool = False
    why: str = ""
    speed: float = 1.0              # reference calibration time / calibration time around the run
    probe_s: float | None = None    # set-up time of the probe started just before the run


def threads_for(workload) -> int:
    """The workload's --threads, capped at the CPUs here so no run oversubscribes them."""
    return max(1, min(workload.threads, os.cpu_count() or 1))


def hash_outputs(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def child_argv(commands, traced: bool, report_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), str(report_path), "1" if traced else "0",
            json.dumps(commands)]


def launch(argv, stderr_path: Path, deadline: float, report_path: Path | None = None):
    """Start one child, wait for it; returns (start, end, exit code, rusage, report, stderr)."""
    if report_path is not None:
        report_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    with open(stderr_path, "w+b") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                env=env)
        watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    report = {}
    if report_path is not None and report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    return start, end, proc.returncode, usage, report, stderr


def spawn(workload, root: Path, threads: int, traced: bool, deadline: float) -> Run:
    """Run the workload's commands in one fresh child and collect its numbers."""
    out = root / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    report_path = root / "child.json"
    start, end, code, usage, report, stderr = launch(
        child_argv(workload.commands(root, threads), traced, report_path), root / "stderr.txt",
        deadline, report_path)
    values = {
        "wall_s": end - start,
        "setup_s": report.get("setup_done", end) - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    run = Run(traced, values, stderr, report, hash_outputs(out))
    if code != 0:
        run.why = f"exit {code}: {stderr.strip()[-300:]}"
    elif len(run.digests) != workload.outputs_expected():
        run.why = f"{len(run.digests)} output files, expected {workload.outputs_expected()}"
    else:
        run.ok = True
    return run


def setup_probe(root: Path, deadline: float) -> float | None:
    """Set-up time of one child that starts geoverify and runs no command (None if it failed)."""
    report_path = root / "probe.json"
    start, _, code, _, report, _ = launch(child_argv([], False, report_path), root / "probe.txt",
                                          deadline, report_path)
    return report["setup_done"] - start if code == 0 and "setup_done" in report else None


def calibration(root: Path, deadline: float) -> float:
    """Spawn-to-exit time of the fixed reference child."""
    start, end, code, _, _, stderr = launch([sys.executable, str(BENCH / "calibrate.py")],
                                            root / "calibrate.txt", deadline)
    if code != 0:
        sys.exit(f"bench: calibration child failed: {stderr.strip()[-300:]}")
    return end - start


def meminfo() -> dict:
    """/proc/meminfo fields in bytes."""
    out = {}
    with open("/proc/meminfo", encoding="ascii") as f:
        for line in f:
            key, value = line.split(":", 1)
            out[key] = int(value.split()[0]) * 1024
    return out


def preflight(workload, generating: bool) -> None:
    """Refuse to run where fixtures plus the child would not fit on disk and in memory."""
    free_disk, mem_avail = shutil.disk_usage(WORK).free, meminfo()["MemAvailable"]
    need_mem = workload.peak_rss + workload.fixture_bytes()
    if generating and free_disk < 1.1 * workload.fixture_bytes() + (64 << 20):
        sys.exit(f"bench: {workloads.mib(free_disk):.0f} MiB free on disk, "
                 f"{workload.name} needs {workloads.mib(workload.fixture_bytes()):.0f} MiB of fixtures")
    if mem_avail < need_mem:
        sys.exit(f"bench: {workloads.mib(mem_avail):.0f} MiB of memory available, {workload.name} "
                 f"needs {workloads.mib(need_mem):.0f} MiB (peak process plus cached fixtures); "
                 "refusing to time a swapping or evicting machine")


def prepare(workload, seed: int) -> tuple[Path, float]:
    """Fixtures for (workload, seed) under .bench_work; returns (root, seconds spent)."""
    base = WORK / workload.name
    root = base / f"seed-{seed}"
    marker = root / "in" / ".complete"
    stamp = f"{FIXTURE_VERSION} {workload.name} {seed}\n"
    start = time.monotonic()
    if marker.exists() and marker.read_text(encoding="utf-8") == stamp:
        preflight(workload, generating=False)
        return root, time.monotonic() - start
    # One seed per workload on disk at a time keeps the footprint bounded.
    if base.exists():
        for old in base.glob("seed-*"):
            shutil.rmtree(old)
    base.mkdir(parents=True, exist_ok=True)
    preflight(workload, generating=True)
    workload.build(root, seed)
    marker.write_text(stamp, encoding="utf-8")
    return root, time.monotonic() - start


def environment(workload) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')} ({info.get('openblas configuration', '')})"
    except (TypeError, KeyError, ValueError):
        pass
    llc = 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                llc = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            pass
    rev = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    mem = meminfo()
    fixture = workloads.mib(workload.fixture_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(workloads.mib(mem["MemTotal"])),
        "mem_available_mib": round(workloads.mib(mem["MemAvailable"])),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "GEOVERIFY_THREADS": os.environ.get("GEOVERIFY_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_rev": rev,
        "fixture_mib": round(fixture, 1),
        "llc_mib": round(workloads.mib(llc), 1) if llc else None,
        "fixture_over_llc": round(fixture / workloads.mib(llc), 1) if llc else None,
        "reads": "warm page-cache reads; the page cache is not dropped, cold reads are unmeasured",
    }


def closed_loop(workload, root: Path, threads: int, checked: Run, args, deadline: float):
    """Timed runs, one client, each started after the last exited; traced ones alternate.

    Calibration children bracket every run, and a set-up probe goes just
    before it; each run's ``speed`` comes from the two calibrations around
    it.  Returns (untraced runs, traced runs, calibration times, failure reasons).
    """
    plain: list[Run] = []
    traced: list[Run] = []
    cals = [calibration(root, deadline)]
    failures: list[str] = []
    loop_start = time.monotonic()
    while time.monotonic() < deadline:
        enough = min(len(plain), len(traced)) >= 2 if args.trace else len(plain) >= MIN_RUNS
        if enough and time.monotonic() - loop_start >= args.seconds:
            break
        probe = setup_probe(root, deadline)
        run = spawn(workload, root, threads, bool(args.trace) and len(traced) < len(plain), deadline)
        cals.append(calibration(root, deadline))
        run.speed = REFERENCE_CALIBRATION_S / ((cals[-2] + cals[-1]) / 2.0)
        run.probe_s = probe
        if run.ok and run.digests != checked.digests:
            run.ok, run.why = False, "outputs differ from the checked run"
        if not run.ok:
            failures.append(run.why)
        (traced if run.traced else plain).append(run)
    return plain, traced, cals, failures


def per_layer(workload, traced: list[Run], threads: int) -> dict:
    """Median over traced runs of each per-layer metric."""
    per_run = [
        layers.layer_metrics(r.report.get("spans", []), threads, workload.units,
                             workloads.parse_stderr_skipped(r.stderr))
        for r in traced
    ]
    return {name: {"value": statistics.median(m[name] for m in per_run), "unit": unit}
            for name, unit in layers.PER_LAYER}


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with at least 10 samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10:
            best = p
    if best is None:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return best, cuts[int(best * 10) - 1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true",
                   help=f"record the checked outputs' sha256 for seed {DEFAULT_SEED} in bench/digests.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated benchmark still kills and reaps the child it is waiting for (see launch).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not Path("src/geoverify/cli.py").is_file():
        print("bench: run from the root of a geoverify source checkout (src/geoverify/cli.py "
              "not found)", file=sys.stderr)
        return 2
    invocation_start = time.monotonic()
    deadline = invocation_start + INVOCATION_BUDGET_S
    workload = workloads.WORKLOADS[args.workload]
    threads = threads_for(workload)
    env = environment(workload)
    root, prepare_s = prepare(workload, args.seed)

    checked = spawn(workload, root, threads, traced=False, deadline=deadline)
    problems = [] if checked.ok else [f"checked run failed: {checked.why}"]
    if checked.ok:
        problems += workload.check(root, args.seed, checked.stderr)
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if args.write_digests and not problems:
            recorded[workload.name] = checked.digests
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        if recorded.get(workload.name) != checked.digests:
            problems.append(f"outputs differ from the sha256 recorded in {DIGESTS.name}")
    correct = not problems
    plain, traced, cals, runs_failed = closed_loop(workload, root, threads, checked, args, deadline)
    attempted = 1 + len(plain) + len(traced)
    failed = (0 if correct else 1) + len(runs_failed)
    failures = problems + runs_failed
    if not plain or (args.trace and not traced):
        sys.exit("bench: no timed run fitted in the invocation's time budget")

    def good(runs):
        return [r for r in runs if r.ok] or runs

    summary = {}
    for name, unit in END_TO_END:
        samples = [(r.values[name], r.speed) for r in good(plain)]
        if name == "setup_s":
            samples += [(r.probe_s, r.speed) for r in good(plain) if r.probe_s is not None]
        raw = [value for value, _ in samples]
        scaled = raw if name == "peak_rss_mb" else [value * speed for value, speed in samples]
        summary[name] = {"median": statistics.median(scaled), "unit": unit, "n": len(samples),
                         "raw_median": statistics.median(raw), "tail": tail(raw)}
    error_rate = failed / attempted
    threads_started = None
    if args.trace:
        metrics = per_layer(workload, good(traced), threads)
        wall_traced = statistics.median(r.values["wall_s"] * r.speed for r in good(traced))
        metrics["trace.overhead_frac"]["value"] = wall_traced / summary["wall_s"]["median"] - 1.0
        metrics["error_rate"]["value"] = error_rate
        threads_started = max(r.report.get("threads_started", 0) for r in traced)
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": threads, "prepare_s": prepare_s, "env": env,
        "calibration_s": cals,
        "end_to_end": summary, "error_rate": error_rate, "failures": failures[:20],
        "threads_started": threads_started, "metrics": metrics,
        "runs": [dict(r.values, traced=r.traced, ok=r.ok, speed=r.speed, probe_s=r.probe_s)
                 for r in plain + traced],
    }
    (WORK / workload.name / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"# env {json.dumps(env)}")
    print(f"# prepare_s {prepare_s:.3f} s (fixture generation, not part of setup_s), "
          f"fixtures {env['fixture_mib']} MiB, threads {threads}")
    print(f"# check {'ok' if correct else 'FAILED: ' + '; '.join(problems[:5])}")
    print(f"# calibration median {statistics.median(cals):.4f} s over {len(cals)} children, reference "
          f"{REFERENCE_CALIBRATION_S} s (times below: raw median, then median at reference speed)")
    for name, s in summary.items():
        t = "none (fewer than 20 samples)" if s["tail"] is None else f"p{s['tail'][0]} {s['tail'][1]:.6g} raw"
        print(f"# {name} median {s['raw_median']:.6g} raw, {s['median']:.6g} {s['unit']} reported, "
              f"over {s['n']} samples, tail {t}")
    print(f"# error_rate {error_rate:.6g} fraction ({failed} of {attempted} runs failed)")
    if args.trace:
        print(f"# traced runs {len(traced)}, python threads started by the program {threads_started}")
        for name, m in metrics.items():
            print(f"# {name} {m['value']:.6g} {m['unit']}")
    for why in failures[:5]:
        print(f"# failure: {why}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
