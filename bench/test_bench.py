"""Tests of the benchmark itself, on fixtures small enough to build in a second.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import os
import sys
from datetime import timedelta
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
for entry in (str(BENCH), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fields import utc  # noqa: E402

TINY_GRID = (7, 12, 90.0, -30.0, 0.0, 30.0)


def tiny_verify(threads: int = 1) -> workloads.Verify:
    return workloads.Verify(
        name="tiny-verify", why="test", grid=TINY_GRID,
        inits=[utc(2023, 3, 1) + timedelta(hours=6 * k) for k in range(3)], leads=[6, 12, 18],
        variables=[("Z", 500), ("T2M", None)], threads=threads, map_dir=True, tag=2, peak_rss=0,
    )


def tiny_workloads():
    return {
        "verify": tiny_verify(),
        "downscale": workloads.Downscale(fine=(9, 13, 60.0, -0.25, 60.0, 0.25),
                                         coarse=(3, 4, 60.0, -1.0, 60.0, 1.0)),
        "tc": workloads.TcSeason(n_steps=40, n_storms=2, life=12, n_cases=300),
    }


def file_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kind", ["verify", "downscale", "tc"])
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(tmp_path, kind):
    w = tiny_workloads()[kind]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        w.build(tmp_path / name, seed)
    a, b, c = (file_bytes(tmp_path / name) for name in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert any(a[k] != c[k] for k in a if k.endswith(".gvc"))


@pytest.mark.parametrize("kind", ["verify", "downscale", "tc"])
def test_oracles_agree_with_geoverify(tmp_path, kind, capsys):
    from geoverify import cli

    w = tiny_workloads()[kind]
    w.build(tmp_path, 5)
    (tmp_path / "out").mkdir()
    capsys.readouterr()
    for argv in w.commands(tmp_path, 1):
        assert cli.main(argv) == 0
    assert w.check(tmp_path, 5, capsys.readouterr().err) == []


def test_oracle_notices_a_wrong_report(tmp_path, capsys):
    from geoverify import cli

    w = tiny_verify()
    w.build(tmp_path, 5)
    (tmp_path / "out").mkdir()
    assert cli.main(w.commands(tmp_path, 1)[0]) == 0
    report = tmp_path / "out" / "report.csv"
    lines = report.read_text().splitlines()
    fields = lines[2].split(",")
    fields[-1] = format(float(fields[-1]) * 1.001, ".6g")
    lines[2] = ",".join(fields)
    report.write_text("\n".join(lines) + "\n")
    assert len(w.check(tmp_path, 5, "")) == 1


def span(span_id, name, start, end, parent=None, thread=1, attrs=None):
    return (span_id, name, start, end, parent, thread, attrs)


def test_self_time_of_nested_spans():
    spans = [
        span(0, "cli.cmd", 0.0, 10.0),
        span(1, "cubeio.read_cube", 1.0, 4.0, parent=0),
        span(2, "metrics.weighted_rmse", 5.0, 6.0, parent=0),
        span(3, "cubeio.read_cube", 2.0, 3.0, parent=1),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_ignores_children_on_other_threads():
    spans = [
        span(0, "cli.cmd", 0.0, 10.0, thread=1),
        span(1, "cubeio.read_cube", 0.5, 1.5, parent=0, thread=1),
        span(2, "cubeio.read_cube", 1.0, 9.0, parent=0, thread=2),
        span(3, "cubeio.read_cube", 2.0, 8.0, parent=0, thread=3),
    ]
    assert layers.self_times(spans)[0] == pytest.approx(9.0)
    metrics = layers.layer_metrics(
        [s[:6] + ({"path": "x", "mb": 1.0, "chan_bytes": 1},) for s in spans[1:]] + [spans[0]],
        threads=2, units=1, skipped=0)
    # Busy: thread 1 covers 1 s, thread 2 covers 8 s, thread 3 covers 6 s.
    assert metrics["cli.thread_busy_frac"] == pytest.approx(15.0 / 20.0)
    assert metrics["cubeio.read_cube.calls"] == 3
    assert metrics["cubeio.read_cube.reread_frac"] == pytest.approx(2.0 / 3.0)


def test_union_length_merges_overlaps():
    assert layers.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
    assert layers.union_length([]) == 0.0


def test_traced_run_writes_the_same_bytes_as_an_untraced_run(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    w = tiny_verify(threads=min(2, os.cpu_count() or 1))
    w.build(tmp_path, 9)
    deadline = run.time.monotonic() + 120
    plain = run.spawn(w, tmp_path, w.threads, traced=False, deadline=deadline)
    traced = run.spawn(w, tmp_path, w.threads, traced=True, deadline=deadline)
    assert plain.ok and traced.ok, (plain.why, traced.why)
    assert plain.digests == traced.digests
    names = {s[1] for s in traced.report["spans"]}
    assert {"cli.cmd", "cubeio.read_cube", "metrics.weighted_acc", "climatology.load"} <= names
    assert "spans" not in plain.report
    assert traced.report["threads_started"] <= (os.cpu_count() or 1)


def test_no_workload_asks_for_more_threads_than_nproc():
    nproc = os.cpu_count() or 1
    for w in workloads.WORKLOADS.values():
        threads = run.threads_for(w)
        assert 1 <= threads <= nproc
        for argv in w.commands(Path("root"), threads):
            if "--threads" in argv:
                assert int(argv[argv.index("--threads") + 1]) <= nproc


def test_every_per_layer_metric_is_reported(tmp_path):
    values = layers.layer_metrics([], threads=1, units=0, skipped=0)
    assert set(values) == {name for name, _ in layers.PER_LAYER}
