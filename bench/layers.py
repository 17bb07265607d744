"""Per-layer metrics from the spans of one traced run.

A span is ``(id, name, start, end, parent, thread, attrs)``.  Layer times
(``.s``) are sums of span durations, so on a threaded command they are busy
time summed over threads, not wall time.  Self time is a span's duration
minus the part of it covered by its children on the same thread.

Kernel rates are computed, not counted: each call's field size times a
fixed count per grid point, divided by the layer's time.  weighted_rmse
does 3 flops per point (subtract, square, add) and must read 8 bytes (two
float32 inputs); weighted_acc does 8 flops per point (two anomaly
subtractions, three products, three sums) and reads 16 bytes (two float32
inputs and a float64 climatology field).  One channel at 0.25 degrees is
4 MB, well inside the last-level cache, so the rates are in-cache rates,
not a memory-bandwidth roofline.
"""

from __future__ import annotations

from collections import defaultdict

FLOPS_PER_POINT = {"metrics.weighted_rmse": 3, "metrics.weighted_acc": 8}
BYTES_PER_POINT = {"metrics.weighted_rmse": 8, "metrics.weighted_acc": 16}

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.cmd_s", "s"), ("cli.self_s", "s"), ("cli.units", "count"),
    ("cli.samples_skipped", "count"), ("cli.thread_busy_frac", "fraction"),
    ("cubeio.read_cube.calls", "count"), ("cubeio.read_cube.s", "s"),
    ("cubeio.read_cube.mb", "MiB"), ("cubeio.read_cube.mb_per_s", "MiB/s"),
    ("cubeio.read_cube.reread_frac", "fraction"), ("cubeio.channel_use_frac", "fraction"),
    ("cubeio.write.calls", "count"), ("cubeio.write.s", "s"), ("cubeio.write.mb", "MiB"),
    ("cubeio.read_text.s", "s"),
    ("grid.latitude_weights.calls", "count"), ("grid.latitude_weights.s", "s"),
    ("grid.select_channel.calls", "count"), ("grid.select_channel.s", "s"),
    ("climatology.load.s", "s"), ("climatology.load.mb", "MiB"),
    ("climatology.keys_loaded", "count"), ("climatology.key_use_frac", "fraction"),
    ("climatology.lookup_channel.calls", "count"), ("climatology.lookup_channel.s", "s"),
    ("metrics.weighted_acc.calls", "count"), ("metrics.weighted_acc.s", "s"),
    ("metrics.weighted_acc.gflop_s", "GFLOP/s"), ("metrics.weighted_acc.gb_s", "GB/s"),
    ("metrics.weighted_rmse.calls", "count"), ("metrics.weighted_rmse.s", "s"),
    ("metrics.weighted_rmse.gflop_s", "GFLOP/s"), ("metrics.weighted_rmse.gb_s", "GB/s"),
    ("metrics.psnr.calls", "count"), ("metrics.psnr.s", "s"),
    ("metrics.dynamic_range.calls", "count"), ("metrics.dynamic_range.s", "s"),
    ("metrics.month_hour_matrix.s", "s"),
    ("metrics.pointwise_rmse.calls", "count"), ("metrics.pointwise_rmse.s", "s"),
    ("regrid.bilinear_upsample.calls", "count"), ("regrid.bilinear_upsample.s", "s"),
    ("regrid.bilinear_upsample.mpts_per_s", "Mpt/s"),
    ("tc.track_cyclone.calls", "count"), ("tc.track_cyclone.s", "s"), ("tc.fixes", "count"),
    ("tc.concurrent_match.s", "s"),
    ("tc.filter_case.calls", "count"), ("tc.filter_case.s", "s"),
    ("trace.overhead_frac", "fraction"), ("error_rate", "fraction"),
]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its same-thread children cover."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            children[s[4]].append((max(s[2], parent[2]), min(s[3], parent[3])))
    return {s[0]: (s[3] - s[2]) - union_length(children[s[0]]) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, threads: int, units: int, skipped: int) -> dict:
    """Per-layer values of one traced run, keyed by PER_LAYER names."""
    calls = defaultdict(int)
    secs = defaultdict(float)
    attr_sum = defaultdict(float)
    for span_id, name, start, end, parent, thread, attrs in spans:
        calls[name] += 1
        secs[name] += end - start
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)):
                attr_sum[(name, key)] += value

    out = {name: 0.0 for name, _ in PER_LAYER}
    selfs = self_times(spans)
    cmd_spans = [s for s in spans if s[1] == "cli.cmd"]
    cmd_s = sum(s[3] - s[2] for s in cmd_spans)
    out["cli.cmd_s"] = cmd_s
    out["cli.self_s"] = sum(selfs[s[0]] for s in cmd_spans)
    out["cli.units"] = units
    out["cli.samples_skipped"] = skipped
    cmd_ids = {s[0] for s in cmd_spans}
    busy = defaultdict(list)
    for s in spans:
        if s[4] in cmd_ids:
            busy[s[5]].append((s[2], s[3]))
    out["cli.thread_busy_frac"] = _ratio(
        sum(union_length(v) for v in busy.values()), max(1, threads) * cmd_s)

    for name in ("cubeio.read_cube", "cubeio.write", "grid.latitude_weights", "grid.select_channel",
                 "climatology.lookup_channel", "metrics.weighted_acc", "metrics.weighted_rmse",
                 "metrics.psnr", "metrics.dynamic_range", "metrics.pointwise_rmse",
                 "regrid.bilinear_upsample", "tc.track_cyclone", "tc.filter_case"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = secs[name]
    for name in ("cubeio.read_text", "climatology.load", "metrics.month_hour_matrix",
                 "tc.concurrent_match"):
        out[f"{name}.s"] = secs[name]

    reads = [s for s in spans if s[1] == "cubeio.read_cube"]
    read_mb = attr_sum[("cubeio.read_cube", "mb")]
    out["cubeio.read_cube.mb"] = read_mb
    out["cubeio.read_cube.mb_per_s"] = _ratio(read_mb, secs["cubeio.read_cube"])
    out["cubeio.read_cube.reread_frac"] = _ratio(
        len(reads) - len({s[6]["path"] for s in reads}), len(reads))
    chan_bytes = {s[6]["path"]: s[6]["chan_bytes"] for s in reads}
    key_paths = {}
    for s in spans:
        if s[1] == "climatology.load":
            key_paths.update(s[6]["key_paths"])
    used = set()
    for s in spans:
        attrs = s[6] or {}
        if s[1] == "grid.select_channel" and attrs["cube"]:
            used.add((attrs["cube"], attrs["chan"]))
        elif s[1] == "climatology.lookup_channel":
            used.add((key_paths[attrs["key"]], attrs["chan"]))
        used.update((path, chan) for path, chan in attrs.get("uses", ()))
    out["cubeio.channel_use_frac"] = _ratio(
        sum(chan_bytes[path] for path, _ in used) / (1 << 20), read_mb)
    out["cubeio.write.mb"] = attr_sum[("cubeio.write", "mb")]

    out["climatology.load.mb"] = attr_sum[("climatology.load", "mb")]
    keys = attr_sum[("climatology.load", "keys")]
    out["climatology.keys_loaded"] = keys
    looked_up = {s[6]["key"] for s in spans if s[1] == "climatology.lookup_channel"}
    out["climatology.key_use_frac"] = _ratio(len(looked_up), keys)

    for name, flops in FLOPS_PER_POINT.items():
        points = attr_sum[(name, "points")]
        out[f"{name}.gflop_s"] = _ratio(points * flops, secs[name]) / 1e9
        out[f"{name}.gb_s"] = _ratio(points * BYTES_PER_POINT[name], secs[name]) / 1e9
    out["regrid.bilinear_upsample.mpts_per_s"] = _ratio(
        attr_sum[("regrid.bilinear_upsample", "points")], secs["regrid.bilinear_upsample"]) / 1e6
    out["tc.fixes"] = attr_sum[("tc.track_cyclone", "fixes")]
    return out
