"""Per-layer metrics of one traced vorlab process, from its span records.

`busy_s` of a span name is the summed duration of its spans over every
process; `self_s` subtracts from each span the part of its interval that
its child spans cover (children may run in forked pool workers, in
parallel, so the covered part is the union of their intervals).
"""

from __future__ import annotations

import json
from collections import defaultdict

NS = 1e-9


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _covered(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time in seconds per span name."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["t0"], s["t1"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        own = s["t1"] - s["t0"] - _covered(s["t0"], s["t1"], children[s["id"]])
        out[s["name"]] += own * NS
    return out


def largest_self_times(records: list[dict], count: int = 3) -> list[tuple[str, float]]:
    """The span names with the most self time, largest first."""
    own = self_times([r for r in records if r["kind"] == "span"])
    return sorted(own.items(), key=lambda item: -item[1])[:count]


def high_percentile(n: int) -> float:
    """Highest of 99.9/99/90/50 with at least ten samples beyond it."""
    for level in (99.9, 99.0, 90.0):
        if n * (100.0 - level) / 100.0 >= 10:
            return level
    return 50.0


def _percentile(values: list[float], level: float) -> float:
    vals = sorted(values)
    # nearest rank, so a reported latency is one that was observed
    rank = max(1, -(-len(vals) * level // 100))
    return vals[int(rank) - 1]


def _pools(records, spans, layer: str, main_pid: int):
    """(pool count, summed start-up s, worker busy s, imbalance) of one layer."""
    pools = {r["id"]: r["t0"] for r in records if r["kind"] == "pool" and r["layer"] == layer}
    busy = defaultdict(lambda: defaultdict(int))
    first = {}
    for s in spans:
        if s["name"] == f"{layer}.task" and s["pid"] != main_pid and s.get("pool") in pools:
            busy[s["pool"]][s["pid"]] += s["t1"] - s["t0"]
            first[s["pool"]] = min(first.get(s["pool"], s["t0"]), s["t0"])
    start = sum(first[p] - pools[p] for p in first) * NS
    worker_busy = sum(sum(b.values()) for b in busy.values()) * NS
    top = sum(max(b.values()) for b in busy.values())
    mean = sum(sum(b.values()) / len(b) for b in busy.values())
    return len(pools), start, worker_busy, (top / mean if mean else 0.0)


def metrics(records: list[dict], main_pid: int, import_s: float, parse_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json but trace.overhead_s, for one process tree."""
    spans = [r for r in records if r["kind"] == "span"]
    busy: dict[str, float] = defaultdict(float)
    sums: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        busy[s["name"]] += (s["t1"] - s["t0"]) * NS
        for key in ("pairs", "draws", "bytes_computed", "points", "configs",
                    "probes", "hits", "builds"):
            if key in s:
                sums[s["name"]][key] += s[key]
    own = self_times(spans)

    def per(name, key, scale=1e9):
        n = sums[name][key]
        return busy[name] * scale / n if n else 0.0

    queries = [(s["t1"] - s["t0"]) * 1e-6 for s in spans if s["name"] == "cellsim.NNIndex.query"]
    level = high_percentile(len(queries))
    probes = sums["cellsim.NNIndex.query"]["probes"]
    m_pools = _pools(records, spans, "moments", main_pid)
    c_pools = _pools(records, spans, "cellsim", main_pid)
    bivs, umc = "geometry.ball_intersection_volumes", "geometry.union_volume_mc_values"
    return {
        f"{bivs}.busy_s": busy[bivs],
        f"{bivs}.pairs": sums[bivs]["pairs"],
        f"{bivs}.ns_per_pair": per(bivs, "pairs"),
        f"{umc}.busy_s": busy[umc],
        f"{umc}.draws": sums[umc]["draws"],
        f"{umc}.ns_per_draw": per(umc, "draws"),
        f"{umc}.bytes_computed": sums[umc]["bytes_computed"],
        "sampling.sample_unit_ball_batch.busy_s": busy["sampling.sample_unit_ball_batch"],
        "sampling.sample_unit_ball_batch.points":
            sums["sampling.sample_unit_ball_batch"]["points"],
        "sampling.DensityModel.sample.busy_s": busy["sampling.DensityModel.sample"],
        "sampling.DensityModel.sample.points": sums["sampling.DensityModel.sample"]["points"],
        "sampling.rng.draws": sum(r["draws"] for r in records if r["kind"] == "counter"),
        "wstat.sample_w_batch.busy_s": busy["wstat.sample_w_batch"],
        "wstat.sample_w_batch.self_s": own["wstat.sample_w_batch"],
        "wstat.sample_w_batch.draws": sums["wstat.sample_w_batch"]["draws"],
        "wstat.wk_mc_values.busy_s": busy["wstat.wk_mc_values"],
        "wstat.wk_mc_values.self_s": own["wstat.wk_mc_values"],
        "wstat.wk_mc_values.configs": sums["wstat.wk_mc_values"]["configs"],
        "moments.estimate.busy_s": busy["moments.estimate"],
        "moments.estimate.self_s": own["moments.estimate"],
        "moments.pool_start_s": m_pools[1],
        "moments.worker_busy_s": m_pools[2],
        "moments.worker_imbalance": m_pools[3],
        "cellsim.NNIndex.build.busy_s": busy["cellsim.NNIndex.build"],
        "cellsim.NNIndex.build.count":
            sum(1 for s in spans if s["name"] == "cellsim.NNIndex.build"),
        "cellsim.NNIndex.query.busy_s": busy["cellsim.NNIndex.query"],
        "cellsim.NNIndex.query.probes": probes,
        "cellsim.NNIndex.query.ns_per_probe": per("cellsim.NNIndex.query", "probes"),
        "cellsim.NNIndex.query.p50_ms": _percentile(queries, 50.0) if queries else 0.0,
        "cellsim.NNIndex.query.p_hi_ms": _percentile(queries, level) if queries else 0.0,
        "cellsim.hit_ratio": sums["cellsim.NNIndex.query"]["hits"] / probes if probes else 0.0,
        "cellsim.cone_directions.busy_s": busy["cellsim.cone_directions"],
        "cellsim.cone_directions.builds": sums["cellsim.cone_directions"]["builds"],
        "cellsim.cone_nn_radii.busy_s": busy["cellsim.cone_nn_radii"],
        "cellsim.estimate_cell_diameter.self_s": own["cellsim.estimate_cell_diameter"],
        "cellsim.pools": c_pools[0],
        "cellsim.pool_start_s": c_pools[1],
        "cellsim.worker_imbalance": c_pools[3],
        "cli.import_s": import_s,
        "cli.parse_s": parse_s,
        "cli.write_csv_s": busy["cli.write_csv"],
    }
