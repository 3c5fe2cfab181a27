#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload docs_cold --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The workloads BENCHMARK.json declares, in its order.
WORKLOADS = ("docs_cold", "shapes_adversarial", "serve_mixed")
DEFAULT_SEED = 1
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"docs_cold": 9, "shapes_adversarial": 9, "serve_mixed": 5}
#: serve_mixed levels: the ``source`` the servers answered with.
SERVED_LEVELS = {"lo": "digest", "mid": "cache", "hi": "computed"}
#: Requests per target in the router-hop probe.
HOP_SAMPLES = 150
OUT_DIR = os.path.join(HERE, "out")

_SETUP_CHILD = (
    "from repro.core.serialization import tree_from_dict\n"
    "from repro.pipeline import DiffPipeline\n"
    "DiffPipeline()\n"
    "print('ready', flush=True)\n"
)


def pct(values: List[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def log(*parts: Any) -> None:
    print(*parts, flush=True)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------
def in_process_setup_s(repeats: int) -> float:
    """Median seconds from starting a Python process to a ready pipeline."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - started)
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("set-up child did not become ready")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------
def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import inputs
    from layers import Recorder, bound_ratio, diff_op, script_error, traced_diff
    from repro.pipeline import DiffPipeline

    log(f"corpus_digest {workload} seed={seed} {inputs.stream_digest(seed, workload)}")
    setup_s = 0.0 if trace else in_process_setup_s(SETUP_REPEATS[workload])
    item, _ = inputs.STREAMS[workload]
    pipeline = DiffPipeline()
    rec = Recorder()
    # A traced run times each operation twice, untraced then traced, so
    # both see the same machine; it measures half as many operations.
    budget_ns = int((seconds / 2 if trace else seconds) * 1e9)
    ops: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    spent = failed = 0
    while spent < budget_ns:
        index = len(ops)
        level, old, new = item(seed, index)
        start = time.perf_counter_ns()
        t1, t2, result, text = diff_op(pipeline, old, new)
        elapsed = time.perf_counter_ns() - start
        spent += elapsed
        ops.append({"level": level, "ns": elapsed, "nodes": len(t1) + len(t2)})
        error = script_error(t1, t2, result.verify(t1, t2), result.script)
        if trace:
            out = traced_diff(rec, index, old, new)
            if out["text"] != text:
                error = error or "traced replay script differs from DiffPipeline.run"
            traced.append({"nodes": len(t1) + len(t2), "stats": out["stats"],
                           "repairs": out["repairs"], "operations": len(out["edit"].script),
                           "bound_ratio": bound_ratio(rec, out["root"], out["t1"], out["t2"],
                                                       out["edit"], out["stats"])})
        if error:
            failed += 1
            log(f"FAILED op {index}: {error}")
    log(f"ops {len(ops)} failed {failed} op_seconds {spent / 1e9:.2f}")
    outcome = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    if trace:
        write_spans(rec, workload, seed)
        outcome["metrics"] = {**layer_metrics(rec, traced, spent, sum(op["nodes"] for op in ops)),
                              **dict.fromkeys(SERVE_LAYER_UNITS, 0.0)}
    else:
        outcome["metrics"] = in_process_e2e(ops, setup_s)
    return outcome


def in_process_e2e(ops: List[Dict[str, Any]], setup_s: float) -> Dict[str, float]:
    ms = [op["ns"] / 1e6 for op in ops]
    total_s = sum(op["ns"] for op in ops) / 1e9
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": pct(ms, 0.5),
        "latency_p95_ms": pct(ms, 0.95),
        "throughput_nodes_per_s": sum(op["nodes"] for op in ops) / total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for level in ("lo", "mid", "hi"):
        level_ms = [op["ns"] / 1e6 for op in ops if op["level"] == level]
        metrics[f"latency_p50_ms.{level}"] = pct(level_ms, 0.5)
        log(f"level {level}: n={len(level_ms)} p50={pct(level_ms, 0.5):.2f}ms "
            f"p95={pct(level_ms, 0.95):.2f}ms")
    return metrics


# ---------------------------------------------------------------------------
# The served workload
# ---------------------------------------------------------------------------
def run_served(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import inputs
    from layers import (NullRecorder, Recorder, bound_ratio, canonical, in_process_canonical,
                        served_check, traced_request)
    from loadgen import Cluster, closed_loop, router_hop_ms
    from repro.pipeline import DiffPipeline

    log(f"corpus_digest serve_mixed seed={seed} {inputs.stream_digest(seed, 'serve_mixed')}")

    def requests():
        index = 0
        while True:
            kind, pair, old, new = inputs.serve_item(seed, index)
            record = {"index": index, "kind": kind, "pair": pair,
                      "nodes": inputs.size(old) + inputs.size(new)}
            yield {"old": old, "new": new}, record
            index += 1

    repeats = 1 if trace else SETUP_REPEATS["serve_mixed"]
    setups: List[float] = []
    cluster: Optional[Cluster] = None
    try:
        for attempt in range(repeats):
            cluster = Cluster(ROOT)
            setups.append(cluster.start())
            if attempt + 1 < repeats:
                cluster.stop()
        cluster.pin_workers()
        # A traced run sends as many requests as an untraced one, so the
        # caches fill and evict as they do there, then replays each twice.
        records = closed_loop(cluster.port, requests(), seconds)
        peak_rss = cluster.peak_rss_mb()
        if trace:
            snapshot = cluster.metrics()
            identical = inputs.serve_item(seed, inputs.SERVE_CYCLE.index("identical"))
            hop_ms = router_hop_ms(cluster, {"old": identical[2], "new": identical[3]},
                                   HOP_SAMPLES)
    finally:
        if cluster is not None:
            cluster.stop()

    # Correctness gate, outside the timed section: each pair's served
    # script is checked once against the in-process script.
    pipeline = DiffPipeline()
    checked: Dict[Any, Optional[str]] = {}
    expected: Dict[int, str] = {}
    failed = 0
    for record in records:
        body = record["body"]
        if record["status"] != 200:
            error = f"HTTP {record['status']}: {body.get('error')}"
        else:
            key = (record["pair"], json.dumps(body.get("script"), sort_keys=True))
            if key not in checked:
                _, _, old, new = inputs.serve_item(seed, record["pair"])
                if record["pair"] not in expected:
                    expected[record["pair"]] = in_process_canonical(pipeline, old, new)
                checked[key] = served_check(body, old, new, expected[record["pair"]])
            error = checked[key]
        if error:
            failed += 1
            log(f"FAILED request {record['index']}: {error}")
    sources = [record["body"].get("source") for record in records]
    log(f"requests {len(records)} failed {failed} "
        f"op_seconds {sum(r['ns'] for r in records) / 1e9:.2f}")
    for kind in ("novel", "repeat", "identical"):
        log(f"mix {kind}: {sum(r['kind'] == kind for r in records) / len(records):.3f}")
    for source in SERVED_LEVELS.values():
        log(f"served {source}: {sources.count(source) / len(records):.3f}")
    outcome = {"correct": failed == 0, "attempted": len(records), "failed": failed}
    if not trace:
        outcome["metrics"] = served_e2e(records, statistics.median(setups), peak_rss)
        return outcome

    # Replay every request untraced, then traced, in request order; each
    # replay keeps its own stand-in for the servers' script caches.
    rec, null = Recorder(), NullRecorder()
    traced, scripts, null_scripts = [], {}, {}
    untraced_ns = 0
    for record, source in zip(records, sources):
        if record["status"] != 200:
            continue
        _, _, old, new = inputs.serve_item(seed, record["index"])
        untraced_ns += traced_request(null, record["index"], old, new, source, null_scripts)["ns"]
        out = traced_request(rec, record["index"], old, new, source, scripts)
        result = out["result"]
        if result.source != "digest" and canonical(result.script, out["t1"], result.wrapped,
                                                   result.dummy_id) != expected[record["pair"]]:
            failed += 1
            log(f"FAILED request {record['index']}: traced replay script differs "
                "from DiffPipeline.run")
        computed = out["computed"]
        if computed is not None:
            traced.append({"nodes": len(computed["t1"]) + len(computed["t2"]),
                           "stats": computed["stats"], "repairs": computed["repairs"],
                           "operations": len(computed["edit"].script),
                           "bound_ratio": bound_ratio(rec, out["root"], computed["t1"],
                                                      computed["t2"], computed["edit"],
                                                      computed["stats"])})
    write_spans(rec, "serve_mixed", seed)
    nodes = sum(record["nodes"] for record in records)
    outcome.update(correct=failed == 0, failed=failed)
    outcome["metrics"] = {**layer_metrics(rec, traced, untraced_ns, nodes),
                          **serve_layer_metrics(rec, records, snapshot, hop_ms, nodes)}
    return outcome


def served_e2e(records: List[Dict[str, Any]], setup_s: float,
               peak_rss: float) -> Dict[str, float]:
    """End-to-end metrics of the closed loop over HTTP."""
    ok = [record for record in records if record["status"] == 200]
    ms = [record["ns"] / 1e6 for record in ok]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": pct(ms, 0.5),
        "latency_p95_ms": pct(ms, 0.95),
        "throughput_nodes_per_s": sum(r["nodes"] for r in ok) / (sum(r["ns"] for r in records) / 1e9),
        "peak_rss_mb": peak_rss,
    }
    for level, source in SERVED_LEVELS.items():
        level_ms = [r["ns"] / 1e6 for r in ok if r["body"].get("source") == source]
        metrics[f"latency_p50_ms.{level}"] = pct(level_ms, 0.5)
        log(f"level {level} ({source}): n={len(level_ms)} p50={pct(level_ms, 0.5):.2f}ms "
            f"p95={pct(level_ms, 0.95):.2f}ms")
    return metrics


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------
#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "latency_p50_ms.lo": "ms",
    "latency_p50_ms.mid": "ms",
    "latency_p50_ms.hi": "ms",
    "throughput_nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
}


#: Per-layer metrics every workload reports: name -> unit.
PER_LAYER_UNITS = {
    "compare.calls_per_pair": "calls/pair",
    "compare.ns_per_leaf_compare": "ns",
    "matching.match_ms_p50": "ms",
    "matching.match_ms_p95": "ms",
    "matching.match_share": "fraction",
    "matching.leaf_compares_per_node": "1/node",
    "matching.partner_checks_per_node": "1/node",
    "matching.lcs_calls_per_node": "1/node",
    "matching.bound_ratio_max": "ratio",
    "matching.postprocess.ms_p50": "ms",
    "matching.postprocess.repairs_per_pair": "1/pair",
    "editscript.ms_p50": "ms",
    "editscript.ns_per_node": "ns/node",
    "editscript.ops_per_pair": "1/pair",
    "core.serialization.parse_ns_per_node": "ns/node",
    "core.index.build_ns_per_node": "ns/node",
    "trace.overhead_ratio": "ratio",
    "trace.layer_share_min": "fraction",
}

#: Per-layer metrics of the serve and service layers, which only
#: serve_mixed runs; the in-process workloads report them as 0.
SERVE_LAYER_UNITS = {
    "service.digest.ns_per_node": "ns/node",
    "service.digest.short_circuit_ratio": "fraction",
    "service.cache.hit_ratio": "fraction",
    "service.cache.evictions": "count",
    "service.cache.canonicalize_ms_p50": "ms",
    "serve.client.encode_ms_p50": "ms",
    "serve.protocol.parse_ms_p50": "ms",
    "serve.protocol.encode_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.admission.rejected": "count",
    "serve.router.hop_ms_p50": "ms",
    "serve.router.shard_imbalance": "ratio",
}
PER_LAYER_UNITS.update(SERVE_LAYER_UNITS)


def write_spans(rec, workload: str, seed: int) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    rec.write(path)
    log(f"spans {len(rec.spans)} written to {os.path.relpath(path, ROOT)}")


def layer_metrics(rec, traced: List[Dict[str, Any]], untraced_ns: int,
                  parsed_nodes: int) -> Dict[str, float]:
    """Self times and counts per layer, from the spans and MatchingStats.

    *traced* holds one entry per diff the replay computed; *parsed_nodes*
    counts the nodes of every tree the replay parsed.
    """
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    roots: Dict[int, Dict[str, Any]] = {}
    covered: Dict[int, int] = {}
    for span in rec.spans:
        if span["parent"] is None:
            roots[span["op"]] = span
        else:
            by_name.setdefault(span["name"], []).append(span)
            covered[span["op"]] = covered.get(span["op"], 0) + span["end_ns"] - span["start_ns"]

    def durations(name: str) -> List[int]:
        return [s["end_ns"] - s["start_ns"] for s in by_name.get(name, ())]

    def ms_p50(name: str) -> float:
        return pct([d / 1e6 for d in durations(name)], 0.5)

    root_ns = {op: s["end_ns"] - s["start_ns"] for op, s in roots.items()}
    match_spans = by_name.get("matching.fast_match", []) + by_name.get("matching.postprocess", [])
    compare_calls = sum(s["compare_calls"] for s in match_spans)
    compare_ns = sum(s["compare_ns"] for s in match_spans)
    nodes = sum(t["nodes"] for t in traced)
    pairs = len(traced)
    bounds = [t["bound_ratio"] for t in traced if t["bound_ratio"] is not None]
    match_ms = [d / 1e6 for d in durations("matching.fast_match")]
    metrics = {
        "compare.calls_per_pair": ratio(compare_calls, pairs),
        "compare.ns_per_leaf_compare": ratio(compare_ns, compare_calls),
        "matching.match_ms_p50": pct(match_ms, 0.5),
        "matching.match_ms_p95": pct(match_ms, 0.95),
        "matching.match_share": ratio(sum(durations("matching.fast_match")), sum(root_ns.values())),
        "matching.leaf_compares_per_node": ratio(sum(t["stats"].leaf_compares for t in traced), nodes),
        "matching.partner_checks_per_node": ratio(sum(t["stats"].partner_checks for t in traced),
                                                  nodes),
        "matching.lcs_calls_per_node": ratio(sum(t["stats"].lcs_calls for t in traced), nodes),
        "matching.bound_ratio_max": max(bounds, default=0.0),
        "matching.postprocess.ms_p50": ms_p50("matching.postprocess"),
        "matching.postprocess.repairs_per_pair": ratio(sum(t["repairs"] for t in traced), pairs),
        "editscript.ms_p50": ms_p50("editscript.generate"),
        "editscript.ns_per_node": ratio(sum(durations("editscript.generate")), nodes),
        "editscript.ops_per_pair": ratio(sum(t["operations"] for t in traced), pairs),
        "core.index.build_ns_per_node": ratio(sum(durations("core.index.build")), nodes),
        "core.serialization.parse_ns_per_node": ratio(sum(durations("core.serialization.parse")),
                                                      parsed_nodes),
        "trace.overhead_ratio": ratio(sum(root_ns.values()), untraced_ns),
        "trace.layer_share_min": min(ratio(covered.get(op, 0), ns) for op, ns in root_ns.items()),
    }
    log("self time by layer (ms): " + ", ".join(
        f"{name}={sum(durations(name)) / 1e6:.1f}" for name in sorted(by_name)) +
        f", of which compare={compare_ns / 1e6:.1f}")
    return metrics


def serve_layer_metrics(rec, records, snapshot, hop_ms, parsed_nodes) -> Dict[str, float]:
    """Serve- and service-layer metrics of the served workload."""
    server_side = ("serve.protocol.parse", "core.serialization.parse", "service.digest",
                   "core.index.build", "matching.fast_match", "matching.postprocess",
                   "editscript.generate", "service.cache.canonicalize",
                   "service.cache.instantiate", "serve.protocol.encode")
    work_ns: Dict[int, int] = {}
    by_name: Dict[str, List[float]] = {}
    for span in rec.spans:
        duration = span["end_ns"] - span["start_ns"]
        by_name.setdefault(span["name"], []).append(duration)
        if span["name"] in server_side:
            work_ns[span["op"]] = work_ns.get(span["op"], 0) + duration
    waits = [(r["ns"] - work_ns.get(r["index"], 0)) / 1e6 for r in records]
    counters = snapshot.get("counters", {})
    cache = snapshot.get("cache", {})
    per_worker = [w.get("counters", {}).get("jobs_submitted", 0)
                  for w in snapshot.get("workers", {}).values()]

    def ms_p50(name: str) -> float:
        return pct([d / 1e6 for d in by_name.get(name, [])], 0.5)

    return {
        "service.digest.ns_per_node": ratio(sum(by_name.get("service.digest", [])), parsed_nodes),
        "service.digest.short_circuit_ratio": ratio(counters.get("digest_short_circuits", 0),
                                                    counters.get("jobs_submitted", 0)),
        "service.cache.hit_ratio": ratio(cache.get("hits", 0),
                                         cache.get("hits", 0) + cache.get("misses", 0)),
        "service.cache.evictions": float(cache.get("evictions", 0)),
        "service.cache.canonicalize_ms_p50": ms_p50("service.cache.canonicalize"),
        "serve.client.encode_ms_p50": ms_p50("serve.client.encode"),
        "serve.protocol.parse_ms_p50": ms_p50("serve.protocol.parse"),
        "serve.protocol.encode_ms_p50": ms_p50("serve.protocol.encode"),
        "serve.wait_ms_p50": pct(waits, 0.5),
        "serve.admission.rejected": float(sum(v for k, v in counters.items()
                                              if k.startswith("rejected_"))),
        "serve.router.hop_ms_p50": hop_ms,
        "serve.router.shard_imbalance": ratio(max(per_worker, default=0),
                                              statistics.mean(per_worker) if per_worker else 0),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "serve_mixed":
        outcome = run_served(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    outcome["metrics"] = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
                          for name, unit in units.items()}
    print(json.dumps(outcome, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
