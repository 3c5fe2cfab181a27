"""Counters and latency histograms for the serving layer.

The §8 instrumentation (:class:`repro.matching.criteria.MatchingStats`)
counts algorithmic work inside one diff; this module measures the *service*
around it: jobs processed, cache effectiveness, digest short-circuits,
operations emitted, and wall-time percentiles. Everything is thread-safe
(the engine records from worker threads) and exports a plain-dict
:meth:`ServiceMetrics.snapshot` consumed by the CLI and the benchmarks.

Latencies land in fixed log-spaced buckets (:class:`LatencyHistogram`),
so a cluster's per-worker snapshots merge by adding bucket counts and the
merged percentiles keep the stated ``RELATIVE_ERROR`` bound. Per-stage
histograms are fed from each computed job's pipeline ``stage_ms``; the
per-request view of the same stages is the ``stage.*`` spans in
:mod:`repro.obs`.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, Optional

from ..simtest.clock import monotonic_callable
from ..verify.oracles import VerifyReport

#: Counter names the engine maintains; unknown names are allowed (the
#: metrics object is schemaless) but these are always present in snapshots.
STANDARD_COUNTERS = (
    "jobs_submitted",
    "jobs_succeeded",
    "jobs_failed",
    "jobs_timed_out",
    "jobs_retried",
    "cache_hits",
    "cache_misses",
    "digest_short_circuits",
    "ops_emitted",
    "verify_checks",
    "verify_failures",
)


#: Relative error bound of every percentile a :class:`LatencyHistogram`
#: reports, against the exact nearest-rank percentile of its samples.
RELATIVE_ERROR = 0.005
_GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)
#: Values at or below this many milliseconds share the lowest bucket.
MIN_TRACKED_MS = 1e-6


def _bucket_of(value: float) -> int:
    return math.ceil(math.log(max(value, MIN_TRACKED_MS)) / _LOG_GAMMA)


class LatencyHistogram:
    """Wall-time samples in fixed log-spaced buckets, with percentile export.

    Bucket ``i`` counts the values in ``(γ^(i-1), γ^i]`` with
    ``γ = (1 + α) / (1 - α)`` and ``α = RELATIVE_ERROR`` (0.5%). A percentile
    is the nearest-rank bucket's midpoint ``2γ^i / (γ + 1)``, clamped to the
    exact min and max seen (ranks 0 and ``count - 1`` report those as
    they are), so it is within a relative error of ``α`` of
    the exact nearest-rank percentile of every sample observed (values at
    or below ``MIN_TRACKED_MS`` are off by at most that much, absolutely).
    Count, sum, min and max are exact. Histograms merge by adding bucket
    counts, so a merge of per-worker histograms *is* the histogram of the
    union of their samples (:func:`merge_snapshots`). Stdlib only.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._clock = clock if clock is not None else time.monotonic
        #: Monotonic stamps of the first/last observation (None until one
        #: lands) — under an injected clock these are virtual times, which
        #: is how the simulation harness asserts *when* latency was seen.
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def observe(self, value: float) -> None:
        now = self._clock()
        if self.first_at is None:
            self.first_at = now
        self.last_at = now
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = _bucket_of(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Add *other*'s samples to this histogram."""
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min, bound)
                self.max = bound if self.max is None else max(self.max, bound)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The nearest-rank *p*-th percentile (0-100), within ``RELATIVE_ERROR``."""
        if not self.count:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        rank = round(p / 100.0 * (self.count - 1))
        if rank == 0:
            return self.min
        if rank == self.count - 1:
            return self.max
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen > rank:
                break
        value = 2.0 * _GAMMA ** index / (_GAMMA + 1.0)
        return min(self.max, max(self.min, value))

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly summary plus the sparse buckets it merges by."""
        return {
            "count": self.count,
            "mean_ms": round(self.mean(), 3),
            "p50_ms": round(self.percentile(50), 3),
            "p95_ms": round(self.percentile(95), 3),
            "p99_ms": round(self.percentile(99), 3),
            "max_ms": round(self.percentile(100), 3),
            "histogram": {
                "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
                "sum": self.total,
                "min": self.min,
                "max": self.max,
            },
        }

    @classmethod
    def from_stats(cls, stats: Dict[str, Any]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`stats` (e.g. a worker's snapshot)."""
        hist = cls()
        exported = stats.get("histogram") or {}
        hist.buckets = {int(i): int(n) for i, n in exported.get("buckets", {}).items()}
        hist.count = sum(hist.buckets.values())
        hist.total = float(exported.get("sum", 0.0))
        hist.min = exported.get("min")
        hist.max = exported.get("max")
        return hist


class ServiceMetrics:
    """Thread-safe counters + wall-time histograms for the diff engine.

    Besides the whole-job ``wall_ms`` histogram, the metrics keep one
    histogram per pipeline stage (``index``, ``match``, ``postprocess``,
    ``editscript``, ``deltatree``), fed by the engine through
    :meth:`observe_stage` from each computed job's ``stage_ms``.
    """

    def __init__(self, clock: Optional[object] = None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in STANDARD_COUNTERS}
        #: A () -> float monotonic reader (from a Clock object or a bare
        #: callable): the first_at/last_at stamps on every histogram, and
        #: the engine times its jobs on it.
        self.clock = monotonic_callable(clock)
        self.wall_ms = LatencyHistogram(clock=self.clock)
        self._stages: Dict[str, LatencyHistogram] = {}
        self.verify = VerifyReport()

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def observe_wall(self, milliseconds: float) -> None:
        with self._lock:
            self.wall_ms.observe(milliseconds)

    def observe_stage(self, stage: str, milliseconds: float) -> None:
        """Record one pipeline-stage wall time under its stage name."""
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = LatencyHistogram(clock=self.clock)
            histogram.observe(milliseconds)

    def absorb_verify_report(self, report: VerifyReport) -> None:
        """Fold a :class:`~repro.verify.oracles.VerifyReport` into the
        metrics (the engine's ``verify_fraction`` spot checks, or any
        external battery run against served results)."""
        with self._lock:
            self.verify.merge(report)

    def stage_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage latency stats (:meth:`LatencyHistogram.stats`), JSON-friendly."""
        with self._lock:
            return {name: hist.stats() for name, hist in sorted(self._stages.items())}

    def reset(self) -> None:
        with self._lock:
            self._counters = {name: 0 for name in STANDARD_COUNTERS}
            self.wall_ms = LatencyHistogram(clock=self.clock)
            self._stages = {}
            self.verify = VerifyReport()

    def timestamps(self) -> Dict[str, Optional[float]]:
        """First/last observation stamps (clock-relative, virtual under sim)."""
        with self._lock:
            out: Dict[str, Optional[float]] = {
                "wall_first_at": self.wall_ms.first_at,
                "wall_last_at": self.wall_ms.last_at,
            }
            for name, hist in sorted(self._stages.items()):
                out[f"{name}_last_at"] = hist.last_at
            return out

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Export counters and latency stats as a JSON-friendly dict."""
        with self._lock:
            counters = dict(self._counters)
            wall = self.wall_ms.stats()
            verify = self.verify.to_dict()
        return {
            "counters": counters,
            "wall_time": wall,
            "stages": self.stage_snapshot(),
            "verify": verify,
        }

    @staticmethod
    def merge_snapshots(
        snapshots: Dict[str, Dict[str, object]]
    ) -> Dict[str, object]:
        """Module-level :func:`merge_snapshots` exposed on the class."""
        return merge_snapshots(snapshots)

    def render(self, cache_stats: Optional[Dict[str, int]] = None) -> str:
        """Human-readable summary block (used by ``repro-diff batch``)."""
        snap = self.snapshot()
        counters = snap["counters"]
        wall = snap["wall_time"]
        lines = ["-- service metrics --"]
        for name in STANDARD_COUNTERS:
            lines.append(f"{name + ':':<24}{counters.get(name, 0)}")
        for name in sorted(set(counters) - set(STANDARD_COUNTERS)):
            lines.append(f"{name + ':':<24}{counters[name]}")
        lines.append(
            "wall time (ms):         "
            f"n={wall['count']} mean={wall['mean_ms']} "
            f"p50={wall['p50_ms']} p95={wall['p95_ms']} p99={wall['p99_ms']}"
        )
        for stage, stats in snap["stages"].items():
            lines.append(
                f"stage {stage + ':':<18}"
                f"n={stats['count']} mean={stats['mean_ms']} "
                f"p50={stats['p50_ms']} p95={stats['p95_ms']} p99={stats['p99_ms']}"
            )
        verify = snap["verify"]
        if verify["oracles"]:
            status = "ok" if verify["ok"] else "FAIL"
            checked = sum(o["pass"] + o["fail"] for o in verify["oracles"].values())
            failed = sum(o["fail"] for o in verify["oracles"].values())
            lines.append(
                f"verify:                 checks={checked} failures={failed} [{status}]"
            )
        if cache_stats is not None:
            lines.append(
                "cache:                  "
                f"size={cache_stats['size']}/{cache_stats['capacity']} "
                f"hits={cache_stats['hits']} misses={cache_stats['misses']} "
                f"evictions={cache_stats['evictions']}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-process aggregation (the cluster's /metrics endpoint)
# ---------------------------------------------------------------------------
def _merge_histogram_stats(stats_list):
    """Merge per-worker histogram stats by adding their buckets.

    The result is exactly what one histogram of the union of the workers'
    samples reports, so merged percentiles keep the ``RELATIVE_ERROR``
    bound instead of averaging per-worker percentiles.
    """
    merged = LatencyHistogram()
    for stats in stats_list:
        merged.merge(LatencyHistogram.from_stats(stats))
    return merged.stats()


def merge_snapshots(snapshots):
    """Merge per-worker :meth:`ServiceMetrics.snapshot` dicts into one view.

    *snapshots* maps a worker id to that worker's snapshot (the payload of
    its ``/metrics`` endpoint, or its final ``METRICS`` dump). The result
    mirrors the single-process snapshot shape — counters summed, wall-time
    and per-stage histograms merged, verify oracle tallies summed, cache
    stats summed — and additionally tags every input under ``workers`` so
    per-shard numbers stay inspectable.
    """
    ordered = {worker_id: snapshots[worker_id] for worker_id in sorted(snapshots)}
    counters: Dict[str, int] = {}
    for snap in ordered.values():
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)

    wall = _merge_histogram_stats(
        [snap.get("wall_time") or {} for snap in ordered.values()]
    )
    stage_names = sorted(
        {name for snap in ordered.values() for name in (snap.get("stages") or {})}
    )
    stages = {
        name: _merge_histogram_stats(
            [
                (snap.get("stages") or {}).get(name)
                for snap in ordered.values()
                if name in (snap.get("stages") or {})
            ]
        )
        for name in stage_names
    }

    verify_ok = True
    oracle_names: Dict[str, Dict[str, int]] = {}
    for snap in ordered.values():
        verify = snap.get("verify") or {}
        if not verify.get("ok", True):
            verify_ok = False
        for name, tally in (verify.get("oracles") or {}).items():
            merged_tally = oracle_names.setdefault(name, {"pass": 0, "fail": 0})
            merged_tally["pass"] += int(tally.get("pass", 0))
            merged_tally["fail"] += int(tally.get("fail", 0))

    cache: Optional[Dict[str, int]] = None
    for snap in ordered.values():
        worker_cache = snap.get("cache")
        if not isinstance(worker_cache, dict):
            continue
        if cache is None:
            cache = {key: 0 for key in worker_cache}
        for key, value in worker_cache.items():
            if isinstance(value, (int, float)):
                cache[key] = cache.get(key, 0) + int(value)

    trace: Optional[Dict[str, int]] = None
    for snap in ordered.values():
        worker_trace = snap.get("trace")
        if not isinstance(worker_trace, dict):
            continue
        if trace is None:
            trace = {}
        for key, value in worker_trace.items():
            if isinstance(value, (int, float)):
                trace[key] = trace.get(key, 0) + int(value)

    merged = {
        "counters": counters,
        "wall_time": wall,
        "stages": stages,
        "verify": {"ok": verify_ok, "oracles": oracle_names},
        "cache": cache,
        "workers": ordered,
    }
    if trace is not None:
        merged["trace"] = trace
    return merged
