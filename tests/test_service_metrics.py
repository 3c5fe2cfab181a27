"""Tests for service counters and latency histograms."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.metrics import (
    RELATIVE_ERROR,
    STANDARD_COUNTERS,
    LatencyHistogram,
    ServiceMetrics,
    merge_snapshots,
)


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean() == 0.0
        assert hist.percentile(50) == 0.0

    def test_percentiles(self):
        hist = LatencyHistogram()
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert 45.0 <= hist.percentile(50) <= 55.0
        assert 90.0 <= hist.percentile(95) <= 100.0

    def test_mean_is_exact_beyond_window(self):
        hist = LatencyHistogram()
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100
        assert hist.mean() == pytest.approx(sum(range(100)) / 100)

    def test_percentile_validation(self):
        hist = LatencyHistogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestServiceMetrics:
    def test_standard_counters_present(self):
        snap = ServiceMetrics().snapshot()
        for name in STANDARD_COUNTERS:
            assert snap["counters"][name] == 0

    def test_incr_and_get(self):
        metrics = ServiceMetrics()
        metrics.incr("cache_hits")
        metrics.incr("cache_hits", 4)
        metrics.incr("custom_counter", 2)
        assert metrics.get("cache_hits") == 5
        assert metrics.get("custom_counter") == 2
        assert metrics.snapshot()["counters"]["custom_counter"] == 2

    def test_wall_time_snapshot(self):
        metrics = ServiceMetrics()
        for ms in (1.0, 2.0, 3.0, 100.0):
            metrics.observe_wall(ms)
        wall = metrics.snapshot()["wall_time"]
        assert wall["count"] == 4
        assert wall["mean_ms"] == pytest.approx(26.5)
        assert wall["p95_ms"] >= wall["p50_ms"]

    def test_reset(self):
        metrics = ServiceMetrics()
        metrics.incr("jobs_submitted", 7)
        metrics.observe_wall(5.0)
        metrics.reset()
        snap = metrics.snapshot()
        assert snap["counters"]["jobs_submitted"] == 0
        assert snap["wall_time"]["count"] == 0

    def test_thread_safety_smoke(self):
        metrics = ServiceMetrics()

        def worker():
            for _ in range(500):
                metrics.incr("jobs_submitted")
                metrics.observe_wall(1.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.get("jobs_submitted") == 2000
        assert metrics.snapshot()["wall_time"]["count"] == 2000

    def test_render_mentions_counters_and_cache(self):
        metrics = ServiceMetrics()
        metrics.incr("cache_hits", 3)
        text = metrics.render(
            {"size": 1, "capacity": 8, "hits": 3, "misses": 1, "evictions": 0}
        )
        assert "cache_hits" in text
        assert "wall time" in text
        assert "size=1/8" in text


class TestTailLatency:
    """p99 export (the /metrics endpoint reports tail latency)."""

    def test_histogram_p99_sits_between_p95_and_max(self):
        hist = LatencyHistogram()
        for value in range(1, 1001):  # 1..1000
            hist.observe(float(value))
        assert hist.percentile(95) <= hist.percentile(99) <= hist.percentile(100)
        assert 985.0 <= hist.percentile(99) <= 995.0

    def test_wall_snapshot_has_p99(self):
        metrics = ServiceMetrics()
        for ms in range(100):
            metrics.observe_wall(float(ms))
        wall = metrics.snapshot()["wall_time"]
        assert "p99_ms" in wall
        assert wall["p95_ms"] <= wall["p99_ms"] <= wall["max_ms"]

    def test_stage_snapshot_has_p99(self):
        metrics = ServiceMetrics()
        for ms in range(50):
            metrics.observe_stage("match", float(ms))
        stats = metrics.snapshot()["stages"]["match"]
        assert "p99_ms" in stats
        assert stats["p50_ms"] <= stats["p99_ms"]

    def test_render_mentions_p99(self):
        metrics = ServiceMetrics()
        metrics.observe_wall(1.0)
        metrics.observe_stage("match", 2.0)
        text = metrics.render()
        assert "p99=" in text


def exact_nearest_rank(samples, p):
    ordered = sorted(samples)
    return ordered[round(p / 100.0 * (len(ordered) - 1))]


class TestClusterPercentiles:
    """Merging per-worker snapshots adds buckets; it never averages percentiles."""

    def test_one_slow_worker_keeps_its_tail(self):
        fast, slow = ServiceMetrics(), ServiceMetrics()
        for _ in range(980):
            fast.observe_wall(1.0)
        for _ in range(20):
            slow.observe_wall(1000.0)
        wall = merge_snapshots({"w0": fast.snapshot(), "w1": slow.snapshot()})["wall_time"]
        assert wall["count"] == 1000
        assert wall["p50_ms"] == 1.0
        assert wall["p95_ms"] == 1.0
        assert wall["p99_ms"] == pytest.approx(1000.0, rel=RELATIVE_ERROR)
        assert wall["max_ms"] == 1000.0
        assert wall["mean_ms"] == pytest.approx(20.98)

    def test_stage_histograms_merge_too(self):
        a, b = ServiceMetrics(), ServiceMetrics()
        a.observe_stage("match", 2.0)
        b.observe_stage("match", 2.0)
        b.observe_stage("index", 0.5)
        stages = merge_snapshots({"w0": a.snapshot(), "w1": b.snapshot()})["stages"]
        assert stages["match"]["count"] == 2 and stages["match"]["p50_ms"] == 2.0
        assert stages["index"]["count"] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        workers=st.lists(
            st.lists(
                st.floats(min_value=0.001, max_value=60_000.0, allow_nan=False),
                min_size=0, max_size=40,
            ),
            min_size=1, max_size=5,
        ),
    )
    def test_merge_equals_the_union_within_the_bound(self, workers):
        union = LatencyHistogram()
        snapshots = {}
        for index, samples in enumerate(workers):
            metrics = ServiceMetrics()
            for value in samples:
                metrics.observe_wall(value)
                union.observe(value)
            snapshots[f"w{index}"] = metrics.snapshot()
        merged = merge_snapshots(snapshots)["wall_time"]
        expected = union.stats()
        for key in ("count", "p50_ms", "p95_ms", "p99_ms", "max_ms"):
            assert merged[key] == expected[key], key
        everything = [value for samples in workers for value in samples]
        for p in (0, 50, 95, 99, 100):
            if not everything:
                assert union.percentile(p) == 0.0
                continue
            exact = exact_nearest_rank(everything, p)
            assert abs(union.percentile(p) - exact) <= RELATIVE_ERROR * exact * (1 + 1e-9)
