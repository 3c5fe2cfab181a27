"""Unit and property tests for repro.obs: the Tracer and trace assembly.

The property tests drive the real simulation harness (repro.simtest) under
virtual time and check the structural guarantees the tracing design makes:
every sampled trace is a single-rooted tree and child intervals nest inside
their parents. Simulated workers run the production worker core and the
real pipeline, so their engine spans carry the ``stage.*`` children.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.export import (
    build_span_tree,
    load_spans_jsonl,
    merge_spans,
    render_span_tree,
    spans_to_jsonl,
    validate_trace,
)
from repro.obs.trace import (
    Tracer,
    extract_trace_context,
    inject_trace_headers,
    is_valid_span_id,
    is_valid_trace_id,
)
from repro.simtest.clock import SimClock
from repro.simtest.scenario import Scenario, Step, run_scenario

_EPS = 1e-6


@pytest.fixture(autouse=True)
def _no_real_sleep(forbid_real_sleep):
    """Every test here runs on virtual time only."""


def seeded_tracer(fraction=1.0, **kwargs):
    import random

    return Tracer(
        fraction=fraction, clock=SimClock(), rng=random.Random(7), **kwargs
    )


class TestSampling:
    def test_fraction_zero_never_samples(self):
        tracer = seeded_tracer(fraction=0.0)
        assert [tracer.maybe_trace() for _ in range(50)] == [None] * 50

    def test_fraction_one_always_samples(self):
        tracer = seeded_tracer(fraction=1.0)
        ids = [tracer.maybe_trace() for _ in range(10)]
        assert all(ids)
        assert len(set(ids)) == 10

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.75])
    def test_fraction_is_hit_exactly(self, fraction):
        tracer = seeded_tracer(fraction=fraction)
        sampled = sum(
            1 for _ in range(1000) if tracer.maybe_trace() is not None
        )
        assert sampled == int(1000 * fraction)

    def test_ids_are_deterministic_per_seed(self):
        first = [seeded_tracer().maybe_trace() for _ in range(1)]
        second = [seeded_tracer().maybe_trace() for _ in range(1)]
        assert first == second
        assert is_valid_trace_id(first[0]) and len(first[0]) == 16


class TestSpanLifecycle:
    def test_close_records_interval_on_the_injected_clock(self):
        clock = SimClock()
        tracer = Tracer(fraction=1.0, clock=clock)
        span = tracer.start_span("op", kind="internal")
        clock.sleep(0.25)
        record = span.close()
        assert record.end - record.start == pytest.approx(0.25)
        assert record.wall_ms == pytest.approx(250.0)
        assert tracer.open_count() == 0

    def test_child_spans_share_trace_and_parent(self):
        tracer = seeded_tracer()
        root = tracer.start_span("root")
        child = root.child("kid", kind="worker")
        assert child.trace_id == root.trace_id
        assert child.record.parent_id == root.span_id
        child.close()
        root.close()
        assert [s["name"] for s in tracer.trace(root.trace_id)] == ["root", "kid"]

    def test_context_manager_closes_with_error_status(self):
        tracer = seeded_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start_span("boom") as span:
                raise RuntimeError("nope")
        assert tracer.trace(span.trace_id)[0]["status"] == "error"

    def test_double_close_is_idempotent(self):
        tracer = seeded_tracer()
        span = tracer.start_span("once")
        span.close("ok")
        span.close("error")
        records = tracer.trace(span.trace_id)
        assert len(records) == 1 and records[0]["status"] == "ok"

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = seeded_tracer(capacity=4)
        for index in range(10):
            tracer.start_span(f"s{index}").close()
        stats = tracer.stats()
        assert stats["spans_recorded"] == 10
        assert stats["spans_dropped"] == 6

    def test_abort_open_closes_everything_as_lost(self):
        tracer = seeded_tracer()
        spans = [tracer.start_span("orphan") for _ in range(3)]
        assert tracer.abort_open() == 3
        for span in spans:
            assert tracer.trace(span.trace_id)[0]["status"] == "lost"
        assert tracer.open_count() == 0

    def test_on_close_callback_sees_every_span(self):
        seen = []
        tracer = Tracer(
            fraction=1.0, clock=SimClock(), on_close=seen.append
        )
        tracer.start_span("a").close()
        tracer.start_span("b", kind="stage").close()
        assert [s["name"] for s in seen] == ["a", "b"]


class TestHeaders:
    def test_inject_extract_round_trip(self):
        headers = inject_trace_headers({}, "AB" * 8, "cd" * 4)
        lowered = {k.lower(): v for k, v in headers.items()}
        assert extract_trace_context(lowered) == ("ab" * 8, "cd" * 4)

    @pytest.mark.parametrize(
        "value", ["", "zz", "xyz!", "g" * 16, "a" * 65, 123, None]
    )
    def test_malformed_trace_ids_are_rejected(self, value):
        assert not is_valid_trace_id(value)
        headers = {"x-trace-id": value} if isinstance(value, str) else {}
        assert extract_trace_context(headers) is None

    def test_bad_span_id_keeps_the_trace(self):
        ctx = extract_trace_context(
            {"x-trace-id": "ab" * 8, "x-span-id": "not hex!"}
        )
        assert ctx == ("ab" * 8, None)

    def test_span_id_length_cap(self):
        assert is_valid_span_id("a" * 32)
        assert not is_valid_span_id("a" * 33)


class TestAssembly:
    def test_merge_spans_dedupes_across_sources(self):
        a = {"trace": "t", "span": "1", "start": 0.0}
        b = {"trace": "t", "span": "2", "start": 1.0}
        merged = merge_spans([a, b], [dict(a)], [b])
        assert [s["span"] for s in merged] == ["1", "2"]

    def test_jsonl_round_trip_is_byte_stable(self):
        tracer = seeded_tracer()
        root = tracer.start_span("root")
        root.child("kid").close()
        root.close()
        text = tracer.export_jsonl()
        spans = load_spans_jsonl(text)
        assert spans_to_jsonl(spans) == text
        for line in text.splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_validate_trace_flags_structural_breaks(self):
        assert validate_trace([]) == ["trace has no spans"]
        open_span = {"trace": "t", "span": "1", "parent": None,
                     "name": "x", "kind": "w", "start": 0.0, "end": None}
        assert any("never closed" in v for v in validate_trace([open_span]))
        two_roots = [
            {"trace": "t", "span": "1", "parent": None, "name": "a",
             "kind": "w", "start": 0.0, "end": 1.0},
            {"trace": "t", "span": "2", "parent": None, "name": "b",
             "kind": "w", "start": 0.0, "end": 1.0},
        ]
        assert any("single root" in v for v in validate_trace(two_roots))
        escape = [
            {"trace": "t", "span": "1", "parent": None, "name": "a",
             "kind": "w", "start": 0.0, "end": 1.0},
            {"trace": "t", "span": "2", "parent": "1", "name": "b",
             "kind": "w", "start": 0.5, "end": 2.0},
        ]
        assert any("escapes parent" in v for v in validate_trace(escape))

    def test_validate_trace_flags_overlapping_stage_siblings(self):
        def span(span_id, parent, kind, start, end):
            return {"trace": "t", "span": span_id, "parent": parent,
                    "name": f"s{span_id}", "kind": kind,
                    "start": start, "end": end}

        engine = span("1", None, "engine", 0.0, 1.0)
        back_to_back = [engine, span("2", "1", "stage", 0.1, 0.4),
                        span("3", "1", "stage", 0.4, 0.9)]
        assert validate_trace(back_to_back) == []
        # Each fits the parent and their sum (0.7s) does too, but they
        # overlap: the pipeline never runs two stages at once.
        overlapping = [engine, span("2", "1", "stage", 0.1, 0.5),
                       span("3", "1", "stage", 0.3, 0.6)]
        assert any("overlap" in v for v in validate_trace(overlapping))
        # Non-stage siblings (concurrent engine jobs) may overlap.
        concurrent = [engine, span("2", "1", "worker", 0.1, 0.5),
                      span("3", "1", "worker", 0.3, 0.6)]
        assert validate_trace(concurrent) == []

    def test_zero_width_stage_tied_on_start_is_no_overlap(self):
        # The ids are chosen so that ordering by span id puts stage.match
        # ("3a…") before the zero-width stage.index ("ef…") it follows.
        spans = [
            {"trace": "t", "span": "0badcafe", "parent": None, "name": "engine",
             "kind": "engine", "start": 0.5, "end": 3.0},
            {"trace": "t", "span": "ef34cb61", "parent": "0badcafe",
             "name": "stage.index", "kind": "stage", "start": 1.0, "end": 1.0},
            {"trace": "t", "span": "3a321062", "parent": "0badcafe",
             "name": "stage.match", "kind": "stage", "start": 1.0, "end": 2.25},
        ]
        assert validate_trace(spans) == []

    def test_render_span_tree_shows_the_hierarchy(self):
        spans = [
            {"trace": "t1", "span": "1", "parent": None, "name": "root",
             "kind": "client", "start": 0.0, "end": 1.0, "wall_ms": 1000.0,
             "status": "ok"},
            {"trace": "t1", "span": "2", "parent": "1", "name": "leaf",
             "kind": "worker", "start": 0.2, "end": 0.8, "wall_ms": 600.0,
             "status": "ok", "meta": {"worker": "w0"}},
        ]
        art = render_span_tree(spans)
        assert "trace t1 (2 spans" in art
        assert "`- root" in art
        assert "`- leaf" in art and "[worker=w0]" in art
        assert render_span_tree([], trace_id="zz") == "(no spans)"


# ---------------------------------------------------------------------------
# Property tests: structural guarantees over the simulated serve stack
# ---------------------------------------------------------------------------
def _spans_by_trace(result):
    grouped = {}
    for event in result.log.of_kind("span"):
        record = event["record"]
        grouped.setdefault(record["trace"], []).append(record)
    return grouped


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    requests=st.integers(min_value=1, max_value=5),
    workers=st.integers(min_value=1, max_value=3),
    service_ms=st.floats(min_value=0.5, max_value=250.0),
    spacing=st.floats(min_value=0.01, max_value=0.5),
)
def test_sampled_traces_are_nested_single_rooted_trees(
    seed, requests, workers, service_ms, spacing
):
    steps = [
        Step(
            at=round(spacing * (index + 1), 3),
            action="request",
            kwargs={"client": "c0", "doc": f"doc-{index}"},
        )
        for index in range(requests)
    ]
    spec = Scenario(
        name="prop",
        seed=seed,
        workers=workers,
        service_time=service_ms / 1000.0,
        steps=steps,
        invariants=("trace_complete",),
    )
    result = run_scenario(spec)
    assert result.ok, result.violations
    grouped = _spans_by_trace(result)

    sampled = [r for r in result.records if r.trace_id is not None]
    assert sampled, "trace_fraction defaults to 1.0: every request samples"
    for record in sampled:
        spans = grouped[record.trace_id]
        assert validate_trace(spans) == []

        # Single root, and it is the client's request bracket.
        roots, children = build_span_tree(spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "client.request"

        # Child intervals nest inside their parents under the SimClock.
        by_id = {span["span"]: span for span in spans}
        for parent_id, kids in children.items():
            parent = by_id[parent_id]
            for kid in kids:
                assert kid["start"] >= parent["start"] - _EPS
                assert kid["end"] <= parent["end"] + _EPS

        # Simulated workers run the real pipeline: a computed job's engine
        # span holds the four measured stages (a pair whose edits cancel
        # out is answered by the digest short-circuit, with no stages).
        engine = next(span for span in spans if span["name"] == "engine")
        stages = [span for span in spans if span["kind"] == "stage"]
        expected = ["stage.index", "stage.match", "stage.postprocess",
                    "stage.editscript"]
        computed = engine["meta"]["source"] == "computed"
        assert [span["name"] for span in stages] == (expected if computed else [])
        assert all(span["parent"] == engine["span"] for span in stages)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_same_span_bytes(seed):
    def run():
        steps = [
            Step(at=0.1 * (i + 1), action="request",
                 kwargs={"client": "c0", "doc": f"d{i}"})
            for i in range(3)
        ]
        spec = Scenario(name="det", seed=seed, workers=2, steps=steps)
        result = run_scenario(spec)
        return [
            json.dumps(e, sort_keys=True) for e in result.log.of_kind("span")
        ]

    assert run() == run()
