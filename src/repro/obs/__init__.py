"""repro.obs — request-scoped distributed tracing for the serve stack.

A trace is a tree of spans keyed by a ``trace_id``.  Each layer of the
serving stack (client attempt, router proxy leg, worker admission,
engine, pipeline stage) opens a span, annotates it, and closes it; the
:class:`Tracer` records closed spans in a bounded ring buffer that can
be queried (``GET /v1/trace/<id>``), exported as sorted-keys JSONL, or
streamed to a callback (the simtest event log).

:class:`SpanRecord` is the only span type.  The pipeline's ``stage.*``
spans are opened by :meth:`repro.pipeline.DiffPipeline.run` as children
of the caller's span while each stage runs, so their start times and
durations are measured, not reconstructed.  A job computed in a
``DiffEngine(executor="process")`` child has no tracer there: its
``engine`` span carries the child's per-stage times as ``stage_ms`` in
its meta instead of stage children.

Everything is driven by an injectable :class:`repro.simtest.clock.Clock`
and an injectable ``random.Random`` so simulation scenarios produce
byte-identical trace trees per seed.
"""

from repro.obs.trace import (
    MAX_SPAN_ID_LEN,
    MAX_TRACE_ID_LEN,
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    Span,
    SpanRecord,
    Tracer,
    extract_trace_context,
    inject_trace_headers,
    is_valid_span_id,
    is_valid_trace_id,
)
from repro.obs.export import (
    build_span_tree,
    load_spans_jsonl,
    merge_spans,
    render_span_tree,
    spans_to_jsonl,
    validate_trace,
)

__all__ = [
    "MAX_SPAN_ID_LEN",
    "MAX_TRACE_ID_LEN",
    "SPAN_ID_HEADER",
    "TRACE_ID_HEADER",
    "Span",
    "SpanRecord",
    "Tracer",
    "build_span_tree",
    "extract_trace_context",
    "inject_trace_headers",
    "is_valid_span_id",
    "is_valid_trace_id",
    "load_spans_jsonl",
    "merge_spans",
    "render_span_tree",
    "spans_to_jsonl",
    "validate_trace",
]
