"""The staged diff pipeline every front end runs on.

The paper's algorithm is a fixed sequence of stages — build per-tree
indexes, find a good matching (§5), optionally repair it (§8), generate the
minimum conforming edit script (§4), and (for document front ends) build
and render the delta tree (§6). :class:`DiffPipeline` runs exactly those
named stages:

    ``index → match → postprocess → editscript → deltatree``

configured by one :class:`DiffConfig` and instrumented by one
:class:`Trace` per run: one ``stage.<name>`` span per stage
(:class:`repro.obs.trace.SpanRecord`, the only span type in the
repository) carrying that stage's §8 counters (``r1``/``r2``, LCS calls,
repairs, operations), plus run-wide counters for node counts and
index-cache hits. Pass the caller's open :class:`repro.obs.trace.Span` as
``run(..., span=)`` and every stage is opened as its child on that
tracer's clock while the stage runs; the engine and the CLI do exactly
that, so a trace shows where each stage really started.

Every entry point in the repository — :func:`repro.diff.tree_diff`, the
CLI, :class:`repro.service.DiffEngine`, :class:`repro.store.VersionStore`,
:func:`repro.merge.three_way_merge`, :func:`repro.oem.json_diff`,
:func:`repro.graphs.graph_diff`, and :func:`repro.ladiff.pipeline.ladiff` —
routes through this module, so there is one place to cache, one place to
measure, and one place to add backends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from .core.errors import ConfigError
from .core.index import TreeIndex, cached_index
from .core.tree import Tree
from .editscript.cost import CostModel
from .editscript.generator import EditScriptResult, generate_edit_script
from .editscript.script import EditScript
from .matching.criteria import CriteriaContext, MatchConfig, MatchingStats
from .matching.fastmatch import fast_match
from .matching.matching import Matching
from .matching.postprocess import postprocess_matching
from .matching.schema import LabelSchema
from .matching.simple import match as simple_match
from .obs.trace import Span, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .deltatree.builder import DeltaTree

#: Stage names, in execution order.
STAGES = ("index", "match", "postprocess", "editscript", "deltatree")

#: Each stage is recorded as a span named ``stage.<name>`` of this kind.
STAGE_KIND = "stage"

#: Recognized matcher choices.
ALGORITHMS = ("fast", "simple")

#: Recognized delta-tree renderers.
RENDER_FORMATS = ("latex", "html", "text")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass
class DiffConfig:
    """Everything that parameterizes one diff, validated up front.

    Attributes
    ----------
    algorithm:
        ``"fast"`` (FastMatch, Figure 11) or ``"simple"`` (Match, Figure 10).
    match:
        Matching thresholds and comparators (:class:`MatchConfig`);
        defaults are the paper's ``f=0.6, t=0.5``.
    schema:
        Label order for FastMatch's bottom-up internal pass; inferred from
        the two trees when omitted.
    cost_model:
        Default cost model for :meth:`DiffResult.cost`.
    postprocess:
        Run the §8 top-down repair pass after matching.
    build_delta:
        Run the ``deltatree`` stage (§6) and attach the result.
    render:
        Render the delta tree (``"latex"``, ``"html"`` or ``"text"``);
        implies ``build_delta``.
    reuse_indexes:
        Consult a :class:`~repro.core.index.TreeIndex` previously attached
        to a tree (``tree.index``) before building a fresh one; hits are
        reported in the trace as ``index_cache_hits``.

    All validation happens here, in ``__post_init__``, so every front end
    rejects a bad configuration with one typed :class:`ConfigError` before
    any stage runs.
    """

    algorithm: str = "fast"
    match: Optional[MatchConfig] = None
    schema: Optional[LabelSchema] = None
    cost_model: Optional[CostModel] = None
    postprocess: bool = True
    build_delta: bool = False
    render: Optional[str] = None
    reuse_indexes: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown matching algorithm {self.algorithm!r}; "
                f"expected one of {list(ALGORITHMS)}"
            )
        if self.render is not None:
            if self.render not in RENDER_FORMATS:
                raise ConfigError(
                    f"unknown output format {self.render!r}; "
                    f"expected one of {list(RENDER_FORMATS)}"
                )
            self.build_delta = True
        if self.match is not None and not isinstance(self.match, MatchConfig):
            raise ConfigError(
                f"match must be a MatchConfig, got {type(self.match).__name__}"
            )


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class Trace:
    """Per-run instrumentation: one span per stage plus scalar counters.

    Each stage is a :class:`~repro.obs.trace.SpanRecord` named
    ``stage.<name>`` (kind ``"stage"``). Given the caller's open
    :class:`~repro.obs.trace.Span`, a stage is opened as its child while
    the stage runs, on that tracer's clock, and lands in the tracer's
    buffer. Without one the records are kept here only, timed with
    ``time.perf_counter``, without minting ids or taking the tracer lock.
    :meth:`stage_ms`, :meth:`total_ms`, :meth:`to_dict` and :meth:`render`
    are views over the same records either way.

    Counters always present after a run: ``nodes_t1`` / ``nodes_t2``,
    ``leaf_compares`` (the paper's ``r1``), ``partner_checks`` (``r2``),
    ``lcs_calls``, ``postprocess_repairs``, ``operations``, and
    ``index_cache_hits``.
    """

    __slots__ = ("spans", "counters", "_parent")

    def __init__(self, parent: Optional[Span] = None) -> None:
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, int] = {}
        self._parent = parent

    @contextmanager
    def span(self, name: str) -> Iterator[SpanRecord]:
        """Record stage *name* as a ``stage.<name>`` span while it runs."""
        if self._parent is not None:
            with self._parent.child(f"stage.{name}", kind=STAGE_KIND) as handle:
                self.spans.append(handle.record)
                yield handle.record
            return
        record = SpanRecord(
            trace_id="",
            span_id="",
            parent_id=None,
            name=f"stage.{name}",
            kind=STAGE_KIND,
            start=time.perf_counter(),
            seq=len(self.spans),
        )
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stage_ms(self) -> Dict[str, float]:
        """Wall milliseconds per stage, in execution order."""
        return {_stage_name(span): span.wall_ms for span in self.spans}

    def total_ms(self) -> float:
        return sum(span.wall_ms for span in self.spans)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly export (used by ``repro-diff batch --json``)."""
        return {
            "stages": [
                {"name": _stage_name(s), "wall_ms": round(s.wall_ms, 3), **s.meta}
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }

    def render(self) -> str:
        """Human-readable block (used by ``repro-diff script --trace``)."""
        lines = ["-- trace --"]
        for span in self.spans:
            extra = "".join(f" {k}={v}" for k, v in sorted(span.meta.items()))
            name = _stage_name(span) + ":"
            lines.append(f"{name:<14}{span.wall_ms:9.3f} ms{extra}")
        lines.append(f"{'total:':<14}{self.total_ms():9.3f} ms")
        for name in sorted(self.counters):
            lines.append(f"{name + ':':<22}{self.counters[name]}")
        return "\n".join(lines)


def _stage_name(span: SpanRecord) -> str:
    return span.name[len("stage."):]


def _match_counts(stats: MatchingStats) -> Dict[str, int]:
    """The §8 counters a matching stage charges, as span annotations."""
    return {
        "leaf_compares": stats.leaf_compares,
        "partner_checks": stats.partner_checks,
        "lcs_calls": stats.lcs_calls,
    }


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------
@dataclass
class DiffResult:
    """Everything produced by one end-to-end diff.

    The always-present core — the matching used, the edit-script bundle,
    and the §8 counters — plus the run's :class:`Trace` and, when the
    configuration asked for them, the §6 delta tree and its rendering.
    """

    matching: Matching
    edit: EditScriptResult
    match_stats: MatchingStats = field(default_factory=MatchingStats)
    postprocess_repairs: int = 0
    trace: Optional[Trace] = None
    delta: Optional["DeltaTree"] = None
    rendered: Optional[str] = None
    cost_model: Optional[CostModel] = None

    @property
    def script(self) -> EditScript:
        """The minimum conforming edit script."""
        return self.edit.script

    def cost(self, model: Optional[CostModel] = None) -> float:
        return self.edit.cost(model if model is not None else self.cost_model)

    def verify(self, t1: Tree, t2: Tree) -> bool:
        """Replay the script on *t1* and compare against *t2*."""
        return self.edit.verify(t1, t2)

    def oracle_report(self, t1: Tree, t2: Tree, config=None):
        """Run the full :mod:`repro.verify` oracle battery on this result.

        Returns a :class:`~repro.verify.oracles.VerifyReport`; pass the
        :class:`~repro.matching.criteria.MatchConfig` the diff ran with to
        also check the matching criteria. (Lazy import: ``repro.verify``
        depends on this module.)
        """
        from .verify.oracles import verify_result

        return verify_result(t1, t2, self, config=config)


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------
class DiffPipeline:
    """Run the paper's staged diff under one configuration.

    A pipeline object is cheap and stateless between runs (all per-run
    state lives in the :class:`Trace`), so one instance can serve many
    calls — including concurrently from the service layer's worker threads.

    Parameters
    ----------
    config:
        The :class:`DiffConfig`; defaults throughout when omitted.
    """

    def __init__(self, config: Optional[DiffConfig] = None) -> None:
        self.config = config if config is not None else DiffConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        t1: Tree,
        t2: Tree,
        matching: Optional[Matching] = None,
        span: Optional[Span] = None,
    ) -> DiffResult:
        """Diff *t1* against *t2*; neither tree is mutated.

        A precomputed *matching* (e.g. from keys) skips the ``match`` and
        ``postprocess`` stages entirely, exactly as the legacy
        ``tree_diff(matching=...)`` did. An open *span* (the engine's or a
        CLI command's) becomes the parent of every ``stage.*`` span.
        """
        config = self.config
        trace = Trace(span)
        stats = MatchingStats()
        repairs = 0

        with trace.span("index") as stage:
            index1 = self._index_for(t1, trace)
            index2 = self._index_for(t2, trace)
            stage.meta.update(nodes_t1=len(t1), nodes_t2=len(t2))
        trace.counters.setdefault("index_cache_hits", 0)
        trace.counters["nodes_t1"] = len(t1)
        trace.counters["nodes_t2"] = len(t2)

        context = CriteriaContext(
            t1, t2, config.match, stats, index1=index1, index2=index2
        )
        if matching is None:
            with trace.span("match") as stage:
                if config.algorithm == "fast":
                    matching = fast_match(
                        t1, t2, config.match, config.schema, stats, context=context
                    )
                else:
                    matching = simple_match(
                        t1, t2, config.match, stats, context=context
                    )
                stage.meta.update(pairs=len(matching), **_match_counts(stats))
            if config.postprocess:
                with trace.span("postprocess") as stage:
                    before = _match_counts(stats)
                    repairs = postprocess_matching(
                        t1, t2, matching, config.match, stats, context=context
                    )
                    after = _match_counts(stats)
                    stage.meta.update(
                        {name: after[name] - before[name] for name in after},
                        repairs=repairs,
                    )

        with trace.span("editscript") as stage:
            edit = generate_edit_script(t1, t2, matching, index2=index2)
            stage.meta["operations"] = len(edit.script)

        result = DiffResult(
            matching=matching,
            edit=edit,
            match_stats=stats,
            postprocess_repairs=repairs,
            trace=trace,
            cost_model=config.cost_model,
        )
        if config.build_delta:
            with trace.span("deltatree"):
                result.delta = self._build_delta(t1, t2, edit)
                if config.render is not None:
                    result.rendered = _render_delta(result.delta, config.render)

        trace.counters.update(
            leaf_compares=stats.leaf_compares,
            partner_checks=stats.partner_checks,
            lcs_calls=stats.lcs_calls,
            postprocess_repairs=repairs,
            operations=len(edit.script),
        )
        return result

    # ------------------------------------------------------------------
    def _index_for(self, tree: Tree, trace: Trace) -> TreeIndex:
        if self.config.reuse_indexes:
            index, reused = cached_index(tree)
            if reused:
                trace.incr("index_cache_hits")
            return index
        return TreeIndex(tree)

    @staticmethod
    def _build_delta(t1: Tree, t2: Tree, edit: EditScriptResult) -> "DeltaTree":
        from .deltatree.builder import build_delta_tree

        return build_delta_tree(t1, t2, edit)


def _render_delta(delta: "DeltaTree", output: str) -> str:
    if output == "latex":
        from .deltatree.render_latex import render_latex

        return render_latex(delta)
    if output == "html":
        from .deltatree.render_html import render_html

        return render_html(delta)
    from .deltatree.render_text import render_text

    return render_text(delta)
