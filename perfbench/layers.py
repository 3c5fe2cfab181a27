"""Calls into the program's layers: the timed operation, the correctness
gate and the traced layer-by-layer replay.

The replay calls each layer's public function in the order a request runs
them and records one span per call, from the benchmark's side, so nothing
inside the program is instrumented. Leaf compares are too many and too short
for a span each: a timing wrapper registered through the public
``CompareRegistry`` sums their time onto the enclosing matching span as
``compare_ns`` / ``compare_calls``.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.bounds import fastmatch_bound, tree_pair_sizes
from repro.analysis.metrics import result_distances
from repro.compare.generic import CompareRegistry, default_compare
from repro.core.index import TreeIndex
from repro.core.serialization import tree_from_dict
from repro.core.tree import Tree
from repro.editscript.generator import generate_edit_script
from repro.editscript.script import EditScript
from repro.matching.criteria import CriteriaContext, MatchConfig, MatchingStats
from repro.matching.fastmatch import fast_match
from repro.matching.postprocess import postprocess_matching
from repro.pipeline import DiffPipeline, DiffResult
from repro.serve.protocol import dumps, job_result_to_dict, parse_body, require_pair
from repro.service.cache import canonicalize_script, instantiate_script
from repro.service.digest import cached_digests
from repro.service.engine import JobResult

now = time.perf_counter_ns

#: Identifier the service gives the dummy root of a wrapped script.
SERVED_DUMMY_ID = "svc:d"


# ---------------------------------------------------------------------------
# The untraced operation and the correctness gate
# ---------------------------------------------------------------------------
def diff_op(pipeline: DiffPipeline, old: dict, new: dict) -> Tuple[Tree, Tree, DiffResult, str]:
    """One in-process operation: parse both trees, diff, serialize the script."""
    t1 = tree_from_dict(old)
    t2 = tree_from_dict(new)
    result = pipeline.run(t1, t2)
    return t1, t2, result, json.dumps(result.script.to_dicts(), sort_keys=True)


def script_error(t1: Tree, t2: Tree, replays: bool, script: EditScript) -> Optional[str]:
    """Why a script fails the gate, or ``None``: replay isomorphism and the
    conservation law #INS - #DEL = |new| - |old|."""
    if not replays:
        return "replay of the script on old is not isomorphic to new"
    if len(script.inserts) - len(script.deletes) != len(t2) - len(t1):
        return "conservation law #INS - #DEL = |new| - |old| violated"
    return None


def canonical(script: EditScript, t1: Tree, wrapped: bool, dummy_id: Any) -> str:
    """The script in the service's canonical id space, as comparable text."""
    payload = canonicalize_script(script, t1, wrapped, dummy_id)
    return json.dumps([payload["records"], payload["wrapped"]], sort_keys=True)


def served_check(body: Dict[str, Any], old: dict, new: dict, expected: str) -> Optional[str]:
    """Gate one served response against the in-process canonical script."""
    if body.get("status") != "ok" or "script" not in body:
        return f"job status {body.get('status')!r}: {body.get('error')}"
    t1, t2 = tree_from_dict(old), tree_from_dict(new)
    wrapped = bool(body["script"]["wrapped"])
    script = EditScript.from_dicts(body["script"]["records"])
    dummy = SERVED_DUMMY_ID if wrapped else None
    job = JobResult(job_id="check", script=script, wrapped=wrapped, dummy_id=dummy)
    error = script_error(t1, t2, job.verify(t1, t2), script)
    if error is None and canonical(script, t1, wrapped, dummy) != expected:
        error = "served script differs from the in-process script"
    return error


def in_process_canonical(pipeline: DiffPipeline, old: dict, new: dict) -> str:
    t1, t2 = tree_from_dict(old), tree_from_dict(new)
    result = pipeline.run(t1, t2)
    return canonical(result.script, t1, result.edit.wrapped, result.edit.dummy_t1_id)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
class TimedCompare:
    """The default comparator, timed; registered only in traced runs."""

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0

    def __call__(self, a: Any, b: Any) -> float:
        start = now()
        try:
            return default_compare(a, b)
        finally:
            self.ns += now() - start
            self.calls += 1


class Recorder:
    """Spans kept in memory: one tree per operation, written as JSONL."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.compare = TimedCompare()
        self.config = MatchConfig(registry=CompareRegistry(default=self.compare))

    def add(self, op: int, name: str, parent: Optional[int], start: int, **extra: Any) -> int:
        end = now()
        # Storing the span allocates; a garbage collection that this
        # triggers runs in the next layer call, not in the gap between spans.
        gc.disable()
        try:
            span = {"op": op, "id": len(self.spans), "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end}
            span.update(extra)
            self.spans.append(span)
        finally:
            gc.enable()
        return span["id"]

    def close(self, span_id: int) -> None:
        self.spans[span_id]["end_ns"] = now()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")


class NullRecorder(Recorder):
    """The same replay with spans and the compare timer off."""

    def __init__(self) -> None:
        super().__init__()
        self.config = MatchConfig()

    def add(self, op: int, name: str, parent: Optional[int], start: int, **extra: Any) -> int:
        return -1

    def close(self, span_id: int) -> None:
        pass


def _compute(rec: Recorder, op: int, root: int, t1: Tree, t2: Tree):
    """index → match → postprocess → editscript, one span per layer call."""
    start = now()
    index1, index2 = TreeIndex(t1), TreeIndex(t2)
    rec.add(op, "core.index.build", root, start)
    compare = rec.compare
    calls, ns, start = compare.calls, compare.ns, now()
    stats = MatchingStats()
    context = CriteriaContext(t1, t2, rec.config, stats, index1=index1, index2=index2)
    matching = fast_match(t1, t2, rec.config, None, stats, context=context)
    rec.add(op, "matching.fast_match", root, start, r1=stats.leaf_compares,
            r2=stats.partner_checks, lcs_calls=stats.lcs_calls,
            compare_calls=compare.calls - calls, compare_ns=compare.ns - ns)
    calls, ns, start = compare.calls, compare.ns, now()
    repairs = postprocess_matching(t1, t2, matching, rec.config, stats, context=context)
    rec.add(op, "matching.postprocess", root, start, repairs=repairs,
            compare_calls=compare.calls - calls, compare_ns=compare.ns - ns)
    start = now()
    edit = generate_edit_script(t1, t2, matching, index2=index2)
    rec.add(op, "editscript.generate", root, start, operations=len(edit.script))
    return edit, stats, repairs


def traced_diff(rec: Recorder, op: int, old: dict, new: dict) -> Dict[str, Any]:
    """The in-process operation, replayed layer by layer with spans on."""
    op_start = now()
    root = rec.add(op, "op", None, op_start)
    start = now()
    t1, t2 = tree_from_dict(old), tree_from_dict(new)
    rec.add(op, "core.serialization.parse", root, start)
    edit, stats, repairs = _compute(rec, op, root, t1, t2)
    start = now()
    text = json.dumps(edit.script.to_dicts(), sort_keys=True)
    rec.add(op, "editscript.serialize", root, start)
    rec.close(root)
    return {"t1": t1, "t2": t2, "edit": edit, "stats": stats, "repairs": repairs, "text": text,
            "root": root}


def bound_ratio(rec: Recorder, root: int, t1: Tree, t2: Tree, edit,
                stats: MatchingStats) -> Optional[float]:
    """Measured r1 + r2 over the Appendix B FastMatch bound (c = 1), with
    ``e`` the weighted edit distance of the script; ``None`` when e = 0.
    Both are also recorded on the operation's root span."""
    e = result_distances(t1, edit).weighted
    bound = fastmatch_bound(tree_pair_sizes(t1, t2), e, 1.0)
    ratio = (stats.leaf_compares + stats.partner_checks) / bound if bound > 0 else None
    rec.spans[root].update(e=e, bound_ratio=ratio)
    return ratio


def traced_request(
    rec: Recorder,
    op: int,
    old: dict,
    new: dict,
    source: str,
    scripts: Dict[Tuple[bytes, bytes], Dict[str, Any]],
) -> Dict[str, Any]:
    """One served request replayed in request order with spans on.

    *source* is what the server answered with (``computed``, ``cache`` or
    ``digest``), so the replay does the work the server did; *scripts*
    plays the role of the servers' script caches.
    """
    op_start = now()
    root = rec.add(op, "request", None, op_start)
    start = now()
    raw = json.dumps({"old": old, "new": new}, sort_keys=True).encode("utf-8")
    rec.add(op, "serve.client.encode", root, start)
    start = now()
    data = parse_body(raw)
    rec.add(op, "serve.protocol.parse", root, start)
    start = now()
    t1, t2 = require_pair(data)
    rec.add(op, "core.serialization.parse", root, start)
    # The engine's bookkeeping around each call (the job result, the
    # short-circuit decision, copying a cached payload into the result) is
    # timed with the call it belongs to, so no work falls between spans.
    start = now()
    digests1, digests2 = cached_digests(t1), cached_digests(t2)
    key = (digests1.root, digests2.root)
    result = JobResult(job_id=f"replay-{op}", old_digest=digests1.root_hex,
                       new_digest=digests2.root_hex)
    if key[0] == key[1]:
        result.source, result.script = "digest", EditScript()
    rec.add(op, "service.digest", root, start)
    computed = None
    if result.source != "digest":
        if source != "cache" or key not in scripts:
            edit, stats, repairs = _compute(rec, op, root, t1, t2)
            start = now()
            scripts[key] = canonicalize_script(edit.script, t1, edit.wrapped, edit.dummy_t1_id)
            rec.add(op, "service.cache.canonicalize", root, start)
            computed = {"t1": t1, "t2": t2, "edit": edit, "stats": stats, "repairs": repairs}
        start = now()
        payload = scripts[key]
        result.script, result.wrapped, result.dummy_id = instantiate_script(payload, t1)
        result.source = "computed" if computed else "cache"
        result.cost = payload["cost"]
        result.summary = dict(payload["summary"])
        rec.add(op, "service.cache.instantiate", root, start)
    start = now()
    result.operations = len(result.script)
    dumps(job_result_to_dict(result))
    rec.add(op, "serve.protocol.encode", root, start)
    rec.close(root)
    return {"result": result, "t1": t1, "computed": computed, "root": root,
            "ns": now() - op_start}
