"""Stage spans are measured while each stage runs, never reconstructed.

Every test drives a tracer on a hand-stepped :class:`SimClock`. A comparator
advances that clock by ``STEP`` on each leaf compare, and the engine's digest
step advances it by ``DIGEST_STEP``. Virtual time then moves only inside those
two places, so the spans have exact expected values:

* ``stage.match`` and ``stage.postprocess`` last exactly their leaf
  compares times ``STEP``;
* ``stage.index`` starts at or after the digest work ends;
* stage siblings never overlap (``validate_trace``).

Stage times made up after the fact (durations laid back to back from the
engine span's start) fail all three checks.
"""

import http.client
import json
import random

import pytest

from repro.cli import main
from repro.compare.generic import CompareRegistry, default_compare
from repro.core.serialization import tree_from_sexpr
from repro.matching.criteria import MatchConfig
from repro.obs import Tracer, build_span_tree, validate_trace
from repro.serve.app import ServeConfig, ServerThread
from repro.serve.client import DiffServiceClient
from repro.service import engine as engine_module
from repro.service.engine import DiffEngine
from repro.simtest.clock import SimClock

OLD_SEXPR = '(D (P (S "alpha one") (S "beta two")) (P (S "gamma three")))'
NEW_SEXPR = '(D (P (S "beta two") (S "alpha one!")) (P (S "delta four")))'

#: Virtual seconds charged per leaf compare and per digest computation.
STEP = 0.125
DIGEST_STEP = 0.5


class SteppedWork:
    """The clock, the stepping comparator, and the digest bookkeeping."""

    def __init__(self, monkeypatch):
        self.clock = SimClock()
        self.compares = 0
        self.digest_done = None
        real_digests = engine_module.cached_digests

        def slow_digests(tree):
            digests = real_digests(tree)
            self.clock.advance(DIGEST_STEP)
            self.digest_done = self.clock.monotonic()
            return digests

        monkeypatch.setattr(engine_module, "cached_digests", slow_digests)

    def compare(self, a, b):
        self.compares += 1
        self.clock.advance(STEP)
        return default_compare(a, b)

    def match_config(self):
        return MatchConfig(registry=CompareRegistry(default=self.compare))

    def tracer(self):
        return Tracer(fraction=1.0, clock=self.clock, rng=random.Random(11))


@pytest.fixture
def work(monkeypatch):
    return SteppedWork(monkeypatch)


def assert_stage_times_are_real(spans, work, parent_name="engine"):
    assert validate_trace(spans) == []
    by_name = {span["name"]: span for span in spans}
    parent = by_name[parent_name]
    stages = [span for span in spans if span["kind"] == "stage"]
    assert [s["name"] for s in stages] == [
        "stage.index", "stage.match", "stage.postprocess", "stage.editscript"
    ]
    assert all(s["parent"] == parent["span"] for s in stages)

    # Every compare runs inside match or postprocess, so together those two
    # stages last exactly the time the comparator charged.
    match, post = by_name["stage.match"], by_name["stage.postprocess"]
    assert work.compares > 0
    assert (match["end"] - match["start"]) + (post["end"] - post["start"]) == (
        pytest.approx(work.compares * STEP)
    )
    assert by_name["stage.index"]["start"] >= work.digest_done
    for before, after in zip(stages, stages[1:]):
        assert after["start"] >= before["end"]
    # Each stage's own r1 accounts for its own share.
    for stage in (match, post):
        assert stage["end"] - stage["start"] == pytest.approx(
            stage["meta"]["leaf_compares"] * STEP
        )


def test_engine_stage_spans_run_on_the_tracer_clock(work):
    tracer = work.tracer()
    with DiffEngine(workers=1, cache=None, config=work.match_config(),
                    tracer=tracer) as engine:
        old, new = tree_from_sexpr(OLD_SEXPR), tree_from_sexpr(NEW_SEXPR)
        result = engine.diff(old, new, trace=(tracer.maybe_trace(), None))
    assert result.ok and result.source == "computed"
    spans = tracer.trace(result.trace_id)
    assert_stage_times_are_real(spans, work)
    match = next(s for s in spans if s["name"] == "stage.match")
    assert result.stage_ms["match"] == pytest.approx(match["wall_ms"])
    # The histogram feed sees the same measured time.
    assert engine.metrics.snapshot()["stages"]["match"]["max_ms"] == pytest.approx(
        match["wall_ms"], abs=1e-3
    )


def test_server_stage_spans_run_on_the_tracer_clock(work):
    config = ServeConfig(port=0, workers=1, cache_size=0, trace_fraction=1.0,
                         match=work.match_config())
    with ServerThread(config) as handle:
        handle.server.tracer.clock = work.clock
        with DiffServiceClient(port=handle.port, retries=0, timeout=10.0) as client:
            out = client.diff(OLD_SEXPR, NEW_SEXPR)
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10.0)
        try:
            conn.request("GET", f"/v1/trace/{out['trace_id']}")
            view = json.loads(conn.getresponse().read().decode("utf-8"))
        finally:
            conn.close()
    assert out["status"] == "ok"
    roots, _ = build_span_tree(view["spans"])
    assert [root["name"] for root in roots] == ["worker"]
    assert_stage_times_are_real(view["spans"], work)


def test_process_executor_annotates_stage_ms_without_children():
    tracer = Tracer(fraction=1.0, rng=random.Random(3))
    old, new = tree_from_sexpr(OLD_SEXPR), tree_from_sexpr(NEW_SEXPR)
    with DiffEngine(workers=1, cache=None, executor="process", tracer=tracer) as engine:
        result = engine.diff(old, new, trace=(tracer.maybe_trace(), None))
    assert result.ok
    spans = tracer.trace(result.trace_id)
    assert [span["name"] for span in spans] == ["engine"]
    assert spans[0]["meta"]["stage_ms"] == result.stage_ms
    assert set(result.stage_ms) == {"index", "match", "postprocess", "editscript"}


@pytest.fixture
def sexpr_pair(tmp_path):
    (tmp_path / "old.sexpr").write_text(OLD_SEXPR, encoding="utf-8")
    (tmp_path / "new.sexpr").write_text(NEW_SEXPR, encoding="utf-8")
    return tmp_path


def load_export(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def test_cli_script_stages_hang_off_cli_script(sexpr_pair, capsys):
    export = str(sexpr_pair / "spans.jsonl")
    assert main(["script", str(sexpr_pair / "old.sexpr"), str(sexpr_pair / "new.sexpr"),
                 "--trace-fraction", "1.0", "--trace-export", export]) == 0
    capsys.readouterr()
    spans = load_export(export)
    assert validate_trace(spans) == []
    root = next(span for span in spans if span["name"] == "cli.script")
    stages = [span for span in spans if span["kind"] == "stage"]
    assert len(stages) == 4
    assert all(span["parent"] == root["span"] for span in stages)


def test_cli_batch_stages_hang_off_each_engine_span(sexpr_pair, capsys):
    manifest = sexpr_pair / "pairs.manifest"
    manifest.write_text("old.sexpr new.sexpr\nnew.sexpr old.sexpr\n", encoding="utf-8")
    export = str(sexpr_pair / "spans.jsonl")
    assert main(["batch", str(manifest), "--trace-fraction", "1.0",
                 "--trace-export", export]) == 0
    capsys.readouterr()
    spans = load_export(export)
    assert validate_trace(spans) == []
    engines = {span["span"] for span in spans if span["name"] == "engine"}
    assert len(engines) == 2
    stages = [span for span in spans if span["kind"] == "stage"]
    assert len(stages) == 8
    assert {span["parent"] for span in stages} == engines
