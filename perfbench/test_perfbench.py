"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
import run  # noqa: E402
from layers import (  # noqa: E402
    Recorder,
    canonical,
    diff_op,
    in_process_canonical,
    traced_diff,
    traced_request,
)
from repro.pipeline import DiffPipeline  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _run(workload: str, seconds: float, trace: int, seed: int = 3) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_emits_exactly_the_declared_metrics(trace, section):
    result = _run("shapes_adversarial", 0.5, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(section)
    if trace:  # the named layers cover an operation's traced time
        assert result["metrics"]["trace.layer_share_min"]["value"] >= 0.95


def test_served_run_emits_the_declared_metrics():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("serve_mixed", 2, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(section)
    assert result["metrics"]["serve.protocol.parse_ms_p50"]["value"] > 0
    assert result["metrics"]["trace.layer_share_min"]["value"] >= 0.95


@pytest.mark.parametrize("workload", sorted(inputs.STREAMS))
def test_corpus_digest_follows_the_seed(workload):
    assert inputs.stream_digest(5, workload) == inputs.stream_digest(5, workload)
    assert inputs.stream_digest(5, workload) != inputs.stream_digest(6, workload)


def test_served_mix_and_repeats():
    items = [inputs.serve_item(4, index) for index in range(200)]
    kinds = [kind for kind, _, _, _ in items]
    assert (kinds.count("novel"), kinds.count("repeat"), kinds.count("identical")) == (120, 60, 20)
    for index, (kind, pair, old, new) in enumerate(items):
        if kind == "repeat":
            assert pair < index and items[pair][0] == "novel"
            assert (old, new) == items[pair][2:]
        else:
            assert pair == index and (old == new) == (kind == "identical")


def test_shape_edits_change_the_tree():
    for seed in range(10):
        for index in range(len(inputs.SHAPES_CYCLE)):
            _, old, new = inputs.shapes_item(seed, index)
            assert old != new
        old, new = inputs.duplicates_pair(inputs.rng_for(seed, "t", 0), 10, 10, 10)
        values = {leaf.get("value") for group in new["children"] for leaf in group["children"]}
        assert len(values) == 2


def test_shapes_stay_within_a_sane_shape_limit():
    def depth_and_fanout(tree):
        children = tree.get("children", [])
        below = [depth_and_fanout(child) for child in children]
        return (1 + max((d for d, _ in below), default=0),
                max([len(children)] + [f for _, f in below]))

    for index in range(len(inputs.SHAPES_CYCLE)):
        _, old, new = inputs.shapes_item(1, index)
        for tree in (old, new):
            depth, fanout = depth_and_fanout(tree)
            assert depth <= 201 and fanout <= 1020


@pytest.mark.parametrize("workload", ["docs_cold", "shapes_adversarial"])
def test_traced_replay_matches_the_pipeline(workload):
    item, cycle = inputs.STREAMS[workload]
    pipeline, rec = DiffPipeline(), Recorder()
    for index in range(0, cycle, 5):
        _, old, new = item(2, index)
        assert traced_diff(rec, index, old, new)["text"] == diff_op(pipeline, old, new)[3]


def test_traced_served_replay_matches_the_pipeline():
    pipeline, rec, scripts = DiffPipeline(), Recorder(), {}
    for index in range(40):
        kind, _, old, new = inputs.serve_item(2, index)
        source = "cache" if kind == "repeat" else "computed"
        out = traced_request(rec, index, old, new, source, scripts)
        result = out["result"]
        assert result.source == ("digest" if kind == "identical" else source)
        if result.source != "digest":
            assert canonical(result.script, out["t1"], result.wrapped, result.dummy_id) == \
                in_process_canonical(pipeline, old, new)


def _tree_state():
    state = {}
    for folder, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__", ".pytest_cache", "out")]
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                state[path] = hashlib.sha256(handle.read()).hexdigest()
    return state


def test_a_run_leaves_the_checkout_untouched():
    before = _tree_state()
    _run("docs_cold", 0.5, 1)
    assert _tree_state() == before
