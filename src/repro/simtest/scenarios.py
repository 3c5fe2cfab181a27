"""The named scenario matrix behind ``repro-diff simtest``.

Each builder returns a :class:`~repro.simtest.scenario.Scenario` whose
*outcome* is seed-independent — the seed varies every jitter draw the
client makes, but the invariants must hold for **every** seed, which is
exactly what the nightly multi-seed sweep checks. The timelines are fixed;
only the retry schedules wander.

The matrix covers the failure modes the serve stack claims to absorb:

``worker_crash_keepalive``
    The affinity worker is killed *mid-request* (a ``worker_crash`` fault
    fires inside its service time); the proxy core's failover replays
    on the ring successor and the client never sees the crash. The worker
    restarts on backoff and later requests succeed.
``storm_429``
    A single worker behind a tight token bucket and a short in-flight
    queue (pre-loaded by scripted occupiers) answers a burst from three
    clients with 429s; the production retry policy — Retry-After floors
    plus full jitter — must converge every request.
``deadline_drain``
    Requests carrying a 50 ms deadline against a 200 ms service time burn
    their budget and fail definitively with 504; the cluster then drains,
    and post-drain requests are refused without ever succeeding.
``failover_chain``
    Every worker is killed at once. In-flight dispatches walk the whole
    ring chain, exhaust it (503 ``no_backend``), and the client's backoff
    outlives the capped restart timers — the request converges once the
    ring repopulates.
``cache_corruption``
    A ``corrupt_cache_entry`` fault poisons a warm entry; the cache drops
    it and misses, the worker recomputes, and nothing user-visible fails.
``clock_jump``
    Virtual time leaps forward 45 s across a crash-detection window;
    skipped health and restart timers fire late rather than never, and the
    cluster still recovers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .faults import Fault, FaultPlan
from .scenario import Scenario, ScenarioResult, Step, run_scenario


def _requests(
    ats: Iterable[float], doc: str, client: str = "c0", **kwargs: object
) -> List[Step]:
    return [
        Step(at, "request", {"client": client, "doc": doc, **kwargs}) for at in ats
    ]


def _worker_crash_keepalive(seed: int) -> Scenario:
    # One client, one document, so affinity pins every request to the same
    # worker — the keep-alive pattern. The crash fault fires inside the
    # second request's service time, on whichever worker owns the doc.
    steps = _requests([0.1, 1.0, 1.5, 2.0, 4.0], doc="pair-keepalive")
    return Scenario(
        name="worker_crash_keepalive",
        seed=seed,
        workers=3,
        service_time=0.05,
        steps=steps,
        plan=FaultPlan(faults=[Fault(point="worker_crash", at=0.9, hits=1)]),
        invariants=(
            "no_failure_with_replacement",
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "convergence",
            "script_parity",
        ),
    )


def _storm_429(seed: int) -> Scenario:
    # A single worker, two admission slots pre-held by occupiers, and a
    # 2 tokens/s per-client limit: the opening burst is mostly 429s and
    # convergence rests entirely on the retry discipline under test.
    steps: List[Step] = [Step(0.05, "occupy", {"worker": "w0", "slots": 2,
                                               "hold_s": 0.4})]
    for index in range(12):
        steps.append(
            Step(
                0.1 + index * 0.01,
                "request",
                {"client": f"c{index % 3}", "doc": f"storm-{index}"},
            )
        )
    return Scenario(
        name="storm_429",
        seed=seed,
        workers=1,
        queue_capacity=2,
        rate=2.0,
        burst=2.0,
        service_time=0.01,
        client={"retries": 8},
        steps=steps,
        invariants=(
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "convergence",
            "script_parity",
        ),
    )


def _deadline_drain(seed: int) -> Scenario:
    # 50 ms budgets against 200 ms of work: definitive 504s (retried, then
    # surfaced). The drain then flips mid-timeline; the generous-deadline
    # request admitted before it completes, the ones after never succeed.
    steps = [
        Step(0.1, "request", {"client": "c0", "doc": "dl-ok"}),
        Step(0.5, "request", {"client": "c0", "doc": "dl-tight",
                              "deadline_ms": 50.0}),
        Step(3.0, "request", {"client": "c1", "doc": "dl-pre-drain"}),
        Step(3.5, "drain", {}),
        Step(3.6, "request", {"client": "c0", "doc": "dl-post-drain"}),
        Step(4.0, "request", {"client": "c1", "doc": "dl-post-drain-2"}),
    ]
    return Scenario(
        name="deadline_drain",
        seed=seed,
        workers=2,
        service_time=0.2,
        client={"retries": 3},
        steps=steps,
        invariants=(
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "script_parity",
        ),
    )


def _failover_chain(seed: int) -> Scenario:
    # Phase 1: one worker dies, the ring absorbs it. Phase 2: every worker
    # dies at once — the dispatch walks and exhausts the whole chain, and
    # only the restart timers bring the answer back.
    steps = [
        Step(0.1, "request", {"client": "c0", "doc": "chain-a"}),
        Step(0.5, "kill", {"worker": "w0"}),
        Step(0.6, "request", {"client": "c0", "doc": "chain-a"}),
        Step(0.7, "request", {"client": "c0", "doc": "chain-b"}),
        Step(2.0, "kill", {"worker": "w0"}),
        Step(2.0, "kill", {"worker": "w1"}),
        Step(2.0, "kill", {"worker": "w2"}),
        Step(2.1, "request", {"client": "c1", "doc": "chain-c"}),
        Step(6.0, "request", {"client": "c0", "doc": "chain-a"}),
    ]
    return Scenario(
        name="failover_chain",
        seed=seed,
        workers=3,
        service_time=0.02,
        client={"retries": 6},
        steps=steps,
        invariants=(
            "no_failure_with_replacement",
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "convergence",
            "failures_only_while_ring_empty",
            "script_parity",
        ),
    )


def _cache_corruption(seed: int) -> Scenario:
    # Repeat one document on a single worker: miss, then a poisoned hit
    # (dropped + recomputed), then clean hits. Client-invisible by design.
    steps = _requests([0.1, 0.5, 1.0, 1.5, 2.0], doc="pair-cached")
    return Scenario(
        name="cache_corruption",
        seed=seed,
        workers=1,
        service_time=0.02,
        steps=steps,
        plan=FaultPlan(
            faults=[Fault(point="corrupt_cache_entry", at=0.0, hits=1)]
        ),
        invariants=(
            "no_failure_with_replacement",
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "convergence",
            "script_parity",
        ),
    )


def _clock_jump(seed: int) -> Scenario:
    # A worker dies, and before its health/restart timers run, virtual
    # time leaps 45 s (suspend/resume). The skipped timers fire late, the
    # rate limiter refills capped at burst, and requests still converge.
    steps = [
        Step(0.1, "request", {"client": "c0", "doc": "jump-a"}),
        Step(1.5, "kill", {"worker": "w0"}),
        Step(1.7, "request", {"client": "c0", "doc": "jump-b"}),
        Step(1.8, "request", {"client": "c1", "doc": "jump-c"}),
        Step(1.9, "request", {"client": "c0", "doc": "jump-a"}),
    ]
    return Scenario(
        name="clock_jump",
        seed=seed,
        workers=2,
        rate=1.0,
        burst=2.0,
        service_time=0.02,
        client={"retries": 6},
        steps=steps,
        plan=FaultPlan(
            faults=[Fault(point="clock_jump", at=1.6, hits=1, magnitude=45.0)]
        ),
        invariants=(
            "no_failure_with_replacement",
            "retry_discipline",
            "drain_integrity",
            "metrics_conservation",
            "convergence",
            "script_parity",
        ),
    )


#: Name → builder. Keys are the ``--scenario`` choices of the CLI.
SCENARIOS = {
    "worker_crash_keepalive": _worker_crash_keepalive,
    "storm_429": _storm_429,
    "deadline_drain": _deadline_drain,
    "failover_chain": _failover_chain,
    "cache_corruption": _cache_corruption,
    "clock_jump": _clock_jump,
}


def build_scenario(
    name: str, seed: int = 0, trace_fraction: Optional[float] = None
) -> Scenario:
    """Instantiate one named scenario for *seed*.

    ``trace_fraction`` overrides the scenario's sampling rate; whenever
    tracing is on, the ``trace_complete`` invariant rides along so every
    2xx request must leave a fully-closed span tree.
    """
    import dataclasses

    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    spec = builder(seed)
    if trace_fraction is not None:
        spec = dataclasses.replace(spec, trace_fraction=trace_fraction)
    if spec.trace_fraction > 0.0 and "trace_complete" not in spec.invariants:
        spec = dataclasses.replace(
            spec, invariants=spec.invariants + ("trace_complete",)
        )
    return spec


def run_matrix(
    seed: int = 0, names: Optional[Iterable[str]] = None
) -> Dict[str, ScenarioResult]:
    """Run the full matrix (or *names*) at one seed; deterministic output."""
    selected = sorted(SCENARIOS) if names is None else list(names)
    return {name: run_scenario(build_scenario(name, seed)) for name in selected}
