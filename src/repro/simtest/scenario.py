"""The scenario runner: a simulated cluster under virtual time.

This is deterministic simulation testing for the serve/cluster stack. The
topology is in-process — no sockets, no subprocesses — but the request
handling is the production code, not a model of it: every simulated
worker is a real :class:`~repro.serve.app.DiffServer` whose transport-free
core (routing, admission, deadlines, spans, error bodies) answers each
request and whose real :class:`~repro.service.engine.DiffEngine` runs the
pipeline on small seeded trees; the cluster forwards through the real
:class:`~repro.serve.router.ProxyCore` (affinity key, ring chain, failover,
``no_backend``); and the simulated client *is*
:class:`~repro.serve.client.DiffServiceClient` with only its socket
transport overridden — so the retry policy under test is the production
one, byte for byte. Only what belongs to transports and processes is
simulated: the virtual cost of a request, crashes and restarts, health
ticks, and the ``conn_refused`` / ``slow_response`` / ``worker_crash``
injection points.

A :class:`Scenario` is a scripted timeline (requests, kills, drains,
slot-occupancy, clock jumps) plus a seeded
:class:`~repro.simtest.faults.FaultPlan`. :func:`run_scenario` replays it
under a :class:`~repro.simtest.clock.SimClock`, checks the declarative
invariants after every step and at the end, and returns a
:class:`ScenarioResult` whose event log is byte-identical for a given
scenario + seed. :func:`shrink_plan` greedily removes faults while the
failure persists — the same minimization discipline as
:func:`repro.verify.fuzz.shrink_pair` — turning a 12-fault nightly seed
into a minimal repro.

Invariants (select per scenario via ``Scenario.invariants``):

``no_failure_with_replacement``
    A client-visible connection-type or no-backend failure while the ring
    held a live replacement (and the cluster was not draining) is a bug —
    failover or retries should have absorbed it.
``retry_discipline``
    Attempts never exceed ``1 + retries + connect_retries``; every backoff
    sleep respects the server's Retry-After floor (capped by
    ``max_retry_after``) and never exceeds ``max(backoff_cap,
    max_retry_after)``.
``drain_integrity``
    Requests first dispatched while draining never succeed; no admission
    slot is leaked (in-flight returns to exactly the occupied count after
    every step and at the end).
``metrics_conservation``
    Per worker incarnation, ``jobs_submitted == jobs_succeeded +
    jobs_timed_out + jobs_failed``; the cross-incarnation merge via the
    real :func:`~repro.service.metrics.merge_snapshots` preserves the
    sums; and workers report at least as many successes as clients saw.
``trace_complete``
    Every sampled 2xx request left a fully-closed, single-rooted, nested
    span tree (:func:`~repro.obs.export.validate_trace`).
``script_parity``
    Every 2xx ``/v1/diff`` script, after
    :func:`~repro.service.cache.canonicalize_script`, is byte-identical to
    :meth:`~repro.pipeline.DiffPipeline.run` on the same pair.
``convergence``
    Every scripted request eventually succeeded (retries absorbed all
    injected trouble).
``failures_only_while_ring_empty``
    Any failed request must have observed a moment with zero live workers.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.serialization import tree_from_dict, tree_to_dict
from ..editscript.script import EditScript
from ..obs.export import validate_trace
from ..obs.trace import Tracer
from ..pipeline import DiffConfig, DiffPipeline
from ..serve.app import DiffServer, ServeConfig, Ticket
from ..serve.client import DiffServiceClient, ServiceError
from ..serve.lifecycle import Lifecycle
from ..serve.protocol import HttpError, Response
from ..serve.router import HashRing, ProxyCore
from ..service.cache import ScriptCache, canonicalize_script, instantiate_script
from ..service.engine import DiffEngine
from ..service.metrics import merge_snapshots
from ..workload import DocumentSpec, MutationEngine, generate_document
from .clock import SimClock
from .events import EventLog
from .faults import FaultInjector, FaultPlan

#: Stride mixed into per-client rng seeds (mirrors verify.fuzz).
_SEED_STRIDE = 1_000_003

#: Shape of the small seeded documents every simulated request diffs, and
#: the edits between a request's old and new snapshot.
SIM_DOCUMENT = DocumentSpec(
    sections=2, paragraphs_per_section=2, sentences_per_paragraph=3,
    words_per_sentence=5,
)
SIM_EDITS = 3


def derive_rng(seed: int, name: str) -> random.Random:
    """A deterministic, platform-stable rng for one named participant."""
    return random.Random((seed * _SEED_STRIDE) ^ zlib.crc32(name.encode("utf-8")))


# ---------------------------------------------------------------------------
# Scripted timeline
# ---------------------------------------------------------------------------
@dataclass
class Step:
    """One timeline entry, executed when virtual time reaches ``at``."""

    at: float
    action: str  #: request | kill | restart | drain | occupy | jump
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Scenario:
    """A complete scripted run: topology, timeline, fault plan, invariants."""

    name: str
    seed: int = 0
    workers: int = 3
    replicas: int = 16
    queue_capacity: int = 8
    rate: float = 0.0
    burst: float = 10.0
    default_deadline_ms: float = 30_000.0
    service_time: float = 0.004
    hit_factor: float = 0.25  #: cache-hit service time multiplier
    cache_capacity: int = 64
    health_interval: float = 0.5
    backoff_base: float = 0.25
    backoff_cap: float = 2.0
    auto_restart: bool = True
    trace_fraction: float = 1.0  #: share of client requests traced
    client: Dict[str, Any] = field(default_factory=dict)  #: client kwargs
    steps: List[Step] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    invariants: Tuple[str, ...] = (
        "retry_discipline",
        "drain_integrity",
        "metrics_conservation",
        "trace_complete",
        "script_parity",
    )

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "workers": self.workers,
            "steps": len(self.steps),
            "faults": self.plan.describe() if self.plan else [],
            "invariants": list(self.invariants),
        }


@dataclass
class RequestRecord:
    """The client-side outcome of one scripted request."""

    index: int
    at: float
    client: str
    path: str
    doc: Optional[str]
    status: Optional[int] = None  #: final 2xx status, None on failure
    error_kind: Optional[str] = None  #: payload "error" of the failure
    error_status: Optional[int] = None
    attempts: int = 0
    sleeps: List[float] = field(default_factory=list)
    hints: List[Dict[str, Any]] = field(default_factory=list)
    worker: Optional[str] = None  #: X-Worker-Id that served the success
    script: Optional[Dict[str, Any]] = None  #: the served script of a 2xx
    trace_id: Optional[str] = None  #: minted when the request was sampled
    draining_at_start: bool = False
    live_at_end: int = 0
    min_live_seen: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.error_kind is not None


# ---------------------------------------------------------------------------
# Simulated topology
# ---------------------------------------------------------------------------
def run_inline(coroutine: Any) -> Any:
    """Run a coroutine whose awaits all complete inline (no event loop)."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("a simulated transport suspended on an event loop")


class SimWorker:
    """One worker process: a real :class:`~repro.serve.app.DiffServer`.

    Each incarnation is a fresh server (admission, metrics, a real
    :class:`~repro.service.engine.DiffEngine` over a cold
    :class:`~repro.service.cache.ScriptCache` carrying the fault injector)
    on the shared :class:`SimClock`; requests go through its
    transport-free core (``begin`` / ``compute`` / ``finish``) inline, so
    every answer is the production one and every 2xx script comes from the
    real pipeline. What stays here is what belongs to the process: the
    virtual cost of a request, the ``conn_refused`` / ``slow_response`` /
    ``worker_crash`` injection points, and crashes. A crash retires the
    incarnation's metrics (occupied slots counted as ``jobs_failed``:
    that work dies with the process) for the conservation invariant.
    """

    def __init__(self, worker_id: str, spec: Scenario, clock: SimClock,
                 faults: Optional[FaultInjector], log: EventLog,
                 tracer: Optional[Tracer] = None) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.clock = clock
        self.faults = faults
        self.log = log
        self.tracer = tracer
        self.state = "up"  #: up | crashed
        self.incarnation = 0
        self.occupied = 0  #: slots held by scripted occupiers
        self.occupier_successes = 0  #: released slots, across incarnations
        self.retired: List[Dict[str, Any]] = []  #: snapshots of dead incarnations
        self._fresh_incarnation()

    def _fresh_incarnation(self) -> None:
        spec = self.spec
        engine = DiffEngine(
            workers=1,
            cache=ScriptCache(capacity=spec.cache_capacity, faults=self.faults),
            tracer=self.tracer,
        )
        self.server = DiffServer(
            ServeConfig(
                queue_capacity=spec.queue_capacity,
                rate=spec.rate,
                burst=spec.burst,
                deadline_ms=spec.default_deadline_ms,
            ),
            engine=engine,
            clock=self.clock,
        )
        self.occupied = 0

    # -- lifecycle -----------------------------------------------------
    def crash(self) -> None:
        if self.state == "crashed":
            return
        if self.occupied:
            # Occupier work dies with the process: terminally failed. Real
            # jobs already closed their own accounting in the engine.
            self.server.metrics.incr("jobs_failed", self.occupied)
        self.state = "crashed"
        self.retired.append(self.snapshot())
        self.log.emit(
            "worker_crash", self.clock.monotonic(),
            worker=self.worker_id, incarnation=self.incarnation,
            lost_in_flight=self.server.admission.in_flight,
        )

    def restart(self) -> None:
        self.incarnation += 1
        self._fresh_incarnation()
        self.state = "up"
        self.log.emit(
            "worker_up", self.clock.monotonic(),
            worker=self.worker_id, incarnation=self.incarnation,
        )

    def snapshot(self) -> Dict[str, Any]:
        return self.server.metrics_payload()

    # -- scripted occupancy (stands in for concurrent long jobs) -------
    def occupy(self, slots: int, hold_s: float) -> int:
        """Grab *slots* admission slots, releasing them after ``hold_s``."""
        taken = 0
        server = self.server
        for index in range(slots):
            decision = server.admission.try_admit(f"occupier-{self.worker_id}-{index}")
            if not decision.admitted:
                break
            taken += 1
            self.occupied += 1
            server.metrics.incr("jobs_submitted")

            def _release() -> None:
                if self.server is not server or self.state == "crashed":
                    return  # the crash already accounted for this slot
                self.occupied -= 1
                self.occupier_successes += 1
                server.metrics.incr("jobs_succeeded")
                server.admission.release()

            self.clock.call_later(hold_s, _release)
        return taken

    # -- request handling (the process around the production core) -----
    def handle(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """One leg: the production core answers, the process adds cost and faults."""
        if self.state != "up":
            raise ConnectionRefusedError(111, f"{self.worker_id} is down")
        faults = self.faults
        if faults is not None and faults.fire("conn_refused", target=self.worker_id):
            raise ConnectionRefusedError(111, f"injected conn_refused at {self.worker_id}")
        server = self.server
        ticket = server.begin(method, path, headers, body, peer="sim")
        if not isinstance(ticket, Ticket):
            return ticket[0], ticket[1]
        outcome = server.compute(ticket)
        cost = self.spec.service_time
        if isinstance(outcome, list) and all(r.source == "cache" for r in outcome):
            cost *= self.spec.hit_factor
        if faults is not None:
            slow = faults.fire("slow_response", target=self.worker_id)
            cost += slow.magnitude if slow is not None else 0.0
        if faults is not None and faults.fire("worker_crash", target=self.worker_id):
            # Die halfway through the request; the response is lost.
            self.clock.sleep(cost * 0.5)
            self.crash()
        else:
            # Timers may fire inside this sleep (scripted kills, drains,
            # occupier releases): the process may not survive it.
            self.clock.sleep(cost)
        if self.server is not server or self.state != "up":
            server.release(ticket, "lost")
            raise ConnectionResetError(104, f"{self.worker_id} crashed mid-request")
        if ticket.deadline.expired:
            outcome = None  # the transport's wait gave up first
        status, payload, _ = server.finish(ticket, outcome)
        return status, payload


class SimCluster(ProxyCore):
    """The sim's router: the production :class:`~repro.serve.router.ProxyCore`
    with in-process legs to :class:`SimWorker` s.

    What stays here is the supervisor's job: suspect feedback pulling a
    crashed worker off the ring and arming a capped-backoff restart timer
    (a ``SimClock`` timer). A scripted ``kill`` crashes the process
    immediately but removes it from the ring only when *noticed* — by a
    failed leg or by the next health tick — preserving the detection
    window that makes failover scenarios interesting.
    """

    def __init__(self, spec: Scenario, clock: SimClock,
                 faults: Optional[FaultInjector], log: EventLog,
                 tracer: Optional[Tracer] = None) -> None:
        self.spec = spec
        self.log = log
        self.workers: Dict[str, SimWorker] = {}
        ring = HashRing(replicas=spec.replicas)
        for index in range(spec.workers):
            worker_id = f"w{index}"
            self.workers[worker_id] = SimWorker(
                worker_id, spec, clock, faults, log, tracer=tracer
            )
            ring.add(worker_id)
        super().__init__(
            ring, self.workers, Lifecycle(clock=clock), self._failed_leg,
            clock=clock, tracer=tracer,
        )
        self._min_live_probe: Optional[List[int]] = None

    def live_count(self) -> int:
        return len(self.ring)

    def in_flight_total(self) -> int:
        return sum(
            w.server.admission.in_flight
            for w in self.workers.values()
            if w.state == "up"
        )

    def occupied_total(self) -> int:
        return sum(w.occupied for w in self.workers.values() if w.state == "up")

    # -- worker lifecycle ----------------------------------------------
    def kill(self, worker_id: str) -> None:
        self.workers[worker_id].crash()
        # Detection: the next health tick notices the corpse even if no
        # request trips over it first.
        self.clock.call_later(self.spec.health_interval, self.suspect, worker_id)

    def _failed_leg(self, worker_id: str) -> None:
        self.log.emit("failover", self.clock.monotonic(), worker=worker_id)
        self.suspect(worker_id)

    def suspect(self, worker_id: str) -> None:
        """Health-tick and failed-leg feedback (the supervisor's path)."""
        if self.workers[worker_id].state == "crashed" and worker_id in self.ring:
            self._mark_down(worker_id)

    def _mark_down(self, worker_id: str) -> None:
        self.ring.remove(worker_id)
        self._count("workers_down")
        self.log.emit(
            "worker_down", self.clock.monotonic(),
            worker=worker_id, live=self.ring.members(),
        )
        self._note_live()
        if self.spec.auto_restart:
            worker = self.workers[worker_id]
            backoff = min(
                self.spec.backoff_cap,
                self.spec.backoff_base * (2.0 ** min(worker.incarnation, 16)),
            )
            self.clock.call_later(backoff, self._restart, worker_id)

    def _restart(self, worker_id: str) -> None:
        worker = self.workers[worker_id]
        if self.lifecycle.draining or worker.state != "crashed":
            return
        worker.restart()
        self.ring.add(worker_id)
        self._count("restarts")

    def restart_now(self, worker_id: str) -> None:
        """Scripted restart (timeline action), bypassing the backoff."""
        worker = self.workers[worker_id]
        if worker.state == "crashed":
            if worker_id in self.ring:
                self.ring.remove(worker_id)
            worker.restart()
            self.ring.add(worker_id)
            self._count("restarts")

    def drain(self) -> None:
        self.lifecycle.draining = True
        self.log.emit(
            "drain_start", self.clock.monotonic(), in_flight=self.in_flight_total()
        )

    # -- dispatch: the proxy core with in-process legs -----------------
    def dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Response:
        self._count("requests")
        self._note_live()

        async def send(
            worker_id: str, worker: SimWorker, leg_headers: Dict[str, str]
        ) -> Tuple[int, Dict[str, Any]]:
            return worker.handle(method, path, leg_headers, body)

        try:
            return run_inline(self.forward(path, headers, body, send))
        except HttpError as exc:
            return exc.response()

    def _note_live(self) -> None:
        if self._min_live_probe is not None:
            self._min_live_probe[0] = min(self._min_live_probe[0], len(self.ring))

    def all_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Every incarnation's metrics, retired and live (``w0@0``, ``w0``…)."""
        dumps: Dict[str, Dict[str, Any]] = {}
        for worker_id, worker in sorted(self.workers.items()):
            for index, retired in enumerate(worker.retired):
                dumps[f"{worker_id}@{index}"] = retired
            if worker.state == "up":
                dumps[worker_id] = worker.snapshot()
        return dumps


class SimServiceClient(DiffServiceClient):
    """The production client with its socket transport swapped for dispatch.

    Everything above ``request_once`` — backoff, jitter, Retry-After
    floors, the separate connection-refused budget — is inherited
    unchanged; the client-leg injection points fire here exactly where the
    real transport checks them.
    """

    def __init__(self, cluster: SimCluster, clock: SimClock, name: str,
                 rng: random.Random, faults: Optional[FaultInjector] = None,
                 **kwargs: Any) -> None:
        super().__init__(
            host="sim", port=0, client_id=name, clock=clock, rng=rng, **kwargs
        )
        self._cluster = cluster
        self._leg_faults = faults
        self.attempt_log: List[Dict[str, Any]] = []

    def request_once(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        trace: Optional[Tuple[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        target = f"{self.host}:{self.port}"
        if self._leg_faults is not None:
            if self._leg_faults.fire("conn_refused", target=target):
                self.attempt_log.append({"exc": "ConnectionRefusedError"})
                raise ConnectionRefusedError(111, f"injected conn_refused to {target}")
        headers = {"accept": "application/json"}
        if self.client_id is not None:
            headers["x-client-id"] = self.client_id
        if trace is not None:
            # The sim transport speaks pre-lowercased headers.
            headers["x-trace-id"] = trace[0]
            headers["x-span-id"] = trace[1]
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        status, decoded, extra = self._cluster.dispatch(method, path, headers, body)
        if self._leg_faults is not None:
            # After dispatch: the worker did the work, the response is lost.
            if self._leg_faults.fire("conn_reset_mid_body", target=target):
                self.attempt_log.append({"exc": "ConnectionResetError"})
                raise ConnectionResetError(104, f"injected reset from {target}")
            fault = self._leg_faults.fire("slow_response", target=target)
            if fault is not None:
                self._sleep(fault.magnitude)
        self.attempt_log.append({
            "status": status,
            "hint": self._retry_after_hint(decoded, extra),
            "worker": extra.get("X-Worker-Id"),
        })
        return status, decoded, dict(extra)


# ---------------------------------------------------------------------------
# Result + runner
# ---------------------------------------------------------------------------
@dataclass
class ScenarioResult:
    name: str
    seed: int
    violations: List[str]
    records: List[RequestRecord]
    log: EventLog
    stats: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return not self.violations

    def event_jsonl(self) -> str:
        return self.log.to_jsonl()

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "requests": len(self.records),
            "failed_requests": sum(1 for r in self.records if r.failed),
            "events": len(self.log),
            "stats": self.stats,
        }


class _Run:
    """Mutable state shared by the runner and the invariants."""

    def __init__(self, spec: Scenario) -> None:
        self.spec = spec
        self.clock = SimClock()
        self.log = EventLog()
        self.injector = (
            FaultInjector(
                plan=spec.plan.clone(), clock=self.clock, log=self.log
            )
            if spec.plan is not None
            else None
        )
        # One tracer for the whole sim: client, router leg, and every
        # worker record into it, and each closed span becomes an event —
        # so a seed's span tree is part of the byte-identical log.
        self.tracer: Optional[Tracer] = None
        if spec.trace_fraction > 0.0:
            self.tracer = Tracer(
                fraction=spec.trace_fraction,
                capacity=65536,
                clock=self.clock,
                rng=derive_rng(spec.seed, "tracer"),
                on_close=lambda record: self.log.emit(
                    "span", self.clock.monotonic(), record=record
                ),
            )
        self.cluster = SimCluster(
            spec, self.clock, self.injector, self.log, tracer=self.tracer
        )
        self.clients: Dict[str, SimServiceClient] = {}
        self.records: List[RequestRecord] = []
        self.violations: List[str] = []
        self.drained_at: Optional[float] = None
        self._pairs: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}

    def pair(self, doc: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """The seeded ``(old, new)`` snapshot pair (wire dicts) for *doc*."""
        pair = self._pairs.get(doc)
        if pair is None:
            rng = derive_rng(self.spec.seed, f"doc:{doc}")
            old = generate_document(rng.getrandbits(32), SIM_DOCUMENT)
            new = MutationEngine(rng.getrandbits(32)).mutate(old, SIM_EDITS).tree
            pair = self._pairs[doc] = (tree_to_dict(old), tree_to_dict(new))
        return pair

    def client(self, name: str) -> SimServiceClient:
        client = self.clients.get(name)
        if client is None:
            client = SimServiceClient(
                self.cluster,
                self.clock,
                name,
                rng=derive_rng(self.spec.seed, name),
                faults=self.injector,
                tracer=self.tracer,
                **self.spec.client,
            )
            self.clients[name] = client
        return client


def run_scenario(spec: Scenario) -> ScenarioResult:
    """Replay *spec* under virtual time; deterministic per (scenario, seed)."""
    run = _Run(spec)
    clock, cluster, log = run.clock, run.cluster, run.log
    log.emit("scenario_start", 0.0, **spec.describe())

    for index, step in enumerate(sorted(spec.steps, key=lambda s: s.at)):
        if run.injector is not None:
            jump = run.injector.fire("clock_jump")
            if jump is not None:
                clock.jump(jump.magnitude)
                log.emit("clock_jump", clock.monotonic(), magnitude=jump.magnitude)
        if step.at > clock.monotonic():
            clock.sleep(step.at - clock.monotonic())
        log.emit("step", clock.monotonic(), index=index, action=step.action,
                 **{k: v for k, v in step.kwargs.items() if k != "payload"})
        _execute_step(run, index, step)
        _check_step_invariants(run, index, step)

    # Let restart backoffs and occupier releases play out.
    clock.run_until_idle()
    for name in spec.invariants:
        checker = INVARIANTS.get(name)
        if checker is None:
            run.violations.append(f"unknown invariant {name!r}")
            continue
        run.violations.extend(checker(run))

    stats = {
        "cluster": dict(sorted(cluster.counters.items())),
        "live_workers": cluster.ring.members(),
        "virtual_elapsed_s": round(clock.elapsed, 9),
        "timers_fired": clock.fired,
        "faults_fired": len(run.injector.fired) if run.injector else 0,
        "trace": run.tracer.stats() if run.tracer is not None else None,
        "cache": {
            worker_id: worker.server.engine.cache.stats()
            for worker_id, worker in sorted(cluster.workers.items())
        },
        "merged_counters": merge_snapshots(cluster.all_snapshots())["counters"],
    }
    log.emit(
        "scenario_end", clock.monotonic(),
        ok=not run.violations, violations=run.violations,
    )
    return ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        violations=run.violations,
        records=run.records,
        log=log,
        stats=stats,
    )


def _execute_step(run: _Run, index: int, step: Step) -> None:
    cluster, clock = run.cluster, run.clock
    kwargs = step.kwargs
    if step.action == "request":
        _run_request(run, index, step)
    elif step.action == "kill":
        cluster.kill(kwargs["worker"])
    elif step.action == "restart":
        cluster.restart_now(kwargs["worker"])
    elif step.action == "drain":
        cluster.drain()
        run.drained_at = clock.monotonic()
    elif step.action == "occupy":
        taken = cluster.workers[kwargs["worker"]].occupy(
            kwargs.get("slots", 1), kwargs.get("hold_s", 1.0)
        )
        run.log.emit(
            "occupy", clock.monotonic(), worker=kwargs["worker"], taken=taken
        )
    elif step.action == "jump":
        clock.jump(kwargs.get("seconds", 0.0))
        run.log.emit("clock_jump", clock.monotonic(),
                     magnitude=kwargs.get("seconds", 0.0))
    else:
        raise ValueError(f"unknown step action {step.action!r}")


def _run_request(run: _Run, index: int, step: Step) -> None:
    kwargs = step.kwargs
    client = run.client(kwargs.get("client", "c0"))
    path = kwargs.get("path", "/v1/diff")
    doc = str(kwargs.get("doc"))
    old, new = run.pair(doc)
    payload: Dict[str, Any] = {"id": doc, "old": old, "new": new}
    if kwargs.get("deadline_ms") is not None:
        payload["deadline_ms"] = kwargs["deadline_ms"]

    record = RequestRecord(
        index=index,
        at=run.clock.monotonic(),
        client=client.client_id or "c0",
        path=path,
        doc=doc,
        draining_at_start=run.cluster.lifecycle.draining,
    )
    sleeps_before = len(client.sleeps)
    attempts_before = len(client.attempt_log)
    probe = [run.cluster.live_count()]
    run.cluster._min_live_probe = probe
    try:
        decoded = client.request("POST", path, payload)
    except ServiceError as exc:
        record.error_kind = exc.payload.get("error", "error")
        record.error_status = exc.status
        record.attempts = exc.attempts
    else:
        record.status = 200
        record.worker = client.attempt_log[-1].get("worker")
        record.script = decoded.get("script")
        record.attempts = len(client.attempt_log) - attempts_before
    finally:
        record.trace_id = client.last_trace_id
        run.cluster._min_live_probe = None
    record.sleeps = client.sleeps[sleeps_before:]
    record.hints = client.attempt_log[attempts_before:]
    record.live_at_end = run.cluster.live_count()
    record.min_live_seen = probe[0]
    run.records.append(record)
    run.log.emit(
        "request_end", run.clock.monotonic(),
        index=index, client=record.client, doc=doc,
        status=record.status, error=record.error_kind,
        attempts=record.attempts, worker=record.worker,
        sleeps=record.sleeps, trace=record.trace_id,
    )


def _check_step_invariants(run: _Run, index: int, step: Step) -> None:
    """Checks that must hold at every step boundary, not just at the end."""
    cluster = run.cluster
    in_flight = cluster.in_flight_total()
    occupied = cluster.occupied_total()
    if in_flight != occupied:
        run.violations.append(
            f"step {index} ({step.action}): leaked admission slot — "
            f"in_flight={in_flight} but occupied={occupied}"
        )


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------
def _inv_no_failure_with_replacement(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        if not record.failed or record.draining_at_start:
            continue
        if record.error_kind not in ("connection", "no_backend", "unreachable"):
            continue  # 4xx/504/draining failures are judged by other invariants
        if record.live_at_end >= 1 and not run.cluster.lifecycle.draining:
            out.append(
                f"request {record.index} ({record.doc}): client-visible "
                f"{record.error_kind} failure with {record.live_at_end} live "
                f"worker(s) on the ring"
            )
    return out


def _inv_retry_discipline(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        client = run.clients[record.client]
        budget = 1 + client.retries + client.connect_retries
        if record.attempts > budget:
            out.append(
                f"request {record.index}: {record.attempts} attempts exceeds "
                f"budget {budget}"
            )
        ceiling = max(client.backoff_cap, client.max_retry_after) + 1e-9
        for position, delay in enumerate(record.sleeps):
            if delay > ceiling:
                out.append(
                    f"request {record.index}: sleep {position} = {delay:.3f}s "
                    f"exceeds ceiling {ceiling:.3f}s"
                )
            attempt = record.hints[position] if position < len(record.hints) else {}
            hint = attempt.get("hint", 0.0) or 0.0
            floor = min(hint, client.max_retry_after)
            if floor > 0 and delay + 1e-9 < floor:
                out.append(
                    f"request {record.index}: sleep {position} = {delay:.3f}s "
                    f"undercuts Retry-After floor {floor:.3f}s"
                )
    return out


def _inv_drain_integrity(run: _Run) -> List[str]:
    out = []
    in_flight = run.cluster.in_flight_total()
    if in_flight != run.cluster.occupied_total():
        out.append(f"drain left {in_flight} request(s) in flight at scenario end")
    for record in run.records:
        if record.draining_at_start and record.status == 200:
            out.append(
                f"request {record.index} was first dispatched while draining "
                f"but succeeded"
            )
    return out


def _inv_metrics_conservation(run: _Run) -> List[str]:
    out = []
    snapshots = run.cluster.all_snapshots()
    totals = {"jobs_submitted": 0, "jobs_succeeded": 0,
              "jobs_timed_out": 0, "jobs_failed": 0}
    for tag, snap in snapshots.items():
        counters = snap["counters"]
        submitted = counters.get("jobs_submitted", 0)
        closed = (
            counters.get("jobs_succeeded", 0)
            + counters.get("jobs_timed_out", 0)
            + counters.get("jobs_failed", 0)
        )
        if submitted != closed:
            out.append(
                f"{tag}: jobs_submitted={submitted} != "
                f"succeeded+timed_out+failed={closed}"
            )
        for name in totals:
            totals[name] += counters.get(name, 0)
    merged = merge_snapshots(snapshots)["counters"]
    for name, expected in totals.items():
        if merged.get(name, 0) != expected:
            out.append(
                f"merge_snapshots lost counts: {name} merged={merged.get(name, 0)} "
                f"expected={expected}"
            )
    client_successes = sum(
        1 for r in run.records if r.status == 200 and r.path == "/v1/diff"
    )
    worker_successes = totals["jobs_succeeded"] - _occupier_successes(run)
    if worker_successes < client_successes:
        out.append(
            f"workers report {worker_successes} successes but clients saw "
            f"{client_successes}"
        )
    return out


def _occupier_successes(run: _Run) -> int:
    # Occupier jobs are pure admission ballast; their successes are the
    # released slots (crashed occupiers were converted to jobs_failed).
    return sum(w.occupier_successes for w in run.cluster.workers.values())


def _inv_convergence(run: _Run) -> List[str]:
    return [
        f"request {record.index} ({record.doc}) failed: "
        f"{record.error_kind} (HTTP {record.error_status}) "
        f"after {record.attempts} attempts"
        for record in run.records
        if record.failed
    ]


def _inv_trace_complete(run: _Run) -> List[str]:
    """Every 2xx request that was sampled left a fully-closed span tree."""
    out = []
    if run.tracer is None:
        return out
    for record in run.records:
        if record.status != 200 or record.trace_id is None:
            continue
        open_count = run.tracer.open_count(record.trace_id)
        if open_count:
            out.append(
                f"request {record.index}: trace {record.trace_id} still has "
                f"{open_count} open span(s) after a 2xx response"
            )
            continue
        spans = run.tracer.trace(record.trace_id)
        if not spans:
            out.append(
                f"request {record.index}: sampled trace {record.trace_id} "
                f"recorded no spans"
            )
            continue
        for problem in validate_trace(spans):
            out.append(
                f"request {record.index} (trace {record.trace_id}): {problem}"
            )
    return out


def _canonical(script: EditScript, old: Any, wrapped: bool, dummy_id: Any) -> str:
    payload = canonicalize_script(script, old, wrapped, dummy_id)
    return json.dumps([payload["records"], payload["wrapped"]], sort_keys=True)


def _inv_script_parity(run: _Run) -> List[str]:
    """Every 2xx ``/v1/diff`` script is the in-process pipeline's script."""
    out = []
    config = ServeConfig()
    pipeline = DiffPipeline(DiffConfig(
        algorithm=config.algorithm, match=config.match, postprocess=config.postprocess
    ))
    expected: Dict[str, str] = {}
    for record in run.records:
        if record.status != 200 or record.path != "/v1/diff":
            continue
        old_wire, new_wire = run.pair(record.doc)
        old = tree_from_dict(old_wire)
        if record.doc not in expected:
            result = pipeline.run(old, tree_from_dict(new_wire))
            expected[record.doc] = _canonical(
                result.script, old, result.edit.wrapped, result.edit.dummy_t1_id
            )
        served = record.script or {}
        wrapped = bool(served.get("wrapped"))
        dummy_id = None
        if wrapped:
            # The service binds a wrapped script's dummy root to a fresh id.
            dummy_id = instantiate_script({"records": [], "wrapped": True}, old)[2]
        try:
            got = _canonical(
                EditScript.from_dicts(served.get("records", [])), old, wrapped, dummy_id
            )
        except Exception as exc:  # an unreadable script is a parity failure
            got = f"{type(exc).__name__}: {exc}"
        if got != expected[record.doc]:
            out.append(
                f"request {record.index} ({record.doc}): served script differs "
                f"from the in-process pipeline's"
            )
    return out


def _inv_failures_only_while_ring_empty(run: _Run) -> List[str]:
    out = []
    for record in run.records:
        if record.failed and (record.min_live_seen or 0) > 0:
            out.append(
                f"request {record.index} failed but never saw an empty ring "
                f"(min live = {record.min_live_seen})"
            )
    return out


INVARIANTS: Dict[str, Callable[[_Run], List[str]]] = {
    "no_failure_with_replacement": _inv_no_failure_with_replacement,
    "retry_discipline": _inv_retry_discipline,
    "drain_integrity": _inv_drain_integrity,
    "metrics_conservation": _inv_metrics_conservation,
    "trace_complete": _inv_trace_complete,
    "script_parity": _inv_script_parity,
    "convergence": _inv_convergence,
    "failures_only_while_ring_empty": _inv_failures_only_while_ring_empty,
}


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------
def shrink_plan(
    spec: Scenario,
    failing: Optional[Callable[[ScenarioResult], bool]] = None,
) -> Tuple[Scenario, ScenarioResult]:
    """Greedily minimize ``spec.plan`` while the scenario keeps failing.

    Re-runs the scenario without one fault at a time (each run fully fresh
    and deterministic) and keeps every removal that preserves the failure —
    the same discipline as :func:`repro.verify.fuzz.shrink_pair`. Returns
    the minimized scenario and its (still failing) result; a passing input
    comes back untouched.
    """
    is_failing = failing if failing is not None else (lambda result: not result.ok)
    result = run_scenario(spec)
    if not is_failing(result) or spec.plan is None:
        return spec, result
    plan = spec.plan.clone()
    progress = True
    while progress and len(plan) > 0:
        progress = False
        for index in range(len(plan)):
            candidate_plan = plan.without(index)
            candidate = _with_plan(spec, candidate_plan)
            trial = run_scenario(candidate)
            if is_failing(trial):
                plan = candidate_plan
                result = trial
                progress = True
                break
    final = _with_plan(spec, plan)
    return final, run_scenario(final)


def _with_plan(spec: Scenario, plan: FaultPlan) -> Scenario:
    import dataclasses

    return dataclasses.replace(spec, plan=plan.clone())
