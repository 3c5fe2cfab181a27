"""The diff service's worker: a transport-free core and its asyncio shell.

A deliberately small, stdlib-only HTTP server (no frameworks, matching the
repo's no-new-runtime-deps rule) that puts :class:`repro.service.DiffEngine`
on the network:

========  ==============  ====================================================
method    path            behavior
========  ==============  ====================================================
POST      ``/v1/diff``    diff one ``{"old": ..., "new": ...}`` snapshot pair
POST      ``/v1/batch``   diff a ``{"pairs": [...]}`` array in one request
POST      ``/v1/verify``  run the conformance-oracle battery on one pair
GET       ``/healthz``    liveness + draining state (never admission-gated)
GET       ``/metrics``    deterministic JSON snapshot of ServiceMetrics
========  ==============  ====================================================

:class:`WorkerCore` decides every request without I/O: routing, admission
through :class:`~repro.serve.admission.AdmissionController` (429 +
``Retry-After`` / 504 / 503-while-draining; see that module), spans, and
the mapping of a job outcome to ``(status, payload, headers)``.
:class:`DiffServer` is the asyncio shell around it: the connection loop of
:class:`~repro.serve.protocol.HttpShell`, the engine's worker pool via
``run_in_executor`` (so the event loop only parses, routes, and writes),
and ``asyncio.wait_for`` on the deadline. The simulator
(:mod:`repro.simtest.scenario`) drives the same core inline on virtual
time.

Concurrency note: an expired deadline answers the *request* with 504, but
the underlying pool job is not forcibly killed (CPython offers no safe
preemption). The admission slot is returned with the response — the
*engine's* worker pool still bounds actual compute — and shutdown waits
for stragglers: ``engine.close()`` joins its pool after the drain.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from ..core.tree import Tree
from ..matching.criteria import MatchConfig
from ..obs.export import validate_trace
from ..obs.trace import Span, Tracer, extract_trace_context, is_valid_trace_id
from ..service.engine import DiffEngine
from ..service.metrics import ServiceMetrics
from ..simtest.clock import SYSTEM_CLOCK
from .admission import AdmissionController, Deadline
from .lifecycle import Lifecycle, dump_final_metrics, dump_final_traces
from .protocol import (
    PROTOCOL,
    HttpError,
    HttpShell,
    Response,
    job_result_to_dict,
    pairs_from_batch,
    parse_body,
    require_pair,
)

#: Compute endpoints (admission-gated); GET endpoints bypass admission.
COMPUTE_ROUTES = frozenset({"/v1/diff", "/v1/batch", "/v1/verify"})


@dataclass
class ServeConfig:
    """Everything the server needs, CLI-mappable one flag per field."""

    host: str = "127.0.0.1"
    port: int = 8765  #: 0 binds an ephemeral port (reported after start)
    workers: int = 4
    cache_size: int = 256
    algorithm: str = "fast"
    match: Optional[MatchConfig] = None
    postprocess: bool = True
    retries: int = 0
    verify_fraction: float = 0.0
    queue_capacity: int = 16
    rate: float = 0.0  #: per-client tokens/second; 0 disables rate limiting
    burst: float = 10.0
    max_body_bytes: int = 1 << 20
    deadline_ms: float = 30_000.0
    max_batch: int = 64
    drain_timeout: float = 30.0
    #: Server-side sampling for requests that arrive without trace headers;
    #: requests that *carry* a valid ``X-Trace-Id`` are always traced.
    trace_fraction: float = 0.0
    trace_buffer: int = 2048  #: ring-buffer capacity for closed spans
    trace_export: Optional[str] = None  #: JSONL path flushed on drain
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Ticket:
    """An admitted compute request between ``begin`` and ``finish``.

    It holds one admission slot and, when traced, the open ``worker`` span.
    """

    path: str
    data: Dict[str, Any]
    deadline: Deadline
    jobs: List[Tuple[Tree, Tree, str]]  #: parsed ``(old, new, job id)`` pairs
    span: Optional[Span] = None
    headers: Dict[str, str] = field(default_factory=dict)  #: for the response
    check: Any = None  #: the FuzzConfig of a ``/v1/verify`` request

    @property
    def trace(self) -> Optional[Tuple[str, str]]:
        """The ``(trace id, parent span id)`` the request's jobs run under."""
        if self.span is None:
            return None
        return self.span.trace_id, self.span.span_id


class WorkerCore:
    """Everything one worker decides about a request, with no I/O.

    :meth:`begin` routes and checks the method, parses the body, refuses
    while draining, opens the ``worker``/``admission`` spans, admits (or
    429s) and parses the deadline: it returns either a finished
    :data:`~repro.serve.protocol.Response` or a :class:`Ticket`. The caller
    runs the ticket's jobs however its transport does (an executor and
    ``wait_for`` in :class:`DiffServer`, inline in the simulator) and hands
    the outcome to :meth:`finish`, which maps it (or ``None``: the deadline
    passed first) to a response, closes the spans and releases the slot.
    Nothing here awaits, sleeps or touches a socket.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[DiffEngine] = None,
        metrics: Optional[ServiceMetrics] = None,
        clock: Optional[Any] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.metrics = (
            metrics if metrics is not None else ServiceMetrics(clock=self.clock)
        )
        if engine is not None and engine.tracer is not None:
            self.tracer = engine.tracer  # a shared tracer (the simulator's)
        else:
            self.tracer = Tracer(
                fraction=self.config.trace_fraction,
                capacity=self.config.trace_buffer,
                clock=self.clock,
            )
        if engine is not None:
            self.engine = engine
            self.engine.metrics = self.metrics
            self.engine.tracer = self.tracer
        else:
            self.engine = DiffEngine(
                workers=self.config.workers,
                config=self.config.match,
                algorithm=self.config.algorithm,
                postprocess=self.config.postprocess,
                cache=self.config.cache_size,
                metrics=self.metrics,
                retries=self.config.retries,
                verify_fraction=self.config.verify_fraction,
                tracer=self.tracer,
            )
        self.admission = AdmissionController(
            queue_capacity=self.config.queue_capacity,
            rate=self.config.rate,
            burst=self.config.burst,
            max_body_bytes=self.config.max_body_bytes,
            default_deadline_ms=self.config.deadline_ms,
            mean_wall_ms=lambda: self.metrics.wall_ms.mean(),
            clock=self.clock,
        )
        self.max_body_bytes = self.config.max_body_bytes
        self.lifecycle = Lifecycle(
            drain_timeout=self.config.drain_timeout,
            clock=clock,  # None in production: the loop clock drives drains
        )
        self._started = self.clock.monotonic()
        self._job_seq = 0

    # ------------------------------------------------------------------
    # Request in, response or ticket out
    # ------------------------------------------------------------------
    def begin(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        peer: str,
    ) -> Union[Response, Ticket]:
        """Answer a request outright, or admit it and return its ticket."""
        try:
            if path == "/healthz":
                self._require_method(method, "GET", path)
                return 200, self.health_payload(), {}
            if path == "/metrics":
                self._require_method(method, "GET", path)
                return 200, self.metrics_payload(), {}
            if path.startswith("/v1/trace/"):
                self._require_method(method, "GET", path)
                return 200, self.trace_payload(path[len("/v1/trace/"):]), {}
            if path not in COMPUTE_ROUTES:
                raise HttpError(404, "not_found", f"no route for {path}")
            self._require_method(method, "POST", path)
            data = parse_body(body)
            return self._admit(path, data, headers, headers.get("x-client-id", peer))
        except HttpError as exc:
            return exc.response()

    def compute(self, ticket: Ticket) -> Any:
        """Run a ticket's work in the calling thread; the outcome for finish."""
        if ticket.check is not None:
            from ..verify.fuzz import check_pair, default_runner

            old, new, _ = ticket.jobs[0]
            return check_pair(old, new, ticket.check, default_runner)
        return [
            self.engine.diff(old, new, job_id=job_id, trace=ticket.trace)
            for old, new, job_id in ticket.jobs
        ]

    def finish(self, ticket: Ticket, outcome: Any) -> Response:
        """Map *outcome* to the response and close the ticket.

        *outcome* is what :meth:`compute` returns, or ``None`` when the
        deadline passed first: that answers 504 (the job itself is not
        stopped; the slot is released with the response).
        """
        status = "error"
        try:
            if outcome is None:
                self.metrics.incr("deadline_timeouts")
                return HttpError(
                    504,
                    "deadline",
                    f"no result within the {ticket.deadline.budget_s * 1000.0:.0f}ms "
                    "deadline",
                ).response()
            include_script = bool(ticket.data.get("include_script", True))
            if ticket.check is not None:
                self.metrics.absorb_verify_report(outcome)
                payload = outcome.to_dict()
                payload["protocol"] = PROTOCOL
            elif ticket.path == "/v1/diff":
                payload = job_result_to_dict(outcome[0], include_script=include_script)
            else:
                payload = {
                    "jobs": [
                        job_result_to_dict(r, include_script=include_script)
                        for r in outcome
                    ],
                    "failed": sum(1 for r in outcome if not r.ok),
                    "protocol": PROTOCOL,
                }
                if ticket.span is not None:
                    payload["trace_id"] = ticket.span.trace_id
            status = "ok"
            return 200, payload, ticket.headers
        finally:
            self.release(ticket, status)

    def release(self, ticket: Ticket, status: str) -> None:
        """Close the ticket's ``worker`` span and return its admission slot."""
        if ticket.span is not None:
            ticket.span.close(status)
        self.admission.release()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, "method_not_allowed", f"{path} only accepts {expected}")

    def _admit(
        self, path: str, data: Dict[str, Any], headers: Dict[str, str], client: str
    ) -> Ticket:
        """The admission bracket every compute endpoint shares.

        A traced request (an inbound valid ``X-Trace-Id``, or sampled here)
        echoes its trace id back as ``X-Trace-Id``.
        """
        if self.lifecycle.draining:
            self.metrics.incr("rejected_draining")
            raise HttpError(
                503, "draining", "server is draining; retry elsewhere", retry_after=1.0
            )
        requested_ms = self._requested_deadline(data, headers)
        ctx = extract_trace_context(headers)
        if ctx is not None:
            trace_id, parent_id = ctx
        elif self.config.trace_fraction > 0.0:
            trace_id, parent_id = self.tracer.maybe_trace(), None
        else:
            trace_id = parent_id = None
        span = None
        extra: Dict[str, str] = {}
        if trace_id is not None:
            span = self.tracer.start_span(
                "worker",
                kind="worker",
                trace_id=trace_id,
                parent_id=parent_id,
                meta={"path": path, "client": client},
            )
            extra["X-Trace-Id"] = trace_id
        admission_span = (
            span.child("admission", kind="worker") if span is not None else None
        )
        decision = self.admission.try_admit(client, span=admission_span)
        if admission_span is not None:
            admission_span.close("ok" if decision.admitted else "refused")
        if not decision.admitted:
            if span is not None:
                span.close("refused")
            self.metrics.incr(f"rejected_{decision.reason}")
            raise HttpError(
                429,
                decision.reason,
                f"admission refused ({decision.reason}); retry later",
                retry_after=decision.retry_after,
            )
        ticket = Ticket(
            path, data, self.admission.deadline(requested_ms), [], span, extra
        )
        try:
            self._parse_jobs(ticket)
        except BaseException:
            self.release(ticket, "error")
            raise
        return ticket

    def _parse_jobs(self, ticket: Ticket) -> None:
        data = ticket.data
        if ticket.path == "/v1/batch":
            ticket.jobs = pairs_from_batch(data, self.config.max_batch)
            return
        old, new = require_pair(data)
        if ticket.path == "/v1/diff":
            ticket.jobs = [(old, new, str(data.get("id", self._next_job_id("http"))))]
            return
        from ..verify.fuzz import FuzzConfig

        algorithm = data.get("algorithm", "both")
        if algorithm not in ("fast", "simple", "both"):
            raise HttpError(400, "bad_algorithm", f"unknown algorithm {algorithm!r}")
        ticket.jobs = [(old, new, "verify")]
        ticket.check = FuzzConfig(
            algorithms=("fast", "simple") if algorithm == "both" else (algorithm,),
            match=self.config.match,
            differential=bool(data.get("differential", False)),
            shrink=False,
        )

    @staticmethod
    def _requested_deadline(
        data: Dict[str, Any], headers: Dict[str, str]
    ) -> Optional[float]:
        raw = data.get("deadline_ms", headers.get("x-deadline-ms"))
        if raw is None:
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise HttpError(400, "bad_deadline", f"deadline_ms {raw!r} is not a number")

    def _next_job_id(self, prefix: str) -> str:
        self._job_seq += 1
        return f"{prefix}-{self._job_seq}"

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.lifecycle.draining else "ok",
            "in_flight": self.admission.in_flight,
            "uptime_s": round(self.clock.monotonic() - self._started, 3),
            "protocol": PROTOCOL,
        }

    def metrics_payload(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        snapshot["server"] = dict(self.admission.stats())
        snapshot["server"]["draining"] = self.lifecycle.draining
        cache = self.engine.cache
        snapshot["cache"] = cache.stats() if cache is not None else None
        snapshot["trace"] = self.tracer.stats()
        snapshot["protocol"] = PROTOCOL
        return snapshot

    def trace_payload(self, trace_id: str) -> Dict[str, Any]:
        """The ``GET /v1/trace/<id>`` debug view: this worker's spans."""
        if not is_valid_trace_id(trace_id):
            raise HttpError(400, "bad_trace_id", f"not a trace id: {trace_id!r}")
        trace_id = trace_id.lower()
        spans = self.tracer.trace(trace_id)
        open_spans = self.tracer.open_count(trace_id)
        if not spans and not open_spans:
            raise HttpError(404, "unknown_trace", f"no spans for trace {trace_id}")
        return {
            "trace_id": trace_id,
            "spans": spans,
            "open_spans": open_spans,
            "complete": open_spans == 0 and not validate_trace(spans),
            "protocol": PROTOCOL,
        }


class DiffServer(WorkerCore, HttpShell):
    """The worker core behind one listening socket.

    The shell only moves bytes and time: :class:`HttpShell` frames the
    request, :meth:`WorkerCore.begin` decides it, the ticket's jobs run on
    the engine's pool under ``asyncio.wait_for`` of the remaining deadline,
    and :meth:`WorkerCore.finish` shapes the answer.
    """

    COUNTER_PREFIX = "http_"

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[DiffEngine] = None,
        metrics: Optional[ServiceMetrics] = None,
        clock: Optional[Any] = None,
    ) -> None:
        super().__init__(config, engine=engine, metrics=metrics, clock=clock)
        self._init_shell()

    async def start(self) -> None:
        """Bind the listening socket (resolving port 0 to the real port)."""
        self.lifecycle.bind(asyncio.get_running_loop())
        await self.listen(self.config.host, self.config.port)

    async def run(
        self,
        install_signals: bool = True,
        announce: Optional[Callable[[str], None]] = None,
        dump_metrics: bool = True,
    ) -> Dict[str, Any]:
        """Serve until shutdown is requested, drain, return final metrics."""
        if self.server is None:
            await self.start()
        if install_signals:
            self.lifecycle.install_signal_handlers()
        if announce is not None:
            announce(f"http://{self.config.host}:{self.port}")
        try:
            await self.lifecycle.wait_for_shutdown()
            await self.lifecycle.drain(
                self.server,
                lambda: self.active_requests + self.admission.in_flight,
            )
            await self.close_connections()
        finally:
            self.server = None
            self.engine.close()
        if self.config.trace_export:
            dump_final_traces(self.tracer.export_jsonl(), self.config.trace_export)
        snapshot = self.metrics_payload()
        if dump_metrics:
            dump_final_metrics(snapshot)
        return snapshot

    def _count(self, name: str) -> None:
        self.metrics.incr(name)

    def _responded(self, status: int, started: float) -> None:
        super()._responded(status, started)
        self.metrics.observe_stage(
            "http", (self.clock.perf_counter() - started) * 1000.0
        )

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Response:
        ticket = self.begin(method, path, headers, body, peer)
        if not isinstance(ticket, Ticket):
            return ticket
        outcome = None
        remaining = ticket.deadline.remaining()
        if remaining > 0.0:
            try:
                outcome = await asyncio.wait_for(self._submit(ticket), remaining)
            except asyncio.TimeoutError:
                pass
            except BaseException:
                self.release(ticket, "error")
                raise
        return self.finish(ticket, outcome)

    def _submit(self, ticket: Ticket) -> Awaitable:
        """The ticket's work on a pool, so the loop never blocks on matching."""
        if ticket.check is not None:
            loop = asyncio.get_running_loop()
            return loop.run_in_executor(None, self.compute, ticket)
        return asyncio.gather(*(
            asyncio.wrap_future(
                self.engine.submit(old, new, job_id=job_id, trace=ticket.trace)
            )
            for old, new, job_id in ticket.jobs
        ))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def run_server(
    config: Optional[ServeConfig] = None,
    announce: Optional[Callable[[str], None]] = None,
) -> int:
    """Blocking foreground entry point used by ``repro-diff serve``.

    Installs SIGTERM/SIGINT drain handlers, serves until one arrives,
    drains, prints the final ``METRICS`` line, and returns a process exit
    code (0 = clean drain, 1 = in-flight work abandoned at the timeout).
    """
    server = DiffServer(config)

    async def _main() -> Dict[str, Any]:
        await server.start()
        return await server.run(install_signals=True, announce=announce)

    asyncio.run(_main())
    return 0 if server.lifecycle.drained_clean is not False else 1


class ServerThread:
    """A DiffServer on a background thread — tests and benchmarks.

    ``start()`` returns once the socket is bound (``.port`` is then real);
    ``stop()`` runs the same drain sequence SIGTERM would and returns the
    final metrics snapshot.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        engine: Optional[DiffEngine] = None,
    ) -> None:
        self.server = DiffServer(config, engine=engine)
        self._ready = threading.Event()
        self._final: Optional[Dict[str, Any]] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, daemon=True)

    @property
    def port(self) -> int:
        port = self.server.port
        assert port is not None, "server not started"
        return port

    def _main(self) -> None:
        async def body() -> None:
            await self.server.start()
            self._ready.set()
            self._final = await self.server.run(
                install_signals=False, dump_metrics=False
            )

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced to the joining thread
            self._error = exc
            self._ready.set()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error!r}")
        return self

    def stop(self, timeout: float = 10.0) -> Dict[str, Any]:
        self.server.lifecycle.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"server crashed: {self._error!r}")
        assert self._final is not None
        return self._final

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        if self._thread.is_alive():
            self.stop()
