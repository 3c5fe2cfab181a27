"""Cache-affinity routing for the cluster: consistent hashing + HTTP proxy.

The cluster's front process accepts every client connection and forwards
compute requests to one of N single-process :mod:`repro.serve.app` workers.
Which worker is not arbitrary: the router consistent-hashes a per-request
**affinity key** onto a ring of virtual nodes, so the same document pair
always lands on the same worker and its digest-keyed
:class:`~repro.service.cache.ScriptCache` entry stays warm *shard-locally*.
Without affinity a warm entry would exist on one worker while requests
round-robin across all of them, and the warm≥cold speedup gate would decay
by roughly the worker count.

Affinity key, in precedence order:

1. the ``X-Affinity-Key`` request header (set by
   :class:`~repro.serve.client.DiffServiceClient` from the job id);
2. the ``id`` field of the JSON body, when present;
3. the SHA-1 of the raw body bytes — identical snapshot pairs hash
   identically, so even anonymous repeat traffic stays cache-affine.

Failover: every compute endpoint is a pure function of its body, so a
request whose backend dies mid-flight (connection refused, reset, or a
truncated response) is **replayed** on the next distinct worker along the
ring. The ring handles re-ranging naturally — removing a worker reassigns
only that worker's arc to its ring successors, everything else keeps its
shard (and its warm cache).

The routing decisions live in :class:`ProxyCore`, which never touches a
socket: it is handed a ``send`` for each leg. :class:`Router` is its
asyncio shell (HTTP legs to worker processes, fan-out of ``/metrics`` and
``/v1/trace``); the simulator's cluster (:mod:`repro.simtest.scenario`)
runs the same core with in-process legs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from bisect import bisect_left, insort
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from ..obs.export import merge_spans
from ..obs.trace import (
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    Tracer,
    extract_trace_context,
    is_valid_trace_id,
)
from ..simtest.clock import SYSTEM_CLOCK
from .lifecycle import Lifecycle
from .protocol import (
    PROTOCOL,
    HttpError,
    HttpShell,
    fetch_json,
    parse_status_line,
    read_headers,
)

#: Request headers forwarded verbatim to the backend worker.
FORWARDED_HEADERS = ("x-client-id", "x-deadline-ms", "x-affinity-key", "accept")


def hash_key(key: str) -> int:
    """Stable 64-bit ring position of *key* (SHA-1 prefix, not ``hash()``)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over worker ids with virtual nodes.

    Each member contributes ``replicas`` points so arcs stay balanced; a
    key is assigned to the owner of the first point at or clockwise after
    the key's own hash. Adding or removing one member only moves the keys
    of that member's arcs — the *minimal movement* property the failover
    and rolling-restart paths rely on to keep caches warm elsewhere.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []  # sorted (hash, worker_id)
        self._members: set = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._members

    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, worker_id: str) -> None:
        """Insert a member's virtual nodes (idempotent)."""
        if worker_id in self._members:
            return
        self._members.add(worker_id)
        for replica in range(self.replicas):
            insort(self._points, (hash_key(f"{worker_id}#{replica}"), worker_id))

    def remove(self, worker_id: str) -> None:
        """Drop a member; its arcs fall to the ring successors (idempotent)."""
        if worker_id not in self._members:
            return
        self._members.discard(worker_id)
        self._points = [point for point in self._points if point[1] != worker_id]

    def assign(self, key: str) -> Optional[str]:
        """The owning worker for *key*, or None when the ring is empty."""
        chain = self.assign_chain(key, count=1)
        return chain[0] if chain else None

    def assign_chain(self, key: str, count: Optional[int] = None) -> List[str]:
        """Up to *count* distinct workers in ring order starting at *key*.

        The first entry is :meth:`assign`'s answer; the rest are the
        deterministic failover order — exactly the workers that would
        inherit the key if earlier entries left the ring.
        """
        if not self._points:
            return []
        if count is None:
            count = len(self._members)
        position = bisect_left(self._points, (hash_key(key), ""))
        total = len(self._points)
        out: List[str] = []
        seen: set = set()
        for step in range(total):
            worker_id = self._points[(position + step) % total][1]
            if worker_id not in seen:
                seen.add(worker_id)
                out.append(worker_id)
                if len(out) >= count:
                    break
        return out


def affinity_key(path: str, headers: Dict[str, str], body: bytes) -> str:
    """The routing key of one request (header > body id > body hash)."""
    explicit = headers.get("x-affinity-key")
    if explicit:
        return explicit
    if body and b'"id"' in body:
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            data = None
        if isinstance(data, dict) and "id" in data:
            return str(data["id"])
    return hashlib.sha1(body if body else path.encode("utf-8")).hexdigest()


#: Transport failures that mean "this backend is gone, replay elsewhere".
FAILOVER_ERRORS = (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError)

#: Sends one forwarding leg: ``(worker id, backend, headers) -> (status, body)``.
Send = Callable[[str, Any, Dict[str, str]], Awaitable[Tuple[int, Any]]]


class ProxyCore:
    """Which workers serve a request, in what order, and what a failure means.

    Transport-free: :meth:`forward` computes the affinity key, walks the
    ring chain, opens one ``router.proxy`` span per leg, builds each leg's
    forwarded headers and hands them to an injected ``send``; a
    :data:`FAILOVER_ERRORS` failure counts a failover, tells
    ``on_backend_failure`` and replays on the next worker, and an exhausted
    chain is the ``no_backend`` 503. ``backends`` maps a worker id to its
    address: a port for :class:`Router`, a simulated worker in
    :mod:`repro.simtest.scenario`.
    """

    def __init__(
        self,
        ring: HashRing,
        backends: Dict[str, Any],
        lifecycle: Any,
        on_backend_failure: Optional[Callable[[str], None]] = None,
        clock: Optional[Any] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.ring = ring
        self.backends = backends
        self.lifecycle = lifecycle
        self.on_backend_failure = on_backend_failure
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        # Propagate-only by default: the router never originates traces,
        # it records one ``router.proxy`` span per forwarding attempt for
        # requests that arrive with a valid X-Trace-Id.
        self.tracer = tracer if tracer is not None else Tracer(clock=self.clock)
        #: Counters surfaced under ``cluster.router``.
        self.counters: Dict[str, int] = {}

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    async def forward(
        self, path: str, headers: Dict[str, str], body: bytes, send: Send
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Proxy one compute request along its chain; the first answer wins."""
        if self.lifecycle.draining:
            self._count("rejected_draining")
            raise HttpError(
                503, "draining", "cluster is draining; retry elsewhere", retry_after=1.0
            )
        chain = self.ring.assign_chain(affinity_key(path, headers, body))
        ctx = extract_trace_context(headers)
        forwarded = {name: headers[name] for name in FORWARDED_HEADERS if name in headers}
        last_error = "no live workers"
        for position, worker_id in enumerate(chain):
            backend = self.backends.get(worker_id)
            if backend is None:
                continue
            leg_headers = dict(forwarded)
            span = None
            if ctx is not None:
                # One span per forwarding attempt: a replayed request shows
                # its whole failover chain. The worker's parent becomes this
                # proxy span, while the trace id passes through verbatim.
                span = self.tracer.start_span(
                    "router.proxy",
                    kind="router",
                    trace_id=ctx[0],
                    parent_id=ctx[1],
                    meta={"worker": worker_id, "position": position},
                )
                leg_headers[TRACE_ID_HEADER.lower()] = ctx[0]
                leg_headers[SPAN_ID_HEADER.lower()] = span.span_id
            try:
                status, reply = await send(worker_id, backend, leg_headers)
            except FAILOVER_ERRORS as exc:
                # The backend died under the request. Compute endpoints are
                # pure functions of the body, so replaying on the next ring
                # successor is safe — the client never sees the crash.
                self._count("proxy_failovers")
                last_error = f"{worker_id}: {type(exc).__name__}: {exc}"
                if span is not None:
                    span.annotate(error=type(exc).__name__).close("failover")
                if self.on_backend_failure is not None:
                    self.on_backend_failure(worker_id)
                continue
            self._count("proxied")
            if position > 0:
                self._count("proxied_rerouted")
            if span is not None:
                span.annotate(status=status).close("ok")
            return status, reply, {"X-Worker-Id": worker_id}
        self._count("rejected_no_backend")
        raise HttpError(
            503,
            "no_backend",
            f"no worker could serve the request ({last_error})",
            retry_after=0.5,
        )


class Router(ProxyCore, HttpShell):
    """The cluster's front listener: the proxy core behind a socket.

    GET ``/healthz`` and ``/metrics`` are answered by the router itself
    (cluster topology / merged per-worker snapshots via the injected
    callbacks); everything else goes through :meth:`ProxyCore.forward`,
    whose legs are real HTTP exchanges with the worker processes.
    """

    def __init__(
        self,
        ring: HashRing,
        ports: Dict[str, int],
        lifecycle: Lifecycle,
        health_payload: Callable[[], Dict[str, Any]],
        merge_metrics: Callable[[Dict[str, Dict[str, Any]]], Dict[str, Any]],
        on_backend_failure: Optional[Callable[[str], None]] = None,
        backend_host: str = "127.0.0.1",
        max_body_bytes: int = 1 << 20,
        connect_timeout: float = 5.0,
        proxy_timeout: float = 120.0,
        clock: Optional[Any] = None,
        faults: Optional[Any] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            ring, ports, lifecycle, on_backend_failure, clock=clock, tracer=tracer
        )
        self.health_payload = health_payload
        self.merge_metrics = merge_metrics
        self.backend_host = backend_host
        self.max_body_bytes = max_body_bytes
        self.connect_timeout = connect_timeout
        self.proxy_timeout = proxy_timeout
        #: Optional armed FaultInjector for the proxy leg (None = no-op).
        self.faults = faults
        self._started = self.clock.monotonic()
        self._init_shell()

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Tuple[int, Any, Dict[str, str]]:
        if path in ("/healthz", "/metrics") or path.startswith("/v1/trace/"):
            if method != "GET":
                raise HttpError(405, "method_not_allowed", f"{path} only accepts GET")
            if path == "/healthz":
                return 200, self.health_payload(), {}
            if path == "/metrics":
                return 200, await self.aggregate_metrics(), {}
            return 200, await self.aggregate_trace(path[len("/v1/trace/"):]), {}

        async def send(
            worker_id: str, port: int, leg_headers: Dict[str, str]
        ) -> Tuple[int, bytes]:
            return await self._forward(port, method, path, leg_headers, body, worker_id)

        return await self.forward(path, headers, body, send)

    async def _forward(
        self,
        port: int,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        worker_id: str,
    ) -> Tuple[int, bytes]:
        """One fully-framed request/response exchange with a worker."""
        if self.faults is not None:
            # Each injected failure surfaces as exactly the exception class
            # the real transport would raise, so the proxy core's failover
            # handling is the code under test, not a shortcut around it.
            if self.faults.fire("conn_refused", target=worker_id):
                raise ConnectionRefusedError(
                    111, f"injected conn_refused to {worker_id}"
                )
            fault = self.faults.fire("slow_response", target=worker_id)
            if fault is not None:
                await asyncio.sleep(min(fault.magnitude, self.proxy_timeout))
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.backend_host, port), self.connect_timeout
        )
        try:
            if self.faults is not None:
                if self.faults.fire("conn_reset_mid_body", target=worker_id):
                    raise asyncio.IncompleteReadError(b"", None)
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.backend_host}:{port}",
                "Connection: close",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            head.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(), self.proxy_timeout)
            if not status_line:
                raise asyncio.IncompleteReadError(b"", None)
            status = parse_status_line(status_line)
            resp_headers = await asyncio.wait_for(
                read_headers(reader), self.proxy_timeout
            )
            length = int(resp_headers.get("content-length", "0"))
            resp_body = await asyncio.wait_for(
                reader.readexactly(length), self.proxy_timeout
            )
            return status, resp_body
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def aggregate_metrics(self) -> Dict[str, Any]:
        """Fan ``GET /metrics`` out to every live worker and merge."""
        live = [(wid, port) for wid, port in sorted(self.backends.items())]
        fetches: List[Awaitable] = [
            fetch_json(self.backend_host, port, "/metrics", timeout=self.connect_timeout)
            for _, port in live
        ]
        results = await asyncio.gather(*fetches, return_exceptions=True)
        snapshots: Dict[str, Dict[str, Any]] = {}
        for (worker_id, _), result in zip(live, results):
            if isinstance(result, BaseException):
                continue
            status, decoded = result
            if status == 200:
                snapshots[worker_id] = decoded
        merged = self.merge_metrics(snapshots)
        merged["cluster"] = self.stats()
        merged["protocol"] = PROTOCOL
        return merged

    async def aggregate_trace(self, trace_id: str) -> Dict[str, Any]:
        """Merge one trace's spans across every shard plus the router's own.

        Workers only know their slice of a trace; the router fans
        ``GET /v1/trace/<id>`` out to all of them and merges the slices
        with its proxy spans into one deduplicated, stably-ordered list.
        """
        if not is_valid_trace_id(trace_id):
            raise HttpError(400, "bad_trace_id", f"not a trace id: {trace_id!r}")
        trace_id = trace_id.lower()
        live = [(wid, port) for wid, port in sorted(self.backends.items())]
        fetches: List[Awaitable] = [
            fetch_json(
                self.backend_host,
                port,
                f"/v1/trace/{trace_id}",
                timeout=self.connect_timeout,
            )
            for _, port in live
        ]
        results = await asyncio.gather(*fetches, return_exceptions=True)
        span_lists: List[List[Dict[str, Any]]] = [self.tracer.trace(trace_id)]
        workers: List[str] = []
        open_spans = self.tracer.open_count(trace_id)
        for (worker_id, _), result in zip(live, results):
            if isinstance(result, BaseException):
                continue
            status, decoded = result
            if status == 200 and isinstance(decoded.get("spans"), list):
                span_lists.append(decoded["spans"])
                workers.append(worker_id)
                open_spans += int(decoded.get("open_spans", 0) or 0)
        merged = merge_spans(*span_lists)
        if not merged and open_spans == 0:
            raise HttpError(404, "unknown_trace", f"no spans for trace {trace_id}")
        return {
            "trace_id": trace_id,
            "spans": merged,
            "open_spans": open_spans,
            "complete": open_spans == 0,
            "workers": workers,
            "protocol": PROTOCOL,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "router": dict(sorted(self.counters.items())),
            "live_workers": self.ring.members(),
            "draining": self.lifecycle.draining,
            "uptime_s": round(self.clock.monotonic() - self._started, 3),
            "trace": self.tracer.stats(),
        }
