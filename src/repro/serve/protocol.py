"""Wire format of the diff service: JSON payloads and HTTP status mapping.

The service speaks plain HTTP/1.1 with JSON bodies, all of it stdlib. Trees
travel in the dict format of :mod:`repro.core.serialization` (or as
s-expression strings, which parse through the same front door as the CLI),
and every response body is a JSON object serialized deterministically
(``sort_keys=True``) so clients, tests, and logs see byte-stable output.

Errors are modelled as :class:`HttpError` — raised anywhere while handling
a request, rendered once by :meth:`HttpError.response`. Overload responses
(429/503) carry a ``Retry-After`` header that
:class:`repro.serve.client.DiffServiceClient` honors.

:class:`HttpShell` is the asyncio half that the worker
(:class:`repro.serve.app.DiffServer`) and the cluster front
(:class:`repro.serve.router.Router`) share: one keep-alive connection loop,
one request framer, one response writer. Everything a request *means* lives
in their transport-free cores.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.errors import ParseError
from ..core.serialization import tree_from_dict, tree_from_sexpr, tree_to_dict
from ..core.tree import Tree
from ..obs.trace import (  # noqa: F401  (re-exported wire-level helpers)
    SPAN_ID_HEADER,
    TRACE_ID_HEADER,
    extract_trace_context,
    inject_trace_headers,
)

#: Protocol identifier echoed in every response and checked by the client.
PROTOCOL = "repro-serve/1"

#: Reason phrases for the status codes the service emits.
STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Status codes the client treats as transient and retries.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

#: ``(status, payload, extra headers)``: what a core answers. The payload is
#: a JSON object, or the raw bytes of a response the router passes through.
Response = Tuple[int, Any, Dict[str, str]]


def retry_after_header(seconds: float) -> str:
    """The ``Retry-After`` value for a wait of *seconds*: whole, at least 1."""
    return str(max(1, math.ceil(seconds)))


class HttpError(Exception):
    """A request failure with an HTTP status, JSON-rendered by the app.

    ``retry_after`` (seconds) becomes a ``Retry-After`` header — the
    admission layer sets it on 429/503 so well-behaved clients back off by
    the server's own estimate instead of guessing.
    """

    def __init__(
        self,
        status: int,
        reason: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.reason = reason
        self.message = message
        self.retry_after = retry_after

    def body(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "error": self.reason,
            "message": self.message,
            "protocol": PROTOCOL,
        }
        if self.retry_after is not None:
            out["retry_after_s"] = round(self.retry_after, 3)
        return out

    def response(self) -> Response:
        """The error as a response, with ``Retry-After`` when one is set."""
        headers = {}
        if self.retry_after is not None:
            headers["Retry-After"] = retry_after_header(self.retry_after)
        return self.status, self.body(), headers


def dumps(payload: Any) -> bytes:
    """Deterministic JSON encoding used for every response body."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# Low-level HTTP/1.1 framing, shared by the app, the cluster router, and the
# supervisor's health checks. Everything raises HttpError so callers answer
# protocol violations uniformly.
# ---------------------------------------------------------------------------

#: Upper bound on header lines per request (anti-abuse, not a real limit).
MAX_HEADERS = 100


def parse_request_line(raw: bytes) -> Tuple[str, str, str]:
    """Split ``b"POST /v1/diff HTTP/1.1\\r\\n"`` into (method, path, version)."""
    try:
        text = raw.decode("latin-1").rstrip("\r\n")
        method, target, version = text.split(" ")
    except ValueError:
        raise HttpError(400, "bad_request_line", f"malformed request line: {raw!r}")
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, "bad_request_line", f"unsupported version {version}")
    return method.upper(), target.split("?", 1)[0], version


def parse_status_line(raw: bytes) -> int:
    """Extract the status code from ``b"HTTP/1.1 200 OK\\r\\n"``."""
    parts = raw.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise HttpError(502, "bad_upstream", f"malformed status line: {raw!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise HttpError(502, "bad_upstream", f"malformed status code in {raw!r}")


async def read_headers(
    reader: asyncio.StreamReader, max_headers: int = MAX_HEADERS
) -> Dict[str, str]:
    """Read header lines up to the blank separator into a lowercased dict."""
    headers: Dict[str, str] = {}
    for _ in range(max_headers):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    raise HttpError(400, "bad_headers", f"more than {max_headers} header lines")


async def read_content_length_body(
    reader: asyncio.StreamReader, headers: Dict[str, str], max_body_bytes: int
) -> bytes:
    """Read a Content-Length-framed body (411/400/413/501 on bad framing)."""
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked_unsupported", "send Content-Length, not chunked")
    raw_length = headers.get("content-length")
    if raw_length is None:
        raise HttpError(411, "length_required", "POST requires Content-Length")
    try:
        length = int(raw_length)
        if length < 0:
            raise ValueError
    except ValueError:
        raise HttpError(400, "bad_length", f"invalid Content-Length {raw_length!r}")
    if length > max_body_bytes:
        raise HttpError(
            413,
            "too_large",
            f"body of {length} bytes exceeds the {max_body_bytes}-byte limit",
        )
    return await reader.readexactly(length) if length else b""


async def write_response(
    writer: asyncio.StreamWriter,
    response: Response,
    keep_alive: bool,
) -> None:
    """Frame and send one response (JSON-encoding a dict payload)."""
    status, payload, extra_headers = response
    body = payload if isinstance(payload, bytes) else dumps(payload)
    head = [
        f"HTTP/1.1 {status} {STATUS_PHRASES.get(status, 'Unknown')}",
        f"Server: {PROTOCOL}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in extra_headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


class HttpShell:
    """The asyncio I/O shared by the worker server and the cluster router.

    Subclasses set ``clock``, ``lifecycle`` (its ``draining`` flag closes
    keep-alive sockets), ``max_body_bytes`` and ``COUNTER_PREFIX``, and
    implement ``_count(name)`` and ``async _dispatch(method, path, headers,
    body, peer) -> Response``. The shell frames requests, answers framing
    errors, turns a handler bug into a 500 and writes every response.
    """

    COUNTER_PREFIX = ""
    clock: Any
    lifecycle: Any
    max_body_bytes: int

    def _init_shell(self) -> None:
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None  #: actual bound port once started
        #: Requests between first byte and last byte written (drains wait
        #: on this: admission releases before the response is written).
        self.active_requests = 0
        self._conn_tasks: Set[asyncio.Task] = set()

    def _count(self, name: str) -> None:
        raise NotImplementedError

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes, peer: str
    ) -> Response:
        raise NotImplementedError

    async def listen(self, host: str, port: int) -> None:
        """Bind the listening socket (resolving port 0 to the real port)."""
        self.server = await asyncio.start_server(self._serve_connection, host, port)
        sockets = self.server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def close_connections(self) -> None:
        """Cancel idle keep-alive connections once a drain has finished."""
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "unknown"
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while await self._serve_request(reader, writer, peer_id):
                pass
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # post-drain cleanup of an idle keep-alive socket
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, peer: str
    ) -> bool:
        """Read, dispatch, and answer one request; True to keep the socket."""
        request_line = await reader.readline()
        if not request_line.strip():
            return False
        started = self.clock.perf_counter()
        self._count(self.COUNTER_PREFIX + "requests")
        self.active_requests += 1
        try:
            keep_alive, response = await self._answer(reader, request_line, peer)
            if self.lifecycle.draining:
                keep_alive = False
            self._responded(response[0], started)
            await write_response(writer, response, keep_alive)
            return keep_alive
        finally:
            self.active_requests -= 1

    async def _answer(
        self, reader: asyncio.StreamReader, request_line: bytes, peer: str
    ) -> Tuple[bool, Response]:
        try:
            method, path, version = parse_request_line(request_line)
            headers = await read_headers(reader)
            body = b""
            if method in ("POST", "PUT"):
                body = await read_content_length_body(
                    reader, headers, self.max_body_bytes
                )
        except HttpError as exc:
            if exc.status == 413:
                self._count("rejected_too_large")
            # The request was never fully read, so the socket is mid-stream
            # and cannot be reused.
            return False, exc.response()
        wants_close = headers.get("connection", "").lower() == "close"
        keep_alive = version == "HTTP/1.1" and not wants_close
        try:
            return keep_alive, await self._dispatch(method, path, headers, body, peer)
        except HttpError as exc:
            return keep_alive, exc.response()
        except Exception as exc:  # never let a handler bug kill the server
            self._count(self.COUNTER_PREFIX + "internal_errors")
            message = f"{type(exc).__name__}: {exc}"
            return keep_alive, HttpError(500, "internal", message).response()

    def _responded(self, status: int, started: float) -> None:
        self._count(f"{self.COUNTER_PREFIX}responses_{status // 100}xx")


async def fetch_json(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, Dict[str, Any]]:
    """One GET against a backend, fully framed: ``(status, decoded body)``.

    The async sibling of :meth:`DiffServiceClient.request_once` for use on
    the serving loop (supervisor health checks, router metrics fan-in).
    Connection failures propagate as ``OSError`` / ``asyncio.TimeoutError``.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Accept: application/json\r\nConnection: close\r\n\r\n"
        )
        writer.write(request.encode("latin-1"))
        await writer.drain()
        status_line = await asyncio.wait_for(reader.readline(), timeout)
        status = parse_status_line(status_line)
        headers = await asyncio.wait_for(read_headers(reader), timeout)
        length = int(headers.get("content-length", "0"))
        raw = await asyncio.wait_for(reader.readexactly(length), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    try:
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
    except ValueError:
        decoded = {}
    if not isinstance(decoded, dict):
        decoded = {"value": decoded}
    return status, decoded


def parse_body(raw: bytes) -> Dict[str, Any]:
    """Decode a request body into a JSON object (400 on anything else)."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise HttpError(400, "bad_json", f"request body is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise HttpError(400, "bad_json", "request body must be a JSON object")
    return data


def tree_from_payload(spec: Any, field: str) -> Tree:
    """Materialize the ``old``/``new`` field of a request into a Tree.

    Accepts the nested-dict format (JSON snapshots) or an s-expression
    string (the compact text form used by fixtures and the CLI).
    """
    try:
        if isinstance(spec, dict):
            return tree_from_dict(spec)
        if isinstance(spec, str):
            return tree_from_sexpr(spec)
    except (ParseError, KeyError, TypeError, ValueError) as exc:
        raise HttpError(400, "bad_tree", f"field {field!r} does not parse: {exc}")
    raise HttpError(
        400, "bad_tree", f"field {field!r} must be a tree dict or s-expression string"
    )


def require_pair(data: Dict[str, Any]) -> Tuple[Tree, Tree]:
    """Extract and parse the mandatory ``old``/``new`` snapshot pair."""
    missing = [field for field in ("old", "new") if field not in data]
    if missing:
        raise HttpError(
            400, "missing_field", f"missing required field(s): {', '.join(missing)}"
        )
    return (
        tree_from_payload(data["old"], "old"),
        tree_from_payload(data["new"], "new"),
    )


def job_result_to_dict(result: Any, include_script: bool = True) -> Dict[str, Any]:
    """JSON-friendly view of a :class:`repro.service.engine.JobResult`."""
    out: Dict[str, Any] = {
        "job_id": result.job_id,
        "status": result.status,
        "source": result.source,
        "operations": result.operations,
        "cost": result.cost,
        "wall_ms": round(result.wall_ms, 3),
        "attempts": result.attempts,
        "old_digest": result.old_digest,
        "new_digest": result.new_digest,
        "summary": dict(result.summary),
        "stage_ms": {stage: round(ms, 3) for stage, ms in result.stage_ms.items()},
        "error": result.error,
        "verified": result.verified,
        "protocol": PROTOCOL,
    }
    trace_id = getattr(result, "trace_id", None)
    if trace_id is not None:
        out["trace_id"] = trace_id
    if include_script and result.script is not None:
        out["script"] = {
            "records": result.script.to_dicts(),
            "wrapped": result.wrapped,
        }
    return out


def pairs_from_batch(data: Dict[str, Any], max_pairs: int) -> List[Tuple[Tree, Tree, str]]:
    """Extract the ``pairs`` list of a ``/v1/batch`` request."""
    pairs = data.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise HttpError(
            400, "missing_field", "batch body needs a non-empty 'pairs' array"
        )
    if len(pairs) > max_pairs:
        raise HttpError(
            413,
            "batch_too_large",
            f"batch of {len(pairs)} pairs exceeds the per-request cap of {max_pairs}",
        )
    out: List[Tuple[Tree, Tree, str]] = []
    for index, entry in enumerate(pairs):
        if not isinstance(entry, dict):
            raise HttpError(400, "bad_pair", f"pairs[{index}] must be an object")
        old, new = require_pair(entry)
        out.append((old, new, str(entry.get("id", f"pair-{index}"))))
    return out


def tree_to_payload(tree: Tree) -> Optional[Dict[str, Any]]:
    """Client-side helper: the wire form of a snapshot (dict format)."""
    return tree_to_dict(tree)
