"""A thin, stdlib-only HTTP front end for :class:`CountingService`.

No web framework: requests are parsed by hand on top of
``asyncio.start_server`` (HTTP/1.1, JSON bodies, keep-alive), which is
all a counting service needs and keeps the dependency set empty.

Endpoints
---------
``POST /count``
    ``{"query": "...", "structure": {...}}`` -> ``{"count": N}``.
``POST /count_many``
    ``{"queries": [...], "structures": [...]}`` ->
    ``{"counts": [[...], ...]}`` with ``counts[i][j] = |q_i(B_j)|``.
``POST /count_sharded``
    ``{"query", "structure", "shard_count"?, "shard_strategy"?,``
    ``"parallel"?}`` -> ``{"count": N}``.
``POST /classify``
    ``{"query": "...", "policy"?}`` -> the query's
    trichotomy verdict, its structural measures, and whether the
    (resolved) execution policy would admit it -- a dry run of the
    routing decision that never touches a structure.
``PUT /structures/<name>`` / ``GET`` / ``DELETE``
    Register, inspect, or drop a named resident structure; with a
    registered name, every ``structure`` above may instead be the
    reference form ``{"ref": "<name>"}`` -- the request then ships no
    data and counts against the pinned, worker-resident entry.
``PATCH /structures/<name>``
    Apply a delta to a registered structure in place:
    ``{"insert"?: {rel: [[...], ...]}, "delete"?: {...},``
    ``"expect_version"?: N}`` -> the updated entry view (with its new
    ``version`` and ``fingerprint``).  A stale ``expect_version``
    answers ``409`` with the entry's actual version.
``GET /structures``
    The registry: aggregate stats plus every entry's metadata.
``GET /healthz``
    Liveness: status, in-flight gauges, pool state, registry size.
``GET /metrics``
    The full JSON metrics payload: per-endpoint request counters and
    latency histograms (p50/p90/p99), plus a coherent
    :meth:`~repro.engine.api.Engine.stats` snapshot, the registry
    block, pool info, and the tracing gauges.  With
    ``?format=prometheus`` (or ``Accept: text/plain``) the same
    snapshot is served as Prometheus text exposition format 0.0.4
    instead (see :mod:`repro.obs.prom`).
``GET /debug/traces``
    Summaries of the finished request traces retained in the tracer's
    ring buffer (newest first).
``GET /debug/traces/<trace_id>``
    One retained trace as its full span tree.

Every response carries an ``X-Request-Id`` header -- echoed from the
request when the client sent one, generated otherwise -- which is also
the ``request_id`` of the request's trace and of its
``repro.serve.request`` completion log record.

The canonical route list is :data:`ROUTES` (CI asserts that
``docs/http_api.md`` matches it exactly; see
``tools/check_docs_freshness.py``).

Structures travel as ``{"relations": {name: [[elem, ...], ...]},``
``"universe"?: [...]}`` (or bare relation mappings) or as
``{"ref": "<registered name>"}``; elements are JSON ints or strings.
Saturation maps to ``429`` (with ``Retry-After``), deadline misses to
``504``, shutdown to ``503``, malformed input to ``400``, an unknown
path or structure reference to ``404`` (with ``known_paths`` /
``known_structures``), a stale ``expect_version`` on a delta to
``409``, a wrong method to ``405`` (with ``allowed`` and an ``Allow``
header).  The counting endpoints additionally accept a ``policy``
field (a mode string or policy object; see ``docs/http_api.md``): a
plan-time policy rejection answers ``422`` with the query's verdict
and measures, and a cost-budget abort mid-execution answers ``504``
with the partial-progress stats at the abort point.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.parse
import uuid
from dataclasses import dataclass
from typing import Mapping

from repro.engine.pool import WorkerTaskError
from repro.engine.registry import (
    UnknownStructureError,
    VersionConflict,
    validate_structure_name,
)
from repro.exceptions import BudgetExceeded, PolicyRejection, ReproError
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prom import render_prometheus
from repro.serve.service import (
    CountingService,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
    ServiceTimeout,
)
from repro.structures.delta import StructureDelta
from repro.structures.structure import Structure

_request_log = get_logger("serve.request")
_slowquery_log = get_logger("serve.slowquery")
_connection_log = get_logger("serve.httpd")

#: Largest accepted request body, in bytes.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: How long an idle keep-alive connection is held open.
KEEPALIVE_IDLE_SECONDS = 30.0

_SERVER_NAME = "repro-serve"

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: The canonical route table: every ``(method, path pattern)`` the
#: server answers.  ``<name>`` marks the path segment carrying a
#: structure name.  This is the single source of truth -- dispatch,
#: the ``known_paths`` / ``allowed`` error fields, and the CI
#: docs-freshness check (``tools/check_docs_freshness.py``) all derive
#: from it.
ROUTES: tuple[tuple[str, str], ...] = (
    ("POST", "/count"),
    ("POST", "/count_many"),
    ("POST", "/count_sharded"),
    ("POST", "/classify"),
    ("GET", "/healthz"),
    ("GET", "/metrics"),
    ("GET", "/structures"),
    ("PUT", "/structures/<name>"),
    ("PATCH", "/structures/<name>"),
    ("GET", "/structures/<name>"),
    ("DELETE", "/structures/<name>"),
    ("GET", "/debug/traces"),
    ("GET", "/debug/traces/<trace_id>"),
)

#: The path patterns, deduplicated in route-table order.
KNOWN_PATHS: tuple[str, ...] = tuple(dict.fromkeys(p for _, p in ROUTES))


class BadRequest(ReproError):
    """The request body or parameters cannot be interpreted."""


@dataclass(frozen=True)
class _TextPayload:
    """A non-JSON response body (the Prometheus exposition page)."""

    text: str
    content_type: str


# ----------------------------------------------------------------------
# JSON <-> domain objects
# ----------------------------------------------------------------------
#: The JSON types an element may have.  ``bool`` is an ``int``
#: subclass but not this type, so ``true`` is refused instead of
#: merging with ``1`` (and ``false`` with ``0``).
_ELEMENT_TYPES = frozenset({int, str})


def _decode_rows(tuples, where: str) -> list[tuple]:
    """Decode one relation's JSON tuple list, checking every element in
    the same pass that builds the tuples."""
    if not isinstance(tuples, list):
        raise BadRequest(f"{where} must be a list of tuples")
    rows = []
    for row in tuples:
        if not isinstance(row, list):
            raise BadRequest(f"{where} contains a non-tuple row")
        if not _ELEMENT_TYPES.issuperset(map(type, row)):
            bad = next(e for e in row if type(e) not in _ELEMENT_TYPES)
            raise BadRequest(
                f"{where} contains the element {json.dumps(bad)}; "
                "elements must be ints or strings"
            )
        rows.append(tuple(row))
    return rows


def structure_from_json(payload) -> Structure:
    """Decode the wire form of a structure.

    Accepts ``{"relations": {...}, "universe": [...]}`` or a bare
    ``{name: [[...], ...]}`` relation mapping.  Tuples arrive as JSON
    arrays; elements are ints or strings, and anything else (``true``,
    ``1.5``, ``null``, arrays, objects) is a :class:`BadRequest`.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest("structure must be a JSON object")
    if "relations" in payload:
        relations = payload["relations"]
        universe = payload.get("universe")
    else:
        relations, universe = payload, None
    if not isinstance(relations, Mapping):
        raise BadRequest("structure relations must be an object")
    if universe is not None and not (
        isinstance(universe, list) and _ELEMENT_TYPES.issuperset(map(type, universe))
    ):
        raise BadRequest("structure universe must be a list of ints or strings")
    decoded = {
        str(name): _decode_rows(tuples, f"relation {name!r}")
        for name, tuples in relations.items()
    }
    try:
        return Structure.from_relations(decoded, universe=universe)
    except (ReproError, TypeError) as exc:
        # TypeError covers unhashable elements (nested arrays etc.) --
        # still the client's data, still a 400.
        raise BadRequest(str(exc)) from exc


def structure_or_ref_from_json(payload) -> Structure | str:
    """Decode a structure *or* the ``{"ref": "<name>"}`` reference form.

    A reference resolves against the engine's structure registry at
    execution time; an unknown name surfaces as
    :class:`~repro.engine.registry.UnknownStructureError` (HTTP 404).
    """
    if isinstance(payload, Mapping) and "ref" in payload:
        if len(payload) != 1:
            raise BadRequest(
                'a structure reference must be exactly {"ref": "<name>"}'
            )
        ref = payload["ref"]
        if not isinstance(ref, str) or not ref:
            raise BadRequest("structure ref must be a non-empty string")
        return ref
    return structure_from_json(payload)


def _delta_batches(payload: Mapping, field: str) -> dict:
    """Decode one side (``insert`` / ``delete``) of a wire-form delta."""
    batches = payload.get(field)
    if batches is None:
        return {}
    if not isinstance(batches, Mapping):
        raise BadRequest(f"{field} must map relation names to tuple lists")
    return {
        str(name): _decode_rows(tuples, f"{field}[{name!r}]")
        for name, tuples in batches.items()
    }


def delta_from_json(payload) -> StructureDelta:
    """Decode the wire form of a structure delta.

    ``{"insert"?: {rel: [[...], ...]}, "delete"?: {...}}``; at least
    one side must be present and non-empty, and elements are ints or
    strings exactly as in :func:`structure_from_json`.
    """
    if not isinstance(payload, Mapping):
        raise BadRequest("delta must be a JSON object")
    inserts = _delta_batches(payload, "insert")
    deletes = _delta_batches(payload, "delete")
    if not inserts and not deletes:
        raise BadRequest(
            'delta must carry at least one "insert" or "delete" tuple'
        )
    try:
        return StructureDelta(inserts=inserts, deletes=deletes)
    except (ReproError, TypeError) as exc:
        raise BadRequest(str(exc)) from exc


def _require(payload: Mapping, field: str):
    try:
        return payload[field]
    except (KeyError, TypeError):
        raise BadRequest(f"missing required field {field!r}") from None


def _query_from_json(value) -> str:
    if not isinstance(value, str) or not value.strip():
        raise BadRequest("query must be a non-empty string")
    return value


def _policy_from_json(payload: Mapping):
    """The optional ``policy`` field: a mode string or a policy object.

    Only the JSON shape is checked here; field-level validation (known
    mode, positive limits, ...) happens in
    :meth:`~repro.engine.policy.ExecutionPolicy.from_request`, whose
    :class:`ReproError` maps to ``400`` like any other malformed input.
    """
    value = payload.get("policy")
    if value is None:
        return None
    if not isinstance(value, (str, Mapping)):
        raise BadRequest("policy must be a string or an object")
    return value


def _optional_int(payload: Mapping, field: str) -> int | None:
    """An optional integer field (JSON booleans are *not* integers)."""
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{field} must be an integer")
    return value


def _optional_bool(payload: Mapping, field: str) -> bool | None:
    """An optional boolean field (``"false"``, ``0`` or ``[]`` are not
    booleans: a truthiness test would read ``"false"`` as true)."""
    value = payload.get(field)
    if value is None or isinstance(value, bool):
        return value
    raise BadRequest(f"{field} must be a boolean")


def _optional_str(payload: Mapping, field: str) -> str | None:
    """An optional string field (``null`` is absent, like every other
    optional field; a number is not a name)."""
    value = payload.get(field)
    if value is None or isinstance(value, str):
        return value
    raise BadRequest(f"{field} must be a string")


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class CountingServer:
    """An asyncio HTTP server publishing one :class:`CountingService`.

    Parameters
    ----------
    service:
        The service to publish; when omitted one is created (owning its
        own engine) from ``engine`` / ``config``.
    host / port:
        Bind address.  ``port=0`` picks an ephemeral port; the real one
        is available from :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        service: CountingService | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        engine=None,
        config: ServiceConfig | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        self.service = (
            service
            if service is not None
            else CountingService(engine=engine, config=config)
        )
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.base_events.Server | None = None
        # Handlers keyed by (method, path pattern).
        self._handlers = {
            ("POST", "/count"): self._route_count,
            ("POST", "/count_many"): self._route_count_many,
            ("POST", "/count_sharded"): self._route_count_sharded,
            ("POST", "/classify"): self._route_classify,
            ("GET", "/healthz"): None,
            ("GET", "/metrics"): None,
            ("GET", "/structures"): None,
            ("PUT", "/structures/<name>"): self._route_register_structure,
            ("PATCH", "/structures/<name>"): self._route_apply_delta,
            ("GET", "/structures/<name>"): None,
            ("DELETE", "/structures/<name>"): None,
            ("GET", "/debug/traces"): None,
            ("GET", "/debug/traces/<trace_id>"): None,
        }
        if set(self._handlers) != set(ROUTES):
            # ROUTES is what dispatch, the error bodies, and the CI
            # docs check trust; a handler table that drifted from it
            # would 500 at request time -- fail at construction instead.
            raise ReproError(
                "CountingServer handler table drifted from ROUTES"
            )

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        return host, port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, then drain and close the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    async def __aenter__(self) -> "CountingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), KEEPALIVE_IDLE_SECONDS
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
                if request is None:  # clean EOF between requests
                    break
                method, raw_path, headers, body, parse_error = request
                keep_alive = headers.get("connection", "").lower() != "close"
                path, _, query = raw_path.partition("?")
                request_id = (
                    headers.get("x-request-id") or uuid.uuid4().hex[:16]
                )
                started = time.perf_counter()
                tracer = _trace.get_tracer()
                if parse_error is not None:
                    trace = _trace.NOOP_TRACE
                    status, payload, extra = 400, {"error": parse_error}, {}
                    keep_alive = False
                else:
                    with tracer.trace(
                        f"{method} {path}", request_id=request_id
                    ) as trace:
                        status, payload, extra = await self._dispatch(
                            method, path, query, headers, body
                        )
                duration = time.perf_counter() - started
                extra = {**extra, "X-Request-Id": request_id}
                self._log_request(
                    method, path, status, duration, request_id, trace
                )
                await self._write_response(
                    writer, status, payload, keep_alive, extra
                )
                if not keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ) as exc:  # pragma: no cover - client went away mid-request
            _connection_log.debug(
                "client connection dropped mid-request",
                extra={"error": f"{type(exc).__name__}: {exc}"},
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError) as exc:  # pragma: no cover
                _connection_log.debug(
                    "connection close handshake failed",
                    extra={"error": f"{type(exc).__name__}: {exc}"},
                )

    def _log_request(
        self,
        method: str,
        path: str,
        status: int,
        duration: float,
        request_id: str,
        trace,
    ) -> None:
        """One completion record per request, plus the slow-query dump."""
        _request_log.info(
            "request complete",
            extra={
                "request_id": request_id,
                "trace_id": trace.trace_id,
                "method": method,
                "endpoint": path,
                "status": status,
                "duration_seconds": round(duration, 6),
                "stages": {
                    name: round(seconds, 6)
                    for name, seconds in trace.stage_breakdown().items()
                },
            },
        )
        threshold = self.service.config.slow_request_seconds
        if threshold is not None and threshold > 0 and duration > threshold:
            _slowquery_log.warning(
                "slow request",
                extra={
                    "request_id": request_id,
                    "trace_id": trace.trace_id,
                    "method": method,
                    "endpoint": path,
                    "status": status,
                    "duration_seconds": round(duration, 6),
                    "threshold_seconds": threshold,
                    "trace": trace.as_dict(),
                },
            )

    async def _read_request(self, reader: asyncio.StreamReader):
        """One parsed request, ``None`` on EOF, or a parse-error tuple."""
        try:
            request_line = await reader.readline()
        except ValueError:
            # The StreamReader's line limit fired (absurdly long
            # request line): answer 400 instead of dropping the socket.
            return "GET", "/", {}, b"", "request line too long"
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode("ascii").split()
        except ValueError:
            return "GET", "/", {}, b"", "malformed request line"
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                return method, path, headers, b"", "header line too long"
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            # Only Content-Length framing is supported; reading on
            # would misparse the chunk stream as the next request.
            return (
                method, path, headers, b"",
                "chunked transfer encoding is not supported",
            )
        body = b""
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError:
            return method, path, headers, b"", "bad Content-Length"
        if length < 0:
            return method, path, headers, b"", "bad Content-Length"
        if length > self.max_body_bytes:
            return method, path, headers, b"", "request body too large"
        if length:
            body = await reader.readexactly(length)
        # The query string stays attached; dispatch splits it off (the
        # /metrics format negotiation reads it).
        return method, path, headers, body, None

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | _TextPayload,
        keep_alive: bool,
        extra_headers: Mapping | None = None,
    ) -> None:
        if isinstance(payload, _TextPayload):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8") + b"\n"
            content_type = "application/json"
        head = [
            f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        if status == 429:
            head.append("Retry-After: 1")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @staticmethod
    def _match_path(path: str) -> tuple[str | None, dict]:
        """``(pattern, params)`` for ``path``, ``(None, {})`` if unknown."""
        if path in KNOWN_PATHS and "<" not in path:
            return path, {}
        prefix = "/structures/"
        if path.startswith(prefix) and len(path) > len(prefix):
            return "/structures/<name>", {"name": path[len(prefix) :]}
        prefix = "/debug/traces/"
        if path.startswith(prefix) and len(path) > len(prefix):
            return "/debug/traces/<trace_id>", {"trace_id": path[len(prefix) :]}
        return None, {}

    @staticmethod
    def _wants_prometheus(query: str, headers: Mapping) -> bool:
        """Content negotiation for ``/metrics``: JSON unless asked.

        ``?format=prometheus`` (or ``format=openmetrics``) wins over
        headers; otherwise an ``Accept`` preferring ``text/plain`` over
        JSON (what a Prometheus scraper sends) selects the exposition
        format.
        """
        params = urllib.parse.parse_qs(query)
        fmt = params.get("format", [None])[0]
        if fmt is not None:
            return fmt.lower() in ("prometheus", "openmetrics")
        accept = headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    async def _dispatch(
        self, method: str, path: str, query: str, headers: Mapping, body: bytes
    ) -> tuple[int, dict | _TextPayload, dict]:
        """``(status, payload, extra response headers)`` for a request."""
        pattern, params = self._match_path(path)
        if pattern is None:
            return (
                404,
                {
                    "error": f"unknown path {path!r}",
                    "known_paths": list(KNOWN_PATHS),
                },
                {},
            )
        allowed = sorted({m for m, p in ROUTES if p == pattern})
        if method not in allowed:
            return (
                405,
                {
                    "error": f"{pattern} does not accept {method}",
                    "allowed": allowed,
                },
                {"Allow": ", ".join(allowed)},
            )
        try:
            if (method, pattern) == ("GET", "/healthz"):
                health = self.service.healthz()
                return (200 if health["status"] == "ok" else 503), health, {}
            if (method, pattern) == ("GET", "/metrics"):
                metrics = self.service.metrics()
                if self._wants_prometheus(query, headers):
                    return (
                        200,
                        _TextPayload(
                            render_prometheus(metrics), _PROM_CONTENT_TYPE
                        ),
                        {},
                    )
                return 200, metrics, {}
            if (method, pattern) == ("GET", "/debug/traces"):
                tracer = _trace.get_tracer()
                return (
                    200,
                    {
                        "tracing_enabled": tracer.enabled,
                        "capacity": tracer.capacity,
                        "traces": [
                            t.summary() for t in tracer.finished_traces()
                        ],
                    },
                    {},
                )
            if (method, pattern) == ("GET", "/debug/traces/<trace_id>"):
                found = _trace.get_tracer().get(params["trace_id"])
                if found is None:
                    return (
                        404,
                        {"error": f"unknown trace {params['trace_id']!r}"},
                        {},
                    )
                return 200, found.as_dict(), {}
            if (method, pattern) == ("GET", "/structures"):
                return 200, self.service.list_structures(), {}
            if (method, pattern) == ("GET", "/structures/<name>"):
                return 200, self.service.get_structure(params["name"]), {}
            if (method, pattern) == ("DELETE", "/structures/<name>"):
                name = params["name"]
                if not await self.service.unregister_structure(name):
                    raise UnknownStructureError(
                        name, self.service.engine.registry.names()
                    )
                return 200, {"deleted": name}, {}
            payload = json.loads(body.decode("utf-8")) if body else None
            if not isinstance(payload, Mapping):
                raise BadRequest("request body must be a JSON object")
            if "strategy" in payload:
                raise BadRequest(
                    "the 'strategy' field was removed in 1.11.0; every "
                    "count runs the paper's pipeline"
                )
            handler = self._handlers[(method, pattern)]
            assert handler is not None
            return 200, await handler(payload, **params), {}
        except BadRequest as exc:
            return 400, {"error": str(exc)}, {}
        except json.JSONDecodeError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, {}
        except UnicodeDecodeError:
            return 400, {"error": "request body must be UTF-8"}, {}
        except VersionConflict as exc:
            # A stale expect_version on PATCH: the caller's view of the
            # entry is out of date.  Must precede the generic ReproError
            # branch -- a version conflict is not a malformed request.
            return (
                409,
                {
                    "error": str(exc),
                    "expected_version": exc.expected,
                    "actual_version": exc.actual,
                },
                {},
            )
        except UnknownStructureError as exc:
            # An unregistered reference is the JSON-body analogue of an
            # unknown path: a 404 listing what *would* have resolved.
            return (
                404,
                {"error": str(exc), "known_structures": sorted(exc.known)},
                {},
            )
        except ServiceSaturated as exc:
            return 429, {"error": str(exc)}, {}
        except ServiceClosed as exc:
            return 503, {"error": str(exc)}, {}
        except ServiceTimeout as exc:
            return 504, {"error": str(exc)}, {}
        except PolicyRejection as exc:
            # The execution policy refused the query at plan time: the
            # request is well-formed but names work the operator chose
            # not to run.  Must precede the generic ReproError branch.
            return (
                422,
                {
                    "error": str(exc),
                    "verdict": exc.verdict,
                    "measures": exc.measures,
                    "policy": exc.policy,
                },
                {},
            )
        except BudgetExceeded as exc:
            # The cooperative cost budget fired mid-execution (possibly
            # inside a pool worker): the request timed out by the
            # operator's cost clock, with partial-progress stats from
            # the abort point.  Must precede the ReproError branch.
            return (
                504,
                {"error": str(exc), "progress": exc.progress},
                {},
            )
        except WorkerTaskError as exc:
            # A failure *inside* a pool worker is a server-side problem
            # with a well-formed request, never the client's fault.
            return 500, {"error": str(exc)}, {}
        except ReproError as exc:
            # Engine-level rejection of well-formed JSON that names an
            # unparsable query, bad shard count, ...
            return 400, {"error": str(exc)}, {}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    async def _route_count(self, payload: Mapping) -> dict:
        count = await self.service.count(
            _query_from_json(_require(payload, "query")),
            structure_or_ref_from_json(_require(payload, "structure")),
            policy=_policy_from_json(payload),
        )
        return {"count": count}

    async def _route_classify(self, payload: Mapping) -> dict:
        return await self.service.classify(
            _query_from_json(_require(payload, "query")),
            policy=_policy_from_json(payload),
        )

    async def _route_count_many(self, payload: Mapping) -> dict:
        queries = _require(payload, "queries")
        structures = _require(payload, "structures")
        if not isinstance(queries, list) or not queries:
            raise BadRequest("queries must be a non-empty list")
        if not isinstance(structures, list) or not structures:
            raise BadRequest("structures must be a non-empty list")
        counts = await self.service.count_many(
            [_query_from_json(q) for q in queries],
            [structure_or_ref_from_json(s) for s in structures],
            parallel=_optional_bool(payload, "parallel"),
            policy=_policy_from_json(payload),
        )
        return {"counts": counts}

    async def _route_count_sharded(self, payload: Mapping) -> dict:
        shard_count = _optional_int(payload, "shard_count")
        shard_strategy = _optional_str(payload, "shard_strategy")
        count = await self.service.count_sharded(
            _query_from_json(_require(payload, "query")),
            structure_or_ref_from_json(_require(payload, "structure")),
            shard_count=shard_count,
            shard_strategy="hash" if shard_strategy is None else shard_strategy,
            parallel=_optional_bool(payload, "parallel"),
            policy=_policy_from_json(payload),
        )
        return {"count": count}

    async def _route_register_structure(self, payload: Mapping, name: str) -> dict:
        """``PUT /structures/<name>``: make a structure resident.

        Body: ``{"structure": {...}, "pin"?: true, "shard_count"?: N}``.
        The structure must be inline data (a reference cannot register a
        reference); the response is the entry's metadata view.
        """
        try:
            validate_structure_name(name)
        except ReproError as exc:
            raise BadRequest(str(exc)) from exc
        structure = structure_from_json(_require(payload, "structure"))
        pin = _optional_bool(payload, "pin")
        shard_count = _optional_int(payload, "shard_count")
        return await self.service.register_structure(
            name,
            structure,
            pin=True if pin is None else pin,
            shard_count=shard_count,
        )

    async def _route_apply_delta(self, payload: Mapping, name: str) -> dict:
        """``PATCH /structures/<name>``: apply a delta to a resident entry.

        Body: ``{"insert"?: {...}, "delete"?: {...},``
        ``"expect_version"?: N}``.  The response is the updated entry
        view; a stale ``expect_version`` maps to ``409`` and an unknown
        name to ``404``, exactly like the other ``/structures`` verbs.
        """
        delta = delta_from_json(payload)
        expect_version = _optional_int(payload, "expect_version")
        return await self.service.apply_delta(
            name, delta, expect_version=expect_version
        )


# ----------------------------------------------------------------------
# Background runner (tests, benchmarks, examples)
# ----------------------------------------------------------------------
class BackgroundServer:
    """Run a :class:`CountingServer` on a dedicated event-loop thread.

    The blocking-world adapter: tests, the benchmark harness, and the
    ``--smoke`` check talk to a real listening socket while their own
    thread stays synchronous.  Use as a context manager; ``stop()``
    performs the full graceful shutdown (drain, close pools) and joins
    the loop thread.
    """

    def __init__(self, server: CountingServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover
            raise ReproError("server failed to start within 30s")
        if self._startup_error is not None:
            # Binding failed on the loop thread (port in use, bad
            # host, ...); fail fast with the real cause instead of a
            # generic timeout.
            self._thread.join(timeout=10)
            self._thread = None
            raise self._startup_error
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                self._loop = None
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            loop.close()

    def stop(self) -> None:
        loop, self._loop = self._loop, None
        if loop is None:
            return
        try:
            future = asyncio.run_coroutine_threadsafe(self.server.stop(), loop)
            future.result(timeout=60)
        finally:
            # Even when the graceful stop failed or timed out, the loop
            # must still be stopped and the thread joined -- otherwise
            # the port stays bound forever with no way to retry.
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=30)
                self._thread = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
