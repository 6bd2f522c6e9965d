"""Per-request span tracing for the counting stack.

A :class:`Tracer` produces **trace trees**: one :class:`Trace` per
request, holding named :class:`Span` records (start time, duration,
attributes, error) linked by parent ids.  The ambient trace travels in
a :mod:`contextvars` variable, so instrumentation points anywhere in
the stack -- the HTTP layer, the engine, the execution context deep
inside a semijoin -- call :func:`span` without threading a handle
through every signature.  Crossing the process boundary into pool
workers works differently: a worker opens a :meth:`Tracer.capture`
around its task, serializes the finished spans to plain dicts, and
ships them back alongside the result (the existing job-result path of
:mod:`repro.engine.pool`), where :meth:`Tracer.attach_foreign`
re-parents them under the caller's current span.

The canonical span names, one per pipeline stage (documented with
their attributes in ``docs/observability.md``):

``admission.queue``
    waiting for an execution slot in the serving layer;
``plan.compile``
    plan-cache lookup + compilation (attrs: ``cache`` hit/miss,
    ``kind``);
``context.encode``
    one-time dense-int interning of a structure, at its first
    fingerprint or its context's first use (attrs: ``universe``,
    ``tuples``, ``backend``);
``context.semijoin``
    one ∃-component elimination on the column tables (attrs:
    ``boundary``, ``backend``);
``shard.fanout``
    shipping a ``count_sharded`` or ``count_many`` call's jobs to the
    pool and collecting results;
``shard.execute[i]``
    one job's units on one shard or batch structure, recorded *inside*
    the worker that ran it (``[i]`` is the job index, suffixed at
    re-parenting time) or in-process for sequential work;
``combine``
    exact recombination of the unit values into counts.

Tracing is **on by default**; ``REPRO_TRACE=off`` (or ``0`` / ``false``
/ ``no``) disables it process-wide, and forked pool workers inherit the
setting.  When disabled, every hook degrades to a shared no-op object,
so the cost is one :class:`~contextvars.ContextVar` read per
instrumentation point.  Finished traces land in a bounded ring buffer
(newest win), which ``GET /debug/traces`` serves.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from collections import deque
from typing import Iterator, Mapping, Sequence

#: How many finished traces the ring buffer retains by default.
DEFAULT_TRACE_CAPACITY = 256

#: Environment variable gating tracing process-wide.
TRACE_ENV_VAR = "REPRO_TRACE"

_DISABLED_VALUES = ("off", "0", "false", "no")


def _env_enabled() -> bool:
    """Whether ``REPRO_TRACE`` leaves tracing on (the default)."""
    return os.environ.get(TRACE_ENV_VAR, "on").strip().lower() not in (
        _DISABLED_VALUES
    )


class Span:
    """One named, timed segment of a trace.

    ``started_at`` is wall-clock (``time.time()``) for display;
    durations come from ``perf_counter`` so they are monotonic.
    ``error`` is ``None`` for a clean span or a short
    ``"ExceptionType: message"`` description.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "started_at",
        "duration_seconds",
        "attributes",
        "error",
        "_start_perf",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        attributes: Mapping | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = time.time()
        self._start_perf = time.perf_counter()
        self.duration_seconds: float | None = None
        self.attributes: dict = dict(attributes) if attributes else {}
        self.error: str | None = None

    def set(self, key: str, value) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def finish(self, error: str | None = None) -> None:
        """Close the span (idempotent; the first finish wins)."""
        if self.duration_seconds is None:
            self.duration_seconds = time.perf_counter() - self._start_perf
            if error is not None:
                self.error = error

    def to_dict(self) -> dict:
        """The flat (non-tree) JSON form; ``as_dict`` trees live on traces."""
        out = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "attributes": dict(self.attributes),
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration_seconds})"
        )


class _NoopSpan:
    """The shared do-nothing span handed out when tracing is inactive."""

    __slots__ = ()
    name = ""
    span_id = ""
    parent_id = None
    started_at = 0.0
    duration_seconds = None
    attributes: dict = {}
    error = None

    def set(self, key: str, value) -> None:
        pass

    def finish(self, error: str | None = None) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Trace:
    """One request's tree of spans.

    Spans are stored flat (insertion order; a parent always precedes
    its children) and treed on demand by :meth:`as_dict`.  Mutation is
    locked: the serving layer appends from both the event loop
    (admission spans) and executor threads (engine spans), and an
    abandoned request's thread may still be appending while the trace
    is read from the debug endpoint.
    """

    __slots__ = (
        "trace_id",
        "request_id",
        "started_at",
        "finished",
        "root",
        "_spans",
        "_counter",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        trace_id: str | None = None,
        request_id: str | None = None,
        attributes: Mapping | None = None,
    ):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.request_id = request_id
        self.started_at = time.time()
        self.finished = False
        self._spans: list[Span] = []
        self._counter = 0
        self._lock = threading.Lock()
        self.root = self.new_span(name, parent=None, attributes=attributes)

    # ------------------------------------------------------------------
    def new_span(
        self,
        name: str,
        parent: Span | None,
        attributes: Mapping | None = None,
    ) -> Span:
        """Open a new span under ``parent`` (``None`` only for the root)."""
        with self._lock:
            self._counter += 1
            span = Span(
                name,
                span_id=f"s{self._counter}",
                parent_id=parent.span_id if parent is not None else None,
                attributes=attributes,
            )
            self._spans.append(span)
            return span

    def attach_serialized(
        self,
        spans: Sequence[Mapping],
        parent: Span,
        suffix: str = "",
    ) -> None:
        """Re-parent foreign (worker-recorded) spans under ``parent``.

        ``spans`` is the flat ``to_dict`` list a worker shipped back:
        parents precede children, ids are local to the worker's capture.
        Fresh ids are allocated from this trace, the worker's root spans
        hang off ``parent`` with ``suffix`` appended to their names
        (e.g. ``"[3]"`` for shard 3), and recorded start/duration are
        kept as-is -- worker and parent share a host clock.
        """
        with self._lock:
            id_map: dict[str, str] = {}
            for record in spans:
                self._counter += 1
                new_id = f"s{self._counter}"
                old_id = str(record.get("span_id", new_id))
                id_map[old_id] = new_id
                old_parent = record.get("parent_id")
                if old_parent is None:
                    parent_id = parent.span_id
                    name = f"{record['name']}{suffix}"
                else:
                    parent_id = id_map.get(str(old_parent), parent.span_id)
                    name = str(record["name"])
                span = Span(
                    name,
                    span_id=new_id,
                    parent_id=parent_id,
                    attributes=record.get("attributes"),
                )
                span.started_at = float(record.get("started_at", 0.0))
                span.duration_seconds = record.get("duration_seconds")
                span.error = record.get("error")
                self._spans.append(span)

    def set(self, key: str, value) -> None:
        """Attach one attribute to the root span (span-compatible API)."""
        self.root.set(key, value)

    # ------------------------------------------------------------------
    def finish(self, error: str | None = None) -> None:
        self.root.finish(error)
        self.finished = True

    @property
    def duration_seconds(self) -> float | None:
        return self.root.duration_seconds

    def spans(self) -> list[Span]:
        """A snapshot of the flat span list."""
        with self._lock:
            return list(self._spans)

    def serialized_spans(self) -> list[dict]:
        """The flat ``to_dict`` list (what a worker capture ships back)."""
        return [span.to_dict() for span in self.spans()]

    def stage_breakdown(self) -> dict[str, float]:
        """Duration by name of the root's *direct* children, summed.

        This is the request-completion log's ``stages`` field: where a
        request spent its time, one level deep.
        """
        root_id = self.root.span_id
        out: dict[str, float] = {}
        for span in self.spans():
            if span.parent_id == root_id and span.duration_seconds is not None:
                out[span.name] = out.get(span.name, 0.0) + span.duration_seconds
        return out

    def summary(self) -> dict:
        """The listing row ``GET /debug/traces`` serves."""
        spans = self.spans()
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "name": self.root.name,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "span_count": len(spans),
            "error": self.root.error,
        }

    def as_dict(self) -> dict:
        """The full trace tree (the ``/debug/traces/<id>`` payload)."""
        spans = self.spans()
        children: dict[str | None, list[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        known = {span.span_id for span in spans}

        def node(span: Span) -> dict:
            out = span.to_dict()
            out.pop("parent_id", None)
            kids = children.get(span.span_id, [])
            if kids:
                out["children"] = [node(child) for child in kids]
            return out

        tree = node(self.root)
        # Orphans (parent id lost in a partial foreign batch) still show
        # up, directly under the root, instead of silently vanishing.
        for span in spans:
            if span.parent_id is not None and span.parent_id not in known:
                tree.setdefault("children", []).append(node(span))
        return {
            "trace_id": self.trace_id,
            "request_id": self.request_id,
            "started_at": self.started_at,
            "duration_seconds": self.duration_seconds,
            "span_count": len(spans),
            "root": tree,
        }


class _NoopTrace:
    """Stands in for a trace when tracing is disabled.

    Shaped like :class:`Trace` where the serving layer touches it, so
    request handling does not branch on the tracing switch.
    """

    __slots__ = ()
    trace_id = None
    request_id = None
    finished = True
    root = NOOP_SPAN
    duration_seconds = None

    def set(self, key: str, value) -> None:
        pass

    def finish(self, error: str | None = None) -> None:
        pass

    def stage_breakdown(self) -> dict:
        return {}

    def summary(self) -> dict:
        return {}

    def as_dict(self) -> dict:
        return {}


NOOP_TRACE = _NoopTrace()


# ----------------------------------------------------------------------
# Context managers
# ----------------------------------------------------------------------
class _TraceHandle:
    """CM for a root trace: sets the ambient context, retains on exit."""

    __slots__ = ("_tracer", "_trace", "_token", "_retain")

    def __init__(self, tracer: "Tracer", trace: Trace, retain: bool):
        self._tracer = tracer
        self._trace = trace
        self._retain = retain
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Trace:
        self._token = self._tracer._var.set((self._trace, self._trace.root))
        return self._trace

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            self._tracer._var.reset(self._token)
        error = f"{exc_type.__name__}: {exc}" if exc_type is not None else None
        self._trace.finish(error)
        if self._retain:
            self._tracer._retain(self._trace)


class _SpanHandle:
    """CM for a child span of the ambient trace."""

    __slots__ = ("_tracer", "_trace", "_span", "_token")

    def __init__(self, tracer: "Tracer", trace: Trace, span: Span):
        self._tracer = tracer
        self._trace = trace
        self._span = span
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Span:
        self._token = self._tracer._var.set((self._trace, self._span))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            self._tracer._var.reset(self._token)
        error = f"{exc_type.__name__}: {exc}" if exc_type is not None else None
        self._span.finish(error)


class _NoopHandle:
    """Shared no-op CM for inactive tracing (no trace, or disabled)."""

    __slots__ = ()

    def __enter__(self):
        return NOOP_SPAN

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_HANDLE = _NoopHandle()


class _NoopTraceHandle:
    """No-op CM where a :class:`Trace` object is expected back."""

    __slots__ = ()

    def __enter__(self):
        return NOOP_TRACE

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_TRACE_HANDLE = _NoopTraceHandle()


class _Capture:
    """CM recording a worker-local trace and serializing it on exit.

    After the ``with`` block, :attr:`spans` holds the flat serialized
    span list (``None`` when tracing is disabled), ready to ship across
    the process boundary.  The capture's trace is never retained in the
    ring buffer -- it only exists to be re-parented by the caller.
    """

    __slots__ = ("_handle", "_trace", "spans")

    def __init__(self, tracer: "Tracer", name: str, attributes: Mapping | None):
        self._trace = Trace(name, attributes=attributes)
        self._handle = _TraceHandle(tracer, self._trace, retain=False)
        self.spans: list[dict] | None = None

    @property
    def root(self) -> Span:
        return self._trace.root

    def __enter__(self) -> "_Capture":
        self._handle.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._handle.__exit__(exc_type, exc, tb)
        self.spans = self._trace.serialized_spans()


class _NoopCapture:
    """Disabled-tracing capture: records nothing, ships ``None``."""

    __slots__ = ()
    spans = None
    root = NOOP_SPAN

    def __enter__(self) -> "_NoopCapture":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_CAPTURE = _NoopCapture()


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Produces traces, tracks the ambient span, retains finished traces.

    Parameters
    ----------
    capacity:
        Ring-buffer size for finished traces (oldest evicted first).
    enabled:
        ``None`` (the default) reads ``REPRO_TRACE`` from the
        environment; booleans override it.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        enabled: bool | None = None,
    ):
        self._buffer: deque[Trace] = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self._enabled = _env_enabled() if enabled is None else bool(enabled)
        self._var: contextvars.ContextVar[tuple[Trace, Span] | None] = (
            contextvars.ContextVar("repro_trace", default=None)
        )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool | None) -> None:
        """Flip tracing; ``None`` re-reads ``REPRO_TRACE``.

        Only affects traces started afterwards -- and pool workers
        forked afterwards; already-running workers keep the setting
        they inherited at fork time.
        """
        self._enabled = _env_enabled() if enabled is None else bool(enabled)

    @property
    def capacity(self) -> int:
        return self._buffer.maxlen or 0

    def set_capacity(self, capacity: int) -> None:
        """Resize the ring buffer, keeping the newest retained traces."""
        with self._lock:
            self._buffer = deque(self._buffer, maxlen=max(1, capacity))

    # ------------------------------------------------------------------
    # Starting traces and spans
    # ------------------------------------------------------------------
    def trace(
        self,
        name: str,
        request_id: str | None = None,
        retain: bool = True,
        **attributes,
    ):
        """Start a fresh root trace (the per-request entry point)."""
        if not self._enabled:
            return _NOOP_TRACE_HANDLE
        return _TraceHandle(
            self,
            Trace(name, request_id=request_id, attributes=attributes or None),
            retain=retain,
        )

    def span(self, name: str, **attributes):
        """A child span of the ambient trace; a no-op without one."""
        current = self._var.get()
        if current is None:
            return _NOOP_HANDLE
        trace, parent = current
        return _SpanHandle(
            self, trace, trace.new_span(name, parent, attributes or None)
        )

    def span_or_trace(self, name: str, **attributes):
        """A child span when a trace is active, else a fresh root trace.

        The engine's entry points use this: under the HTTP layer they
        nest into the request trace; called directly as a library they
        still produce a complete, retained trace of their own.
        """
        if self._var.get() is not None:
            return self.span(name, **attributes)
        return self.trace(name, **attributes)

    def capture(self, name: str, **attributes):
        """A worker-side capture: a local trace serialized on exit."""
        if not self._enabled:
            return _NOOP_CAPTURE
        return _Capture(self, name, attributes or None)

    # ------------------------------------------------------------------
    # The ambient context
    # ------------------------------------------------------------------
    def current_trace(self) -> Trace | None:
        current = self._var.get()
        return current[0] if current is not None else None

    def current_span(self) -> Span | None:
        current = self._var.get()
        return current[1] if current is not None else None

    def attach_foreign(
        self, spans: Sequence[Mapping] | None, suffix: str = ""
    ) -> bool:
        """Re-parent worker-shipped spans under the ambient span.

        Returns ``False`` (dropping the spans) when no trace is active
        -- e.g. the executor was called with tracing disabled
        parent-side while the forked workers still had it on.
        """
        if not spans:
            return False
        current = self._var.get()
        if current is None:
            return False
        trace, parent = current
        trace.attach_serialized(spans, parent, suffix=suffix)
        return True

    # ------------------------------------------------------------------
    # The ring buffer
    # ------------------------------------------------------------------
    def _retain(self, trace: Trace) -> None:
        with self._lock:
            self._buffer.append(trace)

    def finished_traces(self) -> list[Trace]:
        """Retained traces, newest first."""
        with self._lock:
            return list(reversed(self._buffer))

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            for trace in self._buffer:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.finished_traces())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(enabled={self._enabled}, retained={len(self)}/"
            f"{self.capacity})"
        )


#: The process-wide default tracer every layer shares.
_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def span(name: str, **attributes):
    """Module-level shortcut: a child span on the default tracer."""
    return _tracer.span(name, **attributes)


def span_or_trace(name: str, **attributes):
    """Module-level shortcut: :meth:`Tracer.span_or_trace` on the default."""
    return _tracer.span_or_trace(name, **attributes)


def capture(name: str, **attributes):
    """Module-level shortcut: a worker-side capture on the default tracer."""
    return _tracer.capture(name, **attributes)


def attach_foreign(spans, suffix: str = "") -> bool:
    """Module-level shortcut: re-parent worker spans on the default tracer."""
    return _tracer.attach_foreign(spans, suffix=suffix)
