"""The asyncio serving facade over :class:`~repro.engine.api.Engine`.

:class:`CountingService` turns the engine's blocking ``count`` /
``count_many`` / ``count_sharded`` calls into awaitables with the three
properties a front end needs under load:

* **a bounded worker budget** -- engine calls run on a thread pool of
  ``max_in_flight`` threads (the engine's own process pool provides the
  CPU parallelism; the threads only keep the event loop unblocked), so
  a burst can never fork an unbounded number of concurrent executions;
* **admission control** -- at most ``max_in_flight`` requests execute
  while at most ``max_queue`` wait; a request arriving beyond that is
  rejected *immediately* with :class:`ServiceSaturated` (the HTTP layer
  maps it to 429) instead of queueing without bound until the process
  collapses;
* **per-request timeouts** -- the deadline covers queueing *and*
  execution; a request that cannot finish inside
  ``request_timeout_seconds`` fails with :class:`ServiceTimeout` (504).
  A timed-out execution cannot be killed mid-count, so its worker slot
  stays held until the thread actually returns (``abandoned`` in the
  metrics counts such zombies); admission control therefore stays
  truthful even when clients have long given up.

Every request's latency is recorded in a per-endpoint
:class:`LatencyHistogram`, and :meth:`CountingService.metrics` merges
those with a coherent :meth:`Engine.stats` snapshot -- the payload
``/metrics`` serves.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from dataclasses import replace as _replace

from repro.engine.api import Engine
from repro.exceptions import PolicyRejection, ReproError
from repro.obs import trace as _trace
from repro.obs.log import get_logger

_log = get_logger("serve.service")

#: Upper bounds (seconds) of the latency histogram buckets; the last
#: bucket is unbounded.  Log-spaced from 0.5ms to 60s.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class ServiceError(ReproError):
    """Base class for serving-layer failures."""


class ServiceSaturated(ServiceError):
    """The service is at ``max_in_flight + max_queue``; retry later.

    The HTTP layer maps this to ``429 Too Many Requests``.
    """


class ServiceTimeout(ServiceError):
    """The request missed its deadline (queueing + execution).

    The HTTP layer maps this to ``504 Gateway Timeout``.
    """


class ServiceClosed(ServiceError):
    """The service is shutting down and no longer admits requests.

    The HTTP layer maps this to ``503 Service Unavailable``.
    """


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`CountingService`.

    ``max_in_flight`` bounds concurrently *executing* requests (and
    sizes the thread pool); ``max_queue`` bounds requests *waiting* for
    a slot; anything beyond the sum is rejected outright.
    ``request_timeout_seconds`` is the per-request deadline across
    queueing and execution; ``drain_timeout_seconds`` is how long
    :meth:`CountingService.aclose` waits for in-flight work before
    giving up on stragglers.  ``slow_request_seconds`` is the
    slow-query threshold: a completed HTTP request slower than this
    gets its full span tree dumped to the ``repro.serve.slowquery``
    log (``None`` or non-positive disables the dump).
    """

    max_in_flight: int = 4
    max_queue: int = 16
    request_timeout_seconds: float = 30.0
    drain_timeout_seconds: float = 10.0
    slow_request_seconds: float | None = 1.0

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ReproError("max_in_flight must be at least 1")
        if self.max_queue < 0:
            raise ReproError("max_queue must be non-negative")
        if self.request_timeout_seconds <= 0:
            raise ReproError("request_timeout_seconds must be positive")


class LatencyHistogram:
    """A fixed-bucket latency histogram with percentile estimates.

    Thread-safe: observations land under a lock (requests complete on
    the event loop, but benchmark harnesses observe from worker
    threads), and :meth:`as_dict` / :meth:`percentile` read a coherent
    copy.  Percentiles are bucket-resolution estimates: the value
    returned is the upper bound of the bucket containing the requested
    quantile, which is the usual Prometheus-style approximation.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.bounds = tuple(buckets)
        self._counts = [0] * (len(self.bounds) + 1)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += seconds
            self._max = max(self._max, seconds)

    def _bucket_value(self, index: int, maximum: float) -> float:
        """A bucket's reported value: its upper bound, or the true max
        for the unbounded overflow bucket."""
        return self.bounds[index] if index < len(self.bounds) else maximum

    def _percentile_from(
        self, counts: Sequence[int], total: int, maximum: float, quantile: float
    ) -> float | None:
        if not total:
            return None
        if quantile >= 1.0:
            # The top quantile is the genuinely observed maximum, even
            # when the largest observation fell in a bounded bucket.
            return maximum
        if quantile <= 0.0:
            # The minimum estimate: the first non-empty bucket.  (With
            # rank 0 the old code reported bounds[0] even when that
            # bucket was empty.)
            for i, count in enumerate(counts):
                if count:
                    return self._bucket_value(i, maximum)
            return maximum  # unreachable with total > 0
        # Nearest-rank: the value at position ceil(q * total), 1-based.
        rank = max(1, math.ceil(quantile * total))
        cumulative = 0
        for i, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank:
                return self._bucket_value(i, maximum)
        return maximum

    def percentile(self, quantile: float) -> float | None:
        """The latency at ``quantile`` in [0, 1], or ``None`` if empty."""
        with self._lock:
            total = self._total
            counts = list(self._counts)
            maximum = self._max
        return self._percentile_from(counts, total, maximum, quantile)

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum_seconds(self) -> float:
        """The summed observed seconds (the Prometheus ``_sum`` series)."""
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> list[dict]:
        """Cumulative ``{le, count}`` pairs, closed by the ``le=None``
        (+Inf) bucket whose count equals the total -- the exact shape
        of a Prometheus histogram's ``_bucket`` series."""
        with self._lock:
            counts = list(self._counts)
        out: list[dict] = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            out.append({"le": bound, "count": cumulative})
        out.append({"le": None, "count": cumulative + counts[-1]})
        return out

    def as_dict(self) -> dict:
        with self._lock:
            counts = list(self._counts)
            total = self._total
            seconds_sum = self._sum
            maximum = self._max
        # Percentiles from the copied counts, so the payload is one
        # coherent snapshot even while observations keep landing.
        cumulative = 0
        buckets = []
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            buckets.append(
                {"le": bound, "count": count, "cumulative": cumulative}
            )
        buckets.append(
            {"le": None, "count": counts[-1], "cumulative": total}
        )
        return {
            "count": total,
            "sum_seconds": seconds_sum,
            "max_seconds": maximum,
            "mean_seconds": seconds_sum / total if total else None,
            "p50_seconds": self._percentile_from(counts, total, maximum, 0.50),
            "p90_seconds": self._percentile_from(counts, total, maximum, 0.90),
            "p99_seconds": self._percentile_from(counts, total, maximum, 0.99),
            "buckets": buckets,
        }


@dataclass
class _EndpointCounters:
    """Per-endpoint request accounting (mutated on the event loop)."""

    requests: int = 0
    completed: int = 0
    rejected: int = 0
    timeouts: int = 0
    errors: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "latency": self.latency.as_dict(),
        }


class CountingService:
    """An asyncio facade serving one :class:`~repro.engine.api.Engine`.

    Parameters
    ----------
    engine:
        The engine to serve.  When omitted the service creates (and
        *owns*) one -- :meth:`aclose` then also shuts the engine's
        worker pool down, so a served process exits without child
        processes.  A caller-provided engine is left running on close
        unless ``owns_engine=True`` transfers it to the service.
    config:
        Admission / timeout knobs; see :class:`ServiceConfig`.
    owns_engine:
        Whether shutdown closes the engine's worker pool.  Defaults to
        whether the service created the engine itself.

    All request methods (:meth:`count`, :meth:`count_many`,
    :meth:`count_sharded`) are coroutines and must run on one event
    loop; the blocking engine work happens on the service's bounded
    thread pool.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        config: ServiceConfig | None = None,
        owns_engine: bool | None = None,
    ):
        self.config = config or ServiceConfig()
        self._owns_engine = owns_engine if owns_engine is not None else engine is None
        self.engine = engine if engine is not None else Engine()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_in_flight,
            thread_name_prefix="repro-serve",
        )
        self._slots = asyncio.Semaphore(self.config.max_in_flight)
        self._closed = False
        self._pending = 0  # admitted: queued + executing
        self._executing = 0
        self._abandoned = 0  # timed-out threads still occupying a slot
        self._endpoints = {
            name: _EndpointCounters()
            for name in ("count", "count_many", "count_sharded", "classify")
        }
        self._started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def _effective_policy(self, policy):
        """Resolve the request's policy, coupling budgets to the deadline.

        A budget-aware policy (``budget``/``degrade``) whose
        ``max_seconds`` is unset or beyond the request timeout is capped
        at the timeout: the cooperative budget then aborts the worker
        thread at roughly the moment the HTTP deadline fires, so a
        deadline-exceeded count stops consuming its slot instead of
        running detached (the ``abandoned`` gauge drains instead of
        growing).  ``None`` with a non-budget engine default passes
        through unchanged (the engine applies its own default).
        """
        resolved = self.engine.resolve_policy(policy)
        if resolved.mode not in ("budget", "degrade"):
            return policy
        timeout = self.config.request_timeout_seconds
        if resolved.max_seconds is None or resolved.max_seconds > timeout:
            return _replace(resolved, max_seconds=timeout)
        return resolved

    async def count(self, query, structure, *, policy=None) -> int:
        """``Engine.count`` under admission control and the deadline."""
        policy = self._effective_policy(policy)
        return await self._submit(
            "count",
            lambda: self.engine.count(query, structure, policy=policy),
        )

    async def count_many(
        self,
        queries: Sequence,
        structures: Sequence,
        *,
        parallel: bool | None = None,
        policy=None,
    ) -> list[list[int]]:
        """``Engine.count_many`` under admission control and the deadline."""
        policy = self._effective_policy(policy)
        return await self._submit(
            "count_many",
            lambda: self.engine.count_many(
                queries,
                structures,
                parallel=parallel,
                policy=policy,
            ),
        )

    async def count_sharded(
        self,
        query,
        structure,
        *,
        shard_count: int | None = None,
        shard_strategy: str = "hash",
        parallel: bool | None = None,
        policy=None,
    ) -> int:
        """``Engine.count_sharded`` under admission control and the deadline."""
        policy = self._effective_policy(policy)
        return await self._submit(
            "count_sharded",
            lambda: self.engine.count_sharded(
                query,
                structure,
                shard_count=shard_count,
                shard_strategy=shard_strategy,
                parallel=parallel,
                policy=policy,
            ),
        )

    async def classify(self, query, *, policy=None) -> dict:
        """Dry-run complexity classification: no execution happens.

        Compiles ``query`` through the plan cache (so a later ``count``
        of the same query reuses the plan *and* its memoized profile)
        and reports the trichotomy verdict, the structural measures,
        and what the given policy (default: the engine's) would decide.
        """
        return await self._submit(
            "classify",
            lambda: self._classify_blocking(query, policy),
        )

    def _classify_blocking(self, query, policy) -> dict:
        profile = self.engine.classify(query)
        resolved = self.engine.resolve_policy(policy)
        try:
            resolved.admit(profile)
            admitted = True
        except PolicyRejection:
            admitted = False
        return {
            "verdict": profile.case_for(resolved.treewidth_bound).name,
            "admitted": admitted,
            "profile": profile.as_dict(),
            "policy": resolved.as_dict(),
        }

    # ------------------------------------------------------------------
    # Structure registry management
    # ------------------------------------------------------------------
    async def register_structure(
        self,
        name: str,
        structure,
        pin: bool = True,
        shard_count: int | None = None,
    ) -> dict:
        """Register a named resident structure; returns its entry view.

        Management operations bypass the admission-controlled request
        slots (they are rare and must not compete with traffic for the
        bounded worker budget) but still run off the event loop: a
        registration materializes contexts and computes the shard plan
        -- blocking work.
        """
        if self._closed:
            raise ServiceClosed("service is shut down")
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(
            None,
            lambda: self.engine.register_structure(
                name, structure, pin=pin, shard_count=shard_count
            ),
        )
        return entry.as_dict()

    async def apply_delta(
        self,
        name: str,
        delta,
        expect_version: int | None = None,
    ) -> dict:
        """Apply a delta to a registered structure; returns the new entry view.

        A management operation like registration (same executor, same
        shutdown gate): applying a delta rebuilds encoded columns and
        migrates contexts.  A
        stale ``expect_version`` surfaces as
        :class:`~repro.engine.registry.VersionConflict` (HTTP 409).
        """
        if self._closed:
            raise ServiceClosed("service is shut down")
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(
            None,
            lambda: self.engine.apply_delta(
                name, delta, expect_version=expect_version
            ),
        )
        return entry.as_dict()

    async def unregister_structure(self, name: str) -> bool:
        """Drop a registered structure; ``False`` when the name is unknown."""
        if self._closed:
            raise ServiceClosed("service is shut down")
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.engine.unregister_structure(name)
        )

    def get_structure(self, name: str) -> dict:
        """The entry view of one registered structure (404 if unknown)."""
        entry = self.engine.registry.peek(name)
        if entry is None:
            from repro.engine.registry import UnknownStructureError

            raise UnknownStructureError(name, self.engine.registry.names())
        return entry.as_dict()

    def list_structures(self) -> dict:
        """The registry block: aggregate stats plus every entry view."""
        return self.engine.registry.stats()

    # ------------------------------------------------------------------
    async def _submit(self, endpoint: str, call: Callable[[], object]):
        """Admission control + deadline around one blocking engine call."""
        counters = self._endpoints[endpoint]
        counters.requests += 1
        if self._closed:
            raise ServiceClosed("service is shut down")
        if self._pending >= self.config.max_in_flight + self.config.max_queue:
            counters.rejected += 1
            raise ServiceSaturated(
                f"{self._pending} requests already admitted "
                f"(max_in_flight={self.config.max_in_flight}, "
                f"max_queue={self.config.max_queue})"
            )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.request_timeout_seconds
        started = time.perf_counter()
        self._pending += 1
        try:
            # Wait for an execution slot, but never past the deadline:
            # a request that spends its whole budget queued times out
            # without ever occupying a worker.
            try:
                with _trace.span("admission.queue", endpoint=endpoint):
                    await asyncio.wait_for(
                        self._slots.acquire(), deadline - loop.time()
                    )
            except (asyncio.TimeoutError, TimeoutError):
                counters.timeouts += 1
                raise ServiceTimeout(
                    f"request queued past its "
                    f"{self.config.request_timeout_seconds}s deadline"
                ) from None
            self._executing += 1

            def guarded():
                # Runs on the executor thread.  A straggler finishing
                # after shutdown may have re-forked the engine's worker
                # pool mid-call (pool.map lazily restarts a closed
                # pool); re-close it here, thread-side, so a stopped
                # service never leaves child processes behind even when
                # the event loop is already gone.
                try:
                    return call()
                finally:
                    if self._closed and self._owns_engine:
                        self.engine.close()

            # run_in_executor does not propagate contextvars (unlike
            # asyncio.to_thread); carry the caller's context -- above
            # all the ambient trace -- onto the executor thread, so
            # engine spans land in the request's trace.
            run_context = contextvars.copy_context()
            try:
                future = loop.run_in_executor(
                    self._executor, lambda: run_context.run(guarded)
                )
            except RuntimeError as exc:
                # The executor was shut down while this request waited
                # for its slot; release it and answer as a shutdown.
                counters.errors += 1
                self._release_slot()
                raise ServiceClosed("service is shut down") from exc
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(future), deadline - loop.time()
                )
            except (asyncio.TimeoutError, TimeoutError):
                # The thread cannot be killed mid-count; keep its slot
                # held until it actually finishes so admission control
                # keeps matching the real worker budget.
                counters.timeouts += 1
                self._abandoned += 1
                future.add_done_callback(self._reap_abandoned)
                raise ServiceTimeout(
                    f"request exceeded its "
                    f"{self.config.request_timeout_seconds}s deadline "
                    "(execution continues detached)"
                ) from None
            except Exception:
                counters.errors += 1
                self._release_slot()
                raise
            else:
                counters.completed += 1
                counters.latency.observe(time.perf_counter() - started)
                self._release_slot()
                return result
        finally:
            self._pending -= 1

    def _release_slot(self) -> None:
        self._executing -= 1
        self._slots.release()

    def _reap_abandoned(self, future) -> None:
        """Release the slot of a timed-out call once its thread ends."""
        self._abandoned -= 1
        self._release_slot()
        # The result (or error) has no waiter anymore; retrieve it so
        # the event loop does not log "exception was never retrieved",
        # but keep the dropped error visible at debug level.
        if not future.cancelled():
            error = future.exception()
            if error is not None:
                _log.debug(
                    "abandoned request finished with an error",
                    extra={"error": f"{type(error).__name__}: {error}"},
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """A cheap liveness payload (no engine work)."""
        status = "closed" if self._closed else "ok"
        return {
            "status": status,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "pending": self._pending,
            "executing": self._executing,
            "abandoned": self._abandoned,
            "pool_started": self.engine.pool.started,
            "registry_entries": len(self.engine.registry),
            "registry_bytes": self.engine.registry.resident_bytes,
            "cluster": self._cluster_block(),
        }

    def metrics(self) -> dict:
        """The full metrics payload: service + engine + pool stats.

        The engine half is a coherent :meth:`Engine.stats` snapshot
        (each cache/pool/store counter pair read under its lock); the
        service half is the per-endpoint request/latency accounting.
        """
        return {
            "service": {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "closed": self._closed,
                "max_in_flight": self.config.max_in_flight,
                "max_queue": self.config.max_queue,
                "request_timeout_seconds": self.config.request_timeout_seconds,
                "pending": self._pending,
                "executing": self._executing,
                "abandoned": self._abandoned,
                "endpoints": {
                    name: counters.as_dict()
                    for name, counters in self._endpoints.items()
                },
            },
            "engine": self.engine.stats().as_dict(),
            "registry": self.engine.registry.stats(),
            "pool": {
                "processes": self.engine.pool.processes,
                "started": self.engine.pool.started,
                "pinned_structures": len(
                    self.engine.contexts.placed_fingerprints()
                ),
            },
            "obs": {
                "tracing_enabled": _trace.get_tracer().enabled,
                "traces_retained": len(_trace.get_tracer()),
                "trace_capacity": _trace.get_tracer().capacity,
            },
            "cluster": self._cluster_block(),
        }

    def _cluster_block(self) -> dict:
        """The attached cluster's status, or ``{"attached": False}``."""
        cluster = getattr(self.engine, "cluster", None)
        if cluster is None:
            return {"attached": False}
        return cluster.status()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Stop admitting, drain in-flight work, release all resources.

        Admitted requests get up to ``drain_timeout_seconds`` to finish
        (their own deadlines usually fire first); the thread pool is
        then shut down and, if the service owns its engine, the
        engine's worker pool is closed -- its child processes joined --
        so a clean shutdown leaves nothing behind.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + self.config.drain_timeout_seconds
        # Wait for queued/executing requests *and* abandoned threads:
        # an abandoned call still runs engine work whose worker pool
        # must not outlive (or be re-forked after) the close below.
        while (self._pending or self._executing) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Anything still executing past the drain deadline (abandoned
        # or not) must not block the event loop; its done-callback
        # releases the slot whenever the thread finally returns.
        self._executor.shutdown(
            wait=self._executing == 0 and self._abandoned == 0,
            cancel_futures=True,
        )
        if self._owns_engine:
            self.engine.close()

    def close(self) -> None:
        """Synchronous shutdown for non-async callers (no draining)."""
        self._closed = True
        self._executor.shutdown(
            wait=self._executing == 0 and self._abandoned == 0,
            cancel_futures=True,
        )
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self) -> "CountingService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CountingService(in_flight={self._executing}/"
            f"{self.config.max_in_flight}, pending={self._pending}, "
            f"closed={self._closed})"
        )
