"""The cluster coordinator: registration, liveness, dispatch, recovery.

:class:`ClusterCoordinator` owns the TCP server end of
:mod:`repro.cluster.proto` on a background event loop, and exposes a
small *synchronous* facade the engine calls from request threads:

* :meth:`place_structures` / :meth:`unplace` / :meth:`apply_delta` --
  cluster-wide residency, the generalization of the worker pool's
  forked pin set.  Placement chooses ``replication`` holders per shard
  fingerprint (:class:`~repro.cluster.placement.PlacementMap`); frames
  go out through one FIFO outbox per worker, so a ``place`` always
  reaches a worker before any ``execute`` that depends on it.
* :meth:`run_units` -- the sharded execution path.  Each job is
  fingerprint-only (the data already lives on its holders); dispatch
  respects per-worker capacity and prefers the least-loaded live
  holder.  The shipped body carries the shard units and the remaining
  allowance of the caller's :class:`~repro.budget.CostBudget`.

Failure handling is the tentpole contract: a worker that closes its
connection *or misses its heartbeat deadline* is declared dead, its
placements are dropped, and every in-flight job it held is reassigned
to another live holder (``reassignments`` counts them).  A job whose
shard has no live holder left -- or a cluster with no live workers at
all -- raises :class:`ClusterUnavailable`, which the executor treats
as "degrade to the local pool and recompute"; exactness is never
traded for placement.  A worker-side *task* exception, by contrast, is
re-raised to the caller as
:class:`~repro.engine.pool.WorkerTaskError` exactly like the local
pool's, because a genuine counting bug must never be masked by a
retry.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from collections import deque

from repro.cluster import proto
from repro.cluster.faults import FaultInjector
from repro.cluster.placement import PlacementMap
from repro.engine.pool import WorkerTaskError
from repro.exceptions import ReproError
from repro.obs.log import get_logger

_log = get_logger("cluster.coordinator")


class ClusterUnavailable(ReproError):
    """The cluster cannot run this work; degrade to the local pool."""


class _WorkerHandle:
    """Coordinator-side state for one registered worker."""

    __slots__ = (
        "worker_id",
        "name",
        "capacity",
        "pid",
        "writer",
        "outbox",
        "sender",
        "last_heartbeat",
        "in_flight",
        "alive",
    )

    def __init__(self, worker_id, name, capacity, pid, writer, outbox):
        self.worker_id = worker_id
        self.name = name
        self.capacity = capacity
        self.pid = pid
        self.writer = writer
        self.outbox = outbox
        self.sender = None
        self.last_heartbeat = time.monotonic()
        self.in_flight: set = set()
        self.alive = True


class _Job:
    """One shard-unit job travelling through the cluster."""

    __slots__ = (
        "job_id",
        "index",
        "units",
        "fingerprint",
        "budget",
        "future",
        "attempts",
        "worker_id",
    )

    def __init__(self, job_id, index, units, fingerprint, budget):
        self.job_id = job_id
        self.index = index  # position in its run_units fan-out
        self.units = units
        self.fingerprint = fingerprint
        self.budget = budget
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.attempts = 0
        self.worker_id = None


class ClusterCoordinator:
    """The coordinator endpoint; start with :meth:`start`."""

    #: How long :meth:`run_units` waits for all results before giving
    #: the work back to the local pool.
    DEFAULT_JOB_TIMEOUT = 120.0

    #: How long the synchronous facade waits for the loop thread.
    CONTROL_TIMEOUT = 30.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float | None = None,
        replication: int = 1,
        max_job_retries: int = 3,
        faults: FaultInjector | None = None,
    ):
        if heartbeat_interval <= 0:
            raise ReproError("heartbeat_interval must be positive")
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else 3.0 * heartbeat_interval
        )
        if self.heartbeat_timeout <= heartbeat_interval:
            raise ReproError(
                "heartbeat_timeout must exceed heartbeat_interval"
            )
        self.max_job_retries = max_job_retries
        self._faults = faults if faults is not None else FaultInjector()
        self._placement = PlacementMap(replication)
        self._lock = threading.RLock()
        self._workers: dict[str, _WorkerHandle] = {}
        self._jobs: dict[str, _Job] = {}
        self._pending: deque[str] = deque()
        self._worker_seq = 0
        self._job_seq = 0
        self._counters = {
            "registrations": 0,
            "registrations_refused": 0,
            "heartbeats": 0,
            "heartbeat_timeouts": 0,
            "worker_failures": 0,
            "reassignments": 0,
            "jobs_dispatched": 0,
            "jobs_completed": 0,
            "jobs_failed": 0,
            "worker_context_hits": 0,
            "worker_context_misses": 0,
        }
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._monitor: asyncio.Task | None = None
        self._start_error: BaseException | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ClusterCoordinator":
        """Bind the server on a background event-loop thread."""
        if self._thread is not None:
            return self
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop,
            args=(ready,),
            name="cluster-coordinator",
            daemon=True,
        )
        self._thread.start()
        ready.wait(self.CONTROL_TIMEOUT)
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join(self.CONTROL_TIMEOUT)
            self._thread = None
            raise ReproError(f"coordinator failed to start: {error}")
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)

        async def boot():
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._monitor = asyncio.ensure_future(self._monitor_heartbeats())

        try:
            self._loop.run_until_complete(boot())
        except Exception as exc:
            self._start_error = exc
            ready.set()
            return
        ready.set()
        try:
            self._loop.run_forever()
        finally:
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    @property
    def running(self) -> bool:
        return self._thread is not None and not self._stopped

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def stop(self) -> None:
        """Close every connection, fail outstanding work, join the loop."""
        if self._thread is None or self._stopped:
            return
        self._stopped = True
        assert self._loop is not None
        done = concurrent.futures.Future()
        self._loop.call_soon_threadsafe(self._do_stop, done)
        try:
            done.result(self.CONTROL_TIMEOUT)
        except Exception:  # pragma: no cover - defensive teardown
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(self.CONTROL_TIMEOUT)
        self._thread = None

    def _do_stop(self, done: concurrent.futures.Future) -> None:
        try:
            if self._server is not None:
                self._server.close()
            if self._monitor is not None:
                self._monitor.cancel()
            with self._lock:
                handles = list(self._workers.values())
                jobs = list(self._jobs.values())
                self._workers.clear()
                self._jobs.clear()
                self._pending.clear()
            for handle in handles:
                self._close_handle(handle)
            for job in jobs:
                if not job.future.done():
                    job.future.set_exception(
                        ClusterUnavailable("coordinator stopped")
                    )
            done.set_result(None)
        except Exception as exc:  # pragma: no cover - defensive teardown
            done.set_exception(exc)

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        handle: _WorkerHandle | None = None
        try:
            frame = await proto.read_frame(reader)
            if frame is None:
                return
            header, _ = frame
            if header["type"] != "register":
                raise proto.ProtocolError(
                    f"expected register, got {header['type']!r}"
                )
            if self._faults.should_refuse_registration():
                with self._lock:
                    self._counters["registrations_refused"] += 1
                await proto.send_frame(
                    writer,
                    {
                        "type": "register_refused",
                        "reason": "injected fault",
                    },
                )
                return
            with self._lock:
                self._worker_seq += 1
                worker_id = f"w{self._worker_seq}"
                handle = _WorkerHandle(
                    worker_id,
                    header.get("name", worker_id),
                    max(1, int(header.get("capacity", 1))),
                    header.get("pid"),
                    writer,
                    asyncio.Queue(),
                )
                self._workers[worker_id] = handle
                self._counters["registrations"] += 1
            handle.sender = asyncio.ensure_future(self._sender(handle))
            await proto.send_frame(
                writer,
                {
                    "type": "registered",
                    "worker_id": worker_id,
                    "heartbeat_interval": self.heartbeat_interval,
                },
            )
            _log.info(
                "worker registered",
                extra={
                    "worker_id": worker_id,
                    "worker_name": handle.name,
                    "capacity": handle.capacity,
                },
            )
            self._dispatch()
            while True:
                frame = await proto.read_frame(reader)
                if frame is None:
                    break
                header, body = frame
                kind = header["type"]
                if kind == "heartbeat":
                    handle.last_heartbeat = time.monotonic()
                    with self._lock:
                        self._counters["heartbeats"] += 1
                    self._outbox_put(handle, {"type": "heartbeat_ack"})
                elif kind == "result":
                    self._complete_job(handle, header, body)
                elif kind == "goodbye":
                    break
                else:
                    raise proto.ProtocolError(
                        f"coordinator cannot handle frame type {kind!r}"
                    )
        except Exception as exc:
            if handle is not None and handle.alive:
                _log.debug(
                    "worker connection error",
                    extra={
                        "worker_id": handle.worker_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
        finally:
            if handle is not None:
                self._worker_died(handle, "connection closed")
            else:
                writer.close()

    async def _sender(self, handle: _WorkerHandle) -> None:
        """Drain one worker's FIFO outbox onto its connection."""
        while True:
            header, body = await handle.outbox.get()
            try:
                await proto.send_frame(
                    handle.writer, header, body, faults=self._faults
                )
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except Exception:
                self._worker_died(handle, "send failed")
                return

    def _outbox_put(
        self, handle: _WorkerHandle, header: dict, body: bytes = b""
    ) -> None:
        handle.outbox.put_nowait((header, body))

    def _close_handle(self, handle: _WorkerHandle) -> None:
        if handle.sender is not None:
            handle.sender.cancel()
        try:
            handle.writer.close()
        except Exception:  # pragma: no cover - already torn down
            pass

    # ------------------------------------------------------------------
    # Liveness and recovery (loop thread)
    # ------------------------------------------------------------------
    async def _monitor_heartbeats(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval / 2.0)
            now = time.monotonic()
            with self._lock:
                overdue = [
                    handle
                    for handle in self._workers.values()
                    if now - handle.last_heartbeat > self.heartbeat_timeout
                ]
            for handle in overdue:
                with self._lock:
                    self._counters["heartbeat_timeouts"] += 1
                self._worker_died(handle, "missed heartbeat deadline")

    def _worker_died(self, handle: _WorkerHandle, reason: str) -> None:
        """Declare a worker dead and reassign its in-flight jobs."""
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            self._workers.pop(handle.worker_id, None)
            self._placement.drop_worker(handle.worker_id)
            self._counters["worker_failures"] += 1
            orphaned = list(handle.in_flight)
            handle.in_flight.clear()
        _log.warning(
            "cluster worker died",
            extra={
                "worker_id": handle.worker_id,
                "worker_name": handle.name,
                "reason": reason,
                "in_flight": len(orphaned),
            },
        )
        self._close_handle(handle)
        for job_id in orphaned:
            self._reassign(job_id, reason)
        self._dispatch()

    def _reassign(self, job_id: str, reason: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.future.done():
                return
            job.worker_id = None
            job.attempts += 1
            if job.attempts > self.max_job_retries:
                self._jobs.pop(job_id, None)
                job.future.set_exception(
                    ClusterUnavailable(
                        f"job {job_id} failed {job.attempts} times "
                        f"(last: {reason})"
                    )
                )
                return
            self._counters["reassignments"] += 1
            self._pending.appendleft(job_id)

    # ------------------------------------------------------------------
    # Dispatch (loop thread)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Assign every pending job a live holder with free capacity."""
        to_send: list[tuple[_WorkerHandle, _Job]] = []
        with self._lock:
            still_pending: deque[str] = deque()
            while self._pending:
                job_id = self._pending.popleft()
                job = self._jobs.get(job_id)
                if job is None or job.future.done():
                    continue
                holders = [
                    self._workers[worker_id]
                    for worker_id in self._placement.holders(job.fingerprint)
                    if worker_id in self._workers
                ]
                if not holders:
                    self._jobs.pop(job_id, None)
                    job.future.set_exception(
                        ClusterUnavailable(
                            "no live worker holds the shard for job "
                            f"{job_id}"
                        )
                    )
                    continue
                free = [
                    handle
                    for handle in holders
                    if len(handle.in_flight) < handle.capacity
                ]
                if not free:
                    still_pending.append(job_id)
                    continue
                handle = min(free, key=lambda h: len(h.in_flight))
                handle.in_flight.add(job_id)
                job.worker_id = handle.worker_id
                self._counters["jobs_dispatched"] += 1
                to_send.append((handle, job))
            self._pending = still_pending
        for handle, job in to_send:
            self._outbox_put(
                handle,
                {"type": "execute", "job_id": job.job_id},
                proto.pickle_body((job.units, job.fingerprint, job.budget)),
            )

    def _complete_job(
        self, handle: _WorkerHandle, header: dict, body: bytes
    ) -> None:
        job_id = header.get("job_id")
        status = header.get("status")
        with self._lock:
            handle.in_flight.discard(job_id)
            job = self._jobs.get(job_id)
            # A result from a worker the job was reassigned away from
            # (a heartbeat-delayed straggler) must not double-resolve.
            if job is None or job.worker_id != handle.worker_id:
                return
            if status == "ok":
                self._jobs.pop(job_id, None)
                self._counters["jobs_completed"] += 1
                if header.get("context_hit"):
                    self._counters["worker_context_hits"] += 1
                else:
                    self._counters["worker_context_misses"] += 1
            elif status == "error":
                self._jobs.pop(job_id, None)
                self._counters["jobs_failed"] += 1
        if status == "ok":
            values, spans = proto.unpickle_body(body)
            job.future.set_result((values, spans))
        elif status == "error":
            exception, spans = proto.unpickle_body(body)
            job.future.set_exception(
                WorkerTaskError(exception, spans, job.index)
            )
        else:  # "unplaced": a routing miss, never the query's fault.
            with self._lock:
                self._placement.remove_holder(
                    job.fingerprint, handle.worker_id
                )
            self._reassign(job_id, "worker did not hold the shard")
        self._dispatch()

    # ------------------------------------------------------------------
    # The synchronous facade (engine threads)
    # ------------------------------------------------------------------
    def _control(self, fn, *args):
        """Run ``fn`` on the loop thread and wait for its result."""
        if not self.running or self._loop is None:
            raise ClusterUnavailable("coordinator is not running")
        done: concurrent.futures.Future = concurrent.futures.Future()

        def call():
            try:
                done.set_result(fn(*args))
            except Exception as exc:
                done.set_exception(exc)

        self._loop.call_soon_threadsafe(call)
        return done.result(self.CONTROL_TIMEOUT)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` workers are registered (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                live = len(self._workers)
            if live >= count:
                return live
            if time.monotonic() >= deadline:
                raise ClusterUnavailable(
                    f"only {live}/{count} workers registered "
                    f"within {timeout}s"
                )
            time.sleep(0.02)

    def place_structures(self, structures) -> dict:
        """Place ``structures`` on workers; ``{worker_id: count}``.

        Each structure lands on ``replication`` distinct live workers
        (fewer only when the cluster is smaller than that), chosen
        least-loaded-first.  The frames ride each worker's FIFO outbox,
        so a later :meth:`run_units` on the same connection can never
        observe a missing placement.
        """
        # Fingerprints are computed here, outside the loop thread.
        by_fingerprint = {s.fingerprint(): s for s in structures}
        return self._control(self._do_place, by_fingerprint)

    def _send_each(self, kind: str, outgoing: dict) -> int:
        """Queue one ``kind`` frame per live worker of ``outgoing``
        (``{worker_id: payload items}``); returns how many (loop
        thread, the only one that adds or removes workers)."""
        sent = 0
        for worker_id, payload in outgoing.items():
            handle = self._workers.get(worker_id)
            if handle is not None:
                self._outbox_put(
                    handle, {"type": kind}, proto.pickle_body(tuple(payload))
                )
                sent += 1
        return sent

    def _do_place(self, by_fingerprint) -> dict:
        with self._lock:
            if not self._workers:
                raise ClusterUnavailable("no live workers to place on")
            outgoing = self._placement.assign(
                list(by_fingerprint), list(self._workers)
            )
        self._send_each(
            "place",
            {
                worker_id: [by_fingerprint[f] for f in placed]
                for worker_id, placed in outgoing.items()
            },
        )
        return {worker_id: len(placed) for worker_id, placed in outgoing.items()}

    def unplace(self, fingerprints) -> int:
        """Drop placements; returns how many workers were notified."""
        return self._control(self._do_unplace, tuple(fingerprints))

    def _do_unplace(self, fingerprints) -> int:
        with self._lock:
            outgoing = self._placement.unplace(fingerprints)
        return self._send_each("unplace", outgoing)

    def apply_delta(self, updates) -> int:
        """Fan a delta out to every holder of each touched fingerprint.

        ``updates`` is a sequence of ``(old_fingerprint, delta,
        new_structure)`` triples, exactly the worker pool's shape; the
        wire ships only ``(old_fingerprint, delta, new_fingerprint)``
        -- ``O(|delta|)`` bytes -- and each holder migrates its
        resident structure and built contexts in place.  Placements are
        re-keyed to the post-delta fingerprints so routing follows the
        advance.  Returns the number of delta frames sent.
        """
        updates = tuple(
            (old, delta, new_structure.fingerprint())
            for old, delta, new_structure in updates
        )
        return self._control(self._do_apply_delta, updates)

    def _do_apply_delta(self, updates) -> int:
        per_worker: dict[str, list] = {}
        with self._lock:
            for update in updates:
                old_fingerprint, _, new_fingerprint = update
                for worker_id in self._placement.rekey(
                    old_fingerprint, new_fingerprint
                ):
                    per_worker.setdefault(worker_id, []).append(update)
        return self._send_each("delta", per_worker)

    def can_route(self, fingerprints) -> bool:
        """Whether every fingerprint has a live holder right now."""
        with self._lock:
            if not self._workers:
                return False
            return all(
                any(
                    worker_id in self._workers
                    for worker_id in self._placement.holders(fingerprint)
                )
                for fingerprint in fingerprints
            )

    def run_units(
        self,
        jobs,
        budget=None,
        timeout: float | None = None,
    ) -> list:
        """Run ``(units, fingerprint)`` jobs; returns ``(values, spans)``
        per job, in order.

        Raises :class:`ClusterUnavailable` when the work cannot be
        routed (no live workers, an unplaced shard, retries exhausted,
        or the overall ``timeout`` expiring) -- the caller's signal to
        recompute on the local pool -- and
        :class:`~repro.engine.pool.WorkerTaskError` when a worker's
        task genuinely raised (carrying that job's worker-recorded
        spans and its index, for the caller's trace).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        if not self.can_route([fingerprint for _, fingerprint in jobs]):
            raise ClusterUnavailable(
                "not every shard has a live holder; falling back"
            )
        with self._lock:
            job_objs = []
            for index, (units, fingerprint) in enumerate(jobs):
                self._job_seq += 1
                job_objs.append(
                    _Job(
                        f"j{self._job_seq}", index, units, fingerprint, budget
                    )
                )
        self._control(self._enqueue, job_objs)
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.DEFAULT_JOB_TIMEOUT
        )
        results = []
        try:
            for job in job_objs:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterUnavailable("cluster execution timed out")
                try:
                    results.append(job.future.result(remaining))
                except concurrent.futures.TimeoutError:
                    raise ClusterUnavailable(
                        "cluster execution timed out"
                    ) from None
        except BaseException:
            self._abandon([job.job_id for job in job_objs])
            raise
        return results

    def _enqueue(self, job_objs) -> None:
        with self._lock:
            for job in job_objs:
                self._jobs[job.job_id] = job
                self._pending.append(job.job_id)
        self._dispatch()

    def _abandon(self, job_ids) -> None:
        """Forget outstanding jobs after a failed or timed-out run."""
        if not self.running or self._loop is None:
            return

        def drop():
            with self._lock:
                for job_id in job_ids:
                    job = self._jobs.pop(job_id, None)
                    if job is not None and not job.future.done():
                        job.future.set_exception(
                            ClusterUnavailable("run abandoned")
                        )
                self._pending = deque(
                    job_id
                    for job_id in self._pending
                    if job_id not in set(job_ids)
                )

        self._loop.call_soon_threadsafe(drop)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The ``/healthz`` / ``/metrics`` cluster block."""
        with self._lock:
            workers = {
                handle.worker_id: {
                    "name": handle.name,
                    "capacity": handle.capacity,
                    "in_flight": len(handle.in_flight),
                    "pid": handle.pid,
                }
                for handle in self._workers.values()
            }
            return {
                "attached": True,
                "address": f"{self.host}:{self.port}",
                "running": self.running,
                "workers": len(workers),
                "worker_details": workers,
                "capacity_slots": sum(
                    handle.capacity for handle in self._workers.values()
                ),
                "in_flight": sum(
                    len(handle.in_flight)
                    for handle in self._workers.values()
                ),
                "pending_jobs": len(self._pending),
                "placements": len(self._placement),
                "replication": self._placement.replication,
                **dict(self._counters),
            }

    def stats_snapshot(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"ClusterCoordinator({self.host}:{self.port}, "
                f"workers={len(self._workers)}, "
                f"placed={len(self._placement)})"
            )
