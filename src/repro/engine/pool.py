"""The fork-pool transport of the worker runtime.

The parallel paths of :mod:`repro.engine.executor` run over a
:class:`WorkerPool`: a :mod:`multiprocessing` pool created **once**
(lazily, on first use) and kept -- an :class:`~repro.engine.api.Engine`
holds one for its whole lifetime, so repeated ``count_many`` /
``count_sharded`` calls pay the fork cost once.  What a worker holds
between jobs is :class:`~repro.engine.resident.ResidentContexts`, the
store a cluster worker also owns; the task functions here only carry
jobs and residency changes to the worker's instance.  A job *names*
data every worker holds pinned -- its structure slot carries the
fingerprint (:meth:`WorkerPool.job_key`), ``O(1)`` bytes at any size --
and ships the (picklable) structure only when it is not pinned, so a
cold worker can build the context itself.  A named context a worker
turns out not to hold (a count racing a residency change) comes back
as :class:`~repro.engine.resident.NotResident` and
:meth:`WorkerPool.map` re-runs that job by value.  Every job reports
whether the resident context was reused
(:attr:`WorkerPool.worker_context_hits` / ``worker_context_misses``).

**Guaranteed** residency is a broadcast: ``pin_structures`` /
``unpin_structures`` / ``apply_delta`` record the change in the
parent-side pin set, then run :func:`resident_task` once on *every*
live worker (a barrier the workers inherited when they started keeps
any worker from serving two).  A worker process that starts later -- a
respawn after a death, or a pool closed and lazily restarted -- builds
the pin set, as it is by then, in its initializer.  That is what makes
a registered structure's residency a contract instead of a cache
heuristic: see :mod:`repro.engine.registry`.

Error handling is split in two, which is what lets genuine counting
bugs propagate instead of being masked by the sequential fallback:
an exception raised *inside* a worker task comes back as a
:class:`~repro.engine.resident.TaskFailure` value and is re-raised
parent-side as :class:`WorkerTaskError`; a pool-*setup* problem (no
subprocess support, unpicklable jobs) raises its native ``ImportError``
/ ``OSError`` / pickling error from ``map`` itself, which the executor
treats as "fall back to the sequential path".
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Mapping, Sequence

from repro.engine.resident import (
    NotResident,
    ResidentContexts,
    TaskFailure,
    TaskOk,
    picklable_exception,
)
from repro.exceptions import ReproError
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.structures.structure import Structure

_log = get_logger("engine.pool")


def default_process_count() -> int:
    """The pool size used when ``processes`` is not given."""
    return max(1, (os.cpu_count() or 1))


class WorkerTaskError(ReproError):
    """An exception escaped a task running inside a worker.

    ``original`` is the worker's exception (unpickled parent-side); the
    executor re-raises it to the caller, so a ``ValueError`` raised in a
    worker surfaces as a ``ValueError``, never as a silent sequential
    re-run.  ``spans`` are the failed job's worker-recorded spans when
    the raiser could not attach them to the caller's trace itself (the
    cluster coordinator, on its loop thread), ``index`` the job's
    position in the fan-out.
    """

    def __init__(self, original: BaseException, spans=None, index: int = 0):
        self.original = original
        self.spans = spans
        self.index = index
        super().__init__(
            f"pool worker raised {type(original).__name__}: {original}"
        )


@contextmanager
def collector_paused():
    """Pause the cyclic collector while a burst of resident data is built.

    Encodings, indexes and shard plans are acyclic containers that
    reference counting reclaims on its own, and building them for one
    structure allocates its whole size at once.  With the collector
    armed, whichever build happens to cross the full-collection
    threshold pays a traversal of the entire heap (about every third
    registration of a 2.5e4-tuple structure, 20 ms each time), so the
    same call is fast or slow depending on what ran before it.  A
    collector the caller had already disabled stays disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Worker-side resident state
# ----------------------------------------------------------------------
#: This process's resident contexts: a fresh store in every pool worker
#: (:func:`_init_worker`), a cold one for tasks called in-process.
_resident = ResidentContexts()

#: The barrier this worker shares with its pool generation's other
#: workers (:meth:`WorkerPool._ensure_pool`); ``None`` outside a worker.
_broadcast_barrier = None


def _pin(structures) -> int:
    """Place ``structures`` and *materialize* their contexts now, off
    the request path, so the first count after a pin starts warm."""
    contexts = _resident.place(structures)
    for context in contexts:
        context.materialize()
    return len(contexts)


def _init_worker(pinned: Mapping[tuple, Structure], barrier) -> None:
    """Pool initializer: a fresh store with ``pinned`` -- the parent's
    pin set as it is when *this* worker starts, see
    :meth:`WorkerPool._ensure_pool` -- built eagerly, and the pool
    generation's broadcast ``barrier``."""
    global _resident, _broadcast_barrier
    _resident = ResidentContexts()
    _broadcast_barrier = barrier
    with collector_paused():
        _pin(pinned.values())
        # The heap inherited across the fork and the pinned contexts
        # both live as long as this worker: park them outside the
        # collector's generations, so no later collection traverses
        # them or dirties their copy-on-write pages.
        gc.freeze()


# ----------------------------------------------------------------------
# The broadcast task (one execution per worker, barrier-synchronized)
# ----------------------------------------------------------------------
def _await_broadcast_barrier(barrier, timeout: float) -> None:
    """Hold this worker at the barrier until every worker has a job.

    ``barrier`` is a flag (``None``: do not wait); the barrier itself
    is the one this worker inherited at start-up, shared with exactly
    the workers of its pool generation.  It is what turns ``pool.map``
    into a broadcast: with exactly ``processes`` jobs queued and every
    job blocking until all of them are running, no worker can serve
    two.  A broken barrier (a worker stuck in a long count past
    ``timeout``) degrades gracefully: the remaining jobs still run --
    possibly unevenly distributed -- and the parent-side pin set plus
    the by-value re-run of a job whose context is missing keep
    correctness unaffected.  The parent resets it once the broadcast's
    results are in.
    """
    if barrier is None or _broadcast_barrier is None:
        return
    try:
        _broadcast_barrier.wait(timeout)
    except threading.BrokenBarrierError as exc:
        # Degrading to best-effort distribution is deliberate, but the
        # dropped error must at least be visible at debug level.
        _log.debug(
            "broadcast barrier wait failed; continuing best-effort",
            extra={"error": f"{type(exc).__name__}: {exc}"},
        )


def resident_task(job) -> TaskOk | TaskFailure:
    """Apply one residency change to this worker's store.

    ``job = ((method, args), barrier, timeout)`` names :func:`_pin` or
    a :class:`~repro.engine.resident.ResidentContexts` method (``drop``,
    ``apply_delta``, ``placed_fingerprints``); the value is what it
    returns.
    """
    (method, args), barrier, timeout = job
    try:
        _await_broadcast_barrier(barrier, timeout)
        change = _pin if method == "pin" else getattr(_resident, method)
        return TaskOk(change(*args))
    except Exception as exc:
        return TaskFailure(picklable_exception(exc))


# ----------------------------------------------------------------------
# The one job task shipped to workers
# ----------------------------------------------------------------------
def shard_task(job) -> TaskOk | TaskFailure:
    """Evaluate units on one structure through one resident context.

    ``job = (units, structure, budget)``: the executor's per-structure
    work -- a shard's units, or a block of a batch structure's -- with
    the context (index + boundary memos) resident across calls, so a
    repeated count on the same data re-executes against warm memos
    instead of rebuilding them.  ``budget`` is the caller's remaining
    :class:`~repro.budget.CostBudget` or ``None``, installed around the
    units so budget- and deadline-exceeded counts abort *inside* the
    worker.
    """
    units, shard, budget = job
    return _resident.execute(
        lambda context: context.run_units(units),
        shard,
        budget,
        "shard.execute",
        units=len(units),
    )


# ----------------------------------------------------------------------
# The parent-side pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A reusable multiprocessing pool with warm worker-side caches.

    ``processes`` is the pool size (default: one worker per CPU).  The
    underlying :mod:`multiprocessing` pool is created lazily on the
    first :meth:`map`, so constructing a ``WorkerPool`` (an
    :class:`~repro.engine.api.Engine` does it eagerly) costs nothing
    until a parallel path actually runs.  Usable as a context manager;
    :meth:`close` shuts the workers down.
    """

    #: How long a broadcast waits for every worker to pick up its job
    #: before degrading to best-effort distribution.
    BROADCAST_BARRIER_TIMEOUT = 60.0

    #: Extra parent-side slack past the barrier timeout before a
    #: broadcast is declared wedged (a worker died holding a job).
    BROADCAST_RESULT_GRACE = 15.0

    def __init__(self, processes: int | None = None):
        if processes is not None and processes < 1:
            raise ReproError("worker pool needs at least one process")
        self.processes = processes or default_process_count()
        self._pool = None
        self._barrier = None
        self._lock = threading.Lock()
        # Broadcasts share their generation's one cyclic barrier, so
        # they run one at a time.
        self._broadcast_lock = threading.Lock()
        self._pinned: dict[tuple, Structure] = {}
        self.worker_context_hits = 0
        self.worker_context_misses = 0
        self.broadcast_timeouts = 0

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                import multiprocessing

                # fork shares the already-imported library with the
                # workers; fall back to the default start method where
                # fork is unavailable.
                try:
                    mp_context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX hosts
                    mp_context = multiprocessing.get_context()
                # The initializer gets the live pin set itself: the
                # pool reuses these initargs for every respawn, and a
                # forked worker reads the dict as it is at that moment
                # (the non-fork fallback pickles it at process start).
                # The broadcast barrier travels the same way (it can
                # only be inherited, never shipped through the task
                # queue): one per pool generation, respawns included.
                self._barrier = mp_context.Barrier(self.processes)
                self._pool = mp_context.Pool(
                    processes=self.processes,
                    initializer=_init_worker,
                    initargs=(self._pinned, self._barrier),
                )
            return self._pool

    @property
    def started(self) -> bool:
        """Whether the underlying process pool has been created."""
        return self._pool is not None

    def job_key(self, structure: Structure):
        """What a job's structure slot carries for ``structure``: its
        fingerprint when it is in the pin set -- every worker of this
        pool holds it, or builds it before serving a job -- else the
        structure itself."""
        fingerprint = structure.fingerprint()
        return fingerprint if fingerprint in self._pinned else structure

    def map(self, task, jobs, by_value=None) -> list:
        """Run ``task`` over ``jobs`` in the pool and unwrap the results.

        Raises :class:`WorkerTaskError` when a task failed inside a
        worker; lets pool-setup and job-pickling errors (``OSError``,
        pickling errors, ...) propagate as themselves, which is the
        signal the executor's sequential fallback keys on.

        A caller whose jobs name pinned data by fingerprint
        (:meth:`job_key`) passes ``by_value``, mapping a job's index to
        the same job carrying the data.  A worker can be behind or
        ahead of the parent's pin set while a residency broadcast is in
        flight, and such a job comes back as
        :class:`~repro.engine.resident.NotResident`.  Exactly those
        jobs are re-run from ``by_value``, once: a job that carries its
        data cannot miss, so the caller never sees the routing miss.

        Worker-recorded trace spans riding on each result are
        re-parented into the caller's ambient trace (suffixed with the
        job index, e.g. ``shard.execute[3]``) -- for *every* job before
        the first failure is raised, so an exceptional trace is still
        complete.
        """
        pool = self._ensure_pool()
        raw = pool.map(task, list(jobs))
        missed = [
            index
            for index, item in enumerate(raw)
            if isinstance(item, TaskFailure)
            and isinstance(item.exception, NotResident)
        ]
        if missed and by_value is not None:
            _log.debug(
                "jobs named contexts their workers do not hold; "
                "re-running them by value",
                extra={"jobs": len(missed), "of": len(raw)},
            )
            resent = pool.map(task, [by_value(index) for index in missed])
            for index, item in zip(missed, resent):
                # The miss stays in the trace, ahead of its re-run.
                _trace.attach_foreign(raw[index].spans, suffix=f"[{index}]")
                raw[index] = item
        return self._unwrap(raw)

    def _unwrap(self, raw) -> list:
        """Task results to values (see :meth:`map`)."""
        values = []
        hits = misses = 0
        failure: TaskFailure | None = None
        for index, item in enumerate(raw):
            _trace.attach_foreign(item.spans, suffix=f"[{index}]")
            if isinstance(item, TaskFailure):
                if failure is None:
                    failure = item
                continue
            values.append(item.value)
            if item.context_hit is True:
                hits += 1
            elif item.context_hit is False:
                misses += 1
        with self._lock:
            self.worker_context_hits += hits
            self.worker_context_misses += misses
        if failure is not None:
            raise WorkerTaskError(failure.exception)
        return values

    # ------------------------------------------------------------------
    # Broadcasts: structure pinning
    # ------------------------------------------------------------------
    def broadcast(self, task, payload) -> list:
        """Run ``task((payload, barrier, timeout))`` once on every worker.

        Queues exactly ``processes`` single-job chunks, each holding at
        the barrier the workers inherited until all of them are
        running, so every worker serves exactly one (the job's
        ``barrier`` slot only says "wait").  Broadcasts of one pool run
        one at a time, because they share that barrier; one a busy
        worker broke by staying away past the timeout is reset once
        every result is in.  Requires a started pool; callers that only
        want the *recorded* effect (the pin set) when the pool is cold
        check :attr:`started` first.  Returns the per-worker values;
        worker-side failures raise :class:`WorkerTaskError` exactly
        like :meth:`map`.

        A worker that dies *between picking up its broadcast job and
        reaching the barrier* loses the job forever -- the pool
        respawns the process but never re-queues taken work, so a
        plain ``map`` would block for good while every other worker
        times out of the barrier and returns.  The parent therefore
        waits at most ``BROADCAST_BARRIER_TIMEOUT +
        BROADCAST_RESULT_GRACE``; on timeout it logs which worker pids
        died, bumps :attr:`broadcast_timeouts`, and **restarts the
        pool** (:meth:`terminate`) instead of deadlocking.  Returning
        ``[]`` (zero confirmations) is sound for every residency
        change: pins, unpins, and delta re-keys are all recorded
        parent-side first, and the restarted pool's initializer
        rebuilds exactly that state.
        """
        import multiprocessing

        with self._broadcast_lock:
            pool = self._ensure_pool()
            barrier = self._barrier
            alive_before = self._worker_pids()
            job = (payload, True, self.BROADCAST_BARRIER_TIMEOUT)
            pending = pool.map_async(
                task, [job] * self.processes, chunksize=1
            )
            try:
                raw = pending.get(
                    self.BROADCAST_BARRIER_TIMEOUT
                    + self.BROADCAST_RESULT_GRACE
                )
            except multiprocessing.TimeoutError:
                dead = sorted(set(alive_before) - set(self._worker_pids()))
                with self._lock:
                    self.broadcast_timeouts += 1
                _log.warning(
                    "broadcast wedged (worker died holding a job); "
                    "restarting the pool",
                    extra={"dead_worker_pids": dead or "undetected"},
                )
                self.terminate()
                return []
            if barrier.broken:
                # Every job has returned, so no worker is waiting.
                barrier.reset()
        return self._unwrap(raw)

    def _worker_pids(self) -> list[int]:
        """Current worker pids (best-effort dead-worker diagnostics)."""
        pool = self._pool
        if pool is None:
            return []
        try:
            return [
                process.pid
                for process in pool._pool  # noqa: SLF001 - no public API
                if process.is_alive()
            ]
        except Exception:  # pragma: no cover - interpreter variations
            return []

    def _broadcast_residency(self, method: str, *args) -> list:
        """Send one residency change, already recorded in the pin set
        that future workers build from, to every live worker; a pool
        that has not started gets nothing more (``[]``: the change
        holds, deferred to start-up)."""
        if not self.started:
            return []
        return self.broadcast(resident_task, (method, args))

    def pin_structures(self, structures: Sequence[Structure]) -> int:
        """Pin ``structures`` resident in every worker (and future
        ones); live workers build and materialize the contexts right
        now.  Returns the number of live workers that confirmed."""
        structures = tuple(structures)
        with self._lock:
            for structure in structures:
                self._pinned[structure.fingerprint()] = structure
        return len(self._broadcast_residency("pin", structures))

    def unpin_structures(self, fingerprints: Sequence[tuple]) -> int:
        """Drop ``fingerprints`` from the pin set and from both tiers
        of every live worker, so a re-registration under the same name
        with different data can never be served by a stale context."""
        fingerprints = tuple(fingerprints)
        with self._lock:
            for fingerprint in fingerprints:
                self._pinned.pop(fingerprint, None)
        return len(self._broadcast_residency("drop", fingerprints))

    def apply_delta(self, updates) -> int:
        """Fan a structure delta out to every worker's resident contexts.

        ``updates`` is a sequence of ``(old_fingerprint, delta,
        new_structure)`` triples -- the whole structure plus each
        touched shard.  The pin set is re-keyed to the *post-delta*
        versions, and live workers receive only ``(old_fingerprint,
        delta, new_fingerprint)`` -- ``O(|delta|)`` bytes -- and migrate
        in place of being unpinned and rebuilt.  Returns the total
        number of worker-side context migrations.
        """
        updates = tuple(updates)
        with self._lock:
            for old_fingerprint, _, new_structure in updates:
                if self._pinned.pop(old_fingerprint, None) is not None:
                    self._pinned[new_structure.fingerprint()] = new_structure
        payload = tuple(
            (old_fingerprint, delta, new_structure.fingerprint())
            for old_fingerprint, delta, new_structure in updates
        )
        return sum(self._broadcast_residency("apply_delta", payload))

    def pinned_fingerprints(self) -> tuple[tuple, ...]:
        """The parent-side pin set (what a new worker would build)."""
        with self._lock:
            return tuple(self._pinned)

    def worker_pinned_fingerprints(self) -> list[tuple[tuple, ...]]:
        """Per-worker pinned fingerprints, observed live (diagnostics)."""
        return self._broadcast_residency("placed_fingerprints")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> tuple[int, int]:
        """``(worker_context_hits, worker_context_misses)``, coherently.

        :meth:`map` bumps both counters under ``_lock``; reading the
        attributes directly can interleave with that (or with
        :meth:`reset_stats`) and pair a fresh hit count with a stale
        miss count.  The engine's ``stats()`` goes through here.
        """
        with self._lock:
            return self.worker_context_hits, self.worker_context_misses

    def reset_stats(self) -> None:
        """Zero the worker-context counters under the pool lock."""
        with self._lock:
            self.worker_context_hits = 0
            self.worker_context_misses = 0

    # ------------------------------------------------------------------
    def close(self, terminate: bool = False) -> None:
        """Shut the current workers down (``terminate``: kill them
        instead of letting queued jobs finish).

        The ``WorkerPool`` object stays usable: a later :meth:`map`
        starts a fresh set of workers -- cold caches, but with every
        pinned structure rebuilt by the initializer, so pinning is a
        property of the pool, not of one generation of workers.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            if terminate:
                pool.terminate()
            else:
                pool.close()
            pool.join()

    def terminate(self) -> None:
        """Kill the workers immediately."""
        self.close(terminate=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.terminate()
        except Exception as exc:
            # Interpreter shutdown may have torn down multiprocessing
            # (or logging) already; surface what we can, never raise.
            try:
                _log.debug(
                    "worker pool GC teardown failed",
                    extra={"error": f"{type(exc).__name__}: {exc}"},
                )
            except Exception:
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self.started else "idle"
        return (
            f"WorkerPool(processes={self.processes}, {state}, "
            f"context_hits={self.worker_context_hits})"
        )
