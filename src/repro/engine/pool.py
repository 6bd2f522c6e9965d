"""Long-lived worker pools with worker-resident execution-context caches.

The parallel paths of :mod:`repro.engine.executor` used to create a
throwaway :mod:`multiprocessing` pool per call and rebuild every
:class:`~repro.engine.context.ExecutionContext` (positional index,
boundary-relation memos) inside every job.  :class:`WorkerPool` replaces
both halves of that waste:

* the pool is created **once** (lazily, on first use) and reused across
  calls -- an :class:`~repro.engine.api.Engine` keeps one for its whole
  lifetime, so repeated ``count_many`` / ``count_sharded`` calls pay the
  fork cost once;
* every worker process holds a small **resident cache** of execution
  contexts keyed by the cheap, process-stable
  :meth:`~repro.structures.structure.Structure.fingerprint`, so a job
  that lands on a worker that has already served the same data reuses
  the built index and the memoized ∃-component boundary relations
  instead of re-deriving them.

Jobs still carry the (picklable) structure so a cold worker can build
the context itself; the fingerprint is what turns "same data again"
into a cache hit without relying on object identity across processes.
Each task result reports whether the worker's context cache hit, which
the pool aggregates into :attr:`WorkerPool.worker_context_hits` /
``worker_context_misses`` -- the engine surfaces them as stats.

On top of the incidental LRU residency there is **guaranteed**
residency: :meth:`WorkerPool.pin_structures` broadcasts a build-and-pin
task to *every* worker (synchronized through a barrier so no worker can
serve two broadcast jobs), and pinned contexts live outside the LRU --
they are never evicted by capacity pressure and survive until
explicitly unpinned.  The pin set is also recorded parent-side, so a
pool that is closed and lazily restarted re-pins everything in its
worker initializer.  This is what makes a registered structure's
residency a contract instead of a cache heuristic: see
:mod:`repro.engine.registry`.

Error handling is split in two, which is what lets genuine counting
bugs propagate instead of being masked by the sequential fallback:

* exceptions raised *inside* a worker task are wrapped in a
  ``_TaskFailure`` sentinel and re-raised parent-side as
  :class:`WorkerTaskError` (carrying the original exception);
* pool-*setup* problems (no subprocess support, unpicklable jobs) raise
  their native ``ImportError`` / ``OSError`` / pickling errors from
  ``map`` itself, which the executor treats as "fall back to the
  sequential path".
"""

from __future__ import annotations

import gc
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ReproError
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.structures.structure import Structure

_log = get_logger("engine.pool")

#: Default number of execution contexts each worker keeps resident.
DEFAULT_WORKER_CONTEXT_CAPACITY = 8


def default_process_count() -> int:
    """The pool size used when ``processes`` is not given."""
    return max(1, (os.cpu_count() or 1))


class WorkerTaskError(ReproError):
    """An exception escaped a task running inside a pool worker.

    ``original`` is the worker's exception (unpickled parent-side); the
    executor re-raises it to the caller, so a ``ValueError`` raised in a
    worker surfaces as a ``ValueError``, never as a silent sequential
    re-run.
    """

    def __init__(self, original: BaseException):
        self.original = original
        super().__init__(
            f"pool worker raised {type(original).__name__}: {original}"
        )


@dataclass
class _TaskOk:
    """A successful worker result.

    ``context_hit`` is ``True``/``False`` when the task consulted the
    worker-resident context cache, ``None`` when it needed no context.
    ``spans`` carries the worker-recorded trace spans (serialized
    dicts) when tracing was on in the worker, else ``None``; the
    parent re-parents them into the caller's trace.
    """

    value: object
    context_hit: bool | None = None
    spans: list | None = None


@dataclass
class _TaskFailure:
    """Sentinel carrying an exception raised inside a worker task.

    ``spans`` still carries the worker's recorded trace up to (and
    including) the failure, so a worker exception produces a complete,
    error-annotated trace instead of a truncated one.
    """

    exception: BaseException
    spans: list | None = None


def picklable_exception(exc: BaseException) -> BaseException:
    """``exc`` itself when it can cross a process or wire boundary,
    else a faithful :class:`ReproError` description of it (so a worker
    failure never crashes the result channel)."""
    import pickle

    try:
        pickle.dumps(exc)
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")
    return exc


def _wrap_failure(exc: BaseException) -> _TaskFailure:
    return _TaskFailure(picklable_exception(exc))


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
_worker_contexts: OrderedDict | None = None
_worker_capacity: int = DEFAULT_WORKER_CONTEXT_CAPACITY
#: Pinned contexts, outside the LRU: fingerprint -> ExecutionContext.
_worker_pinned: dict | None = None


def _init_worker(capacity: int, pinned: tuple[Structure, ...] = ()) -> None:
    """Pool initializer: empty LRU plus eagerly built pinned contexts.

    ``pinned`` is the parent-side pin set at pool (re)creation time, so
    a pool that was closed and lazily restarted comes back with every
    registered structure's context already materialized -- pinning
    survives pool restarts, not just individual calls.
    """
    global _worker_contexts, _worker_capacity, _worker_pinned
    from repro.engine.context import ExecutionContext

    _worker_contexts = OrderedDict()
    _worker_capacity = max(1, capacity)
    _worker_pinned = {}
    with collector_paused():
        for structure in pinned:
            context = ExecutionContext(structure).materialize()
            _worker_pinned[structure.fingerprint()] = context
        # The heap inherited across the fork and the pinned contexts
        # both live as long as this worker: park them outside the
        # collector's generations, so no later collection traverses
        # them or dirties their copy-on-write pages.
        gc.freeze()


def _resident_context(structure: Structure):
    """``(context, hit)`` from this worker's fingerprint-keyed caches.

    Pinned contexts are consulted first; they never count against (or
    get evicted by) the LRU capacity.
    """
    global _worker_contexts, _worker_pinned
    from repro.engine.context import ExecutionContext

    if _worker_contexts is None:
        # Running without the initializer (e.g. the in-process tests
        # call the task functions directly): behave as a cold cache.
        _worker_contexts = OrderedDict()
    if _worker_pinned is None:
        _worker_pinned = {}
    key = structure.fingerprint()
    context = _worker_pinned.get(key)
    if context is not None:
        return context, True
    context = _worker_contexts.get(key)
    if context is not None:
        _worker_contexts.move_to_end(key)
        return context, True
    context = ExecutionContext(structure)
    _worker_contexts[key] = context
    while len(_worker_contexts) > _worker_capacity:
        _worker_contexts.popitem(last=False)
    return context, False


# ----------------------------------------------------------------------
# Broadcast tasks (one execution per worker, barrier-synchronized)
# ----------------------------------------------------------------------
def _await_broadcast_barrier(barrier, timeout: float) -> None:
    """Hold this worker at the barrier until every worker has a job.

    The barrier is what turns ``pool.map`` into a broadcast: with
    exactly ``processes`` jobs queued and every job blocking until all
    of them are running, no worker can serve two.  A broken barrier
    (a worker stuck in a long count past ``timeout``) degrades
    gracefully: the remaining jobs still run -- possibly unevenly
    distributed -- and the parent-side pin set plus the per-job LRU
    keep correctness unaffected.
    """
    if barrier is None:
        return
    try:
        barrier.wait(timeout)
    except Exception as exc:  # threading.BrokenBarrierError, proxy errors
        # Degrading to best-effort distribution is deliberate, but the
        # dropped error must at least be visible at debug level.
        _log.debug(
            "broadcast barrier wait failed; continuing best-effort",
            extra={"error": f"{type(exc).__name__}: {exc}"},
        )


def pin_structures_task(job) -> _TaskOk | _TaskFailure:
    """Build and pin the contexts of ``structures`` in this worker.

    ``job = (structures, barrier, timeout)``.  Pinning is idempotent;
    an existing LRU entry for the same fingerprint is promoted instead
    of being rebuilt.  Contexts are *materialized* (positional index
    built eagerly), so the first post-pin count starts warm.
    """
    structures, barrier, timeout = job
    try:
        from repro.engine.context import ExecutionContext

        global _worker_contexts, _worker_pinned
        if _worker_pinned is None:
            _worker_pinned = {}
        _await_broadcast_barrier(barrier, timeout)
        pinned = 0
        for structure in structures:
            key = structure.fingerprint()
            context = _worker_pinned.get(key)
            if context is None and _worker_contexts is not None:
                context = _worker_contexts.pop(key, None)
            if context is None:
                context = ExecutionContext(structure)
            context.materialize()
            _worker_pinned[key] = context
            pinned += 1
        return _TaskOk(pinned)
    except Exception as exc:
        return _wrap_failure(exc)


def unpin_structures_task(job) -> _TaskOk | _TaskFailure:
    """Drop pinned *and* LRU contexts for ``fingerprints`` in this worker.

    ``job = (fingerprints, barrier, timeout)``.  Used on unregister and
    on re-registration under the same name with different data, so a
    stale context can never serve a fingerprint that no longer matches
    anything the parent will ship.
    """
    fingerprints, barrier, timeout = job
    try:
        global _worker_contexts, _worker_pinned
        _await_broadcast_barrier(barrier, timeout)
        dropped = 0
        for key in fingerprints:
            if _worker_pinned is not None and _worker_pinned.pop(key, None):
                dropped += 1
            if _worker_contexts is not None and _worker_contexts.pop(key, None):
                dropped += 1
        return _TaskOk(dropped)
    except Exception as exc:
        return _wrap_failure(exc)


def apply_delta_task(job) -> _TaskOk | _TaskFailure:
    """Migrate this worker's resident contexts across a structure delta.

    ``job = (updates, barrier, timeout)`` with ``updates`` a tuple of
    ``(old_fingerprint, delta, new_fingerprint)`` triples -- the whole
    structure's delta plus one routed sub-delta per touched shard.  A
    resident context keyed by ``old_fingerprint`` (pinned or LRU) is
    re-keyed to its :meth:`~repro.engine.context.ExecutionContext.
    apply_delta` migration, so the worker keeps its warm index, memos,
    and encoding instead of being unpinned and rebuilt; the shipped
    bytes are ``O(|delta|)``, never the structure.  A worker without
    the old fingerprint simply skips the pair (the next job shipping
    the post-delta structure rebuilds on demand), and a migration whose
    chained fingerprint does not match the parent's expectation is
    dropped rather than ever serving drifted data.
    """
    updates, barrier, timeout = job
    try:
        global _worker_contexts, _worker_pinned
        _await_broadcast_barrier(barrier, timeout)
        applied = 0
        for old_fingerprint, delta, new_fingerprint in updates:
            context = None
            pinned = False
            if _worker_pinned is not None and old_fingerprint in _worker_pinned:
                context = _worker_pinned.pop(old_fingerprint)
                pinned = True
            elif _worker_contexts is not None:
                context = _worker_contexts.pop(old_fingerprint, None)
            if context is None:
                continue
            migrated = context.apply_delta(delta)
            if migrated.structure.fingerprint() != new_fingerprint:
                continue
            if pinned:
                _worker_pinned[new_fingerprint] = migrated
            else:
                assert _worker_contexts is not None
                _worker_contexts[new_fingerprint] = migrated
            applied += 1
        return _TaskOk(applied)
    except Exception as exc:
        return _wrap_failure(exc)


def pinned_fingerprints_task(job) -> _TaskOk | _TaskFailure:
    """Introspection: this worker's pinned fingerprint keys.

    ``job = ((), barrier, timeout)``; used by tests and diagnostics to
    observe the per-worker pin state.
    """
    _, barrier, timeout = job
    try:
        _await_broadcast_barrier(barrier, timeout)
        return _TaskOk(tuple(_worker_pinned or ()))
    except Exception as exc:
        return _wrap_failure(exc)


# ----------------------------------------------------------------------
# The task functions shipped to workers
# ----------------------------------------------------------------------
def count_block_task(job) -> _TaskOk | _TaskFailure:
    """Run a block of plans against one structure.

    ``job = (plans, structure, use_context[, budget])``; with
    ``use_context`` the block shares one resident execution context
    (and the executions run against the resident context's structure,
    so index, memos, and data stay coherent on a fingerprint hit).
    ``budget`` is the caller's remaining :class:`~repro.budget.
    CostBudget` (shipped by value); it is installed around the block so
    budget- and deadline-exceeded counts abort *inside* the worker, and
    the resulting :class:`~repro.exceptions.BudgetExceeded` travels
    back through the normal failure channel.
    """
    plans, structure, use_context, *rest = job
    budget = rest[0] if rest else None
    cap = _trace.capture("count.block", plans=len(job[0]))
    try:
        with cap:
            from repro.budget import budget_scope
            from repro.engine.executor import execute

            context = None
            hit: bool | None = None
            if use_context:
                context, hit = _resident_context(structure)
                structure = context.structure
            cap.root.set("context_hit", hit)
            with budget_scope(budget):
                values = [execute(plan, structure, context) for plan in plans]
        return _TaskOk(values, hit, cap.spans)
    except Exception as exc:
        failure = _wrap_failure(exc)
        failure.spans = cap.spans
        return failure


def shard_task(job) -> _TaskOk | _TaskFailure:
    """Evaluate every shard unit on one shard through one resident context.

    ``job = (units, shard[, budget])``: the sharded executor's per-shard
    work, with the context (index + boundary memos) resident across
    calls, so a repeated ``count_sharded`` on the same data re-executes
    against warm memos instead of rebuilding them.  ``budget`` (the
    caller's remaining allowance, shipped by value) is installed around
    the units as in :func:`count_block_task`.
    """
    units, shard, *rest = job
    budget = rest[0] if rest else None
    cap = _trace.capture("shard.execute", units=len(job[0]))
    try:
        with cap:
            from repro.budget import budget_scope

            context, hit = _resident_context(shard)
            cap.root.set("context_hit", hit)
            with budget_scope(budget):
                out = context.run_units(units)
        return _TaskOk(out, hit, cap.spans)
    except Exception as exc:
        failure = _wrap_failure(exc)
        failure.spans = cap.spans
        return failure


# ----------------------------------------------------------------------
# The parent-side pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A reusable multiprocessing pool with warm worker-side caches.

    Parameters
    ----------
    processes:
        Pool size (default: one worker per CPU).
    context_capacity:
        How many execution contexts each worker keeps resident.

    The underlying :mod:`multiprocessing` pool is created lazily on the
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

    def __init__(
        self,
        processes: int | None = None,
        context_capacity: int = DEFAULT_WORKER_CONTEXT_CAPACITY,
    ):
        if processes is not None and processes < 1:
            raise ReproError("worker pool needs at least one process")
        self.processes = processes or default_process_count()
        self.context_capacity = context_capacity
        self._pool = None
        self._manager = None
        self._lock = threading.Lock()
        self._pinned: OrderedDict[tuple, Structure] = OrderedDict()
        self.worker_context_hits = 0
        self.worker_context_misses = 0
        self.pin_broadcasts = 0
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
                self._pool = mp_context.Pool(
                    processes=self.processes,
                    initializer=_init_worker,
                    initargs=(
                        self.context_capacity,
                        tuple(self._pinned.values()),
                    ),
                )
            return self._pool

    def _ensure_manager(self):
        """The SyncManager whose barrier proxies coordinate broadcasts.

        Plain ``multiprocessing`` synchronization primitives can only be
        *inherited* by workers, not shipped through the pool's task
        queue; manager proxies are picklable, which is what lets a
        barrier reach workers forked long before the broadcast.  Created
        lazily (one extra helper process) on the first broadcast against
        a live pool and shut down with the pool.
        """
        with self._lock:
            if self._manager is None:
                import multiprocessing

                self._manager = multiprocessing.Manager()
            return self._manager

    @property
    def started(self) -> bool:
        """Whether the underlying process pool has been created."""
        return self._pool is not None

    def map(self, task, jobs) -> list:
        """Run ``task`` over ``jobs`` in the pool and unwrap the results.

        Raises :class:`WorkerTaskError` when a task failed inside a
        worker; lets pool-setup and job-pickling errors (``OSError``,
        pickling errors, ...) propagate as themselves, which is the
        signal the executor's sequential fallback keys on.

        Worker-recorded trace spans riding on each result are
        re-parented into the caller's ambient trace (suffixed with the
        job index, e.g. ``shard.execute[3]``) -- for *every* job before
        the first failure is raised, so an exceptional trace is still
        complete.
        """
        raw = self._ensure_pool().map(task, list(jobs))
        values = []
        hits = misses = 0
        failure: _TaskFailure | None = None
        for index, item in enumerate(raw):
            _trace.attach_foreign(item.spans, suffix=f"[{index}]")
            if isinstance(item, _TaskFailure):
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
        a shared barrier until all of them are running, so every worker
        serves exactly one.  Requires a started pool; callers that only
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
        ``[]`` (zero confirmations) is sound for every broadcast task:
        pins, unpins, and delta re-keys are all recorded parent-side
        first, and the restarted pool's initializer rebuilds exactly
        that state.
        """
        import multiprocessing

        pool = self._ensure_pool()
        alive_before = self._worker_pids()
        barrier = self._ensure_manager().Barrier(self.processes)
        job = (payload, barrier, self.BROADCAST_BARRIER_TIMEOUT)
        pending = pool.map_async(task, [job] * self.processes, chunksize=1)
        try:
            raw = pending.get(
                self.BROADCAST_BARRIER_TIMEOUT + self.BROADCAST_RESULT_GRACE
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
        values = []
        for item in raw:
            if isinstance(item, _TaskFailure):
                raise WorkerTaskError(item.exception)
            values.append(item.value)
        return values

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

    def pin_structures(self, structures: Sequence[Structure]) -> int:
        """Pin ``structures`` resident in every worker (and future ones).

        The pin set is recorded parent-side first, so workers forked
        later (a lazily restarted pool) rebuild it in their
        initializer; a live pool additionally gets a broadcast that
        builds and materializes the contexts right now.  Returns the
        number of live workers that confirmed the pin (0 when the pool
        has not started -- the pin still holds, deferred to start-up).
        """
        structures = tuple(structures)
        with self._lock:
            for structure in structures:
                self._pinned[structure.fingerprint()] = structure
        if not self.started:
            return 0
        confirmations = self.broadcast(pin_structures_task, structures)
        with self._lock:
            self.pin_broadcasts += 1
        return len(confirmations)

    def unpin_structures(self, fingerprints: Sequence[tuple]) -> int:
        """Drop pinned fingerprints parent-side and in every live worker.

        Also evicts matching entries from the workers' LRU caches, so a
        re-registration under the same name with different data can
        never be served by a stale context.
        """
        fingerprints = tuple(fingerprints)
        with self._lock:
            for fingerprint in fingerprints:
                self._pinned.pop(fingerprint, None)
        if not self.started:
            return 0
        confirmations = self.broadcast(unpin_structures_task, fingerprints)
        with self._lock:
            self.pin_broadcasts += 1
        return len(confirmations)

    def apply_delta(self, updates) -> int:
        """Fan a structure delta out to every worker's resident contexts.

        ``updates`` is a sequence of ``(old_fingerprint, delta,
        new_structure)`` triples -- the whole structure plus each
        touched shard.  The parent-side pin set is re-keyed first (so a
        lazily restarted pool rebuilds the *post-delta* versions in its
        initializer), then a broadcast ships the ``O(|delta|)``
        migration instructions to every live worker; pinned contexts
        migrate in place of being unpinned and rebuilt.  Returns the
        total number of worker-side context migrations (0 when the
        pool has not started -- the re-keyed pin set still holds).
        """
        updates = tuple(updates)
        if not updates:
            return 0
        with self._lock:
            for old_fingerprint, _, new_structure in updates:
                if old_fingerprint in self._pinned:
                    self._pinned.pop(old_fingerprint)
                    self._pinned[new_structure.fingerprint()] = new_structure
        if not self.started:
            return 0
        payload = tuple(
            (old_fingerprint, delta, new_structure.fingerprint())
            for old_fingerprint, delta, new_structure in updates
        )
        confirmations = self.broadcast(apply_delta_task, payload)
        with self._lock:
            self.pin_broadcasts += 1
        return sum(confirmations)

    def pinned_fingerprints(self) -> tuple[tuple, ...]:
        """The parent-side pin set (what a restarted pool would rebuild)."""
        with self._lock:
            return tuple(self._pinned)

    def worker_pinned_fingerprints(self) -> list[tuple[tuple, ...]]:
        """Per-worker pinned fingerprints, observed live (diagnostics)."""
        if not self.started:
            return []
        return self.broadcast(pinned_fingerprints_task, ())

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
    def close(self) -> None:
        """Shut the current workers down.

        The ``WorkerPool`` object stays usable: a later :meth:`map`
        starts a fresh set of workers -- cold caches, but with every
        pinned structure rebuilt by the initializer, so pinning is a
        property of the pool, not of one generation of workers.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            manager, self._manager = self._manager, None
        if pool is not None:
            pool.close()
            pool.join()
        if manager is not None:
            manager.shutdown()

    def terminate(self) -> None:
        """Kill the workers immediately."""
        with self._lock:
            pool, self._pool = self._pool, None
            manager, self._manager = self._manager, None
        if pool is not None:
            pool.terminate()
            pool.join()
        if manager is not None:
            manager.shutdown()

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
