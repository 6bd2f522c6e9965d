"""The fork-pool transport of the worker runtime.

The parallel paths of :mod:`repro.engine.executor` run over a
:class:`WorkerPool`, created lazily on first use and kept for an
:class:`~repro.engine.api.Engine`'s lifetime.  A worker holds a
:class:`~repro.engine.resident.ResidentContexts` between jobs, the
store a cluster worker also owns; :func:`shard_task` runs jobs on it.

**A pool generation is a fork of the engine's store.**  The pool
materializes every placed context in the parent, then forks; each
worker adopts those contexts as it inherited them, shared
copy-on-write.  Residency is never sent to a worker: a placement, drop
or delta bumps the store's ``version``, and the next dispatch first
swaps in a fresh fork.  So a job names placed data by fingerprint
(:meth:`WorkerPool.job_key`, ``O(1)`` bytes at any size) and carries
any other structure by value; a named context a worker lacks (a count
racing a change) comes back as
:class:`~repro.engine.resident.NotResident` and is re-run by value.

An exception raised *inside* a worker task comes back as a
:class:`~repro.engine.resident.TaskFailure` and is re-raised as
:class:`WorkerTaskError`, so counting bugs propagate; a pool-*setup*
problem (no subprocess support, unpicklable jobs) raises its native
error from ``map``, which the executor answers with the sequential
path.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import threading
from contextlib import contextmanager

from repro.engine.resident import (
    NotResident,
    ResidentContexts,
    TaskFailure,
    TaskOk,
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
#: This process's resident contexts: in a pool worker, the placed
#: contexts of the store it forked from (:func:`_init_worker`); a cold
#: store for tasks called in-process.
_resident = ResidentContexts()


#: ``(len(sys.modules), descriptors)``: every ``functools.cached_property``
#: of the classes loaded when it was last refreshed (see
#: :func:`_find_cached_properties`).
_cached_properties: tuple[int, tuple] = (0, ())


def _find_cached_properties() -> None:
    """Refresh :data:`_cached_properties` before a fork, unless no module
    was imported since the last refresh.

    Before Python 3.12 such a descriptor takes one lock, shared by all
    its instances, while it computes a value: a worker forked while a
    parent thread computed one (any library's, or the standard
    library's) would wait on that lock forever, so each worker gives
    every one a fresh lock.  Found here, in the parent: walking every
    class in a freshly forked worker costs it tens of milliseconds of
    copy-on-write faults.
    """
    global _cached_properties
    modules = len(sys.modules)
    if sys.version_info >= (3, 12) or _cached_properties[0] == modules:
        return
    found, seen, stack = [], set(), [object]
    while stack:
        for cls in type.__subclasses__(stack.pop()):
            if id(cls) not in seen:  # a metaclass may make cls unhashable
                seen.add(id(cls))
                stack.append(cls)
                found += [
                    attr
                    for attr in tuple(vars(cls).values())
                    if type(attr) is functools.cached_property
                ]
    _cached_properties = (modules, tuple(found))


def _init_worker(store: ResidentContexts | None) -> None:
    """Pool initializer: a fresh store (its own lock and stats sink)
    holding the placed contexts of ``store``, the parent's store as it
    was at the fork -- built there, so materializing is a no-op unless
    a non-fork start method shipped only its structures."""
    global _resident
    for prop in _cached_properties[1]:
        prop.lock = threading.RLock()
    _resident = ResidentContexts()
    if store is not None:
        _resident.adopt(store)
    with collector_paused():
        _resident.materialize()
        # The heap inherited across the fork and the placed contexts
        # both live as long as this worker: park them outside the
        # collector's generations, so no later collection traverses
        # them or dirties their copy-on-write pages.
        gc.freeze()


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
class _Generation:
    """One fork of the store: its process pool, the store version it
    forked at, the worker processes it started with, and the
    dispatches still waiting on it."""

    __slots__ = ("pool", "version", "workers", "jobs")

    def __init__(self, pool, version: int | None):
        self.pool = pool
        self.version = version
        self.workers = tuple(pool._pool)  # noqa: SLF001 - no public API
        self.jobs = 0

    def lost_a_worker(self) -> bool:
        """Whether a worker it forked died (exiting cleanly is what the
        workers of a closed pool do)."""
        return any(worker.exitcode not in (None, 0) for worker in self.workers)

    def shut(self, terminate: bool = False) -> None:
        """Close the pool and join it once its jobs are done, or
        terminate it (``terminate``, or a worker was lost).

        A killed worker can die holding the lock it shares with this
        process's pool threads: the task queue's read lock (killed
        idle) or the result queue's write lock (killed just as it sent
        a result).  Its respawns, a close-and-join and ``terminate()``
        would all wait on it forever, so a generation that lost a
        worker is terminated with fresh locks of its own in their place.
        """
        pool = self.pool
        if self.lost_a_worker():
            pool._inqueue._rlock = threading.Lock()  # noqa: SLF001
            pool._outqueue._wlock = threading.Lock()  # noqa: SLF001
            terminate = True
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()


class WorkerPool:
    """A reusable multiprocessing pool that forks the engine's store.

    ``processes`` is the pool size (default: one worker per CPU).
    ``contexts`` is the store each generation forks from (the engine's
    own); with none, nothing is placed and every job carries its
    structure.  The underlying :mod:`multiprocessing` pool is created
    lazily on the first :meth:`map`, so constructing a ``WorkerPool``
    (an :class:`~repro.engine.api.Engine` does it eagerly) costs
    nothing until a parallel path actually runs.  Usable as a context
    manager; :meth:`close` shuts the workers down.
    """

    def __init__(
        self,
        processes: int | None = None,
        contexts: ResidentContexts | None = None,
    ):
        if processes is not None and processes < 1:
            raise ReproError("worker pool needs at least one process")
        self.processes = processes or default_process_count()
        self.contexts = contexts
        self._generation: _Generation | None = None
        #: Swapped-out generations, closed, that dispatches still wait on.
        self._retired: list[_Generation] = []
        self._lock = threading.Lock()
        self.worker_context_hits = 0
        self.worker_context_misses = 0

    # ------------------------------------------------------------------
    def _fork(self) -> _Generation:
        import multiprocessing

        # fork shares the already-imported library and the store with
        # the workers; fall back to the default start method (which
        # pickles the store as its placed structures) where fork is
        # unavailable.
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            mp_context = multiprocessing.get_context()
        store = self.contexts
        version = None
        if store is not None:
            # Read before materializing: a change landing meanwhile
            # leaves this generation stale, never wrongly current.
            version = store.version
            with collector_paused():
                store.materialize()
        _find_cached_properties()
        pool = mp_context.Pool(
            processes=self.processes,
            initializer=_init_worker,
            initargs=(store,),
        )
        return _Generation(pool, version)

    def _current(self) -> _Generation:
        """The generation to submit to.  Call under ``_lock``.

        A generation that lost a worker is terminated; one forked
        before the store's latest change is closed, and joined now if
        no dispatch waits on it, else by the last one that does; either
        way a fresh fork replaces it.
        """
        generation = self._generation
        if generation is not None:
            if generation.lost_a_worker():
                _log.warning(
                    "pool generation lost a worker; forking a fresh one",
                    extra={"worker_pids": [w.pid for w in generation.workers]},
                )
                generation.shut(terminate=True)
                generation = None
            elif (
                self.contexts is not None
                and generation.version != self.contexts.version
            ):
                if generation.jobs:
                    generation.pool.close()
                    self._retired.append(generation)
                else:
                    generation.shut()
                generation = None
        if generation is None:
            generation = self._generation = self._fork()
        return generation

    def _ensure_pool(self):
        """The current generation's process pool (forked if needed)."""
        with self._lock:
            return self._current().pool

    @property
    def started(self) -> bool:
        """Whether the underlying process pool has been created."""
        return self._generation is not None

    def job_key(self, structure: Structure):
        """What a job's structure slot carries for ``structure``: its
        fingerprint when the store has it placed -- every generation
        forked since holds it -- else the structure itself."""
        fingerprint = structure.fingerprint()
        store = self.contexts
        if store is not None and store.is_placed(fingerprint):
            return fingerprint
        return structure

    def _dispatch(self, task, jobs: list) -> list:
        """Submit ``jobs`` to the current generation and wait for them.

        Submission holds the lock that covers a swap, so a job always
        finishes on the generation it was submitted to; the last
        dispatch out of a retired generation joins it.
        """
        with self._lock:
            generation = self._current()
            pending = generation.pool.map_async(task, jobs)
            generation.jobs += 1
        try:
            return pending.get()
        finally:
            with self._lock:
                generation.jobs -= 1
                done = not generation.jobs and generation in self._retired
                if done:
                    self._retired.remove(generation)
            if done:
                generation.shut()

    def map(self, task, jobs, by_value=None) -> list:
        """Run ``task`` over ``jobs`` in the pool and unwrap the results.

        Raises :class:`WorkerTaskError` when a task failed inside a
        worker; lets pool-setup and job-pickling errors (``OSError``,
        pickling errors, ...) propagate as themselves, which is the
        signal the executor's sequential fallback keys on.

        A caller whose jobs name placed data by fingerprint
        (:meth:`job_key`) passes ``by_value``, mapping a job's index to
        the same job carrying the data.  A fingerprint dropped or
        migrated between naming it and the fork the job lands on comes
        back as :class:`~repro.engine.resident.NotResident`.  Exactly
        those jobs are re-run from ``by_value``, once: a job that
        carries its data cannot miss, so the caller never sees the
        routing miss.

        Worker-recorded trace spans riding on each result are
        re-parented into the caller's ambient trace (suffixed with the
        job index, e.g. ``shard.execute[3]``) -- for *every* job before
        the first failure is raised, so an exceptional trace is still
        complete.
        """
        raw = self._dispatch(task, list(jobs))
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
            resent = self._dispatch(task, [by_value(i) for i in missed])
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

    def _worker_pids(self) -> list[int]:
        """The current generation's live worker pids, respawns included."""
        generation = self._generation
        if generation is None:
            return []
        workers = tuple(generation.pool._pool)  # noqa: SLF001 - no public API
        return [worker.pid for worker in workers if worker.is_alive()]

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
        """Shut every generation down (``terminate``: kill the workers
        instead of letting submitted jobs finish).

        The ``WorkerPool`` object stays usable: a later :meth:`map`
        forks a fresh generation of the store as it is by then.
        """
        with self._lock:
            generations = self._retired
            if self._generation is not None:
                generations.append(self._generation)
            self._generation, self._retired = None, []
        for generation in generations:
            generation.shut(terminate)

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
