"""Resident execution contexts: the one context store of every process.

A process that counts holds an
:class:`~repro.engine.context.ExecutionContext` per resident structure,
migrates it when a delta advances the structure, and runs work against
it.  :class:`ResidentContexts` is that bookkeeping, with no transport
in it: the :class:`~repro.engine.api.Engine` keeps its contexts in one
instance, a fork-pool worker (:mod:`repro.engine.pool`) adopts the
engine's placed contexts when it forks, a cluster worker
(:mod:`repro.cluster.worker`) drives one from wire frames.  Two tiers,
both keyed by the process-stable
:meth:`~repro.structures.structure.Structure.fingerprint`:

* **placed** contexts are a contract -- pinned by a registration or
  placed by the coordinator, exempt from eviction, gone only when
  dropped; every change to this tier bumps :attr:`ResidentContexts.version`;
* the **LRU** tier is a heuristic -- a lookup of a structure the store
  does not hold builds its context there, so the same data again is a
  hit, and capacity pressure evicts the coldest.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.budget import budget_scope
from repro.engine.context import ContextStats, ExecutionContext
from repro.exceptions import ReproError
from repro.obs import trace as _trace
from repro.structures.structure import Structure

#: How many contexts the LRU tier keeps (placed contexts do not count).
LRU_CAPACITY = 8


class NotResident(ReproError):
    """A bare fingerprint was looked up that this worker does not hold:
    a routing miss, never a counting error."""


@dataclass
class TaskOk:
    """A successful worker result.

    ``context_hit`` is ``True``/``False`` when the task consulted the
    resident contexts, ``None`` when it needed no context.  ``spans``
    carries the worker-recorded trace spans (serialized dicts) when
    tracing was on in the worker, else ``None``; the parent re-parents
    them into the caller's trace.
    """

    value: object
    context_hit: bool | None = None
    spans: list | None = None


@dataclass
class TaskFailure:
    """An exception raised inside a worker task, as a value.

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
    try:
        pickle.dumps(exc)
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")
    return exc


class ResidentContexts:
    """The placed and LRU tiers of one process's execution contexts.

    A context carries its structure, so no tier stores structures
    separately.  Every context the store creates shares its one
    :class:`~repro.engine.context.ContextStats` sink, :attr:`stats`,
    which also counts the store's own lookups and drops.  The lock is
    for the threads that look contexts up while another places and
    migrates (the engine's callers, a cluster worker's job threads
    beside its event loop); the work itself runs outside it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._placed: dict[tuple, ExecutionContext] = {}
        self._lru: OrderedDict[tuple, ExecutionContext] = OrderedDict()
        self.stats = ContextStats()
        #: Bumped by every change to the placed tier: a pool generation
        #: forked at an older version is stale.
        self.version = 0

    def __getstate__(self) -> tuple:
        """A store pickles as its placed structures (the pool's non-fork
        start methods ship it to each worker this way)."""
        with self._lock:
            return tuple(c.structure for c in self._placed.values())

    def __setstate__(self, structures: tuple) -> None:
        self.__init__()
        self.place(structures)

    def adopt(self, other: "ResidentContexts") -> None:
        """Place ``other``'s placed contexts here as they are -- built
        state and memos included -- counting into this store's sink.

        Takes no lock of ``other``: a forked pool worker adopts the
        store it inherited, whose lock a parent thread may have held at
        the fork.
        """
        for fingerprint, context in tuple(other._placed.items()):
            context.stats = self.stats
            self._placed[fingerprint] = context

    def materialize(self) -> None:
        """Build every placed context now (see
        :meth:`~repro.engine.context.ExecutionContext.materialize`)."""
        with self._lock:
            contexts = tuple(self._placed.values())
        for context in contexts:
            context.materialize()

    def place(self, structures) -> list[ExecutionContext]:
        """Make ``structures`` resident until dropped; returns their
        contexts, in order.

        Idempotent, and an LRU entry is promoted with everything it has
        built.  New contexts are *unbuilt*: a caller that wants the
        encoding and index paid now calls ``materialize()`` on what it
        gets back (the pool materializes every placed context before it
        forks).
        """
        contexts = []
        with self._lock:
            for structure in structures:
                fingerprint = structure.fingerprint()
                context = self._placed.get(fingerprint)
                if context is None:
                    context = self._lru.pop(fingerprint, None)
                    if context is None:
                        context = ExecutionContext(structure, stats=self.stats)
                    self._placed[fingerprint] = context
                    self.version += 1
                contexts.append(context)
        return contexts

    def drop(self, fingerprints) -> int:
        """Forget ``fingerprints`` in both tiers (so nothing stale can
        serve a fingerprint the parent retired); returns how many
        contexts went, which ``stats.context_invalidations`` counts."""
        dropped = 0
        with self._lock:
            for fingerprint in fingerprints:
                if self._placed.pop(fingerprint, None) is not None:
                    dropped += 1
                    self.version += 1
                if self._lru.pop(fingerprint, None) is not None:
                    dropped += 1
        if dropped:
            self.stats.bump("context_invalidations", dropped)
        return dropped

    def apply_delta(self, updates) -> int:
        """Migrate resident contexts across a structure delta.

        ``updates`` holds ``(old_fingerprint, delta, new)`` triples,
        where ``new`` is the post-delta fingerprint -- ``O(|delta|)``
        bytes a triple, what a worker receives -- or the post-delta
        :class:`~repro.structures.structure.Structure` itself, which
        the migrated context then holds (the engine passes its registry
        entry's, so the context shares the shard plan the entry already
        advanced).  A context resident under the old fingerprint moves,
        within its tier, to its
        :meth:`~repro.engine.context.ExecutionContext.apply_delta`
        migration (encoding and untouched memos kept); one this store
        does not hold is skipped.  A migration whose chained
        fingerprint is not the expected one is dropped, never served:
        the next job or place re-ships the truth.  A delta that does
        not apply raises (:class:`~repro.exceptions.DeltaError`) with
        its context still resident under the old fingerprint.  Returns
        the number of contexts migrated.
        """
        applied = 0
        with self._lock:
            for old_fingerprint, delta, new in updates:
                tier = (
                    self._placed
                    if old_fingerprint in self._placed
                    else self._lru
                )
                context = tier.get(old_fingerprint)
                if context is None:
                    continue
                if isinstance(new, Structure):
                    migrated = context.apply_delta(delta, new)
                    new = new.fingerprint()
                else:
                    migrated = context.apply_delta(delta)
                del tier[old_fingerprint]
                if migrated.structure.fingerprint() == new:
                    tier[new] = migrated
                    applied += 1
                if tier is self._placed:
                    self.version += 1
        return applied

    def lookup(self, key, keep: bool = True) -> tuple[ExecutionContext, bool]:
        """``(context, hit)`` for a structure or a bare fingerprint.

        ``hit`` means the caller reuses built state: a placed context
        that nothing has materialized or run against yet is still a
        miss.  A :class:`~repro.structures.structure.Structure` the
        store does not hold gets a fresh context, kept in the LRU tier
        -- or, with ``keep=False``, handed out without being kept (a
        throwaway, so a burst of one-off data evicts nothing); a bare
        fingerprint it does not hold raises :class:`NotResident`.
        Every returned context counts one ``stats.context_hits`` or
        ``context_misses``.
        """
        shipped = isinstance(key, Structure)
        fingerprint = key.fingerprint() if shipped else key
        with self._lock:
            context = self._placed.get(fingerprint)
            if context is None:
                context = self._lru.get(fingerprint)
                if context is not None:
                    self._lru.move_to_end(fingerprint)
            if context is None:
                if not shipped:
                    raise NotResident(f"{fingerprint!r} is not resident")
                context = ExecutionContext(key, stats=self.stats)
                if keep:
                    self._lru[fingerprint] = context
                    while len(self._lru) > LRU_CAPACITY:
                        self._lru.popitem(last=False)
            hit = context.built
        self.stats.bump("context_hits" if hit else "context_misses")
        return context, hit

    def held(self, structure: Structure) -> ExecutionContext | None:
        """The context either tier holds for ``structure`` (an LRU one
        becomes the most recent), else ``None``; creates nothing,
        builds nothing, counts nothing."""
        fingerprint = structure.fingerprint()
        with self._lock:
            if fingerprint in self._lru:
                self._lru.move_to_end(fingerprint)
            return self._placed.get(fingerprint) or self._lru.get(fingerprint)

    def placed_fingerprints(self) -> tuple:
        """The fingerprints of the placed tier (diagnostics)."""
        with self._lock:
            return tuple(self._placed)

    def is_placed(self, fingerprint: tuple) -> bool:
        """Whether the placed tier holds ``fingerprint``."""
        with self._lock:
            return fingerprint in self._placed

    def clear(self) -> None:
        """Empty the LRU tier; placed contexts stay until dropped."""
        with self._lock:
            self._lru.clear()

    def encoded_bytes(self) -> int:
        """Approximate resident bytes of the built encodings in both
        tiers (0 with nothing built)."""
        with self._lock:
            contexts = [*self._placed.values(), *self._lru.values()]
        return sum(context.encoded_nbytes for context in contexts)

    def __contains__(self, fingerprint: object) -> bool:
        with self._lock:
            return fingerprint in self._placed or fingerprint in self._lru

    def __len__(self) -> int:
        with self._lock:
            return len(self._placed) + len(self._lru)

    def execute(
        self, run, key, budget, span_name: str, **attrs
    ) -> TaskOk | TaskFailure:
        """One worker job: ``run(context)`` on the context for ``key``.

        Opens a trace capture named ``span_name``, looks the context up,
        records ``context_hit`` on the span, and runs under ``budget``
        -- the caller's remaining :class:`~repro.budget.CostBudget`,
        shipped by value, so exhaustion aborts inside the worker.
        Whatever is raised comes back as a :class:`TaskFailure`; the
        recorded spans ride on both outcomes.
        """
        capture = _trace.capture(span_name, **attrs)
        try:
            with capture:
                context, hit = self.lookup(key)
                capture.root.set("context_hit", hit)
                with budget_scope(budget):
                    value = run(context)
            return TaskOk(value, hit, capture.spans)
        except Exception as exc:
            return TaskFailure(picklable_exception(exc), capture.spans)
