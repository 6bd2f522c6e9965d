"""The user-facing counting engine.

:class:`Engine` ties the pieces together: it compiles queries into
:class:`~repro.engine.plan.CountingPlan` objects through an LRU plan
cache, serves data structures through a
:class:`~repro.engine.resident.ResidentContexts` store of
:class:`~repro.engine.context.ExecutionContext` objects (dense-int
columns + memoized ∃-component boundary relations + shard partitions;
registered pinned data placed, everything else LRU), executes plans
sequentially, over a process pool, or sharded, and keeps hit-rate and
timing statistics.

A module-level default engine backs
:func:`repro.core.counting.count_answers`, so every existing caller of
the one-shot API transparently benefits from plan caching::

    >>> from repro import Structure
    >>> from repro.engine import Engine
    >>> engine = Engine()
    >>> graph = Structure.from_relations({"E": [(1, 2), (2, 3), (3, 1)]})
    >>> engine.count("exists z. (E(x, z) & E(z, y))", graph)
    3
    >>> engine.count("exists z. (E(x, z) & E(z, y))", graph)  # cache hit
    3
    >>> engine.stats().plan_hits
    1
"""

from __future__ import annotations

import atexit
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.budget import budget_scope
from repro.core.inclusion_exclusion import DEFAULT_MAX_DISJUNCTS
from repro.engine.cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from repro.engine.executor import count_many as _count_many
from repro.engine.executor import execute_sharded
from repro.engine.plan import CountingPlan, PlanProfile, Query
from repro.engine.policy import ALLOW, ExecutionPolicy
from repro.engine.pool import (
    WorkerPool,
    collector_paused,
    default_process_count,
)
from repro.engine.resident import ResidentContexts
from repro.engine.registry import (
    DEFAULT_REGISTRY_MAX_BYTES,
    DEFAULT_REGISTRY_MAX_ENTRIES,
    RegistryEntry,
    RegistryFull,
    StructureRegistry,
    UnknownStructureError,
    VersionConflict,
)
from repro.exceptions import BudgetExceeded, PolicyRejection, ReproError
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.trace import NOOP_SPAN
from repro.structures.structure import Structure

_log = get_logger("engine.api")

#: Anywhere the engine takes a structure it also takes the *name* of a
#: registered one (see :class:`~repro.engine.registry.StructureRegistry`).
StructureRef = Structure | str


@dataclass
class EngineStats:
    """Counters and timings accumulated by an :class:`Engine`.

    ``plan_hits`` / ``plan_misses`` count lookups of the in-memory plan
    cache (a miss compiles); ``context_hits`` / ``context_misses``
    count lookups of the engine's context store (a hit reuses built
    state, as a worker context hit does; a miss builds lazily).
    ``boundary_memo_hits`` / ``boundary_memo_misses`` count memoized
    ∃-component boundary-relation lookups, and ``semijoin_eliminations``
    the eliminations on the column tables that served the misses.
    ``worker_context_hits`` / ``worker_context_misses`` count
    lookups of the worker-resident context stores inside the engine's
    long-lived pool (a hit means a pool job reused a built encoding
    and boundary memo instead of rebuilding).
    ``registry_hits`` / ``registry_misses`` count name resolutions
    against the structure registry (a miss raised
    :class:`~repro.engine.registry.UnknownStructureError`);
    ``registry_registrations`` / ``registry_evictions`` count
    ``register_structure`` calls and capacity evictions.
    ``encoded_resident_bytes`` is the approximate resident size of the
    dense-int encodings held by the engine's context store.
    ``delta_applies`` counts successful
    :meth:`Engine.apply_delta` calls, ``memo_evictions`` the memo
    entries dropped by their relation-scoped invalidation, and
    ``context_invalidations`` the whole and shard contexts the store
    dropped (unregister, re-registration, eviction, a refused
    registration).
    ``compile_seconds`` is time spent compiling plans,
    ``execute_seconds`` time spent executing them.

    ``classifications`` counts trichotomy classifications run at
    compile time -- once per plan-cache miss, zero on hits, which is
    the memoization contract of
    :class:`~repro.engine.plan.PlanProfile`; ``verdicts`` breaks them
    down by :class:`~repro.core.classification.Case` name.
    ``policy_rejections`` counts plans refused at plan time by a
    ``reject`` policy and ``budget_aborts`` counts executions stopped
    by a cooperative :class:`~repro.budget.CostBudget` (including the
    ones the ``degrade`` mode turned into estimates).
    """

    count_calls: int = 0
    batch_calls: int = 0
    sharded_calls: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    context_hits: int = 0
    context_misses: int = 0
    boundary_memo_hits: int = 0
    boundary_memo_misses: int = 0
    semijoin_eliminations: int = 0
    worker_context_hits: int = 0
    worker_context_misses: int = 0
    registry_hits: int = 0
    registry_misses: int = 0
    registry_registrations: int = 0
    registry_evictions: int = 0
    encoded_resident_bytes: int = 0
    delta_applies: int = 0
    memo_evictions: int = 0
    context_invalidations: int = 0
    classifications: int = 0
    policy_rejections: int = 0
    budget_aborts: int = 0
    compile_seconds: float = 0.0
    execute_seconds: float = 0.0
    verdicts: dict[str, int] = field(default_factory=dict)

    @property
    def plan_hit_rate(self) -> float:
        total = self.plan_hits + self.plan_misses
        return self.plan_hits / total if total else 0.0

    @property
    def context_hit_rate(self) -> float:
        total = self.context_hits + self.context_misses
        return self.context_hits / total if total else 0.0

    def as_dict(self) -> dict:
        """A JSON-friendly snapshot: every field plus the two rates
        (read by ``/metrics`` and the benchmark harness)."""
        return {
            **asdict(self),
            "plan_hit_rate": self.plan_hit_rate,
            "context_hit_rate": self.context_hit_rate,
        }


class Engine:
    """A compiled-plan counting engine with a plan cache and a context store.

    Parameters
    ----------
    plan_cache_size:
        Capacity of the LRU cache of compiled plans.
    max_disjuncts:
        Safety limit forwarded to the inclusion-exclusion expansion.
    processes:
        Size of the engine's long-lived worker pool (default: one per
        CPU), the only pool its calls fan out over.  The pool itself
        starts lazily on the first parallel call and then stays
        resident for the engine's lifetime.
    registry_max_entries / registry_max_bytes:
        Capacity of the engine's
        :class:`~repro.engine.registry.StructureRegistry` of named
        resident structures.  Structures registered through
        :meth:`register_structure` can be *named* -- a ``str`` --
        anywhere ``count`` / ``count_many`` / ``count_sharded`` accept
        a structure.
    policy:
        The engine's default :class:`~repro.engine.policy.
        ExecutionPolicy` (also accepts a mode string or the request
        dict form).  Every count call resolves it -- or a per-call
        ``policy=`` override -- against the compiled plan's memoized
        :class:`~repro.engine.plan.PlanProfile`: ``reject`` refuses
        hard-verdict plans at plan time, ``budget``/``degrade`` run
        the execution under a cooperative cost budget.  ``None``
        means ``allow`` (the pre-policy behavior).
    """

    def __init__(
        self,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
        processes: int | None = None,
        registry_max_entries: int = DEFAULT_REGISTRY_MAX_ENTRIES,
        registry_max_bytes: int = DEFAULT_REGISTRY_MAX_BYTES,
        policy: ExecutionPolicy | str | dict | None = None,
    ):
        self.policy = (
            ALLOW if policy is None else ExecutionPolicy.from_request(policy)
        )
        self.plans = PlanCache(plan_cache_size, max_disjuncts)
        #: Execution contexts; every pool generation forks this store.
        self.contexts = ResidentContexts()
        self.registry = StructureRegistry(
            max_entries=registry_max_entries, max_bytes=registry_max_bytes
        )
        self.pool = WorkerPool(processes=processes, contexts=self.contexts)
        #: An attached ClusterCoordinator, or None for single-host mode.
        self.cluster = None
        self._lock = threading.Lock()
        self._delta_lock = threading.Lock()
        #: The engine-owned counters; read and written under ``_lock``.
        self._counters = EngineStats()

    # ------------------------------------------------------------------
    def compile(self, query: Query) -> CountingPlan:
        """The compiled plan for ``query``, through the plan cache."""
        before = time.perf_counter()
        with _trace.span("plan.compile") as span:
            # One key computation answers both the plan and whether it
            # was cached: the span wants hit/miss, and classification
            # accounting runs once per miss -- a hit reuses the
            # memoized profile.
            plan, hit = self.plans.lookup(query)
            if span is not NOOP_SPAN:
                span.set("cache", "hit" if hit else "miss")
            span.set("kind", plan.kind)
        with self._lock:
            counters = self._counters
            counters.compile_seconds += time.perf_counter() - before
            if not hit:
                counters.classifications += 1
                verdict = plan.profile.case.name
                counters.verdicts[verdict] = counters.verdicts.get(verdict, 0) + 1
        return plan

    def classify(self, query: Query) -> PlanProfile:
        """The memoized complexity profile of ``query``'s compiled plan.

        The dry-run half of policy routing: compiles (through the plan
        cache) and returns the :class:`~repro.engine.plan.PlanProfile`
        -- verdict, structural measures, cost estimator -- without
        executing anything.  The HTTP layer's ``POST /classify`` is a
        thin wrapper over this.
        """
        return self.compile(query).profile

    # -- policy plumbing ------------------------------------------------
    def resolve_policy(self, policy) -> ExecutionPolicy:
        """The engine default, or a validated per-call override (the
        serving layer resolves a request's policy through here too)."""
        if policy is None:
            return self.policy
        return ExecutionPolicy.from_request(policy)

    def _pool_for(self, parallel: bool | None, auto: bool) -> WorkerPool | None:
        """The pool a call fans out over: the engine's own when
        ``parallel`` is true -- or ``None`` and ``auto`` holds on a
        multi-CPU host -- else ``None``, the sequential path."""
        if parallel is None:
            parallel = auto and default_process_count() > 1
        return self.pool if parallel else None

    def _run_guarded(
        self,
        policy: ExecutionPolicy,
        plans: Sequence[CountingPlan],
        structures: Sequence[Structure],
        run,
        sharded: bool = False,
        batch: bool = False,
    ):
        """The one path every count request takes once it has plans.

        Admits every plan (a ``reject`` policy refuses before anything
        executes), runs ``run()`` under the policy's budget, and on a
        budget abort either re-raises or -- for ``degrade`` -- returns
        the profiles' over-estimates: the whole ``plans x structures``
        grid for a ``batch`` request, its single cell otherwise.  A
        completed request counts once per cell, plus one sharded /
        batch call when flagged.
        """
        try:
            for plan in plans:
                policy.admit(plan.profile)
        except PolicyRejection:
            with self._lock:
                self._counters.policy_rejections += 1
            raise
        budget = policy.make_budget()
        # budget_scope(None) would *clear* a budget the caller opened
        # around this call; without one of its own the request stays
        # charged to the inherited scope.
        scope = budget_scope(budget) if budget is not None else nullcontext()
        before = time.perf_counter()
        try:
            with scope:
                result = run()
        except BudgetExceeded as exc:
            with self._lock:
                self._counters.budget_aborts += 1
            with _trace.span("budget.abort", degraded=policy.degrades) as span:
                for key, value in exc.progress.items():
                    span.set(key, value)
            if not policy.degrades:
                raise
            result = [
                [plan.profile.estimate_count(len(s.universe)) for s in structures]
                for plan in plans
            ]
            if not batch:
                result = result[0][0]
        cells = len(plans) * len(structures)
        with self._lock:
            counters = self._counters
            counters.execute_seconds += time.perf_counter() - before
            counters.count_calls += cells
            counters.sharded_calls += sharded
            counters.batch_calls += batch
        return result

    # ------------------------------------------------------------------
    # Named resident structures: the registry
    # ------------------------------------------------------------------
    def attach_cluster(self, cluster) -> None:
        """Attach a :class:`~repro.cluster.coordinator.ClusterCoordinator`.

        Sharded counts on registered refs route their shard units to
        cluster workers holding the shards from now on, degrading to
        the local :class:`~repro.engine.pool.WorkerPool` whenever the
        cluster cannot take the work.  Every *currently* registered
        pinned entry's shards are placed immediately, so attachment
        mirrors what registration would have done had the cluster been
        there first; entries registered later place as part of
        :meth:`register_structure`.
        """
        self.cluster = cluster
        for name in self.registry.names():
            entry = self.registry.peek(name)
            if entry is None or not entry.pinned or entry.sharded is None:
                continue
            entry.placements = self._fan_out(
                place=entry.sharded.non_empty_shards()
            )

    def detach_cluster(self):
        """Detach (and return) the cluster; counts go local again."""
        cluster, self.cluster = self.cluster, None
        return cluster

    def _fan_out(self, updates=(), drop=(), pin=(), place=()) -> dict:
        """Change what is held resident -- the one place the engine
        talks residency to its own store and its two transports.

        ``updates`` are ``(old_fingerprint, delta, new_structure)``
        migrations and ``drop`` fingerprints to forget, for both: the
        engine's store and the cluster's holders (a no-op for a
        fingerprint it never placed).  ``pin`` is what the store places
        (a whole structure and its shards); the pool's next dispatch
        forks the changed store, so pool workers never hear of it.
        ``place`` is what the cluster spreads over its holders (the
        shards: cluster jobs are per shard), returning ``{worker_id:
        shards placed}``.  An unreachable cluster is logged and
        skipped: counts degrade to the pool, which by then holds the
        change.
        """
        if updates:
            self.contexts.apply_delta(updates)
        if drop:
            self.contexts.drop(drop)
        if pin:
            self.contexts.place(pin)
        if self.cluster is None:
            return {}
        from repro.cluster.coordinator import ClusterUnavailable

        try:
            if updates:
                self.cluster.apply_delta(updates)
            if drop:
                self.cluster.unplace(drop)
            if place:
                return self.cluster.place_structures(place)
        except ClusterUnavailable as exc:
            _log.warning(
                "cluster residency fan-out skipped",
                extra={"error": str(exc)},
            )
        return {}

    def register_structure(
        self,
        name: str,
        structure: Structure,
        pin: bool = True,
        shard_count: int | None = None,
    ) -> RegistryEntry:
        """Make ``structure`` resident under ``name``.

        Registration is where the one-time costs are paid, off the
        request path, and it interns the structure once: the
        fingerprint digests the structure's dense-int encoding, the
        engine's execution context adopts that encoding, and the shard
        plan (``shard_count`` defaults to one shard per CPU) is cut out
        of its int columns -- components, placement, and each shard's
        encoding and fingerprint as a slice of them.  With ``pin=True``
        the structure *and its shards* are placed in the engine's
        context store, exempt from LRU eviction, each shard context
        adopting its slice, and every pool generation forked from then
        on inherits them.  Later
        calls may pass ``name`` wherever a structure is accepted;
        ``count_sharded`` on the name reuses the registration-time
        shard plan instead of re-partitioning.

        Re-registering an existing name with *different* data
        invalidates the retired structure's derived state everywhere:
        the engine's store drops its fingerprints, and the pool's next
        dispatch forks without them.  Entries evicted under capacity
        pressure are cleaned up the same way.  Raises
        :class:`~repro.engine.registry.RegistryFull` when the capacity
        cannot be met by evicting unpinned entries.
        """
        if not isinstance(structure, Structure):
            raise ReproError(
                "register_structure() needs a Structure, not a reference"
            )
        if shard_count is None:
            shard_count = default_process_count()
        if shard_count < 1:
            raise ReproError("shard_count must be at least 1")
        # Refuse what can be refused before paying for any build.
        resident_bytes = self.registry.admit(name, structure)
        with collector_paused():
            fingerprint = structure.fingerprint()
            held = fingerprint in self.contexts
            context = self.contexts.lookup(structure)[0].materialize()
            sharded = context.sharded(shard_count)
        try:
            registration = self.registry.register(
                name,
                structure,
                pin=pin,
                shard_count=shard_count,
                sharded=sharded,
                resident_bytes=resident_bytes,
            )
        except RegistryFull:
            # Nothing names the structure, so nothing may keep the
            # context this call built for it resident.
            if not held:
                self.contexts.drop((fingerprint,))
            raise
        entry = registration.entry
        shards = sharded.non_empty_shards() if pin else ()
        # One fan-out: count_sharded on this ref routes to the holders
        # placed here.
        entry.placements = self._fan_out(
            drop=registration.retired,
            pin=(structure,) + shards if pin else (),
            place=shards,
        )
        return entry

    def apply_delta(
        self, name: str, delta, expect_version: int | None = None
    ) -> RegistryEntry:
        """Apply a :class:`~repro.structures.delta.StructureDelta` to the
        registered structure ``name``, advancing it to a new version.

        This is the live-update path that replaces "re-register the
        whole structure": the registry entry moves to ``version + 1``
        with a chained fingerprint, and every caching layer migrates
        incrementally instead of being dropped --

        * the shard plan routes each delta tuple to the shard owning
          its component; a component *merge* falls back to re-sharding
          the post-delta structure;
        * resident contexts -- in the engine's store and placed in an
          attached cluster -- receive one ``O(|delta|)`` fan-out and
          migrate in place, keeping each memo whose read-set the delta
          cannot have touched
          (:meth:`~repro.engine.context.ExecutionContext.apply_delta`)
          instead of being dropped and rebuilt; the pool's next
          dispatch forks the migrated store.  The plan advances once:
          the engine's migrated context holds the new registry entry's
          structure and the very
          :class:`~repro.structures.sharding.ShardedStructure` the
          entry holds.

        ``expect_version`` enables optimistic concurrency: when given
        and not equal to the live entry's version the delta is rejected
        with :class:`~repro.engine.registry.VersionConflict` (HTTP maps
        it to 409).  Applies to one name are serialized; in-flight
        counts keep executing against the pre-delta version (nothing is
        mutated in place) and later requests observe the post-delta
        one -- never a torn mix.  Raises
        :class:`~repro.engine.registry.UnknownStructureError` for
        unregistered names and
        :class:`~repro.exceptions.DeltaError` when the delta does not
        apply to the current data.
        """
        from repro.structures.delta import StructureDelta

        if not isinstance(delta, StructureDelta):
            raise ReproError("apply_delta() needs a StructureDelta")
        with self._delta_lock:
            entry = self.registry.peek(name)
            if entry is None:
                raise UnknownStructureError(name, self.registry.names())
            if expect_version is not None and entry.version != expect_version:
                raise VersionConflict(name, expect_version, entry.version)
            if delta.is_empty:
                return entry
            with _trace.span(
                "structure.apply_delta",
                structure=name,
                tuples=delta.tuple_count,
                version=entry.version,
            ) as span:
                # Born with its chained fingerprint, like every shard
                # of the advanced plan (routed or re-sharded).
                new_structure = entry.structure.apply_delta(delta)
                sharded, resharded, updates, fresh, stale = None, False, [], (), ()
                if entry.sharded is not None:
                    sharded, resharded, updates, fresh, stale = (
                        entry.sharded.advance(delta, new_structure)
                    )
                span.set("resharded", resharded)
                new_entry = self.registry.advance(
                    name,
                    entry,
                    new_structure,
                    sharded=sharded,
                    expect_version=expect_version,
                    delta=delta,
                )
                # The whole structure and every touched shard migrate in
                # O(|delta|) in every store; only shards with nothing
                # resident to migrate from are placed like a
                # registration (and only a pinned entry places any).
                if not entry.pinned:
                    fresh = ()
                self._fan_out(
                    updates=[(entry.fingerprint, delta, new_structure)] + updates,
                    drop=stale,
                    pin=fresh,
                    place=fresh,
                )
            with self._lock:
                self._counters.delta_applies += 1
        return new_entry

    def unregister_structure(self, name: str) -> bool:
        """Drop the registered structure ``name``; ``False`` if unknown.

        Drops its fingerprints (whole structure and shards) from the
        engine's store and the cluster, so nothing keeps the retired
        data resident (the pool's next dispatch forks without them).
        """
        entry = self.registry.unregister(name)
        if entry is None:
            return False
        self._fan_out(drop=entry.worker_fingerprints())
        return True

    def resolve_structure(self, structure: StructureRef) -> Structure:
        """``structure`` itself, or the registered structure it names."""
        if isinstance(structure, str):
            return self.registry.resolve(structure)
        return structure

    def count(
        self,
        query: Query,
        structure: StructureRef,
        *,
        policy: ExecutionPolicy | str | dict | None = None,
    ) -> int:
        """Count ``|query(structure)|`` through the plan cache.

        ``structure`` may be the *name* of a registered structure; the
        request then carries no data at all and executes against the
        resident entry.

        ``policy`` overrides the engine's default
        :class:`~repro.engine.policy.ExecutionPolicy` for this call: a
        ``reject`` policy raises
        :class:`~repro.exceptions.PolicyRejection` at plan time when
        the plan's verdict is refused; ``budget``/``degrade`` run the
        execution under a cooperative cost budget, aborting with
        :class:`~repro.exceptions.BudgetExceeded` (or, for ``degrade``,
        returning the profile's documented sound over-estimate
        ``universe_size ** arity``) when it runs out.
        """
        resolved = self.resolve_policy(policy)
        with _trace.span_or_trace("engine.count"):
            structure = self.resolve_structure(structure)
            plan = self.compile(query)

            def run() -> int:
                # The one-cell batch: one program, one runner.
                grid = _count_many([plan], [structure], contexts=self.contexts)
                return grid[0][0]

            return self._run_guarded(resolved, [plan], [structure], run)

    def count_sharded(
        self,
        query: Query,
        structure: StructureRef,
        *,
        shard_count: int | None = None,
        shard_strategy: str = "hash",
        parallel: bool | None = None,
        policy: ExecutionPolicy | str | dict | None = None,
    ) -> int:
        """Count ``|query(structure)|`` by sharded data-side execution.

        The structure is partitioned into ``shard_count``
        disjoint-universe shards (default: one per CPU; the partition is
        cached on the structure's execution context), every connected
        query component runs against every shard -- over the engine's
        long-lived worker pool when ``parallel`` is true (``None``: when
        the host has more than one CPU), whose workers keep per-shard
        contexts resident across calls -- and the per-shard results are
        combined exactly.  Returns precisely what :meth:`count` returns.

        ``structure`` may be a registered structure's *name*: the call
        then ships no data, defaults ``shard_count`` to the
        registration-time value, and reuses the shard plan computed at
        registration -- no partitioning happens on the request path at
        all (for pinned entries the per-shard contexts are already
        built, and every pool worker inherits them at its fork).

        ``shard_count`` below one is an error (it used to silently fall
        back to the CPU default).

        ``policy`` routes exactly as in :meth:`count`; a budget ships
        by value into every shard job, so aborts happen inside the
        pool workers.
        """
        if shard_count is not None and shard_count < 1:
            raise ReproError("shard_count must be at least 1")
        resolved = self.resolve_policy(policy)
        pool = self._pool_for(parallel, auto=True)
        with _trace.span_or_trace("engine.count_sharded") as root:
            entry = None
            if isinstance(structure, str):
                entry = self.registry.entry(structure)
                structure = entry.structure
                if shard_count is None:
                    shard_count = entry.shard_count
            plan = self.compile(query)

            def run() -> int:
                # Reuse the registration-time plan only after validating
                # it against the entry's *current* state: the plan must
                # partition exactly this structure (identity, so any
                # fingerprint change -- re-registration or applied delta
                # -- falls through) into exactly the requested number of
                # shards (the plan's own count, not the recorded
                # metadata, so a drifted entry can never serve counts
                # from a stale partition).
                if (
                    entry is not None
                    and entry.sharded is not None
                    and entry.sharded.structure is structure
                    and shard_count == entry.sharded.shard_count
                    and shard_strategy == entry.sharded.strategy
                ):
                    sharded = entry.sharded
                else:
                    sharded = self.contexts.lookup(structure)[0].sharded(
                        default_process_count()
                        if shard_count is None
                        else shard_count,
                        shard_strategy,
                    )
                root.set("shards", sharded.shard_count)
                return execute_sharded(
                    plan,
                    sharded,
                    pool=pool,
                    # Cluster routing needs resident holders; only a
                    # registered ref's shards are placed.
                    cluster=self.cluster if entry is not None else None,
                    contexts=self.contexts,
                )

            return self._run_guarded(
                resolved, [plan], [structure], run, sharded=True
            )

    def count_many(
        self,
        queries: Sequence[Query],
        structures: Sequence[StructureRef],
        *,
        parallel: bool | None = None,
        policy: ExecutionPolicy | str | dict | None = None,
    ) -> list[list[int]]:
        """Count every query on every structure: ``result[i][j] = |q_i(B_j)|``.

        Plans come from (and warm) the engine's plan cache and run as
        one program: the parallel path ships blocks of each
        structure's evaluation units to the engine's worker pool, the
        sequential path shares the engine's execution contexts.
        ``parallel=None`` takes the pool when the host has more than
        one CPU and the grid has at least 8 cells, enough to amortize
        pool start-up.  Any item of ``structures``
        may be the name of a registered structure.

        ``policy`` routes as in :meth:`count`, applied to the whole
        grid: a ``reject`` policy refuses the batch if *any* plan's
        verdict is refused (before anything executes); one budget
        governs all cells (shipped into every pool job), and the
        ``degrade`` fallback fills the whole grid with the profiles'
        documented over-estimates.
        """
        resolved = self.resolve_policy(policy)
        with _trace.span_or_trace(
            "engine.count_many",
            queries=len(queries),
            structures=len(structures),
        ):
            structures = [self.resolve_structure(s) for s in structures]
            plans = [self.compile(q) for q in queries]
            pool = self._pool_for(
                parallel, auto=len(plans) * len(structures) >= 8
            )
            return self._run_guarded(
                resolved,
                plans,
                structures,
                lambda: _count_many(
                    plans, structures, pool=pool, contexts=self.contexts
                ),
                batch=True,
            )

    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """A snapshot of the engine's counters.

        Every component is snapshotted under its own lock (the plan
        cache, the context store's shared
        :class:`~repro.engine.context.ContextStats` sink, the worker
        pool, the registry), so a snapshot taken while other threads
        count never pairs a hit count with a miss count from a
        different moment, and never observes a concurrent
        :meth:`reset_stats` halfway through.
        """
        components = self._component_stats()
        with self._lock:
            return EngineStats(**{**asdict(self._counters), **components})

    def _component_stats(self) -> dict:
        """The :class:`EngineStats` fields a component owns -- the one
        place they are named -- each component read once, coherently."""
        plan_hits, plan_misses = self.plans.stats_snapshot()
        contexts = self.contexts.stats.snapshot()
        worker_hits, worker_misses = self.pool.stats_snapshot()
        registry_hits, registry_misses, registrations, evictions = (
            self.registry.stats_snapshot()
        )
        return dict(
            plan_hits=plan_hits,
            plan_misses=plan_misses,
            context_hits=contexts.context_hits,
            context_misses=contexts.context_misses,
            boundary_memo_hits=contexts.boundary_hits,
            boundary_memo_misses=contexts.boundary_misses,
            semijoin_eliminations=contexts.semijoin_eliminations,
            memo_evictions=contexts.memo_evictions,
            context_invalidations=contexts.context_invalidations,
            encoded_resident_bytes=self.contexts.encoded_bytes(),
            worker_context_hits=worker_hits,
            worker_context_misses=worker_misses,
            registry_hits=registry_hits,
            registry_misses=registry_misses,
            registry_registrations=registrations,
            registry_evictions=evictions,
        )

    def clear_caches(self) -> None:
        """Drop all cached plans and LRU contexts (a "cold" engine again).

        The next compile of any query recompiles it.  The structure
        registry survives: registered entries are *state*, not
        cache -- their names keep resolving, their pinned contexts stay
        placed in the engine's store (which pool workers fork), and
        their shard plans remain on the entries (only an unpinned
        entry's context is rebuilt lazily).  Use
        :meth:`unregister_structure` to actually drop one.
        """
        self.plans.clear()
        self.contexts.clear()

    def close(self, terminate: bool = False) -> None:
        """Shut down the engine's worker pool (caches stay usable).

        Waits for in-flight pool jobs to finish and joins the worker
        processes, so after ``close()`` returns the engine has no live
        children; ``terminate=True`` kills them instead of waiting.
        The engine itself stays usable -- a later parallel call forks a
        fresh (cold) pool -- which is what lets serving layers release
        process resources without tearing the caches down.
        """
        self.pool.close(terminate)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reset_stats(self) -> None:
        """Zero all counters and timings.

        Each component is zeroed under its own lock, so a reset racing
        live traffic loses at most the increments that landed after its
        lock was released -- never a torn read or a lost later update.
        """
        self.plans.reset_stats()
        # Zero in place: every context of the store holds this sink.
        self.contexts.stats.reset()
        self.pool.reset_stats()
        self.registry.reset_stats()
        with self._lock:
            self._counters = EngineStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(plans={len(self.plans)}, contexts={len(self.contexts)})"
        )


# ----------------------------------------------------------------------
# The module-level default engine
# ----------------------------------------------------------------------
_default_engine: Engine | None = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide default engine (created lazily).

    :func:`repro.core.counting.count_answers` routes through this
    engine, so repeated one-shot calls with the same query hit the plan
    cache.
    """
    global _default_engine
    if _default_engine is None:
        with _default_lock:
            if _default_engine is None:
                _default_engine = Engine()
    return _default_engine


def set_default_engine(engine: Engine, close_previous: bool = True) -> Engine:
    """Replace the process-wide default engine; returns the previous one.

    By default the replaced engine's worker pool is shut down (workers
    joined) on the way out: before this, a swapped-out default engine's
    child processes lingered until its ``__del__`` GC safety net fired,
    if ever.  The returned engine stays fully usable -- its pool
    restarts lazily on the next parallel call -- so callers that swap a
    previous engine back in (the test pattern) lose nothing but cold
    workers.  Pass ``close_previous=False`` to keep the replaced
    engine's workers alive, e.g. when it keeps serving elsewhere.
    """
    global _default_engine
    with _default_lock:
        previous = _default_engine
        _default_engine = engine
    if close_previous and previous is not None and previous is not engine:
        previous.close()
    return previous if previous is not None else engine


def reset_default_engine(close: bool = True) -> None:
    """Drop the default engine (a fresh one is created on next use).

    ``close`` (the default) shuts the dropped engine's worker pool down
    instead of leaving the child processes to the GC safety net; pass
    ``close=False`` only when another owner still uses that engine.
    """
    global _default_engine
    with _default_lock:
        previous, _default_engine = _default_engine, None
    if close and previous is not None:
        previous.close()


def _close_default_engine_at_exit() -> None:  # pragma: no cover - exit path
    """Join the default engine's workers before the interpreter dies.

    Without this, a process that used the default engine's parallel
    paths leaves pool teardown to ``__del__`` during interpreter
    shutdown, where multiprocessing machinery may already be torn down.
    """
    with _default_lock:
        engine = _default_engine
    if engine is not None:
        try:
            engine.close()
        except Exception:
            pass


atexit.register(_close_default_engine_at_exit)
