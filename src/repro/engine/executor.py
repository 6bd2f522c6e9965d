"""Executing compiled counting plans against data structures.

:func:`execute` runs one :class:`~repro.engine.plan.CountingPlan` on one
structure through an :class:`~repro.engine.context.ExecutionContext`;
it is the data-dependent half of a ``count_answers`` call and touches
none of the query-side machinery (parsing, cores, tree decompositions,
inclusion-exclusion) the plan already contains.

:func:`count_many` is the batch API: every query is compiled once and
executed against every structure.  :func:`execute_sharded` is the
scale-out path: it splits the plan along the query's connected
components (:func:`~repro.engine.plan.component_pp_plans`), runs every
component against every shard of a component-aligned
:class:`~repro.structures.sharding.ShardedStructure` partition (all
components of a shard sharing one context and its boundary-relation
memo), and combines with
:func:`~repro.structures.sharding.combine_shard_counts`: shard counts
sum, query components multiply, sentence components OR.

The only parallelism input of both is the
:class:`~repro.engine.pool.WorkerPool` they are handed -- an
:class:`~repro.engine.api.Engine` hands its one long-lived pool, whose
workers keep contexts resident across calls -- and ``pool=None`` runs
sequentially.  Neither creates a pool nor partitions a structure.  A
handed pool fans out when there is more than one job: structure-major
blocks of plans for the batch grid, one job per non-empty shard for
the sharded path.  Failure handling is two-sided: failing to *submit*
to the pool (no subprocess support, unpicklable jobs) falls back to
the sequential path, while an exception raised *inside* a worker task
propagates to the caller -- a genuine counting bug is never masked by
a silent sequential re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.budget import current_budget
from repro.algorithms.fpt_counting import PPCountingPlan
from repro.engine.context import ExecutionContext
from repro.engine.plan import (
    CountingPlan,
    Query,
    compile_plan,
    component_pp_plans,
)
from repro.engine.pool import (
    WorkerPool,
    WorkerTaskError,
    count_block_task,
    shard_task,
)
from repro.engine.resident import ResidentContexts
from repro.exceptions import ReproError
from repro.logic.pp import PPFormula
from repro.obs import trace as _trace
from repro.structures.sharding import ShardedStructure, combine_shard_counts
from repro.structures.structure import Structure


def _pool_fallback_errors() -> tuple[type[BaseException], ...]:
    """Pool-*setup* errors that demote parallel paths to sequential.

    Only errors raised while creating the pool or pickling jobs into it
    belong here (``TypeError`` / ``AttributeError`` are how unpicklable
    objects actually fail to serialize).  Exceptions raised *inside* a
    worker task never reach this set: they arrive parent-side wrapped
    in :class:`~repro.engine.pool.WorkerTaskError` and are re-raised to
    the caller.
    """
    import pickle

    return (
        ImportError,
        OSError,
        pickle.PicklingError,
        AttributeError,
        TypeError,
    )


def execute(
    plan: CountingPlan,
    structure: Structure,
    context: ExecutionContext | None = None,
) -> int:
    """Count the answers of a compiled plan on one structure.

    ``context`` carries the structure's dense-int encoding, positional
    index and memoized ∃-component boundary relations; when ``None`` a
    throwaway context is created, so the memo is still shared across
    all inclusion-exclusion terms of a single ``ep-plus`` execution.

    Counting runs through :meth:`ExecutionContext.count_plan`, whose
    per-(plan, structure) memo makes a *repeated* identical execution
    against a long-lived context (the engine's context store, and above
    all the resident contexts of pinned registered structures) a
    dictionary lookup -- the same warm-start the shard path has had
    since the worker pool, now on the plain path too.  ``ep-plus``
    plans memoize per *term*, so terms shared between plans reuse each
    other's counts.
    """
    if context is None:
        context = ExecutionContext(structure)
    elif context.structure is not structure and context.structure != structure:
        raise ReproError("execution context was built for a different structure")
    if plan.kind == "pp-fpt":
        assert plan.pp is not None
        return context.count_plan(plan.pp)
    # ``ep-plus``: the forward direction of Theorem 3.1, on precompiled
    # parts.  A true sentence disjunct short-circuits to |B| ** |V|;
    # otherwise the cancelled combination of the phi-_af terms is
    # evaluated.
    for sentence in plan.sentence_disjuncts:
        if context.sentence_holds(sentence):
            return len(structure.universe) ** plan.liberal_count
    return sum(
        term.coefficient * context.count_plan(term.plan) for term in plan.terms
    )


def _map_jobs(
    pool: WorkerPool, task, jobs, structures: Sequence[Structure]
) -> tuple[list, int]:
    """``pool.map`` with the by-value re-run.

    ``jobs[i][1]`` is the :meth:`~repro.engine.pool.WorkerPool.job_key`
    of ``structures[i]``; a job whose worker does not hold the named
    context is re-run carrying the structure.  Returns the values and
    how many jobs were re-run.
    """
    resent: list[int] = []

    def by_value(index: int) -> tuple:
        resent.append(index)
        return jobs[index][:1] + (structures[index],) + jobs[index][2:]

    return pool.map(task, jobs, by_value), len(resent)


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
def count_many(
    queries: Sequence[Query | CountingPlan],
    structures: Sequence[Structure],
    *,
    pool: WorkerPool | None = None,
    contexts: ResidentContexts | None = None,
) -> list[list[int]]:
    """Count every query on every structure: ``result[i][j] = |q_i(B_j)|``.

    Queries are compiled once each (items that are already
    :class:`CountingPlan` objects are used as-is).  With a ``pool`` and
    more than one cell the grid fans out over it; otherwise it runs
    sequentially.  Both paths share one execution context per distinct
    structure (from ``contexts``, the engine's store, on the sequential
    path; per worker, resident across calls and keyed by fingerprint,
    on the pool): the jobs shipped to the pool are structure-major
    blocks of plans, not individual grid cells, so a structure's
    positional index is built once per block instead of once per cell.
    """
    plans = [
        q if isinstance(q, CountingPlan) else compile_plan(q)
        for q in queries
    ]
    if pool is not None and len(plans) * len(structures) > 1:
        try:
            return _count_many_parallel(plans, structures, pool)
        except WorkerTaskError as failure:
            # A counting error inside a worker is a real error of this
            # grid; surface the original exception to the caller rather
            # than silently re-running everything sequentially.
            raise failure.original from failure
        except _pool_fallback_errors():
            # No subprocess support (restricted hosts) or unpicklable
            # plans/structures -- fall through to the sequential path.
            pass
    return _count_many_sequential(plans, structures, contexts)


def _count_many_sequential(
    plans: Sequence[CountingPlan],
    structures: Sequence[Structure],
    contexts: ResidentContexts | None,
) -> list[list[int]]:
    if contexts is None:
        contexts = ResidentContexts()
    out: list[list[int]] = [[0] * len(structures) for _ in plans]
    # Iterate structure-major so each context (index, boundary memo) is
    # built once and stays hot while every plan runs against it.
    for j, structure in enumerate(structures):
        context = contexts.lookup(structure)[0]
        for i, plan in enumerate(plans):
            out[i][j] = execute(plan, structure, context)
    return out


def _count_many_parallel(
    plans: Sequence[CountingPlan],
    structures: Sequence[Structure],
    pool: WorkerPool,
) -> list[list[int]]:
    workers = max(1, min(pool.processes, len(plans) * len(structures)))
    # Structure-major blocks: when there are fewer structures than
    # workers, each structure's plan list is split into several blocks
    # so the pool still saturates; otherwise one block per structure
    # keeps index builds at one per (structure, worker) touch.
    blocks_per_structure = max(
        1, min(len(plans), -(-workers * 2 // max(1, len(structures))))
    )
    chunk = -(-len(plans) // blocks_per_structure)
    # The ambient budget ships by value with every job (pickling sends
    # the *remaining* allowance) so exhaustion aborts inside the worker.
    budget = current_budget()
    jobs: list[tuple] = []
    meta: list[tuple[int, int]] = []  # (structure index, first plan index)
    for j, structure in enumerate(structures):
        for start in range(0, len(plans), chunk):
            block = tuple(plans[start : start + chunk])
            # A pinned structure is named by its fingerprint (an
            # unpinned one ships with the fingerprint cached, so the
            # workers key their caches without rehashing).
            jobs.append((block, pool.job_key(structure), budget))
            meta.append((j, start))
    block_results, _ = _map_jobs(
        pool, count_block_task, jobs, [structures[j] for j, _ in meta]
    )
    out: list[list[int]] = [[0] * len(structures) for _ in plans]
    for (j, start), counts in zip(meta, block_results):
        for offset, value in enumerate(counts):
            out[start + offset][j] = value
    return out


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardUnit:
    """One per-shard evaluation unit of a sharded plan.

    ``kind == "count"``: a compiled liberal query component, evaluated
    to an int per shard (the per-shard counts sum).  ``kind == "sat"``:
    a connected pp-sentence component, evaluated to a bool per shard
    (the per-shard bits OR).
    """

    kind: str
    plan: PPCountingPlan | None = None
    sentence: PPFormula | None = None


@dataclass(frozen=True)
class _ShardedProgram:
    """A plan lowered to shard units plus the recombination recipe."""

    units: tuple[_ShardUnit, ...]
    # Per pp-part: (coefficient, count-unit indices, sat-unit indices).
    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    # Per ep sentence disjunct: the sat-unit indices of its components.
    sentence_disjuncts: tuple[tuple[int, ...], ...]
    liberal_count: int


def _lower_plan(plan: CountingPlan) -> _ShardedProgram:
    """Split a compiled plan into deduplicated shard units.

    ∃-free recombination data only; the expensive part (component
    compilation) is memoized by :func:`component_pp_plans`, and units
    shared between inclusion-exclusion terms (the common case: terms of
    an ``ep-plus`` plan are conjunctions of the same disjuncts) are
    evaluated once per shard.
    """
    units: list[_ShardUnit] = []
    unit_index: dict = {}

    def count_unit(pp: PPCountingPlan) -> int:
        key = ("count", pp.base)
        if key not in unit_index:
            unit_index[key] = len(units)
            units.append(_ShardUnit(kind="count", plan=pp))
        return unit_index[key]

    def sat_unit(sentence: PPFormula) -> int:
        key = ("sat", sentence.structure)
        if key not in unit_index:
            unit_index[key] = len(units)
            units.append(_ShardUnit(kind="sat", sentence=sentence))
        return unit_index[key]

    def pp_term(pp: PPCountingPlan) -> tuple[tuple[int, ...], tuple[int, ...]]:
        liberal_plans, sentences = component_pp_plans(pp)
        return (
            tuple(count_unit(p) for p in liberal_plans),
            tuple(sat_unit(s) for s in sentences),
        )

    if plan.kind == "pp-fpt":
        assert plan.pp is not None
        counts, sats = pp_term(plan.pp)
        return _ShardedProgram(
            units=tuple(units),
            terms=((1, counts, sats),),
            sentence_disjuncts=(),
            liberal_count=plan.liberal_count,
        )
    assert plan.kind == "ep-plus"
    disjunct_units = []
    for sentence in plan.sentence_disjuncts:
        components = [
            PPFormula(piece, ()) for piece in _sentence_pieces(sentence)
        ]
        disjunct_units.append(tuple(sat_unit(c) for c in components))
    terms = []
    for term in plan.terms:
        counts, sats = pp_term(term.plan)
        terms.append((term.coefficient, counts, sats))
    return _ShardedProgram(
        units=tuple(units),
        terms=tuple(terms),
        sentence_disjuncts=tuple(disjunct_units),
        liberal_count=plan.liberal_count,
    )


def _sentence_pieces(sentence: PPFormula) -> list[Structure]:
    """The structures of a pp-sentence's connected components."""
    from repro.structures.graphs import component_substructures

    return [sub for sub, _ in component_substructures(sentence.structure, ())]


def _run_shards_sequential(
    units: tuple[_ShardUnit, ...],
    shards: Sequence[Structure],
    contexts: ResidentContexts | None,
) -> list[list]:
    """The sequential shard path, with the same spans the pool emits:
    every unit of a shard through one context of ``contexts`` -- the
    resident one of a placed shard, else a throwaway the store does not
    keep (the pool's by-reference / by-value rule for its jobs).

    Parent-side ``shard.execute[i]`` spans keep a trace's shape
    identical whether the shards ran in workers or in-process.
    """
    if contexts is None:
        contexts = ResidentContexts()
    out: list[list] = []
    for index, shard in enumerate(shards):
        with _trace.span(f"shard.execute[{index}]", units=len(units)):
            context, _ = contexts.lookup(shard, keep=False)
            out.append(context.run_units(units))
    return out


def _run_shards_pool(
    program: _ShardedProgram,
    shards: Sequence[Structure],
    pool: WorkerPool,
) -> list[list]:
    """One job per shard on ``pool``.

    A shard every worker holds pinned is named by its fingerprint; any
    other ships by value (fingerprint cached inside the pickle, so the
    workers need not re-derive it).  The ambient budget (remaining
    allowance) ships inside each job, so a budget- or deadline-exceeded
    shard aborts in its worker.
    """
    keys = [pool.job_key(shard) for shard in shards]
    budget = current_budget()
    jobs = [(program.units, key, budget) for key in keys]
    with _trace.span(
        "shard.fanout",
        shards=len(jobs),
        units=len(program.units),
        by_ref=sum(key is not shard for key, shard in zip(keys, shards)),
    ) as fanout:
        values_by_shard, resent = _map_jobs(pool, shard_task, jobs, shards)
        fanout.set("resent", resent)
    return values_by_shard


def _run_shards_cluster(
    program: _ShardedProgram,
    shards: Sequence[Structure],
    cluster,
) -> list[list]:
    """Route one fingerprint-only job per shard to its cluster holders.

    The jobs ship no shard data at all -- placement at registration
    time already made each shard resident on its holders -- just the
    units and the ambient budget's remaining allowance.
    Worker-recorded spans come back in each result -- a failed job's
    on its :class:`~repro.engine.pool.WorkerTaskError` -- and are
    re-parented into the caller's trace exactly like the local pool's.
    Raises :class:`~repro.cluster.coordinator.ClusterUnavailable` when
    the cluster cannot take the work (the caller degrades to the local
    pool) and lets ``WorkerTaskError`` propagate for genuine task
    failures.
    """
    budget = current_budget()
    jobs = [(program.units, shard.fingerprint()) for shard in shards]
    with _trace.span(
        "shard.fanout",
        shards=len(jobs),
        units=len(program.units),
        cluster=True,
    ):
        try:
            results = cluster.run_units(jobs, budget=budget)
        except WorkerTaskError as failure:
            _trace.attach_foreign(failure.spans, suffix=f"[{failure.index}]")
            raise
        values_by_shard: list[list] = []
        for index, (values, spans) in enumerate(results):
            _trace.attach_foreign(spans, suffix=f"[{index}]")
            values_by_shard.append(values)
    return values_by_shard


def _combine_term(
    term: tuple[int, tuple[int, ...], tuple[int, ...]],
    rows: dict[int, list],
) -> int:
    coefficient, count_units, sat_units = term
    return coefficient * combine_shard_counts(
        [rows[i] for i in count_units], [rows[i] for i in sat_units]
    )


def execute_sharded(
    plan: CountingPlan,
    sharded: ShardedStructure,
    *,
    pool: WorkerPool | None = None,
    cluster=None,
    contexts: ResidentContexts | None = None,
) -> int:
    """Count the answers of a compiled plan via sharded execution.

    Returns exactly the count :func:`execute` returns on the structure
    ``sharded`` partitions.  The work is one job per non-empty shard,
    all units of a shard sharing one execution context (index +
    boundary-relation memo): fanned over ``pool`` when there is more
    than one job, resident in its workers across calls; otherwise run
    sequentially, on the shard's context when it is placed in
    ``contexts`` (the engine's store).

    ``cluster`` (a :class:`~repro.cluster.coordinator.
    ClusterCoordinator`) is tried first when given: each shard's units
    are routed to a worker *holding* that shard.  A cluster that
    cannot take the work -- no live workers, an unplaced shard, a
    mid-count loss of every holder -- degrades to the local paths
    below and the count is recomputed exactly; only a genuine task
    exception propagates.
    """
    program = _lower_plan(plan)
    shards = sharded.non_empty_shards()
    values_by_shard: list[list] | None = None
    if cluster is not None and shards and program.units:
        from repro.cluster.coordinator import ClusterUnavailable

        try:
            values_by_shard = _run_shards_cluster(program, shards, cluster)
        except ClusterUnavailable:
            # The cluster cannot take the work right now; recompute on
            # the local paths below -- exactness over placement.
            pass
        except WorkerTaskError as failure:
            raise failure.original from failure
    if (
        values_by_shard is None
        and pool is not None
        and len(shards) > 1
        and program.units
    ):
        try:
            values_by_shard = _run_shards_pool(program, shards, pool)
        except WorkerTaskError as failure:
            raise failure.original from failure
        except _pool_fallback_errors():
            pass  # the jobs never reached a worker: run them here
    if values_by_shard is None:
        values_by_shard = _run_shards_sequential(
            program.units, shards, contexts
        )

    with _trace.span(
        "combine", shards=len(shards), terms=len(program.terms)
    ):
        # rows[i] = the per-shard results of unit i (empty shards
        # dropped: they contribute count 0 / sat False by construction).
        rows: dict[int, list] = {
            i: [values[i] for values in values_by_shard]
            for i in range(len(program.units))
        }
        for disjunct in program.sentence_disjuncts:
            # A sentence holds on the whole structure iff each of its
            # connected components maps into some shard (components are
            # independent, so the shards may differ).
            if all(any(rows[i]) for i in disjunct):
                return sharded.universe_size ** program.liberal_count
        return sum(_combine_term(term, rows) for term in program.terms)
