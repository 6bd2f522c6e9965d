"""Executing compiled counting plans against data structures.

Every count is one program (:func:`_lower_plan`): the plans' evaluation
*units* -- compiled pp-plans, each counted to an int (a pp-sentence
counts 1 where it holds and 0 otherwise) -- deduplicated across the
plans, plus one recombination recipe per plan (the sentence
disjuncts, then the signed sum of pp-counts of Theorem 3.1).  One
runner (:func:`_run_units`) evaluates the units on a list of
structures, one :class:`~repro.engine.context.ExecutionContext` per
structure, and the recipes turn the values into counts:

* :func:`count_many` -- the batch grid, and ``Engine.count`` as its
  one-cell case -- runs the units on the batch's structures and
  combines each structure on its own;
* :func:`execute_sharded` lowers the plan further, along the query's
  connected components (:func:`~repro.engine.plan.component_pp_plans`),
  runs the units on every non-empty shard of a component-aligned
  :class:`~repro.structures.sharding.ShardedStructure` partition, and
  combines with
  :func:`~repro.structures.sharding.combine_shard_counts`: shard counts
  sum, query components multiply, and a sentence component's 0/1
  shard counts OR.

:func:`execute` is the one-structure reference over a given context.

The runner first *recalls*: a structure whose units are all memoized in
the context the engine's store holds for it is answered there, so a warm
count dispatches nothing.  It *ships only the misses* -- each structure
with just its missing units -- over the cluster and
:class:`~repro.engine.pool.WorkerPool` it is handed (the engine's one
long-lived pool), else sequentially, and *remembers* what workers return
in the held contexts.  A handed pool fans out when there is more than
one job: one per shard, or for the batch grid enough blocks of each
structure's units to give every worker work.  Failure handling is
two-sided: failing to *submit* to the pool (no subprocess support,
unpicklable jobs) falls back to the sequential path, while an exception
raised *inside* a worker task propagates to the caller -- a genuine
counting bug is never masked by a silent sequential re-run.
"""

from __future__ import annotations

import pickle
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
from repro.engine.pool import WorkerPool, WorkerTaskError, shard_task
from repro.engine.resident import ResidentContexts
from repro.exceptions import ReproError
from repro.logic.pp import PPFormula
from repro.obs import trace as _trace
from repro.structures.sharding import ShardedStructure, combine_shard_counts
from repro.structures.structure import Structure


#: Pool-*setup* errors that demote the pool path to sequential.  Only
#: errors raised while creating the pool or pickling jobs into it belong
#: here (``TypeError`` / ``AttributeError`` are how unpicklable objects
#: actually fail to serialize).  Exceptions raised *inside* a worker
#: task never reach this set: they arrive parent-side wrapped in
#: :class:`~repro.engine.pool.WorkerTaskError` and are re-raised to the
#: caller.
_POOL_FALLBACK_ERRORS = (
    ImportError,
    OSError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)


# ----------------------------------------------------------------------
# Lowering: plans to units plus recombination recipes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Recipe:
    """How one plan's count is recombined from unit values."""

    # Per pp-part: (coefficient, liberal-unit indices, sentence-unit
    # indices).
    terms: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    # Per ep sentence disjunct: the unit indices of its pieces.
    sentence_disjuncts: tuple[tuple[int, ...], ...]
    liberal_count: int

    def count(self, rows: dict[int, list], universe_size: int) -> int:
        for disjunct in self.sentence_disjuncts:
            # A sentence holds on the whole structure iff each of its
            # connected components counts 1 on some shard (components
            # are independent, so the shards may differ).
            if all(any(rows[i]) for i in disjunct):
                return universe_size ** self.liberal_count
        return sum(
            coefficient
            * combine_shard_counts(
                [rows[i] for i in counts], [rows[i] for i in sats]
            )
            for coefficient, counts, sats in self.terms
        )


@dataclass(frozen=True)
class _ShardedProgram:
    """Plans lowered to deduplicated units plus one recipe per plan."""

    units: tuple[PPCountingPlan, ...]
    recipes: tuple[_Recipe, ...]

    def combine(
        self, values_by_shard: Sequence[list], universe_size: int
    ) -> list[int]:
        """Every plan's count on one structure, from the unit values of
        its shards (a whole structure is its own single shard; empty
        shards are left out: every unit counts 0 on them)."""
        rows = {
            i: [values[i] for values in values_by_shard]
            for i in range(len(self.units))
        }
        return [recipe.count(rows, universe_size) for recipe in self.recipes]


def _lower_plan(plans: Sequence[CountingPlan], split: bool) -> _ShardedProgram:
    """Lower compiled plans to one program of deduplicated units.

    Every unit is a compiled pp-plan, evaluated to its count on each
    structure; a sentence disjunct or component holds where its count
    is non-zero.  ``split`` (a sharded run) splits every pp-term and
    sentence disjunct into its query components, the pieces whose
    per-shard values recombine exactly; the expensive part, component
    compilation, is memoized by :func:`component_pp_plans`.  Without it
    (a run on whole structures) each term and sentence disjunct keeps
    its compiled pp-plan -- no extra compile.  Units are keyed by base
    formula, so units shared between plans or inclusion-exclusion
    terms (the common case: the terms of an ``ep-plus`` plan are
    conjunctions of the same disjuncts) are evaluated once per
    structure.
    """
    units: list[PPCountingPlan] = []
    unit_index: dict[PPFormula, int] = {}

    def unit(pp: PPCountingPlan) -> int:
        if pp.base not in unit_index:
            unit_index[pp.base] = len(units)
            units.append(pp)
        return unit_index[pp.base]

    def pieces(pp: PPCountingPlan) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(liberal units, sentence units)`` of one pp-plan."""
        if not split:
            return (unit(pp),), ()
        liberal_plans, sentence_plans = component_pp_plans(pp)
        return tuple(map(unit, liberal_plans)), tuple(map(unit, sentence_plans))

    def sentence_pieces(pp: PPCountingPlan) -> tuple[int, ...]:
        """The units of a sentence disjunct: it holds iff each counts
        non-zero (on some shard).  Whole, it counts ``|B| ** |V|`` or
        0 (its liberal variables occur in no atom); split, only its
        sentence components count, 1 or 0 each."""
        if not split:
            return (unit(pp),)
        return tuple(map(unit, component_pp_plans(pp)[1]))

    recipes = []
    for plan in plans:
        if plan.kind == "pp-fpt":
            assert plan.pp is not None
            parts = [(1, plan.pp)]
        else:
            assert plan.kind == "ep-plus"
            parts = [(term.coefficient, term.plan) for term in plan.terms]
        recipes.append(
            _Recipe(
                terms=tuple((c, *pieces(pp)) for c, pp in parts),
                sentence_disjuncts=tuple(
                    sentence_pieces(s) for s in plan.sentence_disjuncts
                ),
                liberal_count=plan.liberal_count,
            )
        )
    return _ShardedProgram(units=tuple(units), recipes=tuple(recipes))


# ----------------------------------------------------------------------
# The runner: units on a list of structures
# ----------------------------------------------------------------------
def _run_units(
    units: tuple[PPCountingPlan, ...],
    structures: Sequence[Structure],
    *,
    pool: WorkerPool | None = None,
    cluster=None,
    contexts: ResidentContexts | None = None,
    keep: bool = True,
    saturate: bool = False,
) -> tuple[list[list], int]:
    """Evaluate ``units`` on every structure: ``values[j][i]`` is unit
    ``i`` on ``structures[j]``; returns ``(values, answered)``.

    A structure whose units are all memoized in the context ``contexts``
    holds for it is ``answered`` there (one ``context_hits``); the rest
    are routed with only their missing units, and what comes back is
    remembered in the context held before dispatch (so a shard migrated
    meanwhile never gets late values).  ``cluster`` (a
    :class:`~repro.cluster.coordinator.ClusterCoordinator`, for shards
    it placed) is tried first: each structure's units are routed to a
    worker *holding* it.  A cluster that cannot take the work -- no live
    workers, an unplaced shard, a mid-count loss of every holder --
    degrades to ``pool`` and the values are recomputed exactly.  The
    pool runs one job per structure -- or, with ``saturate`` (the batch
    grid), enough blocks of each structure's units to give every worker
    work -- when that is more than one job; otherwise, and when the jobs
    cannot be submitted, the units run here, through the context
    ``contexts`` holds or builds (``keep=False``: a context the store
    has not placed is a throwaway, so one-off shards evict nothing).
    Only a genuine task exception propagates.
    """
    if contexts is None:
        contexts = ResidentContexts()
    held = [contexts.held(structure) for structure in structures]
    values = [
        [None] * len(units) if context is None else context.recall(units)
        for context in held
    ]
    misses = [j for j, row in enumerate(values) if None in row]
    answered = len(structures) - len(misses)
    contexts.stats.bump("context_hits", answered)
    if not misses:
        return values, answered
    units_by = [
        tuple(u for u, v in zip(units, values[j]) if v is None) for j in misses
    ]
    missed = [structures[j] for j in misses]
    computed = None
    try:
        if cluster is not None:
            from repro.cluster.coordinator import ClusterUnavailable

            try:
                computed = _run_cluster(units_by, missed, cluster)
            except ClusterUnavailable:
                # The cluster cannot take the work right now; recompute
                # on the local paths below -- exactness over placement.
                pass
        if computed is None and pool is not None:
            blocks = 1
            if saturate:
                wanted = -(-pool.processes * 2 // len(missed))
                blocks = min(max(map(len, units_by)), wanted)
            if len(missed) * blocks > 1:
                try:
                    computed = _run_pool(units_by, missed, pool, blocks)
                except _POOL_FALLBACK_ERRORS:
                    pass  # the jobs never reached a worker: run them here
    except WorkerTaskError as failure:
        raise failure.original from failure
    if computed is None:
        computed = _run_sequential(units_by, missed, contexts, keep)
    for j, asked, got in zip(misses, units_by, computed):
        if held[j] is not None:
            held[j].remember(asked, got)
        fill = iter(got)
        values[j] = [next(fill) if v is None else v for v in values[j]]
    return values, answered


def _run_sequential(
    units_by: list[tuple[PPCountingPlan, ...]],
    structures: Sequence[Structure],
    contexts: ResidentContexts,
    keep: bool,
) -> list[list]:
    """Every unit of a structure through one context of ``contexts``,
    under the ``shard.execute[i]`` span a pool job records, so a trace
    has the same shape whether the work ran in workers or in-process."""
    out: list[list] = []
    for index, (units, structure) in enumerate(zip(units_by, structures)):
        with _trace.span(f"shard.execute[{index}]", units=len(units)):
            context, _ = contexts.lookup(structure, keep=keep)
            out.append(context.run_units(units))
    return out


def _run_pool(
    units_by: list[tuple[PPCountingPlan, ...]],
    structures: Sequence[Structure],
    pool: WorkerPool,
    blocks: int,
) -> list[list]:
    """Each structure's units in ``blocks`` jobs (at most) on ``pool``.

    A structure the engine's store has placed is named by its
    fingerprint (every generation of the pool forks the store);
    any other ships by value (fingerprint cached inside the pickle, so
    the workers need not re-derive it).  A job whose worker does not
    hold the named context is re-run carrying the structure.  The
    ambient budget (remaining allowance) ships inside each job, so a
    budget- or deadline-exceeded job aborts in its worker.
    """
    keys = [pool.job_key(structure) for structure in structures]
    budget = current_budget()
    jobs: list[tuple] = []
    owners: list[int] = []  # the structure index of each job
    for j, (units, key) in enumerate(zip(units_by, keys)):
        chunk = -(-len(units) // blocks)
        for start in range(0, len(units), chunk):
            jobs.append((units[start : start + chunk], key, budget))
            owners.append(j)
    resent: list[int] = []

    def by_value(index: int) -> tuple:
        resent.append(index)
        return jobs[index][:1] + (structures[owners[index]],) + jobs[index][2:]

    with _trace.span(
        "shard.fanout",
        shards=len(jobs),
        units=sum(map(len, units_by)),
        by_ref=sum(keys[j] is not structures[j] for j in owners),
    ) as fanout:
        values = pool.map(shard_task, jobs, by_value)
        fanout.set("resent", len(resent))
    out: list[list] = [[] for _ in structures]
    for j, block in zip(owners, values):
        out[j].extend(block)
    return out


def _run_cluster(
    units_by: list[tuple[PPCountingPlan, ...]],
    structures: Sequence[Structure],
    cluster,
) -> list[list]:
    """Route one fingerprint-only job per structure to its cluster holders.

    The jobs ship no data at all -- placement at registration time
    already made each shard resident on its holders -- just the units
    and the ambient budget's remaining allowance.  Worker-recorded
    spans come back in each result -- a failed job's on its
    :class:`~repro.engine.pool.WorkerTaskError` -- and are re-parented
    into the caller's trace exactly like the local pool's.  Raises
    :class:`~repro.cluster.coordinator.ClusterUnavailable` when the
    cluster cannot take the work and lets ``WorkerTaskError`` propagate
    for genuine task failures.
    """
    budget = current_budget()
    jobs = [(u, s.fingerprint()) for u, s in zip(units_by, structures)]
    with _trace.span(
        "shard.fanout",
        shards=len(jobs),
        units=sum(map(len, units_by)),
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


# ----------------------------------------------------------------------
# The three entry points
# ----------------------------------------------------------------------
def execute(
    plan: CountingPlan,
    structure: Structure,
    context: ExecutionContext | None = None,
) -> int:
    """Count the answers of a compiled plan on one structure, through
    ``context`` (a throwaway one when ``None``).

    The one-structure reference: the units of ``plan`` run through
    :meth:`ExecutionContext.run_units`, whose per-(plan, structure)
    count memo makes a *repeated* execution against a long-lived
    context a dictionary lookup, and ``ep-plus`` terms shared between
    plans reuse each other's counts.
    """
    if context is None:
        context = ExecutionContext(structure)
    elif context.structure is not structure and context.structure != structure:
        raise ReproError("execution context was built for a different structure")
    program = _lower_plan([plan], split=False)
    return program.combine(
        [context.run_units(program.units)], len(structure.universe)
    )[0]


def count_many(
    queries: Sequence[Query | CountingPlan],
    structures: Sequence[Structure],
    *,
    pool: WorkerPool | None = None,
    contexts: ResidentContexts | None = None,
) -> list[list[int]]:
    """Count every query on every structure: ``result[i][j] = |q_i(B_j)|``.

    Queries are compiled once each (items that are already
    :class:`CountingPlan` objects are used as-is) and lowered to one
    program, so a unit shared between queries runs once per structure.
    Each structure's units share one execution context: from
    ``contexts`` (the engine's store, which keeps it in its LRU tier)
    in-process, resident across calls and keyed by fingerprint in a
    ``pool`` worker, where the units of a structure travel in as few
    blocks as still give every worker work.
    """
    plans = [
        q if isinstance(q, CountingPlan) else compile_plan(q)
        for q in queries
    ]
    program = _lower_plan(plans, split=False)
    values, answered = _run_units(
        program.units, structures, pool=pool, contexts=contexts, saturate=True
    )
    terms = sum(len(recipe.terms) for recipe in program.recipes)
    with _trace.span(
        "combine", shards=len(structures), terms=terms, answered=answered
    ):
        columns = [
            program.combine([row], len(structure.universe))
            for row, structure in zip(values, structures)
        ]
    return [[column[i] for column in columns] for i in range(len(plans))]


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
    boundary-relation memo), through :func:`_run_units`: on the
    ``cluster``'s holders when given, fanned over ``pool`` when there
    is more than one shard, else sequentially -- on the shard's context
    when it is placed in ``contexts`` (the engine's store), on a
    throwaway otherwise.
    """
    program = _lower_plan([plan], split=True)
    shards = sharded.non_empty_shards()
    values_by_shard, answered = _run_units(
        program.units,
        shards,
        pool=pool,
        cluster=cluster,
        contexts=contexts,
        keep=False,
    )
    terms = len(program.recipes[0].terms)
    with _trace.span(
        "combine", shards=len(shards), terms=terms, answered=answered
    ):
        return program.combine(values_by_shard, sharded.universe_size)[0]
