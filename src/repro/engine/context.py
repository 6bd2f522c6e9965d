"""Per-structure execution contexts: the data-side state of the engine.

An :class:`ExecutionContext` bundles everything the executor derives
from one data structure -- its dense-int columnar encoding
(:class:`~repro.structures.encoding.EncodedStructure`), the lazily
built :class:`~repro.structures.indexes.EncodedPositionalIndex` over
it, a memo of per-∃-component boundary relations (tables of the
derived backend), and (for the sharded path) cached
:class:`~repro.structures.sharding.ShardedStructure` partitions -- so
that every plan executed against the same structure shares the work
instead of re-deriving it per call, per term, or per grid cell.

Besides caching, the context owns ∃-component elimination.  A
"semijoin" elimination is any elimination on the tables: the boundary
relation of a component -- the projection of the join of its atoms
onto its boundary -- is computed by variable elimination over the
encoded columns, in an order chosen from the table sizes, never from
variable names, and exact for cyclic and acyclic interiors alike.  The
backtracking search of
:func:`repro.structures.homomorphism.enumerate_extendable_assignments`
is only the fallback for a join past the row cap or a boundary wider
than :data:`SEMIJOIN_MAX_BOUNDARY`.  Results are memoized per
(component, structure), which is what makes repeated ``ep-plus``
inclusion-exclusion terms (which share ∃-components across terms)
cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.structures.encoding import (
    EncodedStructure,
    NumpyTableOps,
    TableOverflow,
    _PyTableOps,
    numpy_available,
    resolve_backend,
)
from repro.structures.homomorphism import (
    enumerate_extendable_assignments,
    has_homomorphism,
)
from repro.obs import trace as _trace
from repro.structures.indexes import EncodedPositionalIndex
from repro.structures.structure import Element, Structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fpt_counting
    # lazily imports this module from execute_pp_plan)
    from repro.algorithms.fpt_counting import ExistsComponent
    from repro.logic.pp import PPFormula
    from repro.logic.terms import Variable
    from repro.structures.delta import StructureDelta
    from repro.structures.sharding import ShardedStructure

# Probe the table backend at import: numpy's one-time import cost lands
# at process start-up (engine, fork-pool parent and cluster worker
# alike), never inside the first request that builds a context.
numpy_available()

#: Largest boundary for which the semijoin evaluator is attempted; wider
#: boundaries fall back to backtracking (their relations are big enough
#: that materializing join tables stops paying off).
SEMIJOIN_MAX_BOUNDARY = 3


@dataclass
class ContextStats:
    """Counters accumulated by one or more execution contexts.

    ``index_builds`` counts positional-index constructions (at most one
    per distinct structure on the sequential paths; under numpy only a
    backtracking elimination or a sentence check builds one).
    ``boundary_hits`` / ``boundary_misses`` count lookups of memoized
    ∃-component boundary relations; ``semijoin_eliminations`` /
    ``backtracking_eliminations`` count which evaluator served each
    miss.  ``context_hits`` / ``context_misses`` count the lookups of
    a :class:`~repro.engine.resident.ResidentContexts` store (a hit
    reuses built state) and ``context_invalidations`` the contexts it
    dropped.

    A sink is shared by every context a store creates and may be
    updated from many threads at once, so mutation goes through
    :meth:`bump` (a locked read-modify-write; a bare ``+=`` can lose
    updates under preemption) and readers take :meth:`snapshot` for a
    coherent copy; :meth:`reset` zeroes everything under the same lock.
    """

    index_builds: int = 0
    boundary_hits: int = 0
    boundary_misses: int = 0
    semijoin_eliminations: int = 0
    backtracking_eliminations: int = 0
    memo_evictions: int = 0
    context_hits: int = 0
    context_misses: int = 0
    context_invalidations: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, by: int = 1) -> None:
        """Atomically add ``by`` to the named counter."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> "ContextStats":
        """A coherent copy of the counters (its own lock, unshared)."""
        with self._lock:
            return replace(self, _lock=threading.Lock())

    def reset(self) -> None:
        """Zero every counter, atomically."""
        with self._lock:
            for counter in fields(self):
                if counter.name != "_lock":
                    setattr(self, counter.name, 0)


def _component_reads(
    component: "ExistsComponent",
) -> tuple[frozenset[str], bool]:
    """The read-set of an ∃-component memo entry.

    Returns ``(relation_names, universe_sensitive)``: the relation
    symbols the component's atoms read, and whether the memoized value
    can also depend on the *size* of the data universe.  A component
    whose variables are all covered by its atoms is evaluated purely
    against those relations; one with an atom-free variable ranges that
    variable over the whole domain, so universe growth can change its
    boundary relation even when no read relation changed.
    """
    scopes = component.atom_scopes
    names = frozenset(name for name, _ in scopes)
    covered: set = set()
    for _, scope in scopes:
        covered.update(scope)
    sensitive = not set(component.structure.universe) <= covered
    return names, sensitive


def _structure_reads(structure: Structure) -> tuple[frozenset[str], bool]:
    """The read-set of a memo keyed by a query structure (pp-formula).

    Same contract as :func:`_component_reads`, derived from the formula's
    canonical structure: the relation names with at least one atom, and
    whether any variable occurs in no atom (making the memoized value
    sensitive to the data universe's size).
    """
    names = []
    covered: set = set()
    for name, tuples in structure.relations.items():
        if tuples:
            names.append(name)
            for t in tuples:
                covered.update(t)
    sensitive = not set(structure.universe) <= covered
    return frozenset(names), sensitive


class ExecutionContext:
    """The per-structure execution state shared across plan executions.

    Every evaluator runs over the structure's dense-int encoding
    (:attr:`encoded`): the semijoin pipeline and the pp-plan DP join
    tables of the derived backend (:meth:`table_ops`: vectorized
    columns when numpy imports, int-tuple sets otherwise),
    backtracking and sentence satisfiability search the isomorphic int
    structure, and values are decoded only at :meth:`boundary_relation`.

    Parameters
    ----------
    structure:
        The data structure this context serves.
    stats:
        Counter sink; the contexts of one
        :class:`~repro.engine.resident.ResidentContexts` store share
        its sink, so the engine can surface aggregate numbers.
    semijoin:
        Enable elimination on the tables (on by default; off, every
        ∃-component is backtracked, the reference the tests compare
        against).
    memoize:
        Enable the per-(component, structure) boundary-relation memo.
    """

    __slots__ = (
        "structure",
        "stats",
        "semijoin",
        "memoize",
        "semijoin_max_boundary",
        "_encoded",
        "_encoded_index",
        "_boundary_memo",
        "_base_table_memo",
        "_satisfiable_memo",
        "_sentence_memo",
        "_sharded_memo",
        "_count_memo",
    )

    def __init__(
        self,
        structure: Structure,
        stats: ContextStats | None = None,
        semijoin: bool = True,
        memoize: bool = True,
        semijoin_max_boundary: int = SEMIJOIN_MAX_BOUNDARY,
    ):
        self.structure = structure
        self.stats = stats if stats is not None else ContextStats()
        self.semijoin = semijoin
        self.memoize = memoize
        self.semijoin_max_boundary = semijoin_max_boundary
        self._encoded: EncodedStructure | None = None
        self._encoded_index: EncodedPositionalIndex | None = None
        self._boundary_memo: dict["ExistsComponent", tuple] = {}
        self._base_table_memo: dict[tuple, tuple] = {}
        self._satisfiable_memo: dict["ExistsComponent", bool] = {}
        self._sentence_memo: dict["PPFormula", bool] = {}
        self._sharded_memo: dict[tuple[int, str], "ShardedStructure"] = {}
        self._count_memo: dict["PPFormula", int] = {}

    # ------------------------------------------------------------------
    # Dense-int encoding
    # ------------------------------------------------------------------
    @property
    def encoding_active(self) -> bool:
        """Always true: the dense-int encoding is the only data-side
        representation (kept for callers that still ask)."""
        return True

    @property
    def encoded(self) -> EncodedStructure:
        """The dense-int columnar encoding of the structure (lazily
        built under a ``context.encode`` span)."""
        if self._encoded is None:
            with _trace.span(
                "context.encode",
                universe=len(self.structure),
                tuples=self.structure.total_tuples,
                backend=resolve_backend(),
            ):
                self._encoded = EncodedStructure(self.structure)
        return self._encoded

    @property
    def encoded_index(self) -> EncodedPositionalIndex:
        """The int-keyed positional index over the encoding."""
        if self._encoded_index is None:
            with _trace.span(
                "context.build", universe=len(self.structure)
            ):
                self._encoded_index = EncodedPositionalIndex(self.encoded)
            self.stats.bump("index_builds")
        return self._encoded_index

    @property
    def built(self) -> bool:
        """Whether the encoding exists yet (a materialization or a first
        execution builds it), i.e. whether reusing this context saves
        anything."""
        return self._encoded is not None

    @property
    def encoded_nbytes(self) -> int:
        """Approximate resident bytes of the encoding (0 when unbuilt)."""
        return self._encoded.nbytes if self._encoded is not None else 0

    @property
    def domain(self) -> tuple[Element, ...]:
        """The universe in code order: ``domain[i]`` decodes code ``i``."""
        return self.encoded.decode

    def table_ops(self):
        """The table backend this interpreter runs, over this context's
        columns and base-table memo."""
        if numpy_available():
            return NumpyTableOps(
                self.encoded.size, self.encoded, self._base_table_memo
            )
        return _PyTableOps(self.encoded_index, self._base_table_memo)

    def materialize(self) -> "ExecutionContext":
        """Build eagerly what the derived backend's request path reads:
        the encoding, plus its zero-copy column views under numpy or
        the positional index (the row source of the python base
        tables) otherwise.

        The lazy defaults are right for throwaway contexts, but a
        context being *pinned* (placed for a registered structure; see
        :mod:`repro.engine.registry`) should pay its materialization
        off the request path -- at registration, or once in the parent
        before the pool forks -- so the first post-pin count is as warm
        as every later one.  This is where
        the structure pays its one-time interning (``context.encode``
        span), so registered structures encode at registration, not on
        the request path.  Under numpy the index stays lazy, as on
        every post-delta context: only a backtracking elimination or a
        sentence check reads it.  Idempotent; returns ``self`` for
        chaining.
        """
        if numpy_available():
            for name in self.encoded.relations:
                self.encoded.np_columns(name)
        else:
            self.encoded_index  # noqa: B018 - property access builds both
        return self

    # ------------------------------------------------------------------
    # ∃-component elimination
    # ------------------------------------------------------------------
    def boundary_relation(self, component: "ExistsComponent") -> frozenset:
        """The relation over the component's boundary (sorted by name):
        the boundary assignments that extend to a homomorphism of the
        component into the structure, as *object* tuples decoded from
        :meth:`boundary_table`."""
        ops = self.table_ops()
        return self.encoded.decode_rows(
            ops.iter_rows(self.boundary_table(component))
        )

    def boundary_table(self, component: "ExistsComponent") -> tuple:
        """The boundary relation as a ``(columns, rows)`` table of the
        derived backend, over dense ints (no decoding).

        The pp-plan DP consumes this directly; ``columns`` is
        :attr:`ExistsComponent.boundary_order`.  Memoized per component.
        """
        if self.memoize and component in self._boundary_memo:
            self.stats.bump("boundary_hits")
            return self._boundary_memo[component]
        self.stats.bump("boundary_misses")
        relation = self._eliminate(component, component.boundary_order)
        if self.memoize:
            self._boundary_memo[component] = relation
        return relation

    def component_satisfiable(self, component: "ExistsComponent") -> bool:
        """Does the (boundary-free) component map into the structure?"""
        if self.memoize and component in self._satisfiable_memo:
            self.stats.bump("boundary_hits")
            return self._satisfiable_memo[component]
        self.stats.bump("boundary_misses")
        # A zero-column table: one row () iff the component maps in.
        satisfiable = len(self._eliminate(component, ())[1]) > 0
        if self.memoize:
            self._satisfiable_memo[component] = satisfiable
        return satisfiable

    def count_plan(self, plan) -> int:
        """The count of a compiled pp-plan on this structure, memoized.

        Keyed by the plan's base formula (two compilations of the same
        formula count identically by exactness), so on a long-lived
        context -- above all the worker-resident ones of
        :mod:`repro.engine.pool` -- a repeated (plan, shard) evaluation
        is a dictionary lookup instead of a junction-tree run.  The
        memo lives until the context is dropped or migrated (a delta
        keeps the entries it cannot have changed), or :meth:`clear`.
        """
        from repro.algorithms.fpt_counting import execute_pp_plan

        if not self.memoize:
            return execute_pp_plan(plan, self.structure, self)
        key = plan.base
        if key in self._count_memo:
            return self._count_memo[key]
        result = execute_pp_plan(plan, self.structure, self)
        self._count_memo[key] = result
        return result

    def sentence_holds(self, sentence: "PPFormula") -> bool:
        """Does the pp-sentence hold on the structure?  Memoized."""
        if self.memoize and sentence in self._sentence_memo:
            return self._sentence_memo[sentence]
        if self.structure.is_empty():
            holds = not sentence.variables
        else:
            # Satisfiability is invariant under the encoding isomorphism;
            # run the search over the int structure and int-keyed index.
            holds = has_homomorphism(
                sentence.structure,
                self.encoded.int_structure(),
                target_index=self.encoded_index,
            )
        if self.memoize:
            self._sentence_memo[sentence] = holds
        return holds

    def run_units(self, units) -> list:
        """Evaluate shard units in order: a count unit to its int count,
        a sat unit to whether its sentence holds on this structure."""
        out: list = []
        for unit in units:
            if unit.kind == "count":
                out.append(self.count_plan(unit.plan))
            else:
                out.append(self.sentence_holds(unit.sentence))
        return out

    def recall(self, units) -> list:
        """:meth:`run_units` from the memos alone (``None``: a miss)."""
        return [
            self._count_memo.get(unit.plan.base)
            if unit.kind == "count"
            else self._sentence_memo.get(unit.sentence)
            for unit in units
        ]

    def remember(self, units, values) -> None:
        """Memoize unit values a worker computed; builds nothing."""
        if not self.memoize:
            return
        for unit, value in zip(units, values):
            if unit.kind == "count":
                self._count_memo[unit.plan.base] = value
            else:
                self._sentence_memo[unit.sentence] = value

    def _eliminate(
        self, component: "ExistsComponent", boundary: tuple["Variable", ...]
    ) -> tuple:
        """Compute a boundary relation as a ``(boundary, rows)`` table
        of the derived backend: variable elimination over the encoded
        columns (:func:`_eliminate_variables`), with a backtracking
        fallback.

        Backtracking over the isomorphic int structure serves only what
        the tables cannot: a join past ``SEMIJOIN_ROW_CAP``, a boundary
        wider than ``semijoin_max_boundary``, a boundary variable in no
        atom, or a relation the data does not have.
        """
        ops = self.table_ops()
        if self.structure.is_empty():
            # No assignment of anything exists on the empty structure.
            return ops.table(boundary, ())
        scopes = component.atom_scopes
        if (
            self.semijoin
            and len(boundary) <= self.semijoin_max_boundary
            and set(boundary) <= {v for _, scope in scopes for v in scope}
            and component.structure.signature.is_subsignature_of(
                self.structure.signature
            )
        ):
            with _trace.span(
                "context.semijoin",
                boundary=len(boundary),
                backend=resolve_backend(),
            ) as attempt:
                try:
                    relation = _eliminate_variables(scopes, boundary, ops)
                except TableOverflow:
                    attempt.set("outcome", "blowup")
                else:
                    attempt.set("outcome", "eliminated")
                    self.stats.bump("semijoin_eliminations")
                    return relation
        self.stats.bump("backtracking_eliminations")
        allowed = set()
        for assignment in enumerate_extendable_assignments(
            component.structure,
            self.encoded.int_structure(),
            boundary,
            self.encoded_index,
        ):
            allowed.add(tuple(assignment[v] for v in boundary))
        return ops.table(boundary, allowed)

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def sharded(self, shard_count: int, strategy: str = "hash") -> "ShardedStructure":
        """A cached component-aligned partition of the structure."""
        key = (shard_count, strategy)
        if key not in self._sharded_memo:
            from repro.structures.sharding import shard_structure

            self._sharded_memo[key] = shard_structure(
                self.structure, shard_count, strategy=strategy
            )
        return self._sharded_memo[key]

    # ------------------------------------------------------------------
    # Delta application: relation-scoped invalidation
    # ------------------------------------------------------------------
    def apply_delta(
        self, delta: "StructureDelta", new_structure: Structure | None = None
    ) -> "ExecutionContext":
        """A new context for the post-delta structure, keeping every memo
        whose read-set the delta cannot have changed.

        This replaces the all-or-nothing cache drop of re-registration:
        each memo class knows which data it read -- base tables read one
        relation, ∃-boundary and sentence memos read their component's
        atom relations, count memos read their plan's atom relations --
        and only the entries whose read-set intersects the delta's
        touched relations (or that are sensitive to universe growth,
        for deltas introducing new elements) are evicted.  By the
        paper's component factorization, a tuple update touches one data
        component, so the surviving entries are exactly the factors of
        untouched components and stay valid.

        The encoding (when built) migrates incrementally via
        :meth:`EncodedStructure.apply_delta`, and cached shard plans
        via :meth:`ShardedStructure.advance` -- which routes a delta
        once per plan, so a plan the caller already carried onto
        ``new_structure`` is shared, not advanced again (a component
        merge re-shards).  The positional index rebuilds lazily.  The
        pre-delta context is left untouched, so in-flight executions
        against the old version stay coherent; eviction counts land in
        ``stats.memo_evictions``.
        """
        if new_structure is None:
            new_structure = self.structure.apply_delta(delta)
        if new_structure is self.structure:
            return self
        fresh = ExecutionContext(
            new_structure,
            stats=self.stats,
            semijoin=self.semijoin,
            memoize=self.memoize,
            semijoin_max_boundary=self.semijoin_max_boundary,
        )
        evicted = 0
        was_empty = self.structure.is_empty()
        touched = delta.relations
        grew = len(new_structure.universe) > len(self.structure.universe)
        # Every memo is read through a snapshot: counts still running
        # against this pre-delta context may be adding entries.
        if not was_empty:
            for key, table in tuple(self._base_table_memo.items()):
                if key[0] in touched:
                    evicted += 1
                else:
                    fresh._base_table_memo[key] = table
            for name in ("_boundary_memo", "_satisfiable_memo"):
                source, target = getattr(self, name), getattr(fresh, name)
                for component, value in tuple(source.items()):
                    reads, sensitive = _component_reads(component)
                    if reads & touched or (grew and sensitive):
                        evicted += 1
                    else:
                        target[component] = value
            for formula, holds in tuple(self._sentence_memo.items()):
                reads, sensitive = _structure_reads(formula.structure)
                if reads & touched or (grew and sensitive):
                    evicted += 1
                else:
                    fresh._sentence_memo[formula] = holds
            for base, count in tuple(self._count_memo.items()):
                reads, _ = _structure_reads(base.structure)
                # Counts scale with the domain through unconstrained
                # liberal variables, so any universe growth evicts.
                if reads & touched or grew:
                    evicted += 1
                else:
                    fresh._count_memo[base] = count
        else:
            evicted += (
                len(self._base_table_memo)
                + len(self._boundary_memo)
                + len(self._satisfiable_memo)
                + len(self._sentence_memo)
                + len(self._count_memo)
            )
        for key, sharded in tuple(self._sharded_memo.items()):
            fresh._sharded_memo[key] = sharded.advance(
                delta, new_structure
            ).sharded
        if self._encoded is not None:
            fresh._encoded = self._encoded.apply_delta(delta)
        if evicted:
            self.stats.bump("memo_evictions", evicted)
        return fresh

    def clear(self) -> None:
        """Drop all memoized state (the index and the encoding stay,
        they are immutable)."""
        self._boundary_memo.clear()
        self._base_table_memo.clear()
        self._satisfiable_memo.clear()
        self._sentence_memo.clear()
        self._sharded_memo.clear()
        self._count_memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionContext(|U|={len(self.structure)}, "
            f"indexed={self._encoded_index is not None}, "
            f"boundaries={len(self._boundary_memo)})"
        )


# ----------------------------------------------------------------------
# Variable elimination over the column tables
# ----------------------------------------------------------------------
def _join_all(tables: list, ops) -> tuple:
    """Join ``tables`` smallest-first, each step taking the smallest
    table that shares a column with what is joined so far (a cross
    product only when none does)."""
    pending = sorted(tables, key=lambda table: len(table[1]))
    joined = pending.pop(0)
    while pending:
        columns = set(joined[0])
        shared = next(
            (i for i, t in enumerate(pending) if columns.intersection(t[0])), 0
        )
        joined = ops.join(joined, pending.pop(shared))
    return joined


def _eliminate_variables(scopes: tuple, boundary: tuple, ops) -> tuple:
    """The projection onto ``boundary`` of the join of a component's
    atoms against the data, as a ``(boundary, rows)`` table of ``ops``.

    Variable elimination in an order chosen from the data: repeatedly
    take the quantified variable whose touching tables have the
    smallest union scope (ties: fewest rows in total, then ``repr``),
    join those tables and project the variable out; then join what is
    left and project onto ``boundary``.  A projection of a join does
    not depend on the join order, so the result is exact for any atom
    hypergraph; on a bounded-arity α-acyclic one every intermediate
    stays within input × output, as in Yannakakis.  An empty step
    answers the empty table at once.  With an empty boundary the
    result has the one row ``()`` or none: a satisfiability bit.

    Every boundary variable must occur in an atom (the caller checks).
    Variables occurring in no atom are unconstrained and do not affect
    the projection (the data universe is non-empty on every path that
    reaches this function).  ``scopes`` is the component's
    :attr:`~repro.algorithms.fpt_counting.ExistsComponent.atom_scopes`;
    ``ops`` is the table backend
    (:class:`~repro.structures.encoding._PyTableOps` or
    :class:`~repro.structures.encoding.NumpyTableOps`).
    """
    tables = [ops.base_table(name, scope) for name, scope in scopes]
    kept = frozenset(boundary)

    def cost(variable) -> tuple:
        touching = [t for t in tables if variable in t[0]]
        scope = frozenset().union(*(t[0] for t in touching))
        return len(scope), sum(len(t[1]) for t in touching), repr(variable)

    while candidates := {c for t in tables for c in t[0]} - kept:
        variable = min(candidates, key=cost)
        joined = _join_all([t for t in tables if variable in t[0]], ops)
        reduced = ops.project(
            joined, tuple(c for c in joined[0] if c != variable)
        )
        if ops.is_empty(reduced):
            return ops.table(boundary, ())
        # A zero-column table left here is the non-empty unit {()}.
        tables = [t for t in tables if variable not in t[0]]
        if reduced[0]:
            tables.append(reduced)
    if not tables:
        return ops.table(boundary, [()])
    # Rows are unique already: only a column order differing from
    # ``boundary`` costs a projection.
    joined = _join_all(tables, ops)
    return joined if joined[0] == boundary else ops.project(joined, boundary)
