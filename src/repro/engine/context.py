"""Per-structure execution contexts: the data-side state of the engine.

An :class:`ExecutionContext` bundles everything the executor derives
from one data structure -- its dense-int columnar encoding
(:class:`~repro.structures.encoding.EncodedStructure`), a memo of
per-∃-component boundary relations (tables of the derived backend),
and (for the sharded path) cached
:class:`~repro.structures.sharding.ShardedStructure` partitions -- so
that every plan executed against the same structure shares the work
instead of re-deriving it per call, per term, or per grid cell.

Besides caching, the context owns ∃-component elimination, and the
column tables are its only evaluator.  The boundary relation of a
component -- the projection of the join of its atoms onto its
boundary -- is computed by variable elimination over the encoded
columns, in an order chosen from the table sizes, never from variable
names, and exact for cyclic and acyclic interiors and any boundary
width alike; a boundary-free component (a pp-sentence part) is the
same elimination onto the empty boundary, and a compiled pp-sentence
counts 1 where it holds and 0 otherwise, so sentences need no memo or
evaluator of their own.  Every join is fused with its projection
(``join_project``), and the row cap
(:data:`~repro.structures.encoding.SEMIJOIN_ROW_CAP`) is only the size
of the pieces a join expands in.  Results are memoized per
(component, structure), which is what makes repeated ``ep-plus``
inclusion-exclusion terms (which share ∃-components across terms)
cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from repro.algorithms.csp import eliminate
from repro.structures.encoding import (
    EncodedStructure,
    NumpyTableOps,
    _PyTableOps,
    numpy_available,
    resolve_backend,
)
from repro.obs import trace as _trace
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


@dataclass
class ContextStats:
    """Counters accumulated by one or more execution contexts.

    ``boundary_hits`` / ``boundary_misses`` count lookups of memoized
    ∃-component boundary relations; ``semijoin_eliminations`` counts
    the eliminations on the tables, one per miss.
    ``backtracking_eliminations`` is never bumped (there is no other
    evaluator); it stays only because the e2e benchmark reads it.
    ``context_hits`` / ``context_misses`` count the lookups of
    a :class:`~repro.engine.resident.ResidentContexts` store (a hit
    reuses built state) and ``context_invalidations`` the contexts it
    dropped.

    A sink is shared by every context a store creates and may be
    updated from many threads at once, so mutation goes through
    :meth:`bump` (a locked read-modify-write; a bare ``+=`` can lose
    updates under preemption) and readers take :meth:`snapshot` for a
    coherent copy; :meth:`reset` zeroes everything under the same lock.
    """

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


def _structure_reads(structure: Structure) -> frozenset[str]:
    """The relation names a memo keyed by a query structure (a
    pp-plan's base formula) reads: those with at least one atom."""
    return frozenset(name for name, tuples in structure.relations.items() if tuples)


class ExecutionContext:
    """The per-structure execution state shared across plan executions.

    Every evaluator runs over the structure's dense-int encoding
    (:attr:`encoded`): ∃-elimination and the pp-plan count (a
    pp-sentence's included) join tables of the derived backend
    (:meth:`table_ops`: vectorized columns when numpy imports,
    int-tuple sets otherwise), and values are decoded only at
    :meth:`boundary_relation`.

    Parameters
    ----------
    structure:
        The data structure this context serves.
    stats:
        Counter sink; the contexts of one
        :class:`~repro.engine.resident.ResidentContexts` store share
        its sink, so the engine can surface aggregate numbers.
    memoize:
        Enable the per-(component, structure) boundary-relation memo.
    """

    __slots__ = (
        "structure",
        "stats",
        "memoize",
        "_encoded",
        "_boundary_memo",
        "_base_table_memo",
        "_sharded_memo",
        "_count_memo",
    )

    def __init__(
        self,
        structure: Structure,
        stats: ContextStats | None = None,
        memoize: bool = True,
    ):
        self.structure = structure
        self.stats = stats if stats is not None else ContextStats()
        self.memoize = memoize
        self._encoded: EncodedStructure | None = None
        self._boundary_memo: dict["ExistsComponent", tuple] = {}
        self._base_table_memo: dict[tuple, tuple] = {}
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
        """The dense-int columnar encoding of the structure: the one the
        structure holds for a context to adopt (the encoding its
        fingerprint read, or a shard's slice), else built lazily."""
        if self._encoded is None:
            encoded = self.structure._take_encoding()
            if encoded is None:
                encoded = EncodedStructure(self.structure)
            self._encoded = encoded
        return self._encoded

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
        return _PyTableOps(self.encoded, self._base_table_memo)

    def materialize(self) -> "ExecutionContext":
        """Build eagerly what the derived backend's request path reads:
        the encoding, plus its zero-copy column views under numpy.

        The lazy defaults are right for throwaway contexts, but a
        context being *pinned* (placed for a registered structure; see
        :mod:`repro.engine.registry`) should pay its materialization
        off the request path -- at registration, or once in the parent
        before the pool forks -- so the first post-pin count is as warm
        as every later one.  A registered structure's context adopts
        the encoding its fingerprint built, and a shard's context the
        slice its shard was born with, so neither interns anything
        here; an unregistered structure pays its one-time interning
        (``context.encode`` span).  Idempotent; returns ``self`` for
        chaining.
        """
        encoded = self.encoded
        if numpy_available():
            for name in encoded.relations:
                encoded.np_columns(name)
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

        The pp-plan count consumes this directly; ``columns`` is
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

    def count_plan(self, plan) -> int:
        """The count of a compiled pp-plan on this structure, memoized.

        Keyed by the plan's base formula (two compilations of the same
        formula count identically by exactness), so on a long-lived
        context -- above all the worker-resident ones of
        :mod:`repro.engine.pool` -- a repeated (plan, shard) evaluation
        is a dictionary lookup instead of an elimination.  The
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

    def run_units(self, units) -> list:
        """Count each unit -- a compiled pp-plan -- in order; a
        pp-sentence's count is 1 where it holds and 0 otherwise."""
        return [self.count_plan(plan) for plan in units]

    def recall(self, units) -> list:
        """:meth:`run_units` from the memo alone (``None``: a miss)."""
        return [self._count_memo.get(plan.base) for plan in units]

    def remember(self, units, values) -> None:
        """Memoize unit values a worker computed; builds nothing."""
        if not self.memoize:
            return
        for plan, value in zip(units, values):
            self._count_memo[plan.base] = value

    def _eliminate(
        self, component: "ExistsComponent", boundary: tuple["Variable", ...]
    ) -> tuple:
        """Compute a boundary relation as a ``(boundary, rows)`` table
        of the derived backend: variable elimination over the encoded
        columns (:func:`~repro.algorithms.csp.eliminate`).  An atom over
        a relation the data does not have raises
        :class:`~repro.exceptions.SignatureError` from ``base_table``.
        """
        ops = self.table_ops()
        if self.structure.is_empty():
            # No assignment of anything exists on the empty structure.
            return ops.table(boundary, ())
        with _trace.span(
            "context.semijoin", boundary=len(boundary), backend=resolve_backend()
        ):
            tables = [
                ops.base_table(name, scope)
                for name, scope in component.atom_scopes
            ]
            relation = eliminate(tables, boundary, ops)
        self.stats.bump("semijoin_eliminations")
        return relation

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def sharded(self, shard_count: int, strategy: str = "hash") -> "ShardedStructure":
        """A cached component-aligned partition of the structure."""
        key = (shard_count, strategy)
        if key not in self._sharded_memo:
            from repro.structures.sharding import _shard

            # Slice the shards out of this context's own columns when
            # its codes are still repr ranks.
            encoded = self.encoded if self.encoded.canonical else None
            self._sharded_memo[key] = _shard(
                self.structure, shard_count, strategy, encoded
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
        relation, ∃-boundary memos read their component's atom
        relations, count memos read their plan's atom relations --
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
        merge re-shards).  The pre-delta context is left untouched, so
        in-flight executions against the old version stay coherent;
        eviction counts land in ``stats.memo_evictions``.
        """
        if new_structure is None:
            new_structure = self.structure.apply_delta(delta)
        if new_structure is self.structure:
            return self
        fresh = ExecutionContext(
            new_structure, stats=self.stats, memoize=self.memoize
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
            for component, value in tuple(self._boundary_memo.items()):
                reads, sensitive = _component_reads(component)
                if reads & touched or (grew and sensitive):
                    evicted += 1
                else:
                    fresh._boundary_memo[component] = value
            for base, count in tuple(self._count_memo.items()):
                # Counts scale with the domain through unconstrained
                # liberal variables, so any universe growth evicts.
                if _structure_reads(base.structure) & touched or grew:
                    evicted += 1
                else:
                    fresh._count_memo[base] = count
        else:
            evicted += (
                len(self._base_table_memo)
                + len(self._boundary_memo)
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
        """Drop all memoized state (the encoding stays, it is
        immutable)."""
        self._boundary_memo.clear()
        self._base_table_memo.clear()
        self._sharded_memo.clear()
        self._count_memo.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ExecutionContext(|U|={len(self.structure)}, "
            f"encoded={self._encoded is not None}, "
            f"boundaries={len(self._boundary_memo)})"
        )
