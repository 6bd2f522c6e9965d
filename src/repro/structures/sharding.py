"""Partitioning structures into disjoint-universe shards.

Scaling the data side of counting means splitting one large structure
into pieces that can be executed independently (per process, eventually
per machine) and combining the per-shard numbers exactly.  The split
that makes exact combination possible is the *component-aligned*
partition: shard universes are unions of connected components of the
data's Gaifman graph, so no tuple ever crosses a shard boundary and the
shards are fully independent substructures whose universes partition
the original universe.

The combination rules come straight from the paper's structure theory:

* the count of a pp-formula factorizes over the *query's* connected
  components (Section 2.1: answer counts multiply over components);
* a connected query component with liberal variables maps entirely
  inside one data component, hence inside exactly one shard, so its
  per-shard counts **sum** to the whole-structure count;
* a connected pp-*sentence* component holds on the whole structure iff
  it holds on **some** shard (logical OR);
* the inclusion-exclusion terms of an ``ep-plus`` plan are themselves
  pp-counts, so the term sums distribute over shards unchanged.

:func:`combine_shard_counts` packages these rules; the sharded
execution path in :mod:`repro.engine.executor` produces its inputs.

Two placement strategies are provided: ``"hash"`` assigns each data
component to ``crc32(representative) % shard_count`` (stable across
runs and processes, the right default for distributed settings), and
``"balanced"`` greedily packs components onto the lightest shard by
tuple count (better load balance for the multiprocessing pool when
component sizes are skewed).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.exceptions import StructureError
from repro.structures.structure import Element, Structure

#: The supported shard-placement strategies.
SHARD_STRATEGIES = ("hash", "balanced")


@dataclass(frozen=True)
class ShardedStructure:
    """A structure together with a component-aligned partition of it.

    ``shards`` may contain empty structures (when ``shard_count``
    exceeds the number of data components); the combination rules and
    the executor handle them uniformly.
    """

    structure: Structure
    shards: tuple[Structure, ...]
    strategy: str
    #: Caches of :meth:`placement` and :meth:`advance`, not part of the
    #: plan's value.
    _placement: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _advanced: "PlanAdvance | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def universe_size(self) -> int:
        return len(self.structure.universe)

    def non_empty_shards(self) -> tuple[Structure, ...]:
        """The shards with a non-empty universe."""
        return tuple(s for s in self.shards if not s.is_empty())

    def precompute_fingerprints(self) -> "ShardedStructure":
        """Compute and cache every fingerprint (whole + per shard).

        Fingerprints key the worker-resident context caches; computing
        them once at registration time (they are cached on the
        structures) means no later ``count_sharded`` call pays the
        content hash on the request path, and the pickled shards
        shipped to workers always carry their fingerprint along.
        Returns ``self`` for chaining.
        """
        self.structure.fingerprint()
        for shard in self.shards:
            shard.fingerprint()
        return self

    def placement(self) -> dict[Element, int]:
        """Element -> index of the shard owning it.

        Built once per plan and then only read: :meth:`route_delta`
        looks owners up in it, and the plan a delta advances to shares
        it (copied and extended only when the delta brings new
        elements), so routing a delta costs ``O(|delta|)``, not a pass
        over the universe.
        """
        if self._placement is None:
            object.__setattr__(
                self,
                "_placement",
                {
                    element: index
                    for index, shard in enumerate(self.shards)
                    for element in shard.universe
                },
            )
        return self._placement

    def route_delta(
        self, delta: "StructureDelta"
    ) -> tuple["StructureDelta | None", ...]:
        """Split ``delta`` into per-shard sub-deltas by component ownership.

        Each delta tuple lands on the shard owning its elements: deletes
        go to the shard holding the tuple, inserts to the unique shard
        owning the mentioned existing elements (brand-new elements adopt
        that shard; tuples over *only* new elements are placed by the
        same stable hash :func:`shard_structure` uses).  Returns one
        sub-delta per shard, ``None`` for shards the delta does not
        touch -- which is what lets every untouched shard keep its
        structure, fingerprint, and resident contexts byte-for-byte.

        Raises :class:`~repro.exceptions.DeltaRoutingError` when an
        inserted tuple spans two shards: that is a data-component merge,
        the partition is no longer component-aligned, and the caller
        must re-shard the post-delta structure instead.
        """
        from repro.exceptions import DeltaRoutingError
        from repro.structures.delta import StructureDelta

        placement = self.placement()
        # Where this delta's brand-new elements go; the plan's own
        # placement is never written (in-flight counts and the next
        # delta read it).
        adopted: dict[Element, int] = {}

        inserts: list[dict[str, list[tuple]]] = [{} for _ in self.shards]
        deletes: list[dict[str, list[tuple]]] = [{} for _ in self.shards]
        touched = [False] * len(self.shards)
        for name, batch in sorted(delta.deletes.items()):
            for t in sorted(batch, key=repr):
                owner = placement.get(t[0])
                if owner is None:
                    # Absent tuple; let Structure.apply_delta report it.
                    owner = 0
                deletes[owner].setdefault(name, []).append(t)
                touched[owner] = True
        for name, batch in sorted(delta.inserts.items()):
            for t in sorted(batch, key=repr):
                owners = {
                    placement.get(e, adopted.get(e)) for e in t
                } - {None}
                if len(owners) > 1:
                    raise DeltaRoutingError(
                        f"inserted tuple {t!r} of relation {name!r} connects "
                        f"elements owned by shards {sorted(owners)}; the "
                        "component-aligned partition must be recomputed"
                    )
                if owners:
                    owner = owners.pop()
                else:
                    owner = _stable_hash(frozenset(t)) % len(self.shards)
                for element in t:
                    if element not in placement:
                        adopted[element] = owner
                inserts[owner].setdefault(name, []).append(t)
                touched[owner] = True
        return tuple(
            StructureDelta(inserts[s], deletes[s]) if touched[s] else None
            for s in range(len(self.shards))
        )

    def _routed(
        self, routed: Sequence["StructureDelta | None"], new_structure: Structure
    ) -> "ShardedStructure":
        """The plan over ``new_structure`` whose shards took their
        :meth:`route_delta` sub-deltas; untouched shards and, without
        new elements, the placement are shared with this plan."""
        shards = tuple(
            shard if sub is None else shard.apply_delta(sub)
            for shard, sub in zip(self.shards, routed)
        )
        plan = ShardedStructure(new_structure, shards, self.strategy)
        placement = self.placement()
        adopted = {
            element: index
            for index, sub in enumerate(routed)
            if sub is not None
            for element in sub.inserted_elements()
            if element not in placement
        }
        if adopted:
            placement = {**placement, **adopted}
        object.__setattr__(plan, "_placement", placement)
        return plan

    def apply_delta(self, delta: "StructureDelta") -> "ShardedStructure":
        """A new sharded structure with ``delta`` applied through the plan.

        The whole structure and exactly the shards owning delta tuples
        advance to new (chained-fingerprint) versions; untouched shards
        are reused as-is.  Raises
        :class:`~repro.exceptions.DeltaRoutingError` on a component
        merge, in which case the caller should fall back to
        :func:`shard_structure` on the post-delta structure.
        """
        routed = self.route_delta(delta)
        return self._routed(routed, self.structure.apply_delta(delta))

    def advance(
        self, delta: "StructureDelta", new_structure: Structure
    ) -> "PlanAdvance":
        """Carry the plan across ``delta`` onto the already-advanced
        ``new_structure``, re-sharding when the delta merges components.

        Unlike :meth:`apply_delta` this never raises on a merge, and it
        says what happens to the contexts resident under the old plan's
        shard fingerprints (see :class:`PlanAdvance`).  Universe growth
        means no shard ever goes back to empty, so the routed path
        retires nothing.

        The plan remembers its successor: every holder of this plan (a
        registry entry, the engine context's memo) that carries it onto
        the same ``new_structure`` gets the one :class:`PlanAdvance`
        back, so a delta routes once and all of them end up holding the
        same post-delta plan.
        """
        known = self._advanced
        if known is None or known.sharded.structure is not new_structure:
            known = self._advance(delta, new_structure)
            object.__setattr__(self, "_advanced", known)
        return known

    def _advance(
        self, delta: "StructureDelta", new_structure: Structure
    ) -> "PlanAdvance":
        from repro.exceptions import DeltaRoutingError

        try:
            routed = self.route_delta(delta)
        except DeltaRoutingError:
            # The old partition is no longer component-aligned, so the
            # exact combine rules need a fresh one.
            replan = shard_structure(
                new_structure, len(self.shards), self.strategy
            )
            return PlanAdvance(
                replan,
                resharded=True,
                updates=[],
                fresh=replan.non_empty_shards(),
                stale=tuple(s.fingerprint() for s in self.non_empty_shards()),
            )
        plan = self._routed(routed, new_structure)
        updates, placed = [], []
        for old, sub, new in zip(self.shards, routed, plan.shards):
            if sub is None:
                continue
            if old.is_empty():
                placed.append(new)
            else:
                updates.append((old.fingerprint(), sub, new))
        return PlanAdvance(
            plan,
            resharded=False,
            updates=updates,
            fresh=tuple(placed),
            stale=(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ",".join(str(len(s)) for s in self.shards)
        return f"ShardedStructure({self.structure!r} -> [{sizes}])"


class PlanAdvance(NamedTuple):
    """A shard plan carried across a delta by
    :meth:`ShardedStructure.advance`, with the fate of every context
    resident under the old plan's shard fingerprints."""

    #: The post-delta plan.
    sharded: ShardedStructure
    #: Whether a component merge forced a fresh partition.
    resharded: bool
    #: ``(old fingerprint, sub-delta, new shard)``: migrate in place.
    updates: list
    #: New shards with nothing resident to migrate from (they were
    #: empty before, or belong to a fresh partition).
    fresh: tuple
    #: Old shard fingerprints no plan uses any more.
    stale: tuple


def data_components(structure: Structure) -> list[frozenset[Element]]:
    """Connected components of the data's Gaifman graph, as element sets.

    Isolated universe elements form singleton components.  Computed with
    a union-find pass over the tuples (structures playing the data role
    can be large; building a NetworkX graph with a clique per tuple is
    needlessly heavy there).
    """
    parent: dict[Element, Element] = {e: e for e in structure.universe}

    def find(e: Element) -> Element:
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def union(a: Element, b: Element) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for tuples in structure.relations.values():
        for t in tuples:
            first = t[0]
            for other in t[1:]:
                union(first, other)
    groups: dict[Element, set[Element]] = {}
    for element in structure.universe:
        groups.setdefault(find(element), set()).add(element)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda c: min(repr(e) for e in c),
    )


def _stable_hash(component: frozenset[Element]) -> int:
    """A process- and run-stable hash of a component (via its smallest
    representative's repr; ``hash(str)`` is randomized per process)."""
    representative = min(component, key=repr)
    return zlib.crc32(repr(representative).encode("utf-8"))


def shard_structure(
    structure: Structure, shard_count: int, strategy: str = "hash"
) -> ShardedStructure:
    """Partition ``structure`` into ``shard_count`` disjoint-universe shards.

    Every shard is an induced substructure over a union of data
    components, so shard universes partition the original universe and
    every tuple lands in exactly one shard.  ``shard_count = 1`` returns
    the structure itself as the single shard.
    """
    if shard_count < 1:
        raise StructureError("shard_count must be at least 1")
    if strategy not in SHARD_STRATEGIES:
        raise StructureError(
            f"unknown shard strategy {strategy!r}; choose one of {SHARD_STRATEGIES}"
        )
    if shard_count == 1:
        return ShardedStructure(structure, (structure,), strategy)

    components = data_components(structure)
    placement: dict[Element, int] = {}
    if strategy == "hash":
        for component in components:
            shard = _stable_hash(component) % shard_count
            for element in component:
                placement[element] = shard
    else:  # balanced: heaviest components first onto the lightest shard
        weights = [0] * shard_count
        sized = sorted(
            components, key=lambda c: (-len(c), min(repr(e) for e in c))
        )
        for component in sized:
            shard = min(range(shard_count), key=lambda s: (weights[s], s))
            weights[shard] += len(component)
            for element in component:
                placement[element] = shard

    universes: list[set[Element]] = [set() for _ in range(shard_count)]
    for element, shard in placement.items():
        universes[shard].add(element)
    relations: list[dict[str, list[tuple[Element, ...]]]] = [
        {} for _ in range(shard_count)
    ]
    for name, tuples in structure.relations.items():
        for t in tuples:
            shard = placement[t[0]]
            relations[shard].setdefault(name, []).append(t)
    shards = tuple(
        Structure(structure.signature, universes[s], relations[s])
        for s in range(shard_count)
    )
    return ShardedStructure(structure, shards, strategy)


def combine_shard_counts(
    liberal_rows: Sequence[Sequence[int]],
    sentence_rows: Sequence[Sequence[bool]] = (),
) -> int:
    """Combine per-shard results into the whole-structure count.

    ``liberal_rows[c][s]`` is the count of the ``c``-th liberal query
    component on shard ``s``; ``sentence_rows[c][s]`` says whether the
    ``c``-th pp-sentence component maps into shard ``s``.  The result is
    ``0`` if some sentence component holds on no shard, and otherwise
    the product over liberal components of the sum over shards --
    exactly the factorization described in the module docstring.
    """
    for row in sentence_rows:
        if not any(row):
            return 0
    total = 1
    for row in liberal_rows:
        total *= sum(row)
    return total
