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
component to ``crc32(repr(representative)) % shard_count``, the
representative being its ``repr``-least element (stable across runs
and processes, the right default for distributed settings), and
``"balanced"`` greedily packs components, largest first, onto the
lightest shard by element count (better load balance for the
multiprocessing pool when component sizes are skewed).

All of it runs on the structure's dense-int encoding
(:class:`~repro.structures.encoding.EncodedStructure`), whose codes are
``repr`` ranks: components hook roots on the int columns, and every
shard's encoding is a slice of the whole one.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.exceptions import StructureError
from repro.structures.encoding import EncodedStructure, get_numpy
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
                    owner = _stable_hash(min(t, key=repr)) % len(self.shards)
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
    """Connected components of the data's Gaifman graph, as element sets
    ordered by their ``repr``-least element.

    Isolated universe elements form singleton components.  Computed on
    the structure's dense-int encoding (:func:`_component_roots`), never
    on a graph of element objects.
    """
    encoded = _encoding_of(structure)
    roots, _ = _component_roots(encoded)
    groups: dict[int, list[Element]] = {}
    for element, root in zip(encoded.decode, roots):
        groups.setdefault(root, []).append(element)
    return [frozenset(groups[root]) for root in sorted(groups)]


def _encoding_of(structure: Structure) -> EncodedStructure:
    """The encoding ``structure`` holds for a context to adopt, else a
    fresh one; either is canonical, so codes are ``repr`` ranks."""
    encoded = structure._encoding
    return EncodedStructure(structure) if encoded is None else encoded


def _component_roots(encoded: EncodedStructure) -> tuple[list[int], int]:
    """Each code's component representative, its least code, and the
    number of hooking rounds it took (0 without numpy).

    Codes are ``repr`` ranks, so the least code is the ``repr``-least
    element.  Under numpy, roots are *hooked*: every round, each root
    with an edge into a tree of a smaller root hangs under the
    smallest such root, then pointers jump until every vertex points at
    its root (Shiloach--Vishkin style; a shuffled 10^5-vertex path takes
    about a dozen rounds, where propagating a least label per vertex
    takes one round per vertex of the path).  Without numpy it is an
    int-list union-find whose roots are least codes.  Either way only
    the edges from a row's first value to its others are read: they
    already connect the whole row.
    """
    np = get_numpy()
    edges = []
    for relation in encoded.relations.values():
        columns = relation.columns
        edges.extend((columns[0], column) for column in columns[1:])
    if np is None:
        return _union_find(encoded.size, edges), 0
    parent = np.arange(encoded.size, dtype=np.int64)
    if not edges:
        return parent.tolist(), 0
    sources, targets = (
        np.concatenate([np.frombuffer(edge[end], dtype=np.int64) for edge in edges])
        for end in (0, 1)
    )
    rounds = 0
    while sources.size:
        left, right = parent[sources], parent[targets]
        crossing = left != right
        if not crossing.any():
            break
        sources, targets = sources[crossing], targets[crossing]
        left, right = left[crossing], right[crossing]
        # Both ends are roots (the forest is flat), so this hangs the
        # larger root under the smaller: parents only ever decrease.
        np.minimum.at(parent, np.maximum(left, right), np.minimum(left, right))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        rounds += 1
    return parent.tolist(), rounds


def _union_find(size: int, edges) -> list[int]:
    """:func:`_component_roots` on python ints: union by least root,
    finds with path halving."""
    parent = list(range(size))

    def find(code: int) -> int:
        while parent[code] != code:
            parent[code] = parent[parent[code]]
            code = parent[code]
        return code

    for sources, targets in edges:
        for source, target in zip(sources, targets):
            left, right = find(source), find(target)
            if left < right:
                parent[right] = left
            elif right < left:
                parent[left] = right
    return [find(code) for code in range(size)]


def _stable_hash(representative: Element) -> int:
    """A process- and run-stable hash of a component, via the ``repr``
    of its representative (``hash(str)`` is randomized per process)."""
    return zlib.crc32(repr(representative).encode("utf-8"))


def _place_components(
    encoded: EncodedStructure, roots: list[int], shard_count: int, strategy: str
) -> list[int]:
    """The shard of every code: each component placed whole, by the
    ``strategy`` (see the module docstring)."""
    sizes: dict[int, int] = {}
    for root in roots:
        sizes[root] = sizes.get(root, 0) + 1
    if strategy == "hash":
        decode = encoded.decode
        shard_of = {
            root: _stable_hash(decode[root]) % shard_count for root in sizes
        }
    else:  # balanced: heaviest components first onto the lightest shard
        lightest = [(0, shard) for shard in range(shard_count)]
        shard_of = {}
        for root in sorted(sizes, key=lambda root: (-sizes[root], root)):
            weight, shard = heapq.heappop(lightest)
            shard_of[root] = shard
            heapq.heappush(lightest, (weight + sizes[root], shard))
    return [shard_of[root] for root in roots]


def shard_structure(
    structure: Structure, shard_count: int, strategy: str = "hash"
) -> ShardedStructure:
    """Partition ``structure`` into ``shard_count`` disjoint-universe shards.

    Every shard is an induced substructure over a union of data
    components, so shard universes partition the original universe and
    every tuple lands in exactly one shard.  ``shard_count = 1`` returns
    the structure itself as the single shard.
    """
    return _shard(structure, shard_count, strategy)


def _shard(
    structure: Structure,
    shard_count: int,
    strategy: str,
    encoded: EncodedStructure | None = None,
) -> ShardedStructure:
    """:func:`shard_structure`, on ``encoded`` when given: a canonical
    encoding of ``structure`` (an execution context passes its own).

    Components, placement and the shard encodings are computed on the
    int columns; every shard is born with its slice of the encoding
    (which the first context built for it adopts) and the fingerprint
    digested from that slice.  The shards' tuple sets share the
    structure's tuple objects.
    """
    if shard_count < 1:
        raise StructureError("shard_count must be at least 1")
    if strategy not in SHARD_STRATEGIES:
        raise StructureError(
            f"unknown shard strategy {strategy!r}; choose one of {SHARD_STRATEGIES}"
        )
    if shard_count == 1:
        return ShardedStructure(structure, (structure,), strategy)
    if encoded is None:
        encoded = _encoding_of(structure)
    roots, _ = _component_roots(encoded)
    owner = _place_components(encoded, roots, shard_count, strategy)
    slices = encoded.split(owner, shard_count)
    placement = dict(zip(encoded.decode, owner))
    relations: list[dict[str, frozenset]] = [{} for _ in range(shard_count)]
    for name, tuples in structure.relations.items():
        buckets: list[list[tuple]] = [[] for _ in range(shard_count)]
        for t in tuples:
            buckets[placement[t[0]]].append(t)
        for shard, bucket in enumerate(buckets):
            relations[shard][name] = frozenset(bucket)
    shards = tuple(
        Structure._trusted(
            structure.signature,
            frozenset(piece.decode),
            relations[shard],
            fingerprint=piece.fingerprint(),
            encoding=piece,
        )
        for shard, piece in enumerate(slices)
    )
    return ShardedStructure(structure, shards, strategy)


def combine_shard_counts(
    liberal_rows: Sequence[Sequence[int]],
    sentence_rows: Sequence[Sequence[int]] = (),
) -> int:
    """Combine per-shard results into the whole-structure count.

    ``liberal_rows[c][s]`` is the count of the ``c``-th liberal query
    component on shard ``s``; ``sentence_rows[c][s]`` is the count of
    the ``c``-th pp-sentence component on shard ``s``: 1 if it maps
    into the shard, 0 otherwise (a bool reads the same).  The result is
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
