"""Named resident structures: the registry behind count-by-reference.

Serving workloads look like "millions of queries against a handful of
large, slowly-changing databases".  Shipping the database JSON with
every request wastes exactly the warm-start machinery the engine has
(worker-resident execution contexts, cached shard plans): the bytes
travel, get parsed, get validated, and get hashed on every call just to
rediscover state the server already holds.

:class:`StructureRegistry` is the fix: structures are **registered
once** under a client-chosen name and later requests *refer* to them.
The registry keys entries by name, remembers each entry's
process-stable :meth:`~repro.structures.structure.Structure.fingerprint`
(so a re-registration under the same name with different data is
detectable and stale derived state can be invalidated), tracks
approximate resident bytes, and enforces capacity limits -- entry count
and total bytes -- by evicting the least recently *resolved* unpinned
entries.  Pinned entries are never evicted and never dropped by
:meth:`~repro.engine.api.Engine.clear_caches`; registering more pinned
data than the configured capacity is an error (:class:`RegistryFull`),
never a silent eviction.

The registry itself is engine-agnostic bookkeeping; the interesting
wiring lives in :class:`~repro.engine.api.Engine.register_structure`,
which additionally precomputes the shard plan and places the
structure (and its shards) in the engine's context store, which every
pool generation forks, and in :mod:`repro.serve.httpd`, which exposes the
whole thing as ``PUT/GET/DELETE /structures/<name>`` plus the
``{"structure": {"ref": "<name>"}}`` request form.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.exceptions import ReproError
from repro.structures.structure import Structure

#: Default maximum number of registered structures.
DEFAULT_REGISTRY_MAX_ENTRIES = 64

#: Default cap on the summed approximate resident bytes (256 MiB).
DEFAULT_REGISTRY_MAX_BYTES = 256 * 1024 * 1024

#: Longest accepted structure name.
MAX_STRUCTURE_NAME_LENGTH = 200


class UnknownStructureError(ReproError):
    """A structure reference names nothing in the registry.

    The HTTP layer maps this to ``404 Not Found``.
    """

    def __init__(self, name: str, known: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        super().__init__(f"no registered structure named {name!r}")


class RegistryFull(ReproError):
    """Capacity is exhausted and every resident entry is pinned."""


class VersionConflict(ReproError):
    """A delta's ``expect_version`` does not match the live entry.

    Optimistic concurrency for live updates: a client that read version
    ``n`` submits its delta with ``expect_version = n``; if another
    writer advanced (or re-registered) the name in between, the delta is
    rejected with this error instead of being applied to data it was not
    computed against.  The HTTP layer maps it to ``409 Conflict``.
    """

    def __init__(self, name: str, expected: int | None, actual: int):
        self.name = name
        self.expected = expected
        self.actual = actual
        if expected is None:
            message = (
                f"structure {name!r} changed while the delta was being "
                f"applied (now at version {actual}); retry against the "
                "current version"
            )
        else:
            message = (
                f"structure {name!r} is at version {actual}, not the "
                f"expected version {expected}"
            )
        super().__init__(message)


def validate_structure_name(name: str) -> str:
    """A registry name: non-empty printable text without ``/``."""
    if not isinstance(name, str) or not name:
        raise ReproError("structure name must be a non-empty string")
    if len(name) > MAX_STRUCTURE_NAME_LENGTH:
        raise ReproError(
            f"structure name exceeds {MAX_STRUCTURE_NAME_LENGTH} characters"
        )
    if "/" in name or any(ord(c) < 0x20 or ord(c) == 0x7F for c in name):
        raise ReproError(
            "structure name must not contain '/' or control characters"
        )
    return name


def approximate_structure_bytes(structure: Structure) -> int:
    """A deterministic estimate of a structure's resident footprint.

    Sums ``sys.getsizeof`` over the universe, the relation containers,
    and every tuple (counting each tuple's element slots, not the
    elements themselves twice).  This is an *estimate* for capacity
    accounting, not an exact heap measurement -- shared elements and the
    derived execution-context state (encoding, boundary memos,
    shard plans) are outside it -- but it is stable across runs and
    monotone in the data size, which is what an eviction policy needs.

    Every tuple of a relation is an exact ``tuple`` of the relation's
    arity, and a tuple's size depends on its length alone, so a
    relation's tuples weigh ``len(tuples)`` times one of them: the
    relation terms cost ``O(relations)``, not a pass over the tuples.
    """
    total = sys.getsizeof(structure.universe)
    total += sum(map(sys.getsizeof, structure.universe))
    for tuples in structure.relations.values():
        total += sys.getsizeof(tuples)
        if tuples:
            total += len(tuples) * sys.getsizeof(next(iter(tuples)))
    return total


def approximate_delta_bytes(
    parent_bytes: int, old: Structure, new: Structure, delta
) -> int:
    """Carry a resident-bytes estimate across a delta incrementally.

    :func:`approximate_structure_bytes` is a sum of independent terms,
    one per container and one per element or tuple, so only the terms
    the delta names move: the universe and touched-relation containers
    by the difference of their ``getsizeof``, plus one term per new
    element and inserted tuple, minus one per deleted tuple (a tuple's
    size depends on its length alone, so the delta's own tuples stand in
    for the stored ones).  That is ``O(|delta|)`` whatever the relation
    holds, and the result agrees exactly with a fresh
    ``approximate_structure_bytes(new)``.
    """
    total = parent_bytes
    total += sys.getsizeof(new.universe) - sys.getsizeof(old.universe)
    for element in delta.inserted_elements():
        if element not in old.universe:
            total += sys.getsizeof(element)
    for sign, batches in ((1, delta.inserts), (-1, delta.deletes)):
        for tuples in batches.values():
            total += sign * sum(map(sys.getsizeof, tuples))
    for name in delta.relations:
        total += sys.getsizeof(new.relation(name))
        total -= sys.getsizeof(old.relation(name))
    return total


@dataclass
class RegistryEntry:
    """One named resident structure plus its per-entry statistics.

    ``registrations`` counts how many times this name was (re)registered,
    ``hits`` how many times a request resolved it.  ``sharded`` is the
    shard plan precomputed at registration time (when the engine did the
    registering), so ``count_sharded`` on the name never re-partitions.

    ``version`` is the monotonic live-update counter: a fresh
    registration starts at 1 and every applied delta advances it by one
    (see :meth:`StructureRegistry.advance`), while the ``fingerprint``
    follows the chained-digest lineage of
    :meth:`~repro.structures.structure.Structure.apply_delta`.  Identity
    of a named structure is the ``(fingerprint, version)`` pair: the
    fingerprint names the content lineage, the version orders writes to
    the name.
    """

    name: str
    structure: Structure
    fingerprint: tuple
    pinned: bool
    resident_bytes: int
    shard_count: int | None = None
    sharded: object | None = None  # ShardedStructure, kept untyped to avoid a cycle
    registrations: int = 1
    hits: int = 0
    version: int = 1
    registered_at: float = field(default_factory=time.time)
    #: Cluster placement at registration time: worker id -> how many of
    #: this entry's shards it holds (empty without an attached cluster).
    placements: dict = field(default_factory=dict)

    def worker_fingerprints(self) -> list[tuple]:
        """Every fingerprint this entry put into the workers: the whole
        structure's, then its non-empty shards'."""
        fingerprints = [self.fingerprint]
        if self.sharded is not None:
            fingerprints.extend(
                shard.fingerprint() for shard in self.sharded.non_empty_shards()
            )
        return fingerprints

    def as_dict(self) -> dict:
        """A JSON-friendly view (metadata only, never the data itself)."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint[2],
            "universe_size": self.fingerprint[0],
            "relations": {
                relation: count for relation, _, count in self.fingerprint[1]
            },
            "pinned": self.pinned,
            "resident_bytes": self.resident_bytes,
            "shard_count": self.shard_count,
            "registrations": self.registrations,
            "hits": self.hits,
            "version": self.version,
            "registered_at": self.registered_at,
            "placements": dict(self.placements),
        }


class Registration(NamedTuple):
    """What one :meth:`StructureRegistry.register` call did.

    Unpacks as ``(entry, previous, evicted)``: the live entry, the
    replaced same-name entry if any, and the entries evicted to make
    room.  :attr:`retired` is what the caller has to drop.
    """

    entry: RegistryEntry
    previous: RegistryEntry | None
    evicted: list[RegistryEntry]

    @property
    def retired(self) -> tuple[tuple, ...]:
        """The fingerprints every context store must drop, in one batch:
        everything the evicted and replaced entries put there, minus
        what the new entry still holds -- which is nothing when it
        gives up a pin its predecessor had."""
        entry, previous = self.entry, self.previous
        old = self.evicted + ([previous] if previous is not None else [])
        unpinning = previous is not None and previous.pinned and not entry.pinned
        keep = set() if unpinning else set(entry.worker_fingerprints())
        return tuple(
            dict.fromkeys(
                f
                for retired in old
                for f in retired.worker_fingerprints()
                if f not in keep
            )
        )


class StructureRegistry:
    """Named structures with LRU eviction of unpinned entries.

    Parameters
    ----------
    max_entries:
        How many structures may be resident at once.
    max_bytes:
        Cap on the summed approximate resident bytes.

    Thread-safe; recency is bumped by :meth:`resolve` / :meth:`entry`,
    so the entries evicted under pressure are the least recently
    *used*, not the least recently registered.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_REGISTRY_MAX_ENTRIES,
        max_bytes: int = DEFAULT_REGISTRY_MAX_BYTES,
    ):
        if max_entries < 1:
            raise ReproError("registry max_entries must be at least 1")
        if max_bytes < 1:
            raise ReproError("registry max_bytes must be at least 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, RegistryEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._registrations = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def admit(self, name: str, structure: Structure) -> int:
        """Refuse what no eviction could make fit: a bad name, or a
        structure that alone exceeds the byte capacity.

        Returns the structure's approximate resident bytes.  Cheap
        enough to run before a caller builds anything for the entry.
        """
        validate_structure_name(name)
        resident_bytes = approximate_structure_bytes(structure)
        if resident_bytes > self.max_bytes:
            raise RegistryFull(
                f"structure {name!r} (~{resident_bytes} bytes) exceeds the "
                f"registry byte capacity ({self.max_bytes})"
            )
        return resident_bytes

    def register(
        self,
        name: str,
        structure: Structure,
        pin: bool = True,
        shard_count: int | None = None,
        sharded: object | None = None,
        resident_bytes: int | None = None,
    ) -> Registration:
        """Insert (or replace) the entry for ``name``.

        Returns a :class:`Registration` -- ``(entry, previous,
        evicted)``: the live entry, the replaced same-name entry if
        any, and the entries evicted to make room -- whose ``retired``
        view says what the replaced and evicted entries leave behind.
        ``resident_bytes`` is what an earlier :meth:`admit` of the same
        name and structure returned; without it the admission runs
        here.  Raises :class:`RegistryFull` when
        the capacity cannot be met by evicting unpinned entries.
        """
        if resident_bytes is None:
            resident_bytes = self.admit(name, structure)
        fingerprint = structure.fingerprint()
        with self._lock:
            previous = self._entries.pop(name, None)
            entry = RegistryEntry(
                name=name,
                structure=structure,
                fingerprint=fingerprint,
                pinned=pin,
                resident_bytes=resident_bytes,
                shard_count=shard_count,
                sharded=sharded,
                registrations=(previous.registrations + 1) if previous else 1,
                hits=previous.hits if previous else 0,
            )
            try:
                evicted = self._make_room(entry)
            except RegistryFull:
                # A failed re-registration must not lose the entry it
                # would have replaced: the old data keeps serving.
                if previous is not None:
                    self._entries[name] = previous
                raise
            self._entries[name] = entry
            self._registrations += 1
            self._evictions += len(evicted)
        return Registration(entry, previous, evicted)

    def _make_room(self, incoming: RegistryEntry) -> list[RegistryEntry]:
        """Evict LRU unpinned entries until ``incoming`` fits (lock held)."""
        evicted: list[RegistryEntry] = []

        def over_capacity() -> bool:
            total = sum(e.resident_bytes for e in self._entries.values())
            return (
                len(self._entries) + 1 > self.max_entries
                or total + incoming.resident_bytes > self.max_bytes
            )

        while over_capacity():
            victim_name = next(
                (n for n, e in self._entries.items() if not e.pinned), None
            )
            if victim_name is None:
                for entry in reversed(evicted):
                    self._entries[entry.name] = entry
                    self._entries.move_to_end(entry.name, last=False)
                raise RegistryFull(
                    f"cannot register {incoming.name!r}: registry capacity "
                    f"reached ({len(self._entries)}/{self.max_entries} "
                    f"entries) and every resident entry is pinned"
                )
            evicted.append(self._entries.pop(victim_name))
        return evicted

    def advance(
        self,
        name: str,
        parent: RegistryEntry,
        structure: Structure,
        sharded: object | None = None,
        expect_version: int | None = None,
        delta: object | None = None,
    ) -> RegistryEntry:
        """Atomically replace ``name``'s entry with a post-delta version.

        The caller computed ``structure`` (and optionally ``sharded``)
        from ``parent`` *outside* the registry lock; this commits the
        result only if ``parent`` is still the live entry -- otherwise a
        concurrent re-registration or delta raced the computation and
        :class:`VersionConflict` is raised (likewise when
        ``expect_version`` names a version other than the live one).
        The new entry carries the parent's pin state, shard count, and
        cumulative statistics; ``version`` advances by one and
        ``resident_bytes`` is updated for the post-delta data --
        incrementally via :func:`approximate_delta_bytes` when the
        caller passes the ``delta``, so a one-tuple update costs
        ``O(|delta|)``, not a sweep over the structure.  Capacity is
        *not* re-enforced here: deltas are incremental writes to
        already-admitted data, and admission control stays at
        :meth:`register` time.
        """
        if delta is not None:
            resident_bytes = approximate_delta_bytes(
                parent.resident_bytes, parent.structure, structure, delta
            )
        else:
            resident_bytes = approximate_structure_bytes(structure)
        fingerprint = structure.fingerprint()
        with self._lock:
            current = self._entries.get(name)
            if current is None:
                raise UnknownStructureError(name, tuple(self._entries))
            if expect_version is not None and current.version != expect_version:
                raise VersionConflict(name, expect_version, current.version)
            if current is not parent:
                raise VersionConflict(name, expect_version, current.version)
            entry = RegistryEntry(
                name=name,
                structure=structure,
                fingerprint=fingerprint,
                pinned=current.pinned,
                resident_bytes=resident_bytes,
                shard_count=current.shard_count,
                sharded=sharded,
                registrations=current.registrations,
                hits=current.hits,
                version=current.version + 1,
                registered_at=current.registered_at,
                # Placements re-key across a delta rather than reshuffle;
                # the engine overwrites this on the re-shard fallback.
                placements=dict(current.placements),
            )
            self._entries[name] = entry
            self._entries.move_to_end(name)
        return entry

    def unregister(self, name: str) -> RegistryEntry | None:
        """Remove and return the entry for ``name`` (``None`` if absent)."""
        with self._lock:
            return self._entries.pop(name, None)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def entry(self, name: str) -> RegistryEntry:
        """The entry for ``name``, bumping recency and its hit count."""
        with self._lock:
            found = self._entries.get(name)
            if found is None:
                self._misses += 1
                raise UnknownStructureError(name, tuple(self._entries))
            self._entries.move_to_end(name)
            found.hits += 1
            self._hits += 1
            return found

    def resolve(self, name: str) -> Structure:
        """The structure registered under ``name`` (404-mapped on miss)."""
        return self.entry(name).structure

    def peek(self, name: str) -> RegistryEntry | None:
        """The entry for ``name`` without bumping recency or hit counts."""
        with self._lock:
            return self._entries.get(name)

    def names(self) -> tuple[str, ...]:
        """The registered names, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """The summed approximate bytes of every resident entry."""
        with self._lock:
            return sum(e.resident_bytes for e in self._entries.values())

    def stats_snapshot(self) -> tuple[int, int, int, int]:
        """``(hits, misses, registrations, evictions)``, coherently."""
        with self._lock:
            return self._hits, self._misses, self._registrations, self._evictions

    def reset_stats(self) -> None:
        """Zero the aggregate counters (per-entry stats are kept)."""
        with self._lock:
            self._hits = 0
            self._misses = 0
            self._registrations = 0
            self._evictions = 0

    def stats(self) -> dict:
        """The JSON-friendly registry block served by ``/metrics``."""
        with self._lock:
            entries = list(self._entries.values())
            return {
                "entries": len(entries),
                "max_entries": self.max_entries,
                "resident_bytes": sum(e.resident_bytes for e in entries),
                "max_bytes": self.max_bytes,
                "pinned_entries": sum(1 for e in entries if e.pinned),
                "hits": self._hits,
                "misses": self._misses,
                "registrations": self._registrations,
                "evictions": self._evictions,
                "structures": [e.as_dict() for e in entries],
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructureRegistry({len(self)}/{self.max_entries} entries, "
            f"~{self.resident_bytes} bytes)"
        )
