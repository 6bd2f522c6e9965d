"""Finite relational structures.

A *structure* ``B`` over a signature ``tau`` consists of a finite
universe ``B`` and, for each relation symbol ``R`` in ``tau``, a relation
``R^B`` which is a set of tuples over the universe.  Structures are the
"databases" of the paper: a query is evaluated on a structure, and the
library counts the satisfying assignments.

The :class:`Structure` class is immutable once built
(:meth:`Structure.from_relations` infers the signature from the
tuples).  Immutability lets structures be hashed, cached and shared
safely by the counting algorithms.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.exceptions import SignatureError, StructureError
from repro.logic.signatures import RelationSymbol, Signature

Element = Hashable
Tuple_ = tuple


class Structure:
    """An immutable finite relational structure.

    Parameters
    ----------
    signature:
        The vocabulary of the structure.
    universe:
        The (finite) universe; any iterable of hashable elements.
    relations:
        A mapping from relation names to iterables of tuples.  Every
        relation name must belong to the signature, every tuple must
        have the right arity, and every element of every tuple must be
        in the universe.  Relations absent from the mapping are empty.
    """

    __slots__ = (
        "_signature",
        "_universe",
        "_relations",
        "_hash",
        "_fingerprint",
        "_encoding",
    )

    def __init__(
        self,
        signature: Signature,
        universe: Iterable[Element],
        relations: Mapping[str, Iterable[tuple[Element, ...]]] | None = None,
    ):
        self._signature = signature
        self._universe: frozenset[Element] = frozenset(universe)
        rels: dict[str, frozenset[tuple[Element, ...]]] = {}
        provided = relations or {}
        for name in provided:
            if name not in signature:
                raise SignatureError(
                    f"relation {name!r} is not in the signature {signature!r}"
                )
        for symbol in signature:
            tuples = frozenset(tuple(t) for t in provided.get(symbol.name, ()))
            for t in tuples:
                if len(t) != symbol.arity:
                    raise StructureError(
                        f"tuple {t!r} has arity {len(t)}, but relation "
                        f"{symbol.name!r} has arity {symbol.arity}"
                    )
                for element in t:
                    if element not in self._universe:
                        raise StructureError(
                            f"tuple {t!r} of relation {symbol.name!r} mentions "
                            f"{element!r}, which is not in the universe"
                        )
            rels[symbol.name] = tuples
        self._relations = rels
        self._hash: int | None = None
        self._fingerprint: tuple | None = None
        self._encoding = None

    @classmethod
    def _trusted(
        cls,
        signature: Signature,
        universe: frozenset[Element],
        relations: dict[str, frozenset[tuple[Element, ...]]],
        fingerprint: tuple | None = None,
        encoding=None,
    ) -> "Structure":
        """A structure from parts already known to be valid: a frozenset
        universe and one frozenset of tuples per signature symbol, each
        of the symbol's arity and over the universe.  For structures
        derived from a validated one, which :meth:`__init__` would only
        re-check tuple by tuple.  ``fingerprint`` and ``encoding`` seed
        the caches :meth:`fingerprint` fills."""
        new = object.__new__(cls)
        new._signature = signature
        new._universe = universe
        new._relations = relations
        new._hash = None
        new._fingerprint = fingerprint
        new._encoding = encoding
        return new

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_relations(
        cls,
        relations: Mapping[str, Iterable[tuple[Element, ...]]],
        universe: Iterable[Element] | None = None,
    ) -> "Structure":
        """Build a structure, inferring the signature from the relations.

        The universe defaults to the set of elements mentioned in any
        tuple; pass ``universe`` explicitly to add isolated elements.
        """
        materialized = {name: [tuple(t) for t in tuples] for name, tuples in relations.items()}
        symbols = []
        elements: set[Element] = set(universe or ())
        for name, tuples in materialized.items():
            arities = {len(t) for t in tuples}
            if len(arities) > 1:
                raise StructureError(
                    f"relation {name!r} contains tuples of different arities: {sorted(arities)}"
                )
            if not tuples:
                raise StructureError(
                    f"cannot infer the arity of empty relation {name!r}; "
                    "construct the Structure with an explicit Signature instead"
                )
            symbols.append(RelationSymbol(name, arities.pop()))
            for t in tuples:
                elements.update(t)
        return cls(Signature(symbols), elements, materialized)

    @classmethod
    def empty(cls, signature: Signature) -> "Structure":
        """The structure with an empty universe over ``signature``."""
        return cls(signature, (), {})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def signature(self) -> Signature:
        """The signature (vocabulary) of the structure."""
        return self._signature

    @property
    def universe(self) -> frozenset[Element]:
        """The universe of the structure."""
        return self._universe

    def relation(self, name: str) -> frozenset[tuple[Element, ...]]:
        """The interpretation of the relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SignatureError(f"unknown relation {name!r}") from None

    @property
    def relations(self) -> dict[str, frozenset[tuple[Element, ...]]]:
        """A copy of the relation-name to tuple-set mapping."""
        return dict(self._relations)

    def __contains__(self, element: object) -> bool:
        return element in self._universe

    def __len__(self) -> int:
        return len(self._universe)

    @property
    def size(self) -> int:
        """The number of elements in the universe."""
        return len(self._universe)

    @property
    def total_tuples(self) -> int:
        """The total number of tuples over all relations."""
        return sum(len(tuples) for tuples in self._relations.values())

    def tuples(self) -> Iterator[tuple[str, tuple[Element, ...]]]:
        """Iterate over ``(relation_name, tuple)`` pairs."""
        for name in sorted(self._relations):
            for t in sorted(self._relations[name], key=repr):
                yield name, t

    def has_tuple(self, name: str, t: tuple[Element, ...]) -> bool:
        """True if ``t`` belongs to the relation named ``name``."""
        return tuple(t) in self.relation(name)

    def is_empty(self) -> bool:
        """True if the universe is empty."""
        return not self._universe

    def elements_in_tuples(self) -> frozenset[Element]:
        """The set of universe elements that occur in at least one tuple."""
        used: set[Element] = set()
        for tuples in self._relations.values():
            for t in tuples:
                used.update(t)
        return frozenset(used)

    def isolated_elements(self) -> frozenset[Element]:
        """Universe elements that occur in no tuple of any relation."""
        return self._universe - self.elements_in_tuples()

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def restrict(self, elements: Iterable[Element]) -> "Structure":
        """The induced substructure on ``elements``.

        Keeps exactly the tuples all of whose entries lie in ``elements``.
        """
        kept = frozenset(elements)
        unknown = kept - self._universe
        if unknown:
            raise StructureError(
                f"cannot restrict to elements not in the universe: {sorted(map(repr, unknown))}"
            )
        relations = {
            name: frozenset(t for t in tuples if all(e in kept for e in t))
            for name, tuples in self._relations.items()
        }
        return Structure._trusted(self._signature, kept, relations)

    def rename(self, mapping: Mapping[Element, Element]) -> "Structure":
        """Apply an injective renaming to the universe.

        Elements absent from ``mapping`` keep their identity.  The
        renaming must not merge distinct elements.
        """
        def image(e: Element) -> Element:
            return mapping.get(e, e)

        new_universe = [image(e) for e in self._universe]
        if len(set(new_universe)) != len(self._universe):
            raise StructureError("rename mapping must be injective on the universe")
        relations = {
            name: [tuple(image(e) for e in t) for t in tuples]
            for name, tuples in self._relations.items()
        }
        return Structure(self._signature, new_universe, relations)

    def with_signature(self, signature: Signature) -> "Structure":
        """Reinterpret this structure over a larger signature.

        New relation symbols are interpreted as empty relations.  The
        given signature must extend the current one.
        """
        if not self._signature.is_subsignature_of(signature):
            raise SignatureError(
                "target signature must extend the structure's signature"
            )
        relations = {
            symbol.name: self._relations.get(symbol.name, frozenset())
            for symbol in signature
        }
        return Structure._trusted(signature, self._universe, relations)

    def add_relation(
        self, symbol: RelationSymbol, tuples: Iterable[tuple[Element, ...]]
    ) -> "Structure":
        """Return a copy with an additional relation.

        The new relation symbol must not clash with an existing one of a
        different arity; if the symbol already exists, the tuples are
        unioned into it.
        """
        signature = self._signature | Signature([symbol])
        relations: dict[str, list[tuple[Element, ...]]] = {
            name: list(ts) for name, ts in self._relations.items()
        }
        relations.setdefault(symbol.name, []).extend(tuple(t) for t in tuples)
        return Structure(signature, self._universe, relations)

    def reduct(self, signature: Signature) -> "Structure":
        """The reduct of this structure to a subsignature."""
        for symbol in signature:
            if self._signature.get(symbol.name) != symbol:
                raise SignatureError(
                    f"cannot take reduct: {symbol} is not in the structure's signature"
                )
        relations = {s.name: self._relations[s.name] for s in signature}
        return Structure._trusted(signature, self._universe, relations)

    # ------------------------------------------------------------------
    # Versioning: delta application
    # ------------------------------------------------------------------
    def apply_delta(self, delta: "StructureDelta") -> "Structure":
        """A new structure version with ``delta``'s tuple batches applied.

        Inserted tuples may mention new elements, which extend the
        universe; deletions never shrink it (elements stay resident once
        seen).  The delta is strict: inserting a tuple that is already
        present, or deleting one that is absent, raises
        :class:`~repro.exceptions.DeltaError` -- so a delta always
        describes the exact difference between the two versions.

        The returned structure's fingerprint is **chained**, not
        recomputed: its digest hashes the parent fingerprint's digest
        plus the delta's canonical encoding, costing ``O(|delta|)``
        instead of ``O(|structure|)``.  Two structures with equal
        content but different delta histories therefore carry different
        fingerprints -- under versioning, identity is (content lineage),
        not content alone, which is exactly what lets caches keyed by
        fingerprint migrate entries per delta instead of rebuilding.
        """
        from repro.exceptions import DeltaError

        if delta.is_empty:
            return self
        relations = dict(self._relations)
        for name in sorted(delta.relations):
            symbol = self._signature.get(name)
            if symbol is None:
                raise SignatureError(
                    f"delta touches relation {name!r}, which is not in the "
                    f"signature {self._signature!r}"
                )
            current = relations[name]
            removed = delta.deletes.get(name, frozenset())
            added = delta.inserts.get(name, frozenset())
            for t in added | removed:
                if len(t) != symbol.arity:
                    raise DeltaError(
                        f"delta tuple {t!r} has arity {len(t)}, but relation "
                        f"{name!r} has arity {symbol.arity}"
                    )
            missing = removed - current
            if missing:
                raise DeltaError(
                    f"delta deletes tuples absent from relation {name!r}: "
                    f"{sorted(map(repr, missing))}"
                )
            present = added & current
            if present:
                raise DeltaError(
                    f"delta inserts tuples already present in relation "
                    f"{name!r}: {sorted(map(repr, present))}"
                )
            # One copy of the relation per non-empty side of the delta.
            if removed:
                current = current - removed
            if added:
                current = current | added
            relations[name] = current
        # The universe only grows; without a new element it is shared.
        universe, mentioned = self._universe, delta.inserted_elements()
        if not mentioned <= universe:
            universe = universe | mentioned

        # Invariants were checked above, so bypass __init__'s full
        # O(|structure|) revalidation and seed the chained fingerprint.
        import hashlib

        parent = self.fingerprint()
        digest = hashlib.blake2b(digest_size=16)
        digest.update(parent[2].encode("ascii"))
        digest.update(delta.canonical_bytes())
        counts = tuple(
            (symbol.name, symbol.arity, len(relations[symbol.name]))
            for symbol in sorted(self._signature, key=lambda s: s.name)
        )
        return Structure._trusted(
            self._signature,
            universe,
            relations,
            fingerprint=(len(universe), counts, digest.hexdigest()),
        )

    # ------------------------------------------------------------------
    # Fingerprinting
    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple[int, tuple, str]:
        """A cheap, process-stable fingerprint of the structure.

        ``(universe size, per-relation (name, arity, tuple count)s,
        content digest)``, where the digest is a BLAKE2 hash of the
        structure's dense-int encoding
        (:meth:`~repro.structures.encoding.EncodedStructure.fingerprint`):
        the ``repr`` of every decode-table entry, then each relation's
        name, arity, row count and sorted columns as little-endian
        ``int64``.  Unlike ``hash()`` (salted per process for strings),
        the fingerprint is identical across processes and runs, so it
        can key caches that outlive a single process -- in particular
        the worker-resident execution context caches of
        :mod:`repro.engine.pool`, which reuse a structure's encoding and
        boundary memos across pool jobs by shipping fingerprints
        instead of rebuilding.

        The encoding the digest reads is kept until an execution
        context adopts it (:meth:`_take_encoding`), so fingerprinting
        a structure and then counting on it interns it once.  A shard
        of :func:`~repro.structures.sharding.shard_structure` carries
        its fingerprint and encoding from birth, and a delta-applied
        structure its chained fingerprint (:meth:`apply_delta`).

        Equal structures always share a fingerprint; distinct structures
        collide only if BLAKE2 collides (or two universe elements share
        a ``repr``), which consumers treat as negligible.
        """
        if self._fingerprint is None:
            from repro.structures.encoding import EncodedStructure

            encoding = EncodedStructure(self)
            self._fingerprint = encoding.fingerprint()
            self._encoding = encoding
        return self._fingerprint

    def _take_encoding(self):
        """Hand the encoding :meth:`fingerprint` built (or a shard was
        born with) to the one execution context that adopts it; ``None``
        when there is none."""
        encoding, self._encoding = self._encoding, None
        return encoding

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return (
            self._signature == other._signature
            and self._universe == other._universe
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self._signature,
                    self._universe,
                    tuple(sorted((k, v) for k, v in self._relations.items())),
                )
            )
        return self._hash

    def __getstate__(self) -> tuple:
        # The hash is salted per process and is not carried; the
        # fingerprint is a content digest and is.
        return self._signature, self._universe, self._relations, self._fingerprint

    def __setstate__(self, state: tuple) -> None:
        self._signature, self._universe, self._relations, self._fingerprint = state
        self._hash = None
        self._encoding = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rels = ", ".join(f"{name}:{len(ts)}" for name, ts in sorted(self._relations.items()))
        return f"Structure(|U|={len(self._universe)}, {rels})"

    def describe(self) -> str:
        """A human-readable multi-line description of the structure."""
        lines = [f"universe ({len(self._universe)}): {sorted(map(repr, self._universe))}"]
        for name in sorted(self._relations):
            tuples = sorted(self._relations[name], key=repr)
            lines.append(f"{name} ({len(tuples)}): {tuples}")
        return "\n".join(lines)


def complete_structure(signature: Signature, domain: Iterable[Element]) -> Structure:
    """The structure interpreting every relation as all tuples over ``domain``.

    This is the structure used in Observation 5.5 of the paper: on it, a
    pp-formula with liberal variables ``V`` has exactly ``|domain|**|V|``
    answers, which pins down the number of liberal variables.
    """
    from itertools import product as iter_product

    elements = list(domain)
    relations = {
        symbol.name: [tuple(t) for t in iter_product(elements, repeat=symbol.arity)]
        for symbol in signature
    }
    return Structure(signature, elements, relations)


def single_loop_structure(signature: Signature, element: Any = "a") -> Structure:
    """The idempotent structure ``I_tau`` from the paper.

    Its universe is a single element and every relation holds the
    all-``element`` tuple.  Every pp-formula has at least one answer on
    it, which makes it the basic building block for the ``B + k.I``
    construction used in Section 5.2.
    """
    relations = {
        symbol.name: [tuple(element for _ in range(symbol.arity))] for symbol in signature
    }
    return Structure(signature, [element], relations)
