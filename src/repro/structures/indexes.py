"""Positional indexes over structure relations.

A :class:`PositionalIndex` stores, for every relation of a structure,
the mapping ``(relation, position, value) -> tuples having value at
position``.  Two consumers share it:

* the homomorphism search (:mod:`repro.structures.homomorphism`) uses it
  for forward checking: as soon as *some* entries of a source tuple are
  assigned, the index tells whether any target tuple is still compatible,
  pruning dead branches long before the tuple is fully assigned;
* the counting engine's execution contexts
  (:mod:`repro.engine.context`) keep one
  :class:`EncodedPositionalIndex` per data structure -- the same lookup
  over the dense-int encoding -- so repeated executions of compiled
  plans against the same structure skip re-scanning the relations.

Building the index is a single pass over the tuples; ``tuples`` and
``matching`` are O(1) dictionary accesses returning frozensets, and
``has_compatible_tuple`` intersects the (pre-sorted-by-size) candidate
sets of the pinned positions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.structures.structure import Element, Structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.structures.encoding import EncodedStructure


class _PositionalLookup:
    """The shared (relation, position, value) lookup machinery.

    Subclasses fill ``_tuples`` (relation name to frozenset of rows) and
    ``_by_position`` (``(relation, position, value)`` to the rows
    carrying ``value`` at ``position``); the lookup methods are
    value-agnostic, so the same code serves object tuples
    (:class:`PositionalIndex`, the query-side and reference searches)
    and dense-int tuples (:class:`EncodedPositionalIndex`, the
    engine's data side).
    """

    __slots__ = ()

    @staticmethod
    def _build_by_position(
        tuples_by_relation: Mapping[str, frozenset],
    ) -> dict[tuple[str, int, Element], frozenset]:
        by_position: dict[tuple[str, int, Element], set] = {}
        for name, tuples in tuples_by_relation.items():
            for t in tuples:
                for position, value in enumerate(t):
                    by_position.setdefault((name, position, value), set()).add(t)
        return {key: frozenset(values) for key, values in by_position.items()}

    def tuples(self, relation: str) -> frozenset[tuple[Element, ...]]:
        """All tuples of ``relation`` (empty frozenset if unknown)."""
        return self._tuples.get(relation, frozenset())

    def matching(
        self, relation: str, position: int, value: Element
    ) -> frozenset[tuple[Element, ...]]:
        """The tuples of ``relation`` carrying ``value`` at ``position``."""
        return self._by_position.get((relation, position, value), frozenset())

    def has_compatible_tuple(
        self, relation: str, fixed: Mapping[int, Element]
    ) -> bool:
        """Is some tuple of ``relation`` compatible with the partial row?

        ``fixed`` maps tuple positions to required values.  With an empty
        ``fixed`` the answer is whether the relation is non-empty.  This
        is the forward-checking primitive: an existence test that never
        materializes the intersection unless more than one position is
        pinned.
        """
        if not fixed:
            return bool(self._tuples.get(relation))
        candidate_sets = [
            self._by_position.get((relation, position, value), frozenset())
            for position, value in fixed.items()
        ]
        candidate_sets.sort(key=len)
        if not candidate_sets[0]:
            return False
        if len(candidate_sets) == 1:
            return True
        survivors = candidate_sets[0]
        for other in candidate_sets[1:]:
            survivors = survivors & other
            if not survivors:
                return False
        return True


class PositionalIndex(_PositionalLookup):
    """An immutable (relation, position, value) index of one structure."""

    __slots__ = ("_structure", "_tuples", "_by_position")

    def __init__(self, structure: Structure):
        self._structure = structure
        self._tuples: dict[str, frozenset[tuple[Element, ...]]] = dict(
            structure.relations
        )
        self._by_position = self._build_by_position(self._tuples)

    @property
    def structure(self) -> Structure:
        """The indexed structure."""
        return self._structure

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PositionalIndex({len(self._tuples)} relations, "
            f"{len(self._by_position)} keys)"
        )


class EncodedPositionalIndex(_PositionalLookup):
    """The positional index over a dense-int encoded structure.

    Same API as :class:`PositionalIndex` but keyed by the encoded
    integer values, so forward checking
    (:meth:`_PositionalLookup.has_compatible_tuple`) during
    backtracking eliminations hashes machine ints instead of arbitrary
    objects.
    """

    __slots__ = ("_encoded", "_tuples", "_by_position")

    def __init__(self, encoded: "EncodedStructure"):
        self._encoded = encoded
        self._tuples: dict[str, frozenset[tuple[int, ...]]] = {
            name: encoded.relation_rows(name) for name in encoded.relations
        }
        self._by_position = self._build_by_position(self._tuples)

    @property
    def encoded(self) -> "EncodedStructure":
        """The indexed encoded structure."""
        return self._encoded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedPositionalIndex({len(self._tuples)} relations, "
            f"{len(self._by_position)} keys)"
        )
