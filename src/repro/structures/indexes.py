"""Positional indexes over structure relations.

A :class:`PositionalIndex` stores, for every relation of a structure,
the mapping ``(relation, position, value) -> tuples having value at
position``.  The homomorphism search
(:mod:`repro.structures.homomorphism`) uses it for forward checking:
as soon as *some* entries of a source tuple are assigned, the index
tells whether any target tuple is still compatible, pruning dead
branches long before the tuple is fully assigned.

Building the index is a single pass over the tuples; ``tuples`` and
``matching`` are O(1) dictionary accesses returning frozensets, and
``has_compatible_tuple`` intersects the (pre-sorted-by-size) candidate
sets of the pinned positions.

Like the search it serves, the index is a reference: no count of the
engine builds one.
"""

from __future__ import annotations

from typing import Mapping

from repro.structures.structure import Element, Structure


class PositionalIndex:
    """An immutable (relation, position, value) index of one structure."""

    __slots__ = ("_structure", "_tuples", "_by_position")

    def __init__(self, structure: Structure):
        self._structure = structure
        self._tuples: dict[str, frozenset[tuple[Element, ...]]] = dict(
            structure.relations
        )
        by_position: dict[tuple[str, int, Element], set] = {}
        for name, tuples in self._tuples.items():
            for t in tuples:
                for position, value in enumerate(t):
                    by_position.setdefault((name, position, value), set()).add(t)
        self._by_position: dict[tuple[str, int, Element], frozenset] = {
            key: frozenset(values) for key, values in by_position.items()
        }

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PositionalIndex({len(self._tuples)} relations, "
            f"{len(self._by_position)} keys)"
        )
