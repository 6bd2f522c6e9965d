"""Homomorphisms between relational structures.

A homomorphism from ``A`` to ``B`` is a map ``h`` on universes such that
every tuple of every relation of ``A`` is mapped to a tuple of the same
relation of ``B``.  Homomorphisms are the computational heart of the
library:

* an answer to a prenex pp-formula ``(A, S)`` on ``B`` is a map
  ``S -> B`` that extends to a homomorphism ``A -> B``;
* logical entailment and equivalence of pp-formulas reduce to
  homomorphism existence between augmented structures (Theorem 2.3);
* counting equivalence reduces to the existence of *surjective*
  renamings extendable to homomorphisms (Theorem 5.4).

The solver is a backtracking search with forward checking over
per-element candidate sets, which is exact and fast enough for the
formula-sized structures that appear as parameters.  Structures that
play the role of data can be large; they only ever appear on the
right-hand side, where they contribute to candidate sets, not to the
branching factor.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.budget import current_budget
from repro.exceptions import SignatureError, StructureError
from repro.structures.indexes import PositionalIndex
from repro.structures.structure import Element, Structure

Assignment = dict[Element, Element]


def _check_compatible(source: Structure, target: Structure) -> None:
    if not source.signature.is_subsignature_of(target.signature):
        raise SignatureError(
            "source signature must be a subsignature of the target signature"
        )


class _HomomorphismSearch:
    """Backtracking search for homomorphisms from ``source`` to ``target``.

    The search maintains, for every source element, the set of target
    elements it may still be mapped to (its *candidates*).  Assigning an
    element triggers forward checking: for every tuple of the source all
    of whose other entries are already assigned, the candidates of the
    remaining entry are pruned to those completing the tuple inside the
    target relation.
    """

    def __init__(
        self,
        source: Structure,
        target: Structure,
        fixed: Mapping[Element, Element] | None = None,
        target_index: PositionalIndex | None = None,
    ):
        _check_compatible(source, target)
        self.source = source
        self.target = target
        self.elements = sorted(source.universe, key=repr)
        self.target_elements = sorted(target.universe, key=repr)
        # The target relations indexed by (relation, position, value);
        # callers that evaluate many searches against the same target
        # (the engine executor) pass a shared prebuilt index.
        if target_index is None:
            target_index = PositionalIndex(target)
        self._index = target_index
        self._target_tuples = {name: target_index.tuples(name) for name in source.signature.names}
        # Constraints: for each source element, the tuples it participates in.
        self._constraints: dict[Element, list[tuple[str, tuple[Element, ...]]]] = {
            e: [] for e in self.elements
        }
        for name, tuples in source.relations.items():
            for t in tuples:
                for e in set(t):
                    self._constraints[e].append((name, t))
        self.fixed = dict(fixed or {})
        for key, value in self.fixed.items():
            if key not in source.universe:
                raise StructureError(f"fixed element {key!r} is not in the source universe")
            if value not in target.universe:
                raise StructureError(f"fixed image {value!r} is not in the target universe")

    # ------------------------------------------------------------------
    def _consistent(self, assignment: Assignment, element: Element, value: Element) -> bool:
        """Check all constraints of ``element`` against the target index.

        Fully assigned tuples are exact membership tests; partially
        assigned tuples are forward-checked: the branch is cut as soon as
        no target tuple is compatible with the assigned positions.
        """
        assignment[element] = value
        try:
            for name, t in self._constraints[element]:
                if all(e in assignment for e in t):
                    image = tuple(assignment[e] for e in t)
                    if image not in self._target_tuples[name]:
                        return False
                else:
                    fixed = {
                        position: assignment[e]
                        for position, e in enumerate(t)
                        if e in assignment
                    }
                    if not self._index.has_compatible_tuple(name, fixed):
                        return False
            return True
        finally:
            del assignment[element]

    def _order(self) -> list[Element]:
        """Assign most-constrained elements first."""
        return sorted(
            self.elements,
            key=lambda e: (-len(self._constraints[e]), repr(e)),
        )

    def solutions(self, restrict_to: frozenset[Element] | None = None) -> Iterator[Assignment]:
        """Yield homomorphisms (as dicts); optionally project to a subset.

        When ``restrict_to`` is given, the iterator yields each distinct
        restriction of a homomorphism to ``restrict_to`` exactly once.
        """
        order = self._order()
        if restrict_to is not None:
            # Assign the projection variables first so that distinct
            # projections can be enumerated without exploring all
            # extensions more than once.
            order = sorted(order, key=lambda e: (e not in restrict_to,))
        assignment: Assignment = {}
        seen_projections: set[tuple[tuple[Element, Element], ...]] = set()
        budget = current_budget()

        def candidates(element: Element) -> Iterable[Element]:
            if element in self.fixed:
                return [self.fixed[element]]
            return self.target_elements

        def backtrack(index: int) -> Iterator[Assignment]:
            if restrict_to is not None and index > 0:
                # If all projection variables are assigned, we only need to
                # know whether *some* extension exists.
                if all(e in assignment for e in restrict_to) and index < len(order):
                    projection = tuple(sorted(((e, assignment[e]) for e in restrict_to), key=repr))
                    if projection in seen_projections:
                        return
                    if _extends(order[index:], dict(assignment)):
                        seen_projections.add(projection)
                        yield {e: assignment[e] for e in restrict_to}
                    return
            if index == len(order):
                if restrict_to is None:
                    yield dict(assignment)
                else:
                    projection = tuple(sorted(((e, assignment[e]) for e in restrict_to), key=repr))
                    if projection not in seen_projections:
                        seen_projections.add(projection)
                        yield {e: assignment[e] for e in restrict_to}
                return
            element = order[index]
            if budget is not None:
                budget.charge(len(self.target_elements))
            for value in candidates(element):
                if self._consistent(assignment, element, value):
                    assignment[element] = value
                    yield from backtrack(index + 1)
                    del assignment[element]

        def _extends(remaining: list[Element], partial: Assignment) -> bool:
            if not remaining:
                return True
            element = remaining[0]
            if budget is not None:
                budget.charge(len(self.target_elements))
            for value in candidates(element):
                if self._consistent(partial, element, value):
                    partial[element] = value
                    if _extends(remaining[1:], partial):
                        del partial[element]
                        return True
                    del partial[element]
            return False

        yield from backtrack(0)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def find_homomorphism(
    source: Structure,
    target: Structure,
    fixed: Mapping[Element, Element] | None = None,
    target_index: PositionalIndex | None = None,
) -> Assignment | None:
    """Return a homomorphism from ``source`` to ``target`` or ``None``.

    ``fixed`` pins the images of selected source elements; this is how
    the library checks whether a partial assignment of liberal variables
    extends to a full homomorphism.  ``target_index`` supplies a prebuilt
    :class:`PositionalIndex` of the target, amortizing the indexing cost
    over many searches against the same structure.
    """
    search = _HomomorphismSearch(source, target, fixed, target_index)
    for solution in search.solutions():
        return solution
    return None


def has_homomorphism(
    source: Structure,
    target: Structure,
    fixed: Mapping[Element, Element] | None = None,
    target_index: PositionalIndex | None = None,
) -> bool:
    """True if a homomorphism from ``source`` to ``target`` exists."""
    return find_homomorphism(source, target, fixed, target_index) is not None


def enumerate_homomorphisms(
    source: Structure,
    target: Structure,
    fixed: Mapping[Element, Element] | None = None,
    target_index: PositionalIndex | None = None,
) -> Iterator[Assignment]:
    """Iterate over all homomorphisms from ``source`` to ``target``."""
    return _HomomorphismSearch(source, target, fixed, target_index).solutions()


def count_homomorphisms(
    source: Structure,
    target: Structure,
    fixed: Mapping[Element, Element] | None = None,
    target_index: PositionalIndex | None = None,
) -> int:
    """Count the homomorphisms from ``source`` to ``target``.

    This is a brute-force count, a reference for the treewidth-aware
    variable elimination :func:`repro.algorithms.csp.count_solutions_tables`.
    """
    return sum(1 for _ in enumerate_homomorphisms(source, target, fixed, target_index))


def enumerate_extendable_assignments(
    source: Structure,
    target: Structure,
    variables: Iterable[Element],
    target_index: PositionalIndex | None = None,
) -> Iterator[Assignment]:
    """Enumerate maps ``variables -> target`` extendable to homomorphisms.

    ``variables`` must be a subset of the universe of ``source``.  Each
    distinct extendable restriction is produced exactly once; this is
    the answer set of the pp-formula ``(source, variables)`` on
    ``target``, restricted to the variables that occur in the source.
    """
    restrict = frozenset(variables)
    unknown = restrict - source.universe
    if unknown:
        raise StructureError(
            f"projection variables {sorted(map(repr, unknown))} are not in the source universe"
        )
    search = _HomomorphismSearch(source, target, target_index=target_index)
    return search.solutions(restrict_to=restrict)


def count_extendable_assignments(
    source: Structure,
    target: Structure,
    variables: Iterable[Element],
    target_index: PositionalIndex | None = None,
) -> int:
    """Count the maps ``variables -> target`` extendable to homomorphisms."""
    return sum(
        1
        for _ in enumerate_extendable_assignments(source, target, variables, target_index)
    )


def is_homomorphism(
    mapping: Mapping[Element, Element], source: Structure, target: Structure
) -> bool:
    """Check whether ``mapping`` is a homomorphism from ``source`` to ``target``."""
    _check_compatible(source, target)
    for element in source.universe:
        if element not in mapping:
            return False
        if mapping[element] not in target.universe:
            return False
    for name, tuples in source.relations.items():
        target_tuples = target.relation(name)
        for t in tuples:
            if tuple(mapping[e] for e in t) not in target_tuples:
                return False
    return True


def find_surjective_renaming(
    source: Structure,
    target: Structure,
    source_vars: Iterable[Element],
    target_vars: Iterable[Element],
) -> Assignment | None:
    """Find a surjection ``source_vars -> target_vars`` extendable to a homomorphism.

    This is the witness required by renaming equivalence (Definition 5.3
    in the paper): a surjective map between the liberal-variable sets
    that extends to a full homomorphism between the formula structures.
    Returns the restriction of such a homomorphism to ``source_vars``,
    or ``None`` if no witness exists.
    """
    source_set = frozenset(source_vars)
    target_set = frozenset(target_vars)
    if len(source_set) < len(target_set):
        return None
    search = _HomomorphismSearch(source, target)
    for restriction in search.solutions(restrict_to=source_set):
        image = {restriction[v] for v in source_set}
        if target_set <= image and image <= target_set:
            return restriction
    return None


def homomorphic_equivalent(first: Structure, second: Structure) -> bool:
    """True if the structures are homomorphically equivalent."""
    return has_homomorphism(first, second) and has_homomorphism(second, first)

