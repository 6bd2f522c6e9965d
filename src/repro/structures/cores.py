"""Cores and augmented structures, searched on one int form.

A structure is a *core* if it is not homomorphically equivalent to any
proper substructure of itself; a *core of* a structure ``A`` is a
substructure of ``A`` that is a core and is homomorphically equivalent
to ``A``.  All cores of a structure are isomorphic, so one speaks of
"the" core.

For a prenex pp-formula ``(A, S)`` the paper works with the *augmented
structure* ``aug(A, S)``: the expansion of ``A`` by one fresh singleton
relation ``R_a = {(a,)}`` per liberal variable ``a in S``.  Homomorphisms
between augmented structures are exactly the homomorphisms that fix the
liberal variables pointwise, which is what logical entailment between
pp-formulas with the same liberal variables requires (Theorem 2.3).  The
*core of the pp-formula* is defined as the core of its augmented
structure.

The searches behind cores, entailment and renaming equivalence run on
an :class:`IntForm`: the formula numbered once, with its liberal
variables pinned to themselves instead of marked by singleton
relations.  They visit the assignments the positional-index search
(:class:`~repro.structures.homomorphism._HomomorphismSearch`) visits
on the augmented structures, in the same order, so they find the same
homomorphisms.
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable, Iterator

from repro.budget import current_budget
from repro.exceptions import StructureError
from repro.logic.signatures import RelationSymbol
from repro.structures.homomorphism import has_homomorphism
from repro.structures.structure import Element, Structure

#: Prefix used for the singleton relations of augmented structures.  The
#: prefix is chosen so it cannot clash with user relation names produced
#: by the parser (which forbids ``@`` in identifiers).
AUGMENT_PREFIX = "@lib_"


def augment_relation_name(variable: Element) -> str:
    """The name of the singleton relation marking a liberal variable."""
    return f"{AUGMENT_PREFIX}{variable}"


def augmented_structure(structure: Structure, liberal: Iterable[Element]) -> Structure:
    """The augmented structure ``aug(A, S)`` of a pp-formula ``(A, S)``.

    Adds, for every liberal variable ``a``, a unary relation containing
    exactly ``(a,)``.  The liberal variables must be elements of the
    structure's universe.
    """
    liberal_set = frozenset(liberal)
    missing = liberal_set - structure.universe
    if missing:
        raise StructureError(
            f"liberal variables {sorted(map(repr, missing))} are not in the universe"
        )
    result = structure
    for variable in sorted(liberal_set, key=repr):
        symbol = RelationSymbol(augment_relation_name(variable), 1)
        result = result.add_relation(symbol, [(variable,)])
    return result


class IntForm:
    """A formula-sized structure numbered once, for the searches on it.

    ``elements[i]`` is the element numbered ``i`` (numbers follow
    ``repr`` order, never set order); ``atoms`` holds every tuple as
    ``(relation, int row)``, sorted per relation, and ``masks[k]`` the
    bitmask of atom ``k``'s elements.  ``positions[name][p][v]`` is the
    bitmask of the atoms of ``name`` holding ``v`` at position ``p``,
    so a search restricted to a subset of the elements filters atoms by
    mask instead of building a substructure.  ``liberal`` numbers the
    liberal variables, which every augmented search pins to themselves;
    ``pinned`` marks the elements a core keeps without a search: the
    liberal ones and those of a relation's only tuple.
    """

    __slots__ = ("elements", "liberal", "atoms", "masks", "positions", "pinned")

    def __init__(self, structure: Structure, liberal: Iterable[Element] = ()):
        self.elements = sorted(structure.universe, key=repr)
        rank = {element: index for index, element in enumerate(self.elements)}
        #: Each liberal variable and its number.
        self.liberal = {variable: rank[variable] for variable in liberal}
        self.atoms: list[tuple[str, tuple[int, ...]]] = []
        self.masks: list[int] = []
        self.positions: dict[str, list[dict[int, int]]] = {}
        pinned = 0
        for x in self.liberal.values():
            pinned |= 1 << x
        for name, tuples in structure.relations.items():
            if not tuples:
                continue
            rows = sorted([tuple([rank[e] for e in t]) for t in tuples])
            by_value: list[dict[int, int]] = [{} for _ in rows[0]]
            for row in rows:
                bit = 1 << len(self.atoms)
                mask = 0
                for position, value in enumerate(row):
                    by_value[position][value] = by_value[position].get(value, 0) | bit
                    mask |= 1 << value
                self.atoms.append((name, row))
                self.masks.append(mask)
            self.positions[name] = by_value
            if len(rows) == 1:
                pinned |= self.masks[-1]
        self.pinned = pinned

    @property
    def full(self) -> int:
        """The bitmask of all elements."""
        return (1 << len(self.elements)) - 1

    def members(self, alive: int) -> list[Element]:
        """The elements in the bitmask ``alive``."""
        return [e for index, e in enumerate(self.elements) if alive >> index & 1]

    def core(self) -> int:
        """The bitmask of the core's elements.

        One pass over the elements in ``repr`` order: each element still
        present is tried once, and when the current structure maps
        homomorphically into its substructure without that element, the
        current structure is retracted onto the image.  The result is an
        induced substructure that is a core and is homomorphically
        equivalent to the input (cores are unique up to isomorphism).

        One try per element suffices.  Suppose ``current`` has no
        homomorphism to ``current - e``, and ``C'`` is a later retract
        of it (so ``current -> C'`` and ``C' ⊆ current``).  Then ``C'``
        has no homomorphism to ``C' - e`` either, since ``current -> C'
        -> C' - e ⊆ current - e`` would compose into one.  So an element
        that fails once fails for good, and restarting the pass after
        every retraction would retry only failures: this pass makes the
        same retractions, with the same homomorphisms, in the same
        order, and ends at the same core.

        Pinned elements are never tried.  Without an element of a
        relation's only tuple that relation is empty in the smaller
        structure, so no homomorphism exists; a liberal variable is
        pinned to itself.  So the searches number at most the
        quantified elements.
        """
        alive = self.full
        search = _Search(self, alive, self)
        for element in range(len(self.elements)):
            bit = 1 << element
            if self.pinned & bit or not alive & bit:
                continue
            if search.into(alive & ~bit).extend(0):
                # Retract: the image of the current structure inside the
                # smaller one is again hom-equivalent to the original.
                alive = 0
                for x in search.order:
                    alive |= 1 << search.assignment[x]
                search = _Search(self, alive, self)
        return alive

    def invariant(self) -> Hashable:
        """A cheap isomorphism invariant of the liberal-marked structure.

        The liberal count, the element count, the per-relation atom
        counts and the sorted multiset of ``(is liberal, Gaifman
        degree)`` pairs.
        """
        liberal = set(self.liberal.values())
        neighbours = [0] * len(self.elements)
        for _, row in self.atoms:
            mask = 0
            for x in row:
                mask |= 1 << x
            for x in row:
                neighbours[x] |= mask
        degrees = sorted(
            (x in liberal, (mask & ~(1 << x)).bit_count())
            for x, mask in enumerate(neighbours)
        )
        atom_counts = sorted(Counter(name for name, _ in self.atoms).items())
        return (len(self.liberal), len(self.elements), tuple(atom_counts), tuple(degrees))


class _Search:
    """A homomorphism search from ``source`` into ``target``, each
    restricted to the elements of a bitmask.

    It visits the assignments the positional-index search
    (:class:`~repro.structures.homomorphism._HomomorphismSearch`)
    visits between the induced substructures: the most constrained
    element first (a pinned liberal variable counts its singleton
    relation), ties by number, i.e. ``repr``; candidates in number
    order; and an element's value is kept only while every atom
    through it still has a target atom agreeing on the assigned
    positions.  So it finds the same first homomorphism, and charges
    the ambient budget at the same nodes.  With ``pin`` each liberal
    variable of the source may only map to the same variable of the
    target, as between augmented structures.  ``lead`` elements come
    first in the order (:meth:`leads`).

    The order and the atoms to check depend on the source side alone,
    so one search is aimed at several target subsets in turn
    (:meth:`into`), as a core tries one element after another.
    """

    __slots__ = (
        "target", "order", "pins", "checks", "lead",
        "candidates", "targets", "assignment", "width", "budget",
    )

    def __init__(
        self,
        source: IntForm,
        source_alive: int,
        target: IntForm,
        pin: bool = True,
        lead: frozenset[int] = frozenset(),
    ):
        constraints: dict[int, list] = {
            x: [] for x in range(len(source.elements)) if source_alive >> x & 1
        }
        for (name, row), mask in zip(source.atoms, source.masks):
            if mask & ~source_alive:
                continue
            check = (target.positions.get(name), row)
            for x in set(row):
                constraints[x].append(check)
        # A pinned element's one candidate: its target variable, or -1
        # if the target lacks it.
        pins: dict[int, int] = {}
        if pin:
            for variable, x in source.liberal.items():
                pins[x] = target.liberal.get(variable, -1)
        order = sorted(constraints, key=lambda x: (-len(constraints[x]) - (x in pins), x))
        if lead:
            order = [x for x in order if x in lead] + [x for x in order if x not in lead]
        self.target = target
        self.order = order
        self.pins = [pins.get(x) for x in order]
        self.checks = [constraints[x] for x in order]
        self.lead = len(lead)
        self.assignment = [-1] * len(source.elements)

    def into(self, target_alive: int) -> "_Search":
        """Aim the search at the target's elements in ``target_alive``."""
        targets = 0
        for atom, mask in enumerate(self.target.masks):
            if not mask & ~target_alive:
                targets |= 1 << atom
        values = [v for v in range(len(self.target.elements)) if target_alive >> v & 1]
        self.candidates = [
            values if pin is None else [pin] if pin >= 0 and target_alive >> pin & 1 else []
            for pin in self.pins
        ]
        self.targets = targets
        self.width = len(values)
        self.budget = current_budget()
        return self

    def _consistent(self, depth: int) -> bool:
        assignment = self.assignment
        for by_value, row in self.checks[depth]:
            if by_value is None:
                return False
            matching = self.targets
            for atoms, x in zip(by_value, row):
                value = assignment[x]
                if value >= 0:
                    matching &= atoms.get(value, 0)
                    if not matching:
                        return False
        return True

    def extend(self, depth: int) -> bool:
        """Extend the assignment of ``order[:depth]`` to every element;
        on success the assignment holds the first homomorphism found."""
        if depth == len(self.order):
            return True
        if self.budget is not None:
            self.budget.charge(self.width)
        x = self.order[depth]
        for value in self.candidates[depth]:
            self.assignment[x] = value
            if self._consistent(depth) and self.extend(depth + 1):
                return True
        self.assignment[x] = -1
        return False

    def leads(self, depth: int = 0) -> Iterator[None]:
        """Stop at each assignment of the lead elements that extends to
        a homomorphism (held in ``assignment`` while stopped)."""
        if depth == self.lead:
            if self.extend(depth):
                yield
                for x in self.order[depth:]:
                    self.assignment[x] = -1
            return
        if self.budget is not None:
            self.budget.charge(self.width)
        x = self.order[depth]
        for value in self.candidates[depth]:
            self.assignment[x] = value
            if self._consistent(depth):
                yield from self.leads(depth + 1)
        self.assignment[x] = -1


def maps_into(source: IntForm, target: IntForm) -> bool:
    """Is there a homomorphism ``aug(source) -> aug(target)``, i.e. one
    fixing the liberal variables?"""
    return _Search(source, source.full, target).into(target.full).extend(0)


def surjective_renaming(source: IntForm, target: IntForm) -> dict | None:
    """A map from the liberal variables of ``source`` onto those of
    ``target`` that extends to a homomorphism of the (unaugmented)
    structures, or ``None``.

    The witnesses come in the order
    :func:`~repro.structures.homomorphism.find_surjective_renaming`
    enumerates them, so the first is the same.
    """
    if len(source.liberal) < len(target.liberal):
        return None
    search = _Search(
        source, source.full, target, pin=False, lead=frozenset(source.liberal.values())
    ).into(target.full)
    lead = search.order[: search.lead]
    onto = set(target.liberal.values())
    for _ in search.leads():
        if {search.assignment[x] for x in lead} == onto:
            return {
                source.elements[x]: target.elements[search.assignment[x]] for x in lead
            }
    return None


def is_core(structure: Structure) -> bool:
    """Decide whether ``structure`` is a core.

    A structure is a core iff every homomorphism from it to itself is
    surjective (equivalently, it has no homomorphism to a proper induced
    substructure).  The check enumerates proper substructures obtained by
    dropping one element at a time, which suffices: if a retraction to a
    smaller substructure exists, one exists to a substructure missing
    some particular element.
    """
    for element in structure.universe:
        smaller = structure.restrict(structure.universe - {element})
        if has_homomorphism(structure, smaller):
            return False
    return True


def core(structure: Structure) -> Structure:
    """Compute a core of ``structure`` (see :meth:`IntForm.core`).

    The result is the induced substructure on the core's elements, and
    ``structure`` itself when nothing retracts.
    """
    form = IntForm(structure)
    alive = form.core()
    if alive == form.full:
        return structure
    return structure.restrict(form.members(alive))
