"""Cores and augmented structures.

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
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import StructureError
from repro.logic.signatures import RelationSymbol, Signature
from repro.structures.homomorphism import (
    find_homomorphism,
    has_homomorphism,
    homomorphic_equivalent,
)
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


def strip_augmentation(structure: Structure) -> Structure:
    """Remove the singleton relations added by :func:`augmented_structure`."""
    kept = Signature(s for s in structure.signature if not s.name.startswith(AUGMENT_PREFIX))
    return structure.reduct(kept)


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
    """Compute a core of ``structure``.

    One pass over the elements in ``repr`` order: each element still
    present is tried once, and when the current structure maps
    homomorphically into its substructure without that element, the
    current structure is retracted onto the image.  The result is an
    induced substructure that is a core and is homomorphically
    equivalent to the input (cores are unique up to isomorphism).

    One try per element suffices.  Suppose ``current`` has no
    homomorphism to ``current - e``, and ``C'`` is a later retract of
    it (so ``current -> C'`` and ``C' ⊆ current``).  Then ``C'`` has no
    homomorphism to ``C' - e`` either, since ``current -> C' -> C' - e
    ⊆ current - e`` would compose into one.  So an element that fails
    once fails for good, and restarting the pass after every
    retraction would retry only failures: this pass makes the same
    retractions, with the same homomorphisms, in the same order, and
    ends at the same core.

    Elements of a relation's only tuple are never tried: without them
    that relation is empty in the smaller structure, so no homomorphism
    exists.  The singleton relation ``@lib_a = {(a,)}`` of an augmented
    structure pins its liberal variable ``a`` this way, so the searches
    number at most the quantified elements.
    """
    pinned = {
        element
        for tuples in structure.relations.values()
        if len(tuples) == 1
        for t in tuples
        for element in t
    }
    current = structure
    for element in sorted(structure.universe, key=repr):
        if element in pinned or element not in current.universe:
            continue
        smaller = current.restrict(current.universe - {element})
        hom = find_homomorphism(current, smaller)
        if hom is not None:
            # Retract: the image of the current structure inside the
            # smaller one is again hom-equivalent to the original.
            current = current.restrict({hom[e] for e in current.universe})
    return current


def core_of_pp_structure(structure: Structure, liberal: Iterable[Element]) -> Structure:
    """The core of the pp-formula ``(structure, liberal)``.

    Computes the core of the augmented structure and strips the
    augmentation relations, so the result is again a structure over the
    original signature whose universe contains all liberal variables
    (liberal variables can never be dropped, because their singleton
    relations pin them in place).
    """
    augmented = augmented_structure(structure, liberal)
    return strip_augmentation(core(augmented))


def are_homomorphically_equivalent(first: Structure, second: Structure) -> bool:
    """True if each structure maps homomorphically into the other."""
    return homomorphic_equivalent(first, second)


def is_isomorphic(first: Structure, second: Structure) -> bool:
    """Exact isomorphism test via injective-homomorphism search.

    Used only on formula-sized structures (cores), where the universes
    are small.
    """
    if first.signature != second.signature:
        return False
    if len(first.universe) != len(second.universe):
        return False
    if any(
        len(first.relation(name)) != len(second.relation(name))
        for name in first.signature.names
    ):
        return False
    # An isomorphism is a bijective homomorphism whose inverse is a
    # homomorphism.  Enumerate homomorphisms and filter.
    from repro.structures.homomorphism import enumerate_homomorphisms

    for hom in enumerate_homomorphisms(first, second):
        image = set(hom.values())
        if len(image) != len(first.universe):
            continue
        inverse = {v: k for k, v in hom.items()}
        from repro.structures.homomorphism import is_homomorphism

        if is_homomorphism(inverse, second, first):
            return True
    return False
