"""Algebraic operations on relational structures.

The proofs in the paper repeatedly use three constructions:

* the **direct product** ``A x B`` (Example 4.3 and the Vandermonde
  argument rely on ``|phi(A x B)| = |phi(A)| * |phi(B)|`` for
  pp-formulas),
* the **disjoint union** ``A + B`` and the special case ``B + k.I``
  where ``I`` is the one-element idempotent structure (Section 5.2), and
* **powers** ``C^l`` of a structure (the right-hand sides of the linear
  systems range over ``B x C^l`` for ``l = 0, 1, 2, ...``).

All operations produce plain :class:`~repro.structures.structure.Structure`
objects; product elements are tuples of the factor elements and
disjoint-union elements are ``(index, element)`` pairs, so results stay
hashable and printable.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

from repro.exceptions import SignatureError, StructureError
from repro.logic.signatures import Signature
from repro.structures.structure import Element, Structure, single_loop_structure


def _common_signature(structures: Sequence[Structure]) -> Signature:
    if not structures:
        raise StructureError("need at least one structure")
    signature = structures[0].signature
    for other in structures[1:]:
        if other.signature != signature:
            raise SignatureError(
                "all structures must share the same signature; "
                f"got {signature!r} and {other.signature!r}"
            )
    return signature


def direct_product(*structures: Structure) -> Structure:
    """The direct (categorical) product of one or more structures.

    The universe is the cartesian product of the universes, and a tuple
    of product elements is in a relation exactly when it is in the
    relation coordinate-wise.  For every pp-formula ``phi``,
    ``|phi(A x B)| = |phi(A)| * |phi(B)|``.
    """
    signature = _common_signature(structures)
    if len(structures) == 1:
        return structures[0]
    universe = [tuple(combo) for combo in iter_product(*(sorted(s.universe, key=repr) for s in structures))]
    relations: dict[str, list[tuple[Element, ...]]] = {}
    for symbol in signature:
        tuples: list[tuple[Element, ...]] = []
        factor_tuples = [sorted(s.relation(symbol.name), key=repr) for s in structures]
        for combo in iter_product(*factor_tuples):
            # combo is one tuple from each factor; zip them position-wise.
            tuples.append(tuple(zip(*combo)))
        relations[symbol.name] = tuples
    return Structure(signature, universe, relations)


def power(structure: Structure, exponent: int) -> Structure:
    """The ``exponent``-th direct power of a structure.

    ``power(C, 0)`` is the one-element structure in which every relation
    contains the all-``()`` tuple -- the neutral element of the product,
    so that ``B x C^0`` is isomorphic to ``B``.
    """
    if exponent < 0:
        raise StructureError("exponent must be non-negative")
    if exponent == 0:
        return single_loop_structure(structure.signature, element=())
    result = structure
    for _ in range(exponent - 1):
        result = direct_product(result, structure)
    return result


def disjoint_union(*structures: Structure) -> Structure:
    """The disjoint union of one or more structures over the same signature.

    Elements of the ``i``-th summand become pairs ``(i, element)``.
    """
    signature = _common_signature(structures)
    universe: list[Element] = []
    relations: dict[str, list[tuple[Element, ...]]] = {s.name: [] for s in signature}
    for index, structure in enumerate(structures):
        universe.extend((index, e) for e in structure.universe)
        for symbol in signature:
            for t in structure.relation(symbol.name):
                relations[symbol.name].append(tuple((index, e) for e in t))
    return Structure(signature, universe, relations)


def add_idempotent_copies(structure: Structure, count: int) -> Structure:
    """The structure ``B + k.I`` from Section 5.2 of the paper.

    ``I`` is the one-element structure in which every relation holds its
    single reflexive tuple; adding ``count`` disjoint copies of it to
    ``structure`` guarantees that every pp-formula has at least one
    answer, while the answer counts become polynomials in ``count``
    whose coefficients reveal the per-component counts (proof of
    Theorem 5.9).
    """
    if count < 0:
        raise StructureError("count must be non-negative")
    if count == 0:
        return structure
    copies = [
        single_loop_structure(structure.signature, element=f"i{k}") for k in range(count)
    ]
    return disjoint_union(structure, *copies)


def relabel_to_integers(structure: Structure) -> Structure:
    """Return an isomorphic copy whose universe is ``0 .. n-1``.

    Useful after chains of products and unions, whose element names grow
    into deeply nested tuples.  The relabeling is deterministic (elements
    are sorted by their ``repr``).
    """
    ordered = sorted(structure.universe, key=repr)
    mapping = {element: index for index, element in enumerate(ordered)}
    relations = {
        name: [tuple(mapping[e] for e in t) for t in tuples]
        for name, tuples in structure.relations.items()
    }
    return Structure(structure.signature, range(len(ordered)), relations)


