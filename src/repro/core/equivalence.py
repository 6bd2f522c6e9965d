"""Counting equivalence of primitive positive formulas (Theorem 5.4).

Two formulas ``phi1(V1)``, ``phi2(V2)`` over the same vocabulary are
*counting equivalent* if ``|phi1(B)| = |phi2(B)|`` for every finite
structure ``B``.  The paper's Theorem 5.4 characterizes this semantic
notion syntactically for pp-formulas: they are counting equivalent if
and only if they are *renaming equivalent*, i.e. there are surjections
``h : V1 -> V2`` and ``h' : V2 -> V1`` between the liberal-variable sets
that extend to homomorphisms between the formula structures (in the
respective directions).

The syntactic characterization is what makes the notion usable inside
the inclusion-exclusion machinery: it is decidable (indeed in NP), and
this module implements the decision procedure together with helpers for
grouping formulas into counting-equivalence classes.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.logic.pp import PPFormula
from repro.structures.cores import surjective_renaming


def renaming_witness(first: PPFormula, second: PPFormula) -> dict | None:
    """A surjection ``lib(first) -> lib(second)`` extendable to a homomorphism.

    Returns the restriction of such a homomorphism to the liberal
    variables of ``first``, or ``None`` if no witness exists.  This is
    one half of renaming equivalence (Definition 5.3).
    """
    # The union raises on a relation of two arities.
    first.signature | second.signature
    return surjective_renaming(first.form(), second.form())


def renaming_equivalent(first: PPFormula, second: PPFormula) -> bool:
    """Decide renaming equivalence (Definition 5.3).

    Both directions are required: a surjection ``lib(first) ->
    lib(second)`` extendable to a homomorphism of the structures, and
    symmetrically.  Since the surjections force ``|lib(first)| =
    |lib(second)|``, both witnesses are in fact bijections.
    """
    if len(first.liberal) != len(second.liberal):
        return False
    if renaming_witness(first, second) is None:
        return False
    return renaming_witness(second, first) is not None


def counting_equivalent(first: PPFormula, second: PPFormula) -> bool:
    """Decide counting equivalence of two pp-formulas (Theorem 5.4).

    By the paper's characterization this is exactly renaming
    equivalence, so the check is purely syntactic/algebraic -- no
    structure is ever evaluated.
    """
    return renaming_equivalent(first, second)


def core_invariant(core: PPFormula) -> Hashable:
    """A cheap isomorphism invariant of a liberal-pinned core.

    The liberal count, the variable count, the non-zero per-relation
    atom counts and the sorted multiset of ``(is liberal, Gaifman
    degree)`` pairs, read off the core's int form
    (:meth:`~repro.structures.cores.IntForm.invariant`).
    Renaming-equivalent formulas have cores that are isomorphic by a
    map sending liberal variables onto liberal variables (the witnesses
    of Definition 5.3, restricted to the cores, are mutually inverse up
    to an automorphism), so they always share the invariant; formulas
    with different invariants are never counting equivalent.
    """
    return core.form().invariant()


def group_by_counting_equivalence(
    formulas: Sequence[PPFormula],
) -> list[list[PPFormula]]:
    """Partition formulas into counting-equivalence classes.

    The result is a list of groups; within each group all formulas are
    pairwise counting equivalent, and formulas in different groups are
    not.  Group order follows first appearance.

    Each formula's core is filed under its :func:`core_invariant`, and
    the exact :func:`renaming_equivalent` search runs only against the
    group cores of the same bucket.  A formula and its core are
    renaming equivalent (each maps into the other fixing the liberal
    variables), so comparing cores decides the same relation as
    comparing the formulas, on smaller structures.
    """
    groups: list[list[PPFormula]] = []
    buckets: dict[Hashable, list[tuple[PPFormula, list[PPFormula]]]] = {}
    for formula in formulas:
        core = formula.core()
        bucket = buckets.setdefault(core_invariant(core), [])
        for group_core, group in bucket:
            if renaming_equivalent(core, group_core):
                group.append(formula)
                break
        else:
            group = [formula]
            groups.append(group)
            bucket.append((core, group))
    return groups
