"""Brute-force counting of query answers.

These are the reference implementations every other algorithm is tested
against.  They are exponential in the number of variables of the query
(and, for the fully naive variant, enumerate all ``|B|^|V|``
assignments), but they implement the semantics directly from the
definitions, with no clever rewriting, which makes them trustworthy
baselines for both tests and benchmarks.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Mapping

from repro.budget import current_budget
from repro.exceptions import FormulaError
from repro.logic.ep import EPFormula
from repro.logic.formulas import AtomicFormula, And, Exists, Formula, Or, Truth
from repro.logic.pp import PPFormula
from repro.logic.terms import Variable
from repro.structures.homomorphism import (
    count_extendable_assignments,
    has_homomorphism,
)
from repro.structures.structure import Element, Structure


def satisfies(
    structure: Structure,
    assignment: Mapping[Variable, Element],
    formula: Formula,
) -> bool:
    """Model checking: does ``structure, assignment |= formula``?

    ``assignment`` must cover the free variables of ``formula``.  The
    evaluation follows the semantics of existential positive first-order
    logic directly; existential quantifiers are evaluated by trying
    every universe element (one step of the ambient
    :class:`~repro.budget.CostBudget` per tuple tried).
    """
    if isinstance(formula, Truth):
        return True
    if isinstance(formula, AtomicFormula):
        atom = formula.atom
        try:
            image = tuple(assignment[v] for v in atom.arguments)
        except KeyError as missing:
            raise FormulaError(
                f"assignment does not cover variable {missing.args[0]!r}"
            ) from None
        if atom.relation not in structure.signature:
            return False
        return image in structure.relation(atom.relation)
    if isinstance(formula, And):
        return all(satisfies(structure, assignment, child) for child in formula.operands)
    if isinstance(formula, Or):
        return any(satisfies(structure, assignment, child) for child in formula.operands)
    if isinstance(formula, Exists):
        variables = formula.variables
        elements = sorted(structure.universe, key=repr)
        base = dict(assignment)
        budget = current_budget()
        for values in iter_product(elements, repeat=len(variables)):
            if budget is not None:
                budget.charge()
            base.update(zip(variables, values))
            if satisfies(structure, base, formula.body):
                return True
        return False
    raise FormulaError(f"unsupported formula node {formula!r}")


def enumerate_answers_naive(query: EPFormula, structure: Structure) -> Iterable[dict[Variable, Element]]:
    """Enumerate the answers of an EP query by trying every assignment.

    An answer is an assignment of the *liberal* variables; the iteration
    order is deterministic (lexicographic in the sorted variable names
    and sorted universe elements).  Each candidate assignment charges
    one step of the ambient :class:`~repro.budget.CostBudget`, so a
    budget or deadline policy can stop the oracle too.
    """
    variables = sorted(query.liberal, key=lambda v: v.name)
    elements = sorted(structure.universe, key=repr)
    budget = current_budget()
    for values in iter_product(elements, repeat=len(variables)):
        if budget is not None:
            budget.charge()
        assignment = dict(zip(variables, values))
        if satisfies(structure, assignment, query.ast):
            yield assignment


def count_answers_naive(query: EPFormula, structure: Structure) -> int:
    """Count answers of an EP query by exhaustive enumeration.

    This is the most direct -- and slowest -- implementation of
    ``|phi(B)|``; it enumerates all ``|B|^|liberal|`` assignments.
    """
    return sum(1 for _ in enumerate_answers_naive(query, structure))


def count_pp_answers_brute_force(formula: PPFormula, structure: Structure) -> int:
    """Count answers to a prenex pp-formula by component-wise search.

    Uses the fact (Section 2.1) that the answer count of a pp-formula is
    the product of the answer counts of its components:

    * a component with no liberal variables contributes ``1`` if it is
      satisfiable on the structure and ``0`` otherwise;
    * a component whose liberal variables occur in no atom contributes
      ``|B|`` per such variable;
    * any other component is counted by enumerating the extendable
      assignments of its liberal variables (backtracking search).
    """
    total = 1
    for component in formula.components():
        if total == 0:
            return 0
        if not component.is_liberal():
            if component.atom_count == 0:
                # An empty non-liberal component: purely quantified
                # variables with no atoms; satisfiable iff the universe
                # is non-empty (or there are no variables at all).
                if component.variables and structure.is_empty():
                    return 0
                continue
            if not has_homomorphism(component.structure, structure):
                return 0
            continue
        if component.atom_count == 0:
            # Isolated liberal variables: |B| choices each, but a
            # quantified variable in the same component (impossible:
            # no atoms means each variable is its own component) -- so
            # the component is a single liberal variable.
            total *= len(structure.universe) ** len(component.liberal)
            continue
        total *= count_extendable_assignments(
            component.structure, structure, component.liberal
        )
    return total


def count_ep_answers_by_disjuncts(query: EPFormula, structure: Structure) -> int:
    """Count answers to an EP query by unioning the disjuncts' answer sets.

    Materializes the union of the answer sets of the pp-disjuncts (a
    set of assignment tuples), so memory is proportional to the answer
    count.  Faster than :func:`count_answers_naive` when answers are
    sparse; used as a second, independently-implemented baseline.
    """
    liberal = sorted(query.liberal, key=lambda v: v.name)
    seen: set[tuple[Element, ...]] = set()
    elements = sorted(structure.universe, key=repr)
    for disjunct in query.disjuncts():
        constrained = [v for v in liberal if v in disjunct.free_variables]
        unconstrained = [v for v in liberal if v not in disjunct.free_variables]
        # Enumerate extendable assignments of the constrained variables,
        # then pad with every combination of the unconstrained ones.
        from repro.structures.homomorphism import enumerate_extendable_assignments

        satisfiable_sentences = all(
            has_homomorphism(component.structure, structure)
            for component in disjunct.components()
            if not component.is_liberal() and component.atom_count > 0
        )
        if not satisfiable_sentences:
            continue
        if structure.is_empty() and disjunct.variables:
            continue
        core_part = disjunct.hat()
        for partial in enumerate_extendable_assignments(
            core_part.structure, structure, constrained
        ):
            if unconstrained:
                for values in iter_product(elements, repeat=len(unconstrained)):
                    full = dict(partial)
                    full.update(zip(unconstrained, values))
                    seen.add(tuple(full[v] for v in liberal))
            else:
                seen.add(tuple(partial[v] for v in liberal))
    return len(seen)
