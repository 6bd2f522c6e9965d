"""Inclusion-exclusion with cancellation (Section 5.3, Proposition 5.16).

For an all-free EP formula ``phi = phi_1 | ... | phi_s`` (each disjunct a
free pp-formula over the same liberal variables), given as the tuple of
its disjuncts, and any structure
``B``::

    |phi(B)| = sum over non-empty J of (-1)^(|J|+1) * |phi_J(B)|

where ``phi_J`` is the conjunction of the disjuncts indexed by ``J``.
The raw expansion has ``2^s - 1`` terms; the paper's Proposition 5.16
merges counting-equivalent terms (summing their coefficients) and drops
zero coefficients, which can cancel precisely the high-treewidth terms
(Example 4.2 / 5.15).  The surviving formulas form the set ``phi*``.

The module exposes both the raw expansion and the cancelled form, as
:class:`LinearCombination` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from repro.core.equivalence import group_by_counting_equivalence
from repro.exceptions import FormulaError
from repro.logic.pp import PPFormula, conjoin_all
from repro.logic.terms import Variable
from repro.structures.structure import Structure

#: A callable that counts answers to a pp-formula on a structure.
PPCounter = Callable[[PPFormula, Structure], int]

#: Safety limit on the number of disjuncts: the expansion has 2^s - 1 terms.
DEFAULT_MAX_DISJUNCTS = 16


@dataclass(frozen=True)
class Term:
    """One weighted pp-formula ``coefficient * |formula(B)|``."""

    coefficient: int
    formula: PPFormula


@dataclass(frozen=True)
class LinearCombination:
    """An integer linear combination of pp-formula answer counts.

    Evaluating the combination on a structure with any correct
    pp-counting backend yields the answer count of the EP formula the
    combination was derived from.
    """

    terms: tuple[Term, ...]

    def formulas(self) -> tuple[PPFormula, ...]:
        """The distinct pp-formulas appearing in the combination."""
        return tuple(term.formula for term in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def max_treewidth(self) -> int:
        """The largest (heuristic/exact) treewidth among the term formulas.

        Shows that cancellation can remove all high-treewidth terms
        (Example 4.2).
        """
        from repro.algorithms.treewidth import treewidth

        width = -1
        for term in self.terms:
            term_width, _ = treewidth(term.formula.graph())
            width = max(width, term_width)
        return width


def raw_inclusion_exclusion(
    disjuncts: Sequence[PPFormula], max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
) -> LinearCombination:
    """The uncancelled inclusion-exclusion expansion of an all-free
    disjunction.

    ``disjuncts`` are free pp-formulas over one liberal set; their
    quantified variables are standardized apart before any two are
    conjoined.  Produces one term per non-empty subset of disjuncts,
    with coefficient ``(-1)^(|J|+1)``.  Raises if there are more than
    ``max_disjuncts`` disjuncts (the expansion is exponential).
    """
    if not disjuncts:
        raise FormulaError("the formula has no disjuncts")
    if not all(d.is_free() for d in disjuncts):
        raise FormulaError(
            "inclusion-exclusion expansion requires an all-free EP formula; "
            "use repro.core.ep_to_pp for the general construction"
        )
    if len(disjuncts) > max_disjuncts:
        raise FormulaError(
            f"refusing to expand {len(disjuncts)} disjuncts "
            f"(limit {max_disjuncts}); raise max_disjuncts explicitly if intended"
        )
    taken: set[Variable] = set()
    apart: list[PPFormula] = []
    for index, formula in enumerate(disjuncts):
        formula = formula.standardize_apart(taken, prefix=f"q{index}_")
        taken |= formula.variables
        apart.append(formula)
    terms: list[Term] = []
    indices = range(len(apart))
    for size in range(1, len(apart) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(indices, size):
            conjunction = conjoin_all([apart[i] for i in subset])
            terms.append(Term(sign, conjunction))
    return LinearCombination(tuple(terms))


def cancel(combination: LinearCombination) -> LinearCombination:
    """Merge counting-equivalent terms and drop zero coefficients.

    This is the cancellation step of Proposition 5.16: identical or
    counting-equivalent formulas yield the same count on every
    structure, so their coefficients may be summed; terms whose summed
    coefficient is zero vanish from the combination entirely.
    """
    groups = group_by_counting_equivalence([term.formula for term in combination.terms])
    coefficient_of: dict[int, int] = {}
    representative_of_formula: dict[PPFormula, int] = {}
    representatives: list[PPFormula] = []
    for group_index, group in enumerate(groups):
        representatives.append(group[0])
        for formula in group:
            representative_of_formula.setdefault(formula, group_index)
        coefficient_of[group_index] = 0
    for term in combination.terms:
        group_index = representative_of_formula[term.formula]
        coefficient_of[group_index] += term.coefficient
    surviving = [
        Term(coefficient_of[index], representatives[index])
        for index in range(len(representatives))
        if coefficient_of[index] != 0
    ]
    return LinearCombination(tuple(surviving))


def star_decomposition(
    disjuncts: Sequence[PPFormula], max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
) -> LinearCombination:
    """The cancelled decomposition ``|phi(B)| = sum c_i |phi*_i(B)|``.

    The formulas of the result are the set ``phi*`` of Proposition 5.16:
    pairwise not counting equivalent free pp-formulas with non-zero
    integer coefficients.
    """
    return cancel(raw_inclusion_exclusion(disjuncts, max_disjuncts=max_disjuncts))

