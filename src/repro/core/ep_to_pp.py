"""The general EP-to-PP construction ``phi -> phi+`` (Section 5.4).

Section 5.3 handles *all-free* EP formulas (every disjunct has a free
variable) through inclusion-exclusion; Section 5.4 lifts the result to
arbitrary EP formulas, whose disjuncts may also be pp-*sentences*.  The
construction, for a normalized EP formula ``phi`` with liberal variables
``V``:

* ``phi_af`` -- the all-free part: the disjunction of the free disjuncts;
* ``phi*_af`` -- the set from Proposition 5.16 applied to ``phi_af``;
* ``phi-_af`` -- the formulas of ``phi*_af`` that do **not** logically
  entail any sentence disjunct of ``phi``;
* ``phi+`` -- the union of ``phi-_af`` with the sentence disjuncts.

Theorem 3.1 states that counting answers to ``phi`` and counting answers
to the formulas of ``phi+`` are interreducible; the reductions
themselves live in :mod:`repro.core.oracle_reduction`.  This module
computes the sets from the formula's prenex pp-disjuncts and states the
forward counting algorithm (:func:`count_ep_answers_via_plus`).
:func:`repro.core.counting.count_answers` runs the same algorithm on a
compiled plan through the engine's executor
(:mod:`repro.engine.executor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.inclusion_exclusion import (
    DEFAULT_MAX_DISJUNCTS,
    LinearCombination,
    PPCounter,
    star_decomposition,
)
from repro.exceptions import FormulaError
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.logic.terms import Variable
from repro.structures.homomorphism import has_homomorphism
from repro.structures.structure import Structure


def normalize(disjuncts: Sequence[PPFormula]) -> tuple[PPFormula, ...]:
    """A normalized, logically equivalent tuple of disjuncts.

    Normalization (Section 2.1) removes every disjunct that logically
    entails some *other* sentence disjunct: whenever that sentence
    disjunct is true the entailing disjunct adds nothing, and the
    result satisfies the paper's normalization condition (no
    homomorphism from a sentence disjunct's augmented structure into
    any other disjunct's).  Duplicate logically-equivalent sentence
    disjuncts collapse to one, equal copies included: membership is
    tested by identity, so a dropped copy never drops the copy that is
    kept.  One pass suffices: entailment is transitive, so a disjunct
    entailing a sentence that was itself dropped entails the sentence
    that dropped it.
    """
    kept = list(disjuncts)
    for sentence in [d for d in disjuncts if d.is_sentence()]:
        if any(d is sentence for d in kept):
            kept = [d for d in kept if d is sentence or not d.entails(sentence)]
    return tuple(kept)


@dataclass(frozen=True)
class PlusDecomposition:
    """The full output of the Section 5.4 construction for one EP formula.

    Attributes
    ----------
    liberal:
        The liberal variables ``V`` the count is taken over.
    sentence_disjuncts:
        The pp-sentence disjuncts of the normalized formula.
    star:
        The cancelled inclusion-exclusion combination of the all-free
        part (empty when the formula has no free disjunct).
    minus:
        ``phi-_af``: the star formulas that entail no sentence disjunct.
    plus:
        ``phi+ = phi-_af ∪ sentence_disjuncts``.
    """

    liberal: frozenset[Variable]
    sentence_disjuncts: tuple[PPFormula, ...]
    star: LinearCombination
    minus: tuple[PPFormula, ...]
    plus: tuple[PPFormula, ...]


def plus_decomposition(
    disjuncts: Sequence[PPFormula], max_disjuncts: int = DEFAULT_MAX_DISJUNCTS
) -> PlusDecomposition:
    """Compute ``phi+`` and the associated bookkeeping (Section 5.4).

    ``disjuncts`` are the prenex pp-disjuncts of ``phi``
    (:meth:`~repro.logic.ep.EPFormula.disjuncts`), all over one liberal
    set.  They are normalized first (Section 2.1): disjuncts that
    entail a sentence disjunct are dropped, which both matches the
    paper's assumption and keeps the inclusion-exclusion expansion
    small.
    """
    if not disjuncts:
        raise FormulaError("an EP formula needs at least one disjunct")
    normalized = normalize(disjuncts)
    sentences = tuple(d for d in normalized if d.is_sentence())
    free = tuple(d for d in normalized if d.is_free())
    if free:
        star = star_decomposition(free, max_disjuncts=max_disjuncts)
    else:
        star = LinearCombination(())
    minus = tuple(
        formula
        for formula in star.formulas()
        if not any(formula.entails(sentence) for sentence in sentences)
    )
    return PlusDecomposition(
        liberal=disjuncts[0].liberal,
        sentence_disjuncts=sentences,
        star=star,
        minus=minus,
        plus=minus + sentences,
    )


def plus_set(query: EPFormula, max_disjuncts: int = DEFAULT_MAX_DISJUNCTS) -> tuple[PPFormula, ...]:
    """The set ``phi+`` of prenex pp-formulas from Theorem 3.1."""
    return plus_decomposition(query.disjuncts(), max_disjuncts=max_disjuncts).plus


def sentence_holds(sentence: PPFormula, structure: Structure) -> bool:
    """Does the pp-sentence hold on the structure?

    Equivalent to the existence of a homomorphism from the sentence's
    structure view into the data structure.  A reference, by the
    homomorphism search: the engine evaluates a sentence as a compiled
    pp-plan counting 0 or 1.
    """
    if structure.is_empty():
        return not sentence.variables
    return has_homomorphism(sentence.structure, structure)


def count_ep_answers_via_plus(
    query: EPFormula,
    structure: Structure,
    counter: PPCounter,
    decomposition: PlusDecomposition | None = None,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> int:
    """Count answers to an arbitrary EP formula via its ``phi+`` decomposition.

    This is the forward direction of the equivalence theorem, exactly as
    in the proof of Theorem 3.1 (Appendix A):

    1. if some sentence disjunct holds on the structure, every
       assignment of the liberal variables is an answer, so the count is
       ``|B| ** |V|``;
    2. otherwise the formula agrees with its all-free part, whose count
       is the cancelled inclusion-exclusion combination; queries for
       star formulas that entail a (currently false) sentence disjunct
       are answered ``0`` without consulting the backend.

    ``counter`` is the pp-counting backend used for the ``phi-_af``
    formulas.  A reference for the proof's algorithm: the engine runs
    the same recombination from a compiled plan
    (:func:`repro.engine.plan.compile_plan`).
    """
    if decomposition is None:
        decomposition = plus_decomposition(query.disjuncts(), max_disjuncts=max_disjuncts)
    liberal = decomposition.liberal
    for sentence in decomposition.sentence_disjuncts:
        if sentence_holds(sentence, structure):
            return len(structure.universe) ** len(liberal)
    minus = set(decomposition.minus)
    total = 0
    for term in decomposition.star.terms:
        if term.formula in minus:
            total += term.coefficient * counter(term.formula, structure)
        # Formulas outside phi-_af entail some sentence disjunct, which we
        # just checked to be false on the structure, so their count is 0.
    return total
