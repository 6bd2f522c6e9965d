"""The trichotomy classifier (Theorems 2.11, 2.12 and 3.2).

The paper classifies the parameterized complexity of ``param-count[Phi]``
for every bounded-arity set ``Phi`` of EP formulas into three cases,
determined by two structural conditions on the associated pp-formula set
``Phi+``:

* **contraction condition** -- the contract graphs of the formulas have
  bounded treewidth;
* **tractability condition** -- the contraction condition holds *and*
  the cores have bounded treewidth.

Case 1 (tractability condition): fixed-parameter tractable.
Case 2 (contraction but not tractability): equivalent to ``p-Clique``.
Case 3 (otherwise): at least as hard as ``p-#Clique``.

"Bounded" is a property of an infinite class, which no finite
computation can decide for an arbitrary class; the classifier therefore
works against an explicit treewidth bound supplied by the caller (the
usual situation: the caller knows or asserts the bound defining their
query class and wants to know which side of the frontier it falls on),
or reports the exact structural parameters so the caller can reason
about how they grow along a family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.algorithms.fpt_counting import PPCountingPlan, compile_pp_plan
from repro.algorithms.treewidth import (
    DEFAULT_EXACT_THRESHOLD,
    _exact_treewidth_value,
    treewidth,
)
from repro.core.ep_to_pp import plus_set
from repro.exceptions import ClassificationError
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula


class Case(Enum):
    """The three outcomes of the trichotomy (Theorem 3.2)."""

    FPT = "fixed-parameter tractable"
    CLIQUE_EQUIVALENT = "equivalent to p-Clique"
    SHARP_CLIQUE_HARD = "at least as hard as p-#Clique"


@dataclass(frozen=True)
class FormulaMeasures:
    """Structural measures of a single pp-formula.

    ``exact`` says both treewidths are exact: the core graph had at
    most :data:`~repro.algorithms.treewidth.DEFAULT_EXACT_THRESHOLD`
    vertices, and so had the contract graph, whose vertices are a
    subset of the core's.  Otherwise they are greedy upper bounds.
    """

    formula: PPFormula
    core_treewidth: int
    contract_treewidth: int
    exact: bool

    @classmethod
    def of(cls, plan: PPCountingPlan) -> "FormulaMeasures":
        """Measure the formula of a compiled pp-plan.

        The one measurer: the classifier (through
        :func:`measure_pp_class`) and the plan profile
        (:func:`repro.engine.plan.profile_plan`) both measure through
        it.  A compiled plan's base is the formula's core and its width
        the contract graph's treewidth, so only the core treewidth is
        computed, by value (no ordering is recovered), under the same
        exact-search cutoff as the plan's width
        (:func:`repro.algorithms.treewidth.treewidth`).
        """
        core_graph = plan.base.graph()
        exact = len(core_graph) <= DEFAULT_EXACT_THRESHOLD
        if exact:
            core_width = _exact_treewidth_value(core_graph)
        else:
            core_width, _ = treewidth(core_graph)
        return cls(
            formula=plan.formula,
            core_treewidth=core_width,
            contract_treewidth=plan.width,
            exact=exact,
        )


@dataclass(frozen=True)
class Classification:
    """The result of classifying a (finite sample of a) query class."""

    case: Case
    treewidth_bound: int
    max_core_treewidth: int
    max_contract_treewidth: int
    measures: tuple[FormulaMeasures, ...]
    pp_formulas: tuple[PPFormula, ...]

    def summary(self) -> str:
        """A one-paragraph human-readable summary."""
        return (
            f"case: {self.case.value}; bound w={self.treewidth_bound}; "
            f"max core treewidth {self.max_core_treewidth}; "
            f"max contract treewidth {self.max_contract_treewidth}; "
            f"{len(self.pp_formulas)} pp-formulas examined"
        )


def trichotomy_case(
    core_treewidth: int, contract_treewidth: int, treewidth_bound: int
) -> Case:
    """The Theorem 3.2 verdict from a class's largest core and contract
    treewidths against ``treewidth_bound``: the one place the three
    cases are decided."""
    if contract_treewidth > treewidth_bound:
        return Case.SHARP_CLIQUE_HARD
    if core_treewidth > treewidth_bound:
        return Case.CLIQUE_EQUIVALENT
    return Case.FPT


def measure_pp_class(formulas: Sequence[PPFormula]) -> list[FormulaMeasures]:
    """Compute core and contract treewidths for a collection of
    pp-formulas: each is compiled (:func:`compile_pp_plan`) and its plan
    measured (:meth:`FormulaMeasures.of`)."""
    return [FormulaMeasures.of(compile_pp_plan(formula)) for formula in formulas]


def classify_pp_class(
    formulas: Sequence[PPFormula],
    treewidth_bound: int,
) -> Classification:
    """Classify a class of prenex pp-formulas (Theorems 2.11 / 2.12).

    ``formulas`` is the class (or a representative finite sample of it),
    ``treewidth_bound`` the bound defining "bounded treewidth" for this
    class.
    """
    if not formulas:
        raise ClassificationError("cannot classify an empty class of formulas")
    measures = measure_pp_class(formulas)
    max_core = max(m.core_treewidth for m in measures)
    max_contract = max(m.contract_treewidth for m in measures)
    return Classification(
        case=trichotomy_case(max_core, max_contract, treewidth_bound),
        treewidth_bound=treewidth_bound,
        max_core_treewidth=max_core,
        max_contract_treewidth=max_contract,
        measures=tuple(measures),
        pp_formulas=tuple(formulas),
    )


def classify_ep_class(
    queries: Sequence[EPFormula],
    treewidth_bound: int,
) -> Classification:
    """Classify a class of EP formulas via the equivalence theorem (Theorem 3.2).

    Computes ``Phi+`` (the union of the ``phi+`` sets) and applies the
    pp-classification to it; by Theorem 3.1 the complexity of counting
    answers to the EP class is exactly that of the pp class.
    """
    if not queries:
        raise ClassificationError("cannot classify an empty class of queries")
    pp_formulas: list[PPFormula] = []
    seen: set[PPFormula] = set()
    for query in queries:
        for formula in plus_set(query):
            if formula not in seen:
                seen.add(formula)
                pp_formulas.append(formula)
    if not pp_formulas:
        # Degenerate: every query reduced to an empty plus set (e.g. the
        # queries are unsatisfiable-free tautologies); counting is trivially FPT.
        return Classification(
            case=Case.FPT,
            treewidth_bound=treewidth_bound,
            max_core_treewidth=-1,
            max_contract_treewidth=-1,
            measures=(),
            pp_formulas=(),
        )
    return classify_pp_class(pp_formulas, treewidth_bound)


def classify_query(
    query: EPFormula | PPFormula,
    treewidth_bound: int = 2,
) -> Classification:
    """Classify the singleton class containing one query.

    A single query is always fixed-parameter tractable in the formal
    sense (the parameter is constant); the classification is still
    informative because its structural measures tell how the query's
    family scales -- this is the per-query report used by the examples.
    """
    if isinstance(query, PPFormula):
        return classify_pp_class([query], treewidth_bound)
    return classify_ep_class([query], treewidth_bound)


def classify(
    query: EPFormula | PPFormula | str,
    treewidth_bound: int = 2,
) -> Classification:
    """Classify one query (string queries are parsed first).

    The convenience entry point exported at the package root: accepts
    the same query forms as :func:`repro.count_answers` and returns the
    full :class:`Classification` (verdict, measures, witnesses).
    """
    if isinstance(query, str):
        from repro.logic.parser import parse_query

        query = parse_query(query)
    return classify_query(query, treewidth_bound=treewidth_bound)
