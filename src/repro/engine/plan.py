"""Compiling queries into reusable, structure-independent counting plans.

A :class:`CountingPlan` captures *everything* the paper's pipeline
derives from the query alone: the computed cores, the eliminated
∃-components with their elimination groups
(:class:`~repro.algorithms.fpt_counting.PPCountingPlan` per pp-formula,
the sentence disjuncts' included), and the cancelled inclusion-exclusion
terms with their coefficients.  Compiling is the expensive half of a
``count_answers`` call; executing a compiled plan against a structure
(:mod:`repro.engine.executor`) touches only the data-dependent half.

There is one pipeline, and the query's shape picks its branch: a
primitive positive query compiles to one Theorem 2.11 plan
(``pp-fpt``), any other EP query to the Section 5.4 ``phi+`` reduction
of Theorem 3.1 (``ep-plus``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Union

from repro.algorithms.fpt_counting import PPCountingPlan, compile_pp_plan
from repro.obs import trace as _trace
from repro.core.ep_to_pp import plus_decomposition
from repro.core.inclusion_exclusion import DEFAULT_MAX_DISJUNCTS
from repro.exceptions import ReproError
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.logic.pp import PPFormula

Query = Union[EPFormula, PPFormula, str]

#: The kinds of compiled plans, one per branch of the pipeline.
PLAN_KINDS = ("pp-fpt", "ep-plus")

#: The treewidth bound the trichotomy verdict is taken against when the
#: caller does not supply one (paths/trees are in, cliques are out).
DEFAULT_TREEWIDTH_BOUND = 2


@dataclass(frozen=True)
class PlanProfile:
    """The complexity profile of a compiled plan.

    Computed once per compiled plan and cached with it in the plan
    cache, so routing a request by its verdict is a field read, never a
    classification.

    Attributes
    ----------
    case:
        The trichotomy verdict (:class:`repro.core.classification.Case`)
        of the measured pp-formulas (the query's ``phi+``) against
        ``treewidth_bound``.
    treewidth_bound:
        The bound the verdict was taken against.
    contract_treewidth / core_treewidth:
        The largest contract-graph / core treewidth among the measured
        pp-formulas.  Upper bounds when ``exact`` is false.
    component_count:
        The largest number of ∃-components among the compiled pp-plans.
    pp_formula_count:
        How many pp-formulas were measured: ``|phi+|``, one for
        ``pp-fpt``, the surviving inclusion-exclusion terms plus the
        sentence disjuncts for ``ep-plus``.
    arity:
        The number of liberal variables -- the answer arity.
    exact:
        True when every measured core graph was small enough for the
        exact treewidth algorithm (a contract graph's vertices are a
        subset of its core's); false when the greedy upper bound stood
        in (measures are then upper bounds, still sound for routing
        since the verdict can only harden).
    classify_seconds:
        Wall-clock time profiling cost (included in the plan's
        ``compile_seconds``).
    """

    case: "Case"
    treewidth_bound: int
    contract_treewidth: int
    core_treewidth: int
    component_count: int
    pp_formula_count: int
    arity: int
    exact: bool
    classify_seconds: float = field(default=0.0, compare=False)

    def case_for(self, treewidth_bound: int) -> "Case":
        """Re-derive the verdict against a different treewidth bound.

        The stored measures make this a pair of comparisons, so a
        per-request policy with its own bound never re-classifies.
        """
        from repro.core.classification import trichotomy_case

        return trichotomy_case(
            self.core_treewidth, self.contract_treewidth, treewidth_bound
        )

    def estimated_cost(self, universe_size: int) -> float:
        """A structure-size-parameterized cost estimate.

        Summing the liberal variables out along a width-``w``
        decomposition costs ``O(n ** (w + 1))`` per pp-formula; the
        estimate is that,
        summed over the measured formulas:
        ``pp_formula_count * universe_size ** (contract_treewidth + 1)``.
        A relative measure for routing and budgeting, not a promise of
        wall-clock seconds.
        """
        n = max(2, int(universe_size))
        width = max(0, self.contract_treewidth)
        return float(max(1, self.pp_formula_count)) * float(n) ** (width + 1)

    def estimate_count(self, universe_size: int) -> int:
        """The degraded-path estimator: ``universe_size ** arity``.

        **Estimator contract** (relied on by the ``degrade`` policy and
        its tests): the value is a deterministic upper bound on the
        exact answer count -- every answer assigns the ``arity``
        liberal variables values from the universe, so there are at
        most ``universe_size ** arity`` of them.  For FPT-verdict plans
        the degraded path never engages (execution completes within
        budget), so degraded responses equal exact counts there.
        """
        return int(universe_size) ** max(0, self.arity)

    def as_dict(self) -> dict:
        """The wire form used by ``POST /classify`` and 422 bodies."""
        return {
            "case": self.case.name,
            "verdict": self.case.value,
            "treewidth_bound": self.treewidth_bound,
            "contract_treewidth": self.contract_treewidth,
            "core_treewidth": self.core_treewidth,
            "component_count": self.component_count,
            "pp_formula_count": self.pp_formula_count,
            "arity": self.arity,
            "exact": self.exact,
        }


def as_ep(query: Query) -> EPFormula:
    """Interpret strings / pp-formulas / EP formulas uniformly as EP."""
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, PPFormula):
        return EPFormula.from_pp(query)
    if isinstance(query, EPFormula):
        return query
    raise ReproError(f"cannot interpret {query!r} as a query")


@dataclass(frozen=True)
class WeightedPPPlan:
    """One inclusion-exclusion term: ``coefficient * |plan.formula(B)|``."""

    coefficient: int
    plan: PPCountingPlan


@dataclass(frozen=True)
class CountingPlan:
    """A fully compiled, structure-independent counting plan.

    Attributes
    ----------
    kind:
        The execution kind, one of :data:`PLAN_KINDS`:

        * ``"pp-fpt"`` -- a single compiled Theorem 2.11 plan;
        * ``"ep-plus"`` -- compiled sentence disjuncts plus the
          cancelled inclusion-exclusion combination of compiled
          pp-plans.
    pp:
        The compiled pp-plan (``kind == "pp-fpt"``).
    sentence_disjuncts:
        The compiled pp-sentence disjuncts (``kind == "ep-plus"``).
        Their liberal variables occur in no atom, so each counts
        ``|B| ** |V|`` on a structure it holds on and 0 elsewhere; one
        that holds makes that the plan's count.
    terms:
        The surviving (``phi-_af``) inclusion-exclusion terms, each with
        its coefficient and compiled pp-plan (``kind == "ep-plus"``).
    liberal_count:
        ``|V|``: the exponent of the ``|B| ** |V|`` shortcut.
    profile:
        The memoized :class:`PlanProfile` -- trichotomy verdict,
        structural measures, cost estimate.  :func:`compile_plan`
        always attaches it; only the bare plan :func:`profile_plan`
        measures has none.
    compile_seconds:
        Wall-clock time spent compiling the plan (profiling included).
    """

    kind: str
    pp: PPCountingPlan | None = None
    sentence_disjuncts: tuple[PPCountingPlan, ...] = ()
    terms: tuple[WeightedPPPlan, ...] = ()
    liberal_count: int = 0
    profile: PlanProfile | None = field(default=None, compare=False)
    compile_seconds: float = field(default=0.0, compare=False)

    @property
    def max_width(self) -> int:
        """The largest contract-graph width among the compiled pp-plans."""
        widths = [t.plan.width for t in self.terms]
        if self.pp is not None:
            widths.append(self.pp.width)
        return max(widths, default=-1)

    def describe(self) -> str:
        """A short human-readable summary of the plan."""
        if self.kind == "pp-fpt":
            detail = f"width={self.pp.width}" if self.pp else ""
        else:
            detail = (
                f"{len(self.sentence_disjuncts)} sentences, "
                f"{len(self.terms)} terms, max width={self.max_width}"
            )
        return f"CountingPlan(kind={self.kind}, {detail})"


@lru_cache(maxsize=256)
def _component_plans_for(base: PPFormula) -> tuple[
    tuple[PPCountingPlan, ...], tuple[PPCountingPlan, ...]
]:
    liberal_plans: list[PPCountingPlan] = []
    sentence_plans: list[PPCountingPlan] = []
    for component in base.components():
        # The base is already cored; recomputing cores per component
        # would only repeat work, so compile the piece as-is.
        piece = compile_pp_plan(component, use_core=False)
        (liberal_plans if component.is_liberal() else sentence_plans).append(piece)
    return tuple(liberal_plans), tuple(sentence_plans)


def component_pp_plans(
    plan: PPCountingPlan,
) -> tuple[tuple[PPCountingPlan, ...], tuple[PPCountingPlan, ...]]:
    """Split a compiled pp-plan along the query's connected components.

    Returns ``(liberal_plans, sentence_plans)``: one compiled sub-plan
    per connected component of the plan's base formula, those with a
    liberal variable first, then the pp-sentence components (each
    counting 1 where it holds and 0 elsewhere).  Answer
    counts multiply over query components (Section 2.1), which is what
    lets the sharded executor sum each connected piece over
    disjoint-universe shards independently.  Memoized on the base
    formula, so the split is compiled once per plan however many shards
    or structures it runs against.
    """
    return _component_plans_for(plan.base)


def compile_plan(
    query: Query,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
) -> CountingPlan:
    """Compile ``query`` into a :class:`CountingPlan`.

    The query's shape picks the kind: a primitive positive query becomes
    one Theorem 2.11 plan (``pp-fpt``), anything else the Section 5.4
    construction (``ep-plus``), whose inclusion-exclusion expansion
    ``max_disjuncts`` bounds.
    """
    started = time.perf_counter()
    if isinstance(query, PPFormula):
        pp = query
    else:
        query = as_ep(query)
        pp = query.to_pp() if query.is_primitive_positive() else None

    if pp is not None:
        plan = CountingPlan(
            kind="pp-fpt",
            pp=compile_pp_plan(pp),
            liberal_count=len(pp.liberal),
        )
    else:
        # General EP query: the Section 5.4 construction over the
        # query's own disjuncts, with every surviving term compiled
        # down to a Theorem 2.11 plan.
        decomposition = plus_decomposition(query.disjuncts(), max_disjuncts=max_disjuncts)
        minus = set(decomposition.minus)
        terms = tuple(
            WeightedPPPlan(term.coefficient, compile_pp_plan(term.formula))
            for term in decomposition.star.terms
            if term.formula in minus
        )
        plan = CountingPlan(
            kind="ep-plus",
            sentence_disjuncts=tuple(
                compile_pp_plan(s) for s in decomposition.sentence_disjuncts
            ),
            terms=terms,
            liberal_count=len(decomposition.liberal),
        )

    profile = profile_plan(plan)
    return replace(
        plan,
        profile=profile,
        compile_seconds=time.perf_counter() - started,
    )


def profile_plan(
    plan: CountingPlan,
    treewidth_bound: int = DEFAULT_TREEWIDTH_BOUND,
) -> PlanProfile:
    """Compute the :class:`PlanProfile` of a compiled plan.

    The measured pp-formulas are the query's ``phi+`` (Theorem 3.2):
    the single pp-formula of a ``pp-fpt`` plan; the surviving
    inclusion-exclusion terms *and* the sentence disjuncts of an
    ``ep-plus`` plan.  Each is measured off its compiled pp-plan by
    the classifier's own measurer
    (:meth:`~repro.core.classification.FormulaMeasures.of`), so
    profiling compiles nothing.
    """
    from repro.core.classification import FormulaMeasures, trichotomy_case

    started = time.perf_counter()
    with _trace.span("plan.classify", kind=plan.kind) as span:
        pp_plans = [plan.pp] if plan.pp is not None else [t.plan for t in plan.terms]
        measures = [
            FormulaMeasures.of(pp) for pp in pp_plans + list(plan.sentence_disjuncts)
        ]
        # No measured formula (every term cancelled) reads -1: FPT.
        max_core = max((m.core_treewidth for m in measures), default=-1)
        max_contract = max((m.contract_treewidth for m in measures), default=-1)
        profile = PlanProfile(
            case=trichotomy_case(max_core, max_contract, treewidth_bound),
            treewidth_bound=treewidth_bound,
            contract_treewidth=max_contract,
            core_treewidth=max_core,
            component_count=max((len(pp.components) for pp in pp_plans), default=0),
            pp_formula_count=len(measures),
            arity=plan.liberal_count,
            exact=all(m.exact for m in measures),
            classify_seconds=time.perf_counter() - started,
        )
        span.set("verdict", profile.case.name)
        span.set("contract_treewidth", profile.contract_treewidth)
        span.set("core_treewidth", profile.core_treewidth)
        return profile
