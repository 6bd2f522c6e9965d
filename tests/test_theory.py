"""The paper's identities, checked through every engine route.

One seeded matrix of ``pytest.param`` cells; a failing cell's id names
the seed, the parameter and the route.  The clique reduction: on a
symmetric loop-free graph every k-clique gives ``k!`` answers of the
all-liberal k-clique query, so ``answers_to_clique_count`` of any
route's count must be the #Clique baseline ``count_cliques``.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.algorithms.clique import answers_to_clique_count, clique_query, count_cliques
from repro.core.classification import measure_pp_class, trichotomy_case
from repro.core.equivalence import group_by_counting_equivalence, renaming_equivalent
from repro.core.inclusion_exclusion import raw_inclusion_exclusion
from repro.engine import Engine
from repro.engine.plan import PROFILE_EXACT_THRESHOLD, compile_plan
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.structures.random_gen import random_graph
from repro.workloads.generators import (
    cycle_query,
    example_4_1_query,
    example_4_2_query,
    example_5_21_query,
    frontier_query_pair,
    grid_query,
    hidden_clique_query,
    path_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)

SEEDS = (0, 1, 2)
CLIQUE_SIZES = (2, 3, 4)
ROUTES = ("count", "sharded-sequential", "sharded-parallel-ref")


def _graph(seed: int):
    return random_graph(12, 0.5, seed, symmetric=True)


@pytest.fixture(scope="module")
def engine():
    """One two-worker engine with every seed's graph registered (pinned)."""
    with Engine(processes=2) as engine:
        for seed in SEEDS:
            engine.register_structure(f"g{seed}", _graph(seed), shard_count=2)
        yield engine


def _count(engine: Engine, route: str, query, seed: int) -> int:
    if route == "count":
        return engine.count(query, _graph(seed))
    if route == "sharded-sequential":
        return engine.count_sharded(
            query, _graph(seed), shard_count=2, parallel=False
        )
    return engine.count_sharded(query, f"g{seed}", shard_count=2, parallel=True)


@pytest.mark.parametrize(
    "seed,k,route",
    [
        pytest.param(seed, k, route, id=f"seed{seed}-k{k}-{route}")
        for seed in SEEDS
        for k in CLIQUE_SIZES
        for route in ROUTES
    ],
)
def test_the_clique_reduction_holds_through_every_route(engine, seed, k, route):
    count = _count(engine, route, clique_query(k), seed)
    assert answers_to_clique_count(count, k) == count_cliques(_graph(seed), k)


# ----------------------------------------------------------------------
# Compile-side identities: cancellation, profile, cores
# ----------------------------------------------------------------------
#: Fixed cells: the paper's worked examples.
PAPER_EXAMPLES = {
    "example_4_1": example_4_1_query,
    "example_4_2": example_4_2_query,
    "example_5_21": example_5_21_query,
}
UCQ_SEEDS = range(8)


def _ucq(seed: int):
    """A seeded ``random_ucq(3, 5, 5)``, liberal count cycling 2, 3, 5."""
    return random_ucq(3, 5, 5, liberal_count=(2, 3, 5)[seed % 3], seed=seed)


def _cancellation_queries():
    cells = [pytest.param(build(), id=name) for name, build in PAPER_EXAMPLES.items()]
    cells += [pytest.param(_ucq(seed), id=f"ucq-seed{seed}") for seed in UCQ_SEEDS]
    return cells


def _raw_terms(query) -> list[PPFormula]:
    """The raw inclusion-exclusion terms of the query's all-free part,
    each followed by a copy with its liberal variables permuted and its
    quantified variables renamed -- renaming equivalent to it, so every
    group has at least two members."""
    free = [d for d in query.normalized_disjuncts() if d.is_free()]
    terms = list(raw_inclusion_exclusion(EPFormula.from_disjuncts(free)).formulas())
    rng = random.Random(len(terms))
    copies = []
    for term in terms:
        liberal = sorted(term.liberal, key=lambda v: v.name)
        shuffled = rng.sample(liberal, len(liberal))
        mapping = dict(zip(liberal, shuffled))
        mapping.update({v: f"r_{v.name}" for v in term.quantified_variables})
        copies.append(term.rename(mapping))
    return terms + copies


def _pairwise_first_fit(formulas) -> list[list[PPFormula]]:
    """The reference grouping: each formula joins the first group whose
    first member it is renaming equivalent to."""
    groups: list[list[PPFormula]] = []
    for formula in formulas:
        for group in groups:
            if renaming_equivalent(formula, group[0]):
                group.append(formula)
                break
        else:
            groups.append([formula])
    return groups


@pytest.mark.parametrize("query", _cancellation_queries())
def test_bucketed_cancellation_groups_like_the_pairwise_search(query):
    formulas = _raw_terms(query)
    bucketed = group_by_counting_equivalence(formulas)
    reference = _pairwise_first_fit([copy.copy(f) for f in formulas])
    assert [[str(f) for f in g] for g in bucketed] == [
        [str(f) for f in g] for g in reference
    ]
    assert all(len(group) >= 2 for group in bucketed)


def _profile_queries():
    generators = {
        "path": path_query(4, quantify_interior=True),
        "path_all_liberal_12": path_query(11),
        "star": star_query(3, quantify_leaves=True),
        "cycle": cycle_query(4),
        "grid_3x4": grid_query(3, 4),
        "hidden_clique": hidden_clique_query(5),
        "union_of_paths": union_of_paths_query([2, 3, 4, 5]),
        "frontier_tractable": frontier_query_pair(4)[0],
        "frontier_hard": frontier_query_pair(4)[1],
        **{name: build() for name, build in PAPER_EXAMPLES.items()},
    }
    cells = [pytest.param(q, id=name) for name, q in generators.items()]
    cells += [pytest.param(_ucq(seed), id=f"ucq-seed{seed}") for seed in UCQ_SEEDS]
    return cells


@pytest.mark.parametrize("query", _profile_queries())
def test_the_profile_equals_the_classifier_measures(query):
    plan = compile_plan(query)
    pp_plans = [plan.pp] if plan.pp is not None else [t.plan for t in plan.terms]
    # Copies drop the memoized cores, so the classifier cores afresh.
    formulas = [copy.copy(pp.formula) for pp in pp_plans]
    measures = measure_pp_class(formulas, exact_threshold=PROFILE_EXACT_THRESHOLD)
    core = max((m.core_treewidth for m in measures), default=-1)
    contract = max((m.contract_treewidth for m in measures), default=-1)
    profile = plan.profile
    assert profile.core_treewidth == core
    assert profile.contract_treewidth == contract
    assert profile.case == trichotomy_case(core, contract, profile.treewidth_bound)
    assert profile.pp_formula_count == len(formulas)
    assert profile.exact == all(
        len(f.variables) <= PROFILE_EXACT_THRESHOLD for f in formulas
    )


@pytest.mark.parametrize("query", _cancellation_queries())
def test_a_formula_is_cored_once_and_a_core_is_its_own_core(query):
    for formula in _raw_terms(query):
        core = formula.core()
        assert formula.core() is core
        assert core.core() is core
