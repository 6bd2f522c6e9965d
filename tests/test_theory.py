"""The paper's identities, checked through every engine route.

One seeded matrix of ``pytest.param`` cells; a failing cell's id names
the seed, the parameter and the route.  The clique reduction: on a
symmetric loop-free graph every k-clique gives ``k!`` answers of the
all-liberal k-clique query, so ``answers_to_clique_count`` of any
route's count must be the #Clique baseline ``count_cliques``.  The
count factorizes (Section 2.1): it multiplies over the components of a
query and adds over the components of the data, on both table
backends, against the naive count.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.algorithms.clique import answers_to_clique_count, clique_query, count_cliques
from repro.algorithms.fpt_counting import contract_graph, count_pp_answers_fpt
from repro.algorithms.treewidth import DEFAULT_EXACT_THRESHOLD, width_of_ordering
from repro.core.classification import measure_pp_class, trichotomy_case
from repro.core.equivalence import group_by_counting_equivalence, renaming_equivalent
from repro.core.inclusion_exclusion import raw_inclusion_exclusion
from repro.engine import Engine
from repro.engine.executor import execute
from repro.engine.plan import PROFILE_EXACT_THRESHOLD, as_ep, compile_plan
from repro.logic.builder import pp_from_atom_specs
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.structures.random_gen import random_graph
from repro.structures.structure import Structure
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


# ----------------------------------------------------------------------
# The count factorizes: over query components, over data components
# ----------------------------------------------------------------------
FACTOR_SEEDS = range(6)
FACTOR_CELLS = [pytest.param(seed, id=f"seed{seed}") for seed in FACTOR_SEEDS]


def _connected_atoms(rng: random.Random, prefix: str, size: int, extra: int):
    """``E``-atoms over ``prefix0 .. prefix{size-1}``, connected: a
    random tree, each edge in a random direction, plus ``extra``
    random atoms."""
    names = [f"{prefix}{i}" for i in range(size)]
    atoms = []
    for i in range(1, size):
        edge = (names[rng.randrange(i)], names[i])
        atoms.append(("E", edge if rng.random() < 0.5 else edge[::-1]))
    atoms += [("E", tuple(rng.sample(names, 2))) for _ in range(extra)]
    return names, atoms


def _small_graph(seed: int, size: int = 4) -> Structure:
    return random_graph(size, 0.45, seed, loops=True)


def _fpt_count(formula: PPFormula, structure: Structure) -> int:
    return count_pp_answers_fpt(formula, structure)


@pytest.mark.parametrize("seed", FACTOR_CELLS)
def test_counts_multiply_over_query_components(backend, seed):
    # Two components, the first a sentence now and then: each is summed
    # down to its own zero-column table, a factor of the count.
    rng = random.Random(seed)
    left_names, left_atoms = _connected_atoms(rng, "a", 3, rng.randint(0, 1))
    right_names, right_atoms = _connected_atoms(rng, "b", 3, rng.randint(0, 1))
    left_liberal = left_names[: rng.randint(0, 2)]
    right_liberal = right_names[: rng.randint(1, 2)]
    left = pp_from_atom_specs(left_atoms, liberal=left_liberal)
    right = pp_from_atom_specs(right_atoms, liberal=right_liberal)
    both = pp_from_atom_specs(
        left_atoms + right_atoms, liberal=left_liberal + right_liberal
    )
    structure = _small_graph(seed)
    count = _fpt_count(both, structure)
    assert count == _fpt_count(left, structure) * _fpt_count(right, structure)
    assert count == count_answers_naive(as_ep(both), structure)


@pytest.mark.parametrize("seed", FACTOR_CELLS)
def test_counts_add_over_data_components(backend, seed):
    rng = random.Random(seed)
    names, atoms = _connected_atoms(rng, "v", rng.randint(2, 4), rng.randint(0, 2))
    query = pp_from_atom_specs(atoms, liberal=names[: rng.randint(1, 3)])
    first = _small_graph(seed)
    second = _small_graph(seed + 100, size=3).rename({v: v + 10 for v in range(3)})
    union = Structure.from_relations(
        {"E": first.relation("E") | second.relation("E")},
        universe=first.universe | second.universe,
    )
    count = _fpt_count(query, union)
    assert count == _fpt_count(query, first) + _fpt_count(query, second)
    assert count == count_answers_naive(as_ep(query), union)


def _generator_queries() -> dict:
    from test_encoding import GENERATOR_QUERIES

    return GENERATOR_QUERIES


def _pp_plans(query) -> list:
    plan = compile_plan(query)
    return [plan.pp] if plan.pp is not None else [t.plan for t in plan.terms]


def _order_queries():
    cells = [pytest.param(q, id=name) for name, q in _generator_queries().items()]
    cells += [pytest.param(_ucq(seed), id=f"ucq-seed{seed}") for seed in UCQ_SEEDS]
    return cells


@pytest.mark.parametrize("query", _order_queries())
def test_the_elimination_order_keeps_the_contract_width(query):
    for pp in _pp_plans(query):
        graph = contract_graph(pp.base, use_core=False)
        ordering = [v for group in pp.order for v in group]
        # Every liberal variable, each once.
        assert sorted(ordering, key=repr) == sorted(graph.nodes, key=repr)
        if not ordering:
            continue
        # The data may pick any order inside a group: try two.
        for flip in (False, True):
            ordering = [
                v for group in pp.order for v in (group[::-1] if flip else group)
            ]
            induced = width_of_ordering(graph, ordering)
            assert induced <= pp.width
            if graph.number_of_nodes() <= DEFAULT_EXACT_THRESHOLD:
                assert induced == pp.width  # the width is the treewidth


@pytest.mark.parametrize("renaming", ["reversed", "shuffle-1"])
@pytest.mark.parametrize("name", sorted(_generator_queries()))
def test_alpha_renamed_generator_queries_count_alike(backend, name, renaming):
    # Compiled apart and run on fresh contexts: no plan or count memo is
    # shared, while the names steer the elimination's tie-breaks.
    from test_encoding import alpha_renamed

    query = _generator_queries()[name]
    renamed = alpha_renamed(query, renaming)
    for seed in SEEDS:
        graph = _graph(seed)
        assert execute(compile_plan(renamed), graph) == execute(
            compile_plan(query), graph
        )
