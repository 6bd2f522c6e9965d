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
import functools
import importlib
import itertools
import random
from collections import deque

import pytest

from repro.algorithms.brute_force import count_answers_naive, count_pp_answers_brute_force
from repro.algorithms.clique import answers_to_clique_count, clique_query, count_cliques
from repro.algorithms.fpt_counting import (
    contract_graph,
    count_pp_answers_fpt,
    exists_components,
)
from repro.algorithms.treewidth import (
    DEFAULT_EXACT_THRESHOLD,
    elimination_groups,
    min_degree_ordering,
    min_fill_ordering,
    treewidth,
    width_of_ordering,
)
from repro.core import distinguishing
from repro.core.classification import classify, measure_pp_class, trichotomy_case
from repro.core.distinguishing import (
    find_distinguishing_structure,
    separating_structure,
    uniquely_satisfied_structure,
)
from repro.core.ep_to_pp import normalize, plus_decomposition, plus_set
from repro.budget import CostBudget, budget_scope
from repro.core.equivalence import (
    counting_equivalent,
    group_by_counting_equivalence,
    renaming_equivalent,
    renaming_witness,
)
from repro.core.inclusion_exclusion import raw_inclusion_exclusion, star_decomposition
from repro.core.oracle_reduction import (
    OracleCallCounter,
    StarCountRecovery,
    count_pp_via_ep_oracle,
    make_brute_force_oracle,
    solve_vandermonde_system,
)
from repro.core.semi_equivalence import semi_counting_equivalent
from repro.engine import Engine
from repro.engine.executor import execute
from repro.engine.plan import as_ep, compile_plan
from repro.exceptions import OracleError
from repro.logic.builder import pp_from_atom_specs
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.logic.pp import PPFormula
from repro.structures.cores import AUGMENT_PREFIX, core, is_core
from repro.structures.graphs import connected_components, graph_components
from repro.structures.homomorphism import (
    find_homomorphism,
    find_surjective_renaming,
    has_homomorphism,
    homomorphic_equivalent,
)
from repro.structures.random_gen import random_cluster_graph, random_graph
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

# ``repro.algorithms`` re-exports the function ``treewidth`` under the
# module's name, so attribute access would reach the function.
treewidth_module = importlib.import_module("repro.algorithms.treewidth")

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

#: An edge or a 4-clique anywhere: the sentence disjunct's core has
#: treewidth 3, so ``phi+`` is clique-equivalent at bound 2.
K4_SENTENCE_QUERY = parse_query(
    "Q(x, y) = E(x, y) | exists a b c d. (E(a, b) & E(a, c) & E(a, d)"
    " & E(b, c) & E(b, d) & E(c, d))"
)

#: Thirteen liberal variables whose Gaifman graph has treewidth 4 while
#: min-fill and min-degree both give 5: at the exact-search cutoff, so
#: a measure that fell back to the greedy bound would read 5.
GREEDY_GAP_EDGES = (
    (0, 4), (0, 9), (1, 2), (1, 5), (1, 9), (2, 6), (2, 8), (2, 9),
    (2, 11), (3, 7), (3, 8), (3, 10), (4, 5), (4, 6), (4, 11), (5, 8),
    (6, 9), (6, 12), (7, 9), (7, 12), (9, 11), (11, 12),
)
GREEDY_GAP_QUERY = parse_query(
    "Q(" + ", ".join(f"x{i}" for i in range(13)) + ") = "
    + " & ".join(f"E(x{u}, x{v})" for u, v in GREEDY_GAP_EDGES)
)


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
    free = [d for d in normalize(query.disjuncts()) if d.is_free()]
    terms = list(raw_inclusion_exclusion(free).formulas())
    rng = random.Random(len(terms))
    copies = []
    for term in terms:
        liberal = sorted(term.liberal, key=lambda v: v.name)
        shuffled = rng.sample(liberal, len(liberal))
        mapping = dict(zip(liberal, shuffled))
        mapping.update({v: f"r_{v.name}" for v in term.quantified_variables})
        copies.append(term.rename(mapping))
    return terms + copies


def _pairwise_first_fit(formulas, equivalent=renaming_equivalent) -> list[list[PPFormula]]:
    """The reference grouping: each formula joins the first group whose
    first member it is ``equivalent`` to."""
    groups: list[list[PPFormula]] = []
    for formula in formulas:
        for group in groups:
            if equivalent(formula, group[0]):
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
        "k4_sentence": K4_SENTENCE_QUERY,
        "greedy_gap_13": GREEDY_GAP_QUERY,
        **{name: build() for name, build in PAPER_EXAMPLES.items()},
    }
    cells = [pytest.param(q, id=name) for name, q in generators.items()]
    cells += [pytest.param(_ucq(seed), id=f"ucq-seed{seed}") for seed in UCQ_SEEDS]
    return cells


#: A sentence disjunct that distributing ``&`` over ``|`` copies into
#: two disjuncts: the copies are equal but distinct objects.
DUPLICATED_SENTENCE_QUERIES = {
    "sentence-twice": "Q(x) = (exists a. E(a, a)) & (T | T)",
    "sentence-twice-or-loop": "Q(x) = ((exists a. E(a, a)) & (T | T)) | E(x, x)",
}
#: With a loop (the sentence holds) and without (it fails).
LOOP_GRAPHS = {
    "loop": Structure.from_relations({"E": [(1, 1), (1, 2), (2, 3)]}),
    "no-loop": Structure.from_relations({"E": [(1, 2), (2, 3), (3, 1)]}),
}


def test_normalize_keeps_one_of_two_equal_sentences():
    free, sentence = parse_query(
        "Q(x) = E(x, x) | exists a b. (E(a, b) & E(b, a))"
    ).disjuncts()
    twin = copy.copy(sentence)
    assert twin == sentence and twin is not sentence
    assert normalize([sentence, twin]) == (sentence,)
    # E(x, x) entails the 2-cycle sentence, so it goes too.
    assert normalize([free, twin, sentence]) == (twin,)


@pytest.mark.parametrize("graph", sorted(LOOP_GRAPHS))
@pytest.mark.parametrize("name", sorted(DUPLICATED_SENTENCE_QUERIES))
def test_a_duplicated_sentence_disjunct_counts_like_the_brute_force(name, graph):
    query = parse_query(DUPLICATED_SENTENCE_QUERIES[name])
    structure = LOOP_GRAPHS[graph]
    expected = count_answers_naive(as_ep(query), structure)
    assert execute(compile_plan(query), structure) == expected
    assert Engine().count_sharded(
        query, structure, shard_count=2, parallel=False
    ) == expected


#: Queries whose phi+ has a pp-sentence: a sentence disjunct, the
#: duplicated copies of one, or a sentence component of a pp-formula.
SENTENCE_QUERIES = {
    "example_5_21": example_5_21_query(),
    "k4_sentence": K4_SENTENCE_QUERY,
    **{name: parse_query(text) for name, text in DUPLICATED_SENTENCE_QUERIES.items()},
    "pp-sentence-component": parse_query(
        "Q(x, y) = E(x, y) & exists a b. (E(a, b) & E(b, a))"
    ),
}
#: The loop graphs; data components where a sentence maps into one
#: shard only (the loop) or into none (no 3-edge walk); random graphs
#: sparse, dense (it holds a 4-clique) and clustered.
SENTENCE_STRUCTURES = {
    **LOOP_GRAPHS,
    "split-loop": Structure.from_relations(
        {"E": [(1, 1), (2, 3), (3, 4), (5, 6), (6, 5)]}
    ),
    "short-paths": Structure.from_relations({"E": [(1, 2), (2, 3), (4, 5)]}),
    "random-sparse": random_graph(6, 0.2, seed=1),
    "random-dense": random_graph(6, 0.9, seed=2, loops=True),
    "clustered": random_cluster_graph(4, 2, 0.6, seed=3),
}


@functools.lru_cache(maxsize=None)
def _naive_sentence_count(name: str, label: str) -> int:
    """The brute-force count of one cell, shared by both backends."""
    return count_answers_naive(
        as_ep(SENTENCE_QUERIES[name]), SENTENCE_STRUCTURES[label]
    )


@pytest.mark.parametrize("name", sorted(SENTENCE_QUERIES))
def test_sentences_count_like_the_brute_force_on_every_route(name, backend):
    # A sentence is one more compiled pp-plan, its count non-zero
    # exactly where it holds: counted whole, split into shards one at
    # a time, and fanned out over a pool.
    from repro.engine.executor import execute_sharded
    from repro.engine.pool import WorkerPool
    from repro.structures.sharding import shard_structure

    query = SENTENCE_QUERIES[name]
    plan = compile_plan(query)
    with WorkerPool(processes=2) as pool:
        for label, structure in SENTENCE_STRUCTURES.items():
            expected = _naive_sentence_count(name, label)
            assert execute(plan, structure) == expected, label
            for shard_count in (1, 2, 7):
                sharded = shard_structure(structure, shard_count)
                got = [
                    execute_sharded(plan, sharded),
                    execute_sharded(plan, sharded, pool=pool),
                ]
                assert got == [expected, expected], (label, shard_count)


def _direct_measures(formula: PPFormula) -> tuple[int, int, bool]:
    """The reference measure: ``(core, contract, exact)`` taken straight
    from the formula's core and its contract graph, with none of the
    compiled plan's width reused; ``exact`` is whether the core graph
    (and so the contract graph, on a subset of its vertices) is within
    the exact-search cutoff."""
    core = formula.core()
    graph = core.graph()
    core_width, _ = treewidth(graph)
    contract_width, _ = treewidth(contract_graph(core, use_core=False))
    return core_width, contract_width, len(graph) <= DEFAULT_EXACT_THRESHOLD


@pytest.mark.parametrize("query", _profile_queries())
def test_the_profile_equals_the_classifier_measures(query):
    # The profile measures the query's phi+ -- the surviving terms and
    # the sentence disjuncts -- which is what the classifier measures;
    # both read widths off compiled plans, checked here against the
    # direct measure of each formula under the one cutoff.
    formulas = plus_set(as_ep(query))
    # Copies drop the memoized cores, so each side cores afresh.
    expected = [_direct_measures(copy.copy(f)) for f in formulas]
    measures = measure_pp_class([copy.copy(f) for f in formulas])
    assert [
        (m.core_treewidth, m.contract_treewidth, m.exact) for m in measures
    ] == expected
    core = max((c for c, _, _ in expected), default=-1)
    contract = max((w for _, w, _ in expected), default=-1)
    profile = compile_plan(query).profile
    assert profile.core_treewidth == core
    assert profile.contract_treewidth == contract
    assert profile.case == trichotomy_case(core, contract, profile.treewidth_bound)
    assert profile.pp_formula_count == len(formulas)
    assert profile.exact == all(exact for _, _, exact in expected)


def test_the_greedy_gap_query_profiles_its_exact_width():
    # Thirteen vertices are within the one cutoff: the exact width 4,
    # not the greedy orderings' 5.
    profile = compile_plan(GREEDY_GAP_QUERY).profile
    assert profile.exact
    assert profile.core_treewidth == profile.contract_treewidth == 4


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
        assert sorted(ordering, key=repr) == sorted(graph, key=repr)
        if not ordering:
            continue
        # The data may pick any order inside a group: try two.
        for flip in (False, True):
            ordering = [
                v for group in pp.order for v in (group[::-1] if flip else group)
            ]
            induced = width_of_ordering(graph, ordering)
            assert induced <= pp.width
            if len(graph) <= DEFAULT_EXACT_THRESHOLD:
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


# ----------------------------------------------------------------------
# Query-side algorithms against their references
# ----------------------------------------------------------------------
QUERY_SEEDS = range(6)
LIBERAL_COUNTS = range(6)
QUERY_CELLS = [
    pytest.param(seed, liberal, id=f"seed{seed}-liberal{liberal}")
    for seed in QUERY_SEEDS
    for liberal in LIBERAL_COUNTS
]


def _random_pp(seed: int, liberal: int) -> PPFormula:
    """A random pp-formula on at most 7 variables, ``liberal`` of them
    liberal: binary ``E``-atoms, a loop or a unary ``U``-atom now and
    then."""
    rng = random.Random(seed * 10 + liberal)
    names = [f"v{i}" for i in range(rng.randint(max(liberal, 2), 7))]
    atoms = [("E", tuple(rng.sample(names, 2))) for _ in range(rng.randint(2, 9))]
    if rng.random() < 0.5:
        atoms.append(("E", (rng.choice(names),) * 2))
    if rng.random() < 0.5:
        atoms.append(("U", (rng.choice(names),)))
    return pp_from_atom_specs(atoms, liberal=rng.sample(names, liberal))


def _restart_loop_core(structure: Structure) -> Structure:
    """The reference core: after every retraction, retry every element
    from the first."""
    current = structure
    changed = True
    while changed:
        changed = False
        for element in sorted(current.universe, key=repr):
            smaller = current.restrict(current.universe - {element})
            hom = find_homomorphism(current, smaller)
            if hom is not None:
                current = current.restrict({hom[e] for e in current.universe})
                changed = True
                break
    return current


@pytest.mark.parametrize("seed,liberal", QUERY_CELLS)
def test_the_one_pass_core_is_the_restart_loops_core(seed, liberal):
    augmented = _random_pp(seed, liberal).augmented()
    cored = core(augmented)
    reference = _restart_loop_core(augmented)
    assert cored.universe == reference.universe
    assert cored.relations == reference.relations
    assert is_core(cored)
    assert homomorphic_equivalent(cored, augmented)


# ----------------------------------------------------------------------
# The int form against the positional-index searches
# ----------------------------------------------------------------------
FORM_SEEDS = range(8)
FORM_LIBERAL_COUNTS = range(5)
FORM_CELLS = [
    pytest.param(seed, liberal, id=f"seed{seed}-liberal{liberal}")
    for seed in FORM_SEEDS
    for liberal in FORM_LIBERAL_COUNTS
]


def _form_pps(seed: int, liberal: int) -> list[PPFormula]:
    """Seeded pp-formulas over ``v0 .. v5`` with one liberal set: the
    first ``liberal`` names (none: pp-sentences), plus, in odd seeds, a
    liberal ``w`` in no atom.  Binary ``E``-atoms (loops ``E(x, x)``
    among them), one or two ternary ``T``-atoms with repeats, a unary
    ``U``-atom now and then; then one conjoined with another (so it
    entails both) and a copy of the first with its liberal variables
    permuted and its quantified ones renamed."""
    rng = random.Random(seed * 10 + liberal)
    names = [f"v{i}" for i in range(6)]
    lib = names[:liberal] + ["w"] * (seed % 2)

    def draw() -> PPFormula:
        atoms = [
            ("E", (rng.choice(names), rng.choice(names)))
            for _ in range(rng.randint(2, 7))
        ]
        atoms += [
            ("T", tuple(rng.choice(names) for _ in range(3)))
            for _ in range(rng.randint(1, 2))
        ]
        if rng.random() < 0.5:
            atoms.append(("U", (rng.choice(names),)))
        return pp_from_atom_specs(atoms, liberal=lib)

    first, second = draw(), draw()
    shuffled = rng.sample(sorted(first.liberal), len(first.liberal))
    mapping = dict(zip(sorted(first.liberal), shuffled))
    mapping.update({v: f"r_{v.name}" for v in first.quantified_variables})
    return [first, second, first.conjoin(second), first.rename(mapping)]


def _charged(function, *args):
    """``function(*args)`` and the steps it charged to a fresh budget."""
    budget = CostBudget()
    with budget_scope(budget):
        result = function(*args)
    return result, budget.steps


def _one_pass_core_reference(structure: Structure) -> Structure:
    """The one-pass core on the positional-index search."""
    pinned = {
        e for tuples in structure.relations.values() if len(tuples) == 1
        for t in tuples for e in t
    }
    current = structure
    for element in sorted(structure.universe, key=repr):
        if element in pinned or element not in current.universe:
            continue
        hom = find_homomorphism(current, current.restrict(current.universe - {element}))
        if hom is not None:
            current = current.restrict({hom[e] for e in current.universe})
    return current


def _common(first: PPFormula, second: PPFormula):
    common = first.signature | second.signature
    return first.with_signature(common), second.with_signature(common)


def _reference_entails(first: PPFormula, second: PPFormula) -> bool:
    first, second = _common(first, second)
    return has_homomorphism(second.augmented(), first.augmented())


def _reference_witness(first: PPFormula, second: PPFormula):
    first, second = _common(first, second)
    return find_surjective_renaming(
        first.structure, second.structure, first.liberal, second.liberal
    )


def _reference_renaming_equivalent(first: PPFormula, second: PPFormula) -> bool:
    return (
        len(first.liberal) == len(second.liberal)
        and _reference_witness(first, second) is not None
        and _reference_witness(second, first) is not None
    )


@pytest.mark.parametrize("seed,liberal", FORM_CELLS)
def test_the_int_form_core_is_the_restart_loops_core(seed, liberal):
    for formula in _form_pps(seed, liberal):
        augmented = formula.augmented()
        cored, steps = _charged(copy.copy(formula).core)
        reference = _restart_loop_core(augmented)
        assert cored.structure.universe == reference.universe
        assert cored.structure.relations == {
            name: tuples
            for name, tuples in reference.relations.items()
            if not name.startswith(AUGMENT_PREFIX)
        }
        assert cored.liberal == formula.liberal
        # The same searches, charged at the same nodes.
        one_pass = _charged(_one_pass_core_reference, augmented)
        assert _charged(core, augmented) == one_pass
        assert steps == one_pass[1]


@pytest.mark.parametrize("seed,liberal", FORM_CELLS)
def test_entailment_on_the_int_form_is_the_augmented_homomorphism(seed, liberal):
    formulas = _form_pps(seed, liberal)
    outcomes = set()
    for first, second in itertools.product(formulas, repeat=2):
        if first.liberal != second.liberal:
            continue
        entails = _charged(first.entails, second)
        assert entails == _charged(_reference_entails, first, second)
        outcomes.add(entails[0])
    # The conjunction entails its conjuncts.
    assert formulas[2].entails(formulas[0]) and formulas[2].entails(formulas[1])
    assert True in outcomes


@pytest.mark.parametrize("seed,liberal", FORM_CELLS)
def test_renaming_on_the_int_form_is_the_surjective_renaming(seed, liberal):
    formulas = _form_pps(seed, liberal)
    for first, second in itertools.product(formulas, repeat=2):
        witness = _charged(renaming_witness, first, second)
        assert witness == _charged(_reference_witness, first, second)
        assert renaming_equivalent(first, second) == _reference_renaming_equivalent(
            first, second
        )
    assert renaming_equivalent(formulas[0], formulas[3])


@pytest.mark.parametrize("seed,liberal", FORM_CELLS)
def test_grouping_on_the_int_form_is_the_pairwise_reference_grouping(seed, liberal):
    formulas = _form_pps(seed, liberal)
    formulas += [f.core() for f in formulas] + _form_pps(seed + 100, liberal)
    reference = _pairwise_first_fit(formulas, _reference_renaming_equivalent)
    grouped = group_by_counting_equivalence([copy.copy(f) for f in formulas])
    assert grouped == reference


def _eliminated(adjacency: dict, vertex) -> dict:
    around = adjacency[vertex]
    return {
        v: (neighbors | around) - {v, vertex} if v in around else neighbors
        for v, neighbors in adjacency.items()
        if v != vertex
    }


def _brute_width(adjacency: dict) -> int:
    """The least width over every elimination ordering (a depth-first
    walk of all permutations, sharing prefixes)."""
    if not adjacency:
        return -1
    return min(
        max(len(adjacency[v]), _brute_width(_eliminated(adjacency, v)))
        for v in adjacency
    )


@pytest.mark.parametrize("seed,liberal", QUERY_CELLS)
def test_the_subset_dp_finds_the_least_width_by_the_degree_rule(seed, liberal):
    formula = _random_pp(seed, liberal)
    for graph in (formula.graph(), contract_graph(formula)):
        assert len(graph) <= 7
        vertices, adjacency = treewidth_module._adjacency(graph)
        width, indices = treewidth_module._solve(adjacency)
        ordering = [vertices[i] for i in indices]
        assert width == _brute_width(graph)
        assert sorted(ordering, key=repr) == vertices
        if not ordering:
            continue
        assert width_of_ordering(graph, ordering) == width
        # Each step takes the first vertex by (degree, repr) that keeps
        # the rest within the width: every vertex before it fails.
        remaining = graph
        for chosen in ordering:
            for vertex in sorted(remaining, key=lambda v: (len(remaining[v]), repr(v))):
                if vertex == chosen:
                    break
                assert (
                    len(remaining[vertex]) > width
                    or _brute_width(_eliminated(remaining, vertex)) > width
                )
            remaining = _eliminated(remaining, chosen)


def _networkx():
    """networkx, the independent graph reference, or a skip: the
    package itself never imports it.  ``pytest.importorskip`` would do,
    but it deprecates skipping on a module that raises ``ImportError``,
    which is how a run hides an installed networkx."""
    try:
        import networkx
    except ImportError:
        pytest.skip("networkx is not importable")
    return networkx


def _as_dict(graph) -> dict:
    """A networkx graph as the package's adjacency dict."""
    return {v: set(graph[v]) for v in graph}


def _naive_ordering(graph, fill: bool) -> list:
    """The reference heuristic: rescan every vertex at every step."""
    working = graph.copy()
    ordering = []

    def fill_in(vertex) -> int:
        neighbors = list(working.neighbors(vertex))
        return sum(
            not working.has_edge(left, right)
            for i, left in enumerate(neighbors)
            for right in neighbors[i + 1 :]
        )

    def key(vertex):
        if fill:
            return (fill_in(vertex), working.degree(vertex), repr(vertex))
        return (working.degree(vertex), repr(vertex))

    while working.nodes:
        vertex = min(working.nodes, key=key)
        neighbors = list(working.neighbors(vertex))
        for i, left in enumerate(neighbors):
            for right in neighbors[i + 1 :]:
                working.add_edge(left, right)
        working.remove_node(vertex)
        ordering.append(vertex)
    return ordering


HEURISTIC_CELLS = [
    pytest.param(seed, size, id=f"seed{seed}-n{size}")
    for seed in range(4)
    for size in (20, 50, 80)
]


@pytest.mark.parametrize("seed,size", HEURISTIC_CELLS)
def test_the_heap_heuristics_order_like_the_rescanning_loop(seed, size):
    nx = _networkx()
    rng = random.Random(seed)
    graph = nx.gnm_random_graph(size, rng.randint(size, 2 * size), seed=seed)
    # Integer labels sort differently by repr; loops count twice
    # towards a degree.
    graph.add_edges_from((v, v) for v in rng.sample(range(size), 3))
    assert min_degree_ordering(_as_dict(graph)) == _naive_ordering(graph, fill=False)
    assert min_fill_ordering(_as_dict(graph)) == _naive_ordering(graph, fill=True)


# ----------------------------------------------------------------------
# Query graphs against networkx references
# ----------------------------------------------------------------------
def _nx_gaifman(nx, formula: PPFormula):
    """The formula's Gaifman graph, built by networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(formula.structure.universe)
    graph.add_nodes_from(formula.liberal)
    for tuples in formula.structure.relations.values():
        for t in tuples:
            graph.add_edges_from(itertools.combinations(sorted(set(t), key=repr), 2))
    return graph


def _nx_exists_components(nx, formula: PPFormula) -> list:
    """``(interior, boundary, atoms)`` of each ∃-component, from
    ``nx.connected_components`` of the quantified part, in the
    package's order."""
    graph, liberal = _nx_gaifman(nx, formula), formula.liberal
    quantified = graph.subgraph([v for v in graph if v not in liberal])
    components = []
    for component in nx.connected_components(quantified):
        interior = frozenset(component)
        boundary = frozenset(n for v in interior for n in graph[v] if n in liberal)
        atoms = sorted(
            (
                (name, t)
                for name, tuples in formula.structure.relations.items()
                for t in tuples
                if set(t) & interior
            ),
            key=repr,
        )
        components.append((interior, boundary, tuple(atoms)))
    return sorted(
        components,
        key=lambda c: (min(repr(v) for v in c[0] | c[1]), min(repr(v) for v in c[0])),
    )


def _nx_contract_graph(nx, formula: PPFormula):
    graph, liberal = _nx_gaifman(nx, formula), formula.liberal
    contract = nx.Graph()
    contract.add_nodes_from(liberal)
    contract.add_edges_from(
        (left, right) for left, right in graph.edges if {left, right} <= liberal
    )
    for _, boundary, _ in _nx_exists_components(nx, formula):
        contract.add_edges_from(itertools.combinations(boundary, 2))
    return contract


def _reference_groups(nx, graph, ordering) -> tuple:
    """The groups of a tree decomposition built from ``ordering`` and
    peeled leaf bag by leaf bag, as networkx graphs: bag ``i`` is
    ``ordering[i]`` and its neighbours at elimination, linked to the
    bag of its earliest later neighbour; the forest's first component
    is linked to the least bag of every other one."""
    if not ordering:
        return ()
    working = graph.copy()
    position = {vertex: index for index, vertex in enumerate(ordering)}
    bags, edges = {}, []
    for index, vertex in enumerate(ordering):
        neighbors = set(working.neighbors(vertex))
        bags[index] = frozenset({vertex} | neighbors)
        if neighbors:
            edges.append((index, position[min(neighbors, key=position.get)]))
        working.add_edges_from(itertools.combinations(neighbors, 2))
        working.remove_node(vertex)
    tree = nx.Graph()
    tree.add_nodes_from(bags)
    tree.add_edges_from(edges)
    components = list(nx.connected_components(tree))
    tree.add_edges_from((min(components[0]), min(c)) for c in components[1:])
    assert nx.is_tree(tree)
    degree = {bag: tree.degree(bag) for bag in bags}
    leaves = deque(bag for bag, d in degree.items() if d <= 1)
    peeled, groups = set(), []
    while leaves:
        bag = leaves.popleft()
        peeled.add(bag)
        neighbor = next((n for n in tree.neighbors(bag) if n not in peeled), None)
        if neighbor is None:
            held = frozenset()
        elif bags[neighbor] < bags[bag]:
            bags[neighbor] = held = bags[bag]
        else:
            held = bags[neighbor]
        group = sorted(bags[bag] - held, key=repr)
        if group:
            groups.append(tuple(group))
        if neighbor is not None:
            degree[neighbor] -= 1
            if degree[neighbor] == 1:
                leaves.append(neighbor)
    return tuple(groups)


def _edge_set(graph) -> set:
    return {frozenset((v, n)) for v in graph for n in graph[v]}


def _graph_queries():
    cells = [pytest.param(q, id=name) for name, q in _generator_queries().items()]
    cells += [
        pytest.param(random_ucq(3, 5, 5, liberal_count=liberal, seed=seed), id=f"ucq-{seed}-{liberal}")
        for seed in range(10)
        for liberal in (1, 2, 3, 5)
    ]
    cells += [pytest.param(path_query(n), id=f"path{n}") for n in (20, 60, 200)]
    cells += [pytest.param(cycle_query(n), id=f"cycle{n}") for n in (20, 60, 200)]
    return cells


@pytest.mark.parametrize("query", _graph_queries())
def test_query_graphs_agree_with_the_networkx_references(query):
    nx = _networkx()
    for pp in _pp_plans(query):
        formula = pp.base
        for candidate in (formula, pp.formula):
            reference = _nx_gaifman(nx, candidate)
            assert candidate.graph() == _as_dict(reference)
            assert connected_components(
                candidate.structure, candidate.liberal
            ) == sorted(
                map(frozenset, nx.connected_components(reference)),
                key=lambda c: min(repr(v) for v in c),
            )
        components = exists_components(formula, use_core=False)
        assert [
            (c.interior, c.boundary, c.atom_scopes) for c in components
        ] == _nx_exists_components(nx, formula)
        for c in components:
            assert c.boundary_order == tuple(sorted(c.boundary, key=lambda v: v.name))
        contract = contract_graph(formula, use_core=False)
        nx_contract = _nx_contract_graph(nx, formula)
        assert set(contract) == set(nx_contract)
        assert _edge_set(contract) == {frozenset(e) for e in nx_contract.edges}
        _, ordering = treewidth(contract)
        assert pp.order == _reference_groups(nx, nx_contract, ordering)
        # The core graph's groups, through whichever branch it takes.
        core_graph = formula.graph()
        _, ordering = treewidth(core_graph)
        assert elimination_groups(core_graph, ordering) == _reference_groups(
            nx, _nx_gaifman(nx, formula), ordering
        )


GNM_CELLS = [
    pytest.param(seed, size, edges, id=f"seed{seed}-n{size}-m{edges}")
    for seed in range(6)
    for size, edges in ((12, 14), (40, 70), (60, 50))
]


@pytest.mark.parametrize("seed,size,edges", GNM_CELLS)
def test_random_graph_groups_agree_with_the_networkx_reference(seed, size, edges):
    nx = _networkx()
    reference = nx.gnm_random_graph(size, edges, seed=seed)
    graph = _as_dict(reference)
    assert graph_components(graph) == list(map(frozenset, nx.connected_components(reference)))
    for ordering in (
        min_fill_ordering(graph),
        min_degree_ordering(graph),
        treewidth(graph)[1],
    ):
        groups = elimination_groups(graph, ordering)
        assert groups == _reference_groups(nx, reference, ordering)
        assert sorted(v for group in groups for v in group) == sorted(graph)


def test_a_long_path_compiles_with_linear_fill_in_work(monkeypatch):
    calls = 0
    fill_in = treewidth_module._fill_in

    def counted(*args):
        nonlocal calls
        calls += 1
        return fill_in(*args)

    monkeypatch.setattr(treewidth_module, "_fill_in", counted)
    plan = compile_plan(path_query(1200))
    # Two min-fill runs on 1201 vertices, the contract graph's and the
    # core graph's; a rescan of every vertex at every step made ~1.4e6.
    assert plan.pp.width == plan.profile.core_treewidth == 1
    assert 0 < calls <= 2 * 4 * 1201


#: Recorded from the compiler before the one-pass core and the shared
#: subset DP: per query, the profile ``(case, core width, contract
#: width, components, pp-formulas, arity, exact)`` and each pp-plan's
#: ``(width, order)``, groups space-separated.  Since the profile
#: measures all of ``phi+``, a query with a sentence disjunct counts it
#: among its pp-formulas (``example_5_21``, ``ucq-seed6``).  ``exact``
#: is read off the measured core graphs, not the formulas: ``ucq-seed0``
#: and ``ucq-seed3`` have an 11-variable term whose core is far smaller.
HEAD_PLAN_MEASURES = {
    'cycle': (
        ('FPT', 2, 2, 0, 1, 4, True),
        [(2, 'x0 x1,x2,x3')],
    ),
    'example_4_1': (
        ('FPT', 1, 1, 0, 3, 4, True),
        [(1, 'z w x,y'), (1, 'w x y,z'), (1, 'w x y,z')],
    ),
    'example_4_2': (
        ('FPT', 1, 1, 0, 2, 4, True),
        [(1, 'w x y,z'), (1, 'w x y,z')],
    ),
    'example_5_21': (
        # One surviving term and the sentence disjunct: |phi+| = 2.
        ('FPT', 1, 1, 0, 2, 4, True),
        [(1, 'w x y,z')],
    ),
    'grid': (
        ('FPT', 2, 2, 0, 1, 6, True),
        [(2, 'x0_0 x0_2 x1_0 x0_1,x1_1,x1_2')],
    ),
    'hidden_clique': (
        ('FPT', 2, 1, 1, 1, 2, True),
        [(1, 'x,y')],
    ),
    'path': (
        ('FPT', 1, 1, 1, 1, 2, True),
        [(1, 'x0,x4')],
    ),
    'star': (
        ('FPT', 1, 0, 1, 1, 1, True),
        [(0, 'c')],
    ),
    'union_of_paths': (
        ('FPT', 2, 1, 2, 3, 2, True),
        [(1, 'x,y'), (1, 'x,y'), (1, 'x,y')],
    ),
    'random_cq_0': (
        ('FPT', 1, 1, 1, 1, 2, True),
        [(1, 'v2,v3')],
    ),
    'random_cq_1': (
        ('FPT', 1, 1, 0, 1, 2, True),
        [(1, 'v0,v1')],
    ),
    'random_cq_2': (
        ('FPT', 1, 1, 1, 1, 2, True),
        [(1, 'v0,v4')],
    ),
    'random_ucq_0': (
        ('FPT', 1, 1, 0, 1, 2, True),
        [(1, 'v0,v1')],
    ),
    'random_ucq_1': (
        ('FPT', 2, 1, 2, 3, 2, True),
        [(1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1')],
    ),
    'ucq-seed0': (
        ('FPT', 2, 1, 3, 7, 2, True),
        [(1, 'v0,v1'), (0, 'v0 v1'), (1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1')],
    ),
    'ucq-seed1': (
        ('FPT', 2, 2, 3, 7, 3, True),
        [(1, 'v0 v1,v2'), (2, 'v0,v1,v2'), (1, 'v1 v0,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2')],
    ),
    'ucq-seed2': (
        ('SHARP_CLIQUE_HARD', 3, 3, 0, 7, 5, True),
        [(1, 'v2 v1 v3 v0,v4'), (2, 'v2 v4 v0,v1,v3'), (2, 'v0 v4 v1,v2,v3'), (2, 'v2 v3 v0,v1,v4'), (3, 'v2 v0,v1,v3,v4'), (2, 'v2 v1 v0,v3,v4'), (3, 'v2 v0,v1,v3,v4')],
    ),
    'ucq-seed3': (
        ('FPT', 2, 1, 2, 7, 2, True),
        [(1, 'v0,v1'), (1, 'v0,v1'), (0, 'v0 v1'), (1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1')],
    ),
    'ucq-seed4': (
        ('CLIQUE_EQUIVALENT', 3, 2, 2, 7, 3, True),
        [(2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (1, 'v0 v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2')],
    ),
    'ucq-seed5': (
        ('FPT', 2, 2, 0, 7, 5, True),
        [(1, 'v0 v2 v3 v1,v4'), (1, 'v2 v0 v1 v3,v4'), (1, 'v0 v3 v2 v1,v4'), (2, 'v0 v2 v1,v3,v4'), (2, 'v0 v2 v1,v3,v4'), (2, 'v0 v2 v1,v3,v4'), (2, 'v0 v2 v1,v3,v4')],
    ),
    'ucq-seed6': (
        # Three surviving terms and one sentence disjunct.
        ('FPT', 2, 1, 3, 4, 2, True),
        [(1, 'v0,v1'), (1, 'v0,v1'), (1, 'v0,v1')],
    ),
    'ucq-seed7': (
        ('CLIQUE_EQUIVALENT', 3, 2, 3, 7, 3, True),
        [(1, 'v1 v0,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2'), (2, 'v0,v1,v2')],
    ),
}


def _measure_queries():
    queries = {**_generator_queries()}
    queries.update({f"ucq-seed{seed}": _ucq(seed) for seed in UCQ_SEEDS})
    return [pytest.param(name, q, id=name) for name, q in queries.items()]


@pytest.mark.parametrize("name,query", _measure_queries())
def test_plan_measures_are_the_recorded_ones(name, query):
    plan = compile_plan(query)
    profile = plan.profile
    assert (
        profile.case.name,
        profile.core_treewidth,
        profile.contract_treewidth,
        profile.component_count,
        profile.pp_formula_count,
        profile.arity,
        profile.exact,
    ) == HEAD_PLAN_MEASURES[name][0]
    assert [
        (pp.width, " ".join(",".join(v.name for v in group) for group in pp.order))
        for pp in _pp_plans(query)
    ] == HEAD_PLAN_MEASURES[name][1]


# ----------------------------------------------------------------------
# The equivalence theorem (Theorem 3.1) against the brute force
# ----------------------------------------------------------------------
THEOREM_NAMES = ("x", "y", "z")
#: 3-element data graphs, loops allowed (a loop makes every count
#: positive): the semantic side of every identity below.
THEOREM_GRAPHS = tuple(
    random_graph(3, density, seed, loops=True)
    for density in (0.3, 0.6, 0.9)
    for seed in range(3)
)
#: How the second formula of a pair is made from the first: drawn
#: independently; renamed (liberal variables permuted, quantified ones
#: renamed); padded with an atom ``E(u, p)`` that ``E(u, v)`` already
#: implies; or conjoined with a pp-sentence (so the hats agree).
PAIR_KINDS = ("drawn", "renamed", "padded", "with-sentence")
PAIR_SEEDS = range(32)
PAIR_CELLS = [
    pytest.param(seed, id=f"seed{seed}-{PAIR_KINDS[seed % 4]}") for seed in PAIR_SEEDS
]
LOOP_SENTENCE = (("E", ("s", "s")),)
TWO_CYCLE_SENTENCE = (("E", ("s", "t")), ("E", ("t", "s")))


def _theorem_pp(rng: random.Random, liberal: list) -> PPFormula:
    atoms = [
        ("E", (rng.choice(THEOREM_NAMES), rng.choice(THEOREM_NAMES)))
        for _ in range(rng.randint(1, 3))
    ]
    return pp_from_atom_specs(atoms, liberal=liberal)


def _pp_pair(seed: int) -> tuple[PPFormula, PPFormula]:
    """A seeded pair of pp-formulas over ``x, y, z`` (0-2 liberal)."""
    rng = random.Random(seed)
    kind = PAIR_KINDS[seed % 4]
    liberal = list(THEOREM_NAMES[: rng.randint(0, 2)])
    first = _theorem_pp(rng, liberal)
    if kind == "drawn":
        second = _theorem_pp(rng, list(THEOREM_NAMES[: rng.randint(0, 2)]))
    elif kind == "renamed":
        names = sorted(first.liberal, key=repr)
        mapping = dict(zip(names, rng.sample(names, len(names))))
        mapping.update({v: f"r_{v.name}" for v in first.quantified_variables})
        second = first.rename(mapping)
    elif kind == "padded":
        u, _ = rng.choice(first.atoms()).arguments
        second = first.conjoin(pp_from_atom_specs([("E", (u.name, "p"))], liberal=liberal))
    else:
        sentence = rng.choice((LOOP_SENTENCE, TWO_CYCLE_SENTENCE))
        second = first.conjoin(pp_from_atom_specs(sentence, liberal=liberal))
    return first, second


def _brute_counts(formula: PPFormula, structures) -> list[int]:
    return [count_pp_answers_brute_force(formula, s) for s in structures]


def _pair_branch(first: PPFormula, second: PPFormula) -> str:
    if counting_equivalent(first, second):
        return "counting-equivalent"
    if semi_counting_equivalent(first, second):
        return "semi-counting-equivalent"
    return "neither"


def test_the_pair_matrix_reaches_every_branch():
    branches = {_pair_branch(*_pp_pair(seed)) for seed in PAIR_SEEDS}
    assert branches == {"counting-equivalent", "semi-counting-equivalent", "neither"}


@pytest.mark.parametrize("seed", PAIR_CELLS)
def test_counting_equivalence_is_equal_counts_and_a_separated_pair_has_a_witness(seed):
    """Theorem 5.4: an accepted pair counts alike on every graph; a
    separated one counts differently on a witness -- the Lemma 5.12
    distinguishing structure when the hats differ, else the
    Proposition 5.19 structure satisfying exactly one of the two."""
    first, second = _pp_pair(seed)
    branch = _pair_branch(first, second)
    if branch == "counting-equivalent":
        assert _brute_counts(first, THEOREM_GRAPHS) == _brute_counts(second, THEOREM_GRAPHS)
    elif branch == "semi-counting-equivalent":
        index, witness = uniquely_satisfied_structure([first, second])
        counts = _brute_counts(first, [witness]) + _brute_counts(second, [witness])
        assert counts[index] > 0 and counts[1 - index] == 0
    else:
        witness = find_distinguishing_structure([first, second], seed=seed)
        a, b = _brute_counts(first, [witness]) + _brute_counts(second, [witness])
        assert a > 0 and b > 0 and a != b


@pytest.mark.parametrize("seed", PAIR_CELLS)
def test_semi_counting_equivalence_is_equal_positive_counts(seed):
    """Theorem 5.9: an accepted pair counts alike wherever both counts
    are positive; a rejected one is told apart, both positive, on the
    Lemma 5.13 separating structure."""
    first, second = _pp_pair(seed)
    if semi_counting_equivalent(first, second):
        for a, b in zip(_brute_counts(first, THEOREM_GRAPHS), _brute_counts(second, THEOREM_GRAPHS)):
            assert a == b or a == 0 or b == 0
    else:
        witness = separating_structure(first, second, seed=seed)
        a, b = _brute_counts(first, [witness]) + _brute_counts(second, [witness])
        assert a > 0 and b > 0 and a != b


#: All-free UCQ families of two disjuncts over ``x``/``y`` plus one
#: quantified variable each: drawn; the first conjoined with a
#: pp-sentence; or the first with a pp-sentence, or with ``x`` and ``y``
#: swapped (two semi-counting-equivalent terms: a Lemma 5.18 split).
#: Two disjuncts give at most three star terms: the reduction queries
#: ``B x C^l`` for ``l < s``, whose universe grows as ``|C|^(s - 1)``.
FAMILY_KINDS = ("drawn", "with-sentence", "swapped")
FAMILY_CELLS = [
    pytest.param(seed, id=f"seed{seed}-{FAMILY_KINDS[seed % 3]}") for seed in range(24)
]


def _ucq_family(seed: int) -> EPFormula:
    rng = random.Random(seed)
    kind = FAMILY_KINDS[seed % 3]
    liberal = ["x", "y"] if kind == "swapped" else ["x", "y"][: rng.randint(1, 2)]

    def draw(index: int) -> PPFormula:
        names = liberal + [f"a{index}"]
        edge = (rng.choice(liberal), rng.choice(names))
        atoms = [("E", edge[:: rng.choice((1, -1))])]
        atoms += [
            ("E", (rng.choice(names), rng.choice(names)))
            for _ in range(rng.randint(0, 2))
        ]
        return pp_from_atom_specs(atoms, liberal=liberal)

    first = draw(0)
    if kind == "drawn":
        return EPFormula.from_disjuncts([first, draw(1)])
    sentence = pp_from_atom_specs(
        rng.choice((LOOP_SENTENCE, TWO_CYCLE_SENTENCE)), liberal=liberal
    )
    if kind == "with-sentence":
        return EPFormula.from_disjuncts([first.conjoin(sentence), draw(1)])
    swap = {"x": "y", "y": "x"}
    swap.update({v.name: f"b_{v.name}" for v in first.quantified_variables})
    return EPFormula.from_disjuncts([first.conjoin(sentence), first.rename(swap)])


def _engine_oracle(query: EPFormula):
    """``|query(D)|`` by the engine's own count: the brute-force oracle
    is too slow on the products ``B x C^l`` the reduction builds."""
    plan = compile_plan(query)
    return lambda structure: execute(plan, structure)


def _oracle_calls(classes) -> int:
    """Theorem 5.20's call count: ``s`` class sums per Vandermonde
    solve, one solve for ``B``, and ``2^k - 1`` more per class of ``k
    >= 2`` formulas (Lemma 5.18 peels one formula per level, and each
    level doubles the class-sum calls of the level below)."""
    s = len(classes)
    return s + s * sum(2 ** len(group) - 1 for group in classes if len(group) >= 2)


def _recovery(query: EPFormula, make_oracle, structures, seed: int = 0):
    """Recover every φ* count on each structure from oracle calls alone
    and check each against the brute force, and the call count."""
    star = star_decomposition(query.disjuncts())
    oracle = OracleCallCounter(make_oracle(query))
    recovery = StarCountRecovery(star, oracle, seed=seed)
    for structure in structures:
        oracle.calls = 0
        recovered = recovery.recover(structure)
        assert recovered == {
            formula: count_pp_answers_brute_force(formula, structure)
            for formula in star.formulas()
        }
        assert oracle.calls == _oracle_calls(recovery.classes)
    return recovery


@pytest.mark.parametrize("seed", FAMILY_CELLS)
def test_star_counts_are_recovered_from_ep_counts_alone(seed):
    _recovery(_ucq_family(seed), _engine_oracle, THEOREM_GRAPHS[::4], seed=seed)


def test_a_semi_counting_class_is_split_by_lemma_5_18():
    query = parse_query("Q(x, y) = (E(x, y) & exists a. E(a, a)) | E(y, x)")
    recovery = _recovery(query, make_brute_force_oracle, THEOREM_GRAPHS[::3])
    assert sorted(map(len, recovery.classes), reverse=True) == [2, 1]
    assert _oracle_calls(recovery.classes) == 8


def test_the_lemma_5_12_product_repair_separates_in_and_out_edges(monkeypatch):
    # No cheap candidate gives ``exists a. E(a, x)`` and
    # ``exists b. E(x, b)`` different counts, so the search multiplies
    # in a pairwise separating structure.
    repairs = []
    separate = distinguishing.separating_structure

    def spy(*args, **kwargs):
        repairs.append(args)
        return separate(*args, **kwargs)

    monkeypatch.setattr(distinguishing, "separating_structure", spy)
    query = parse_query("Q(x) = (exists a. E(a, x)) | (exists b. E(x, b))")
    _recovery(query, _engine_oracle, THEOREM_GRAPHS[::4], seed=108)
    assert repairs


#: The 2-path (no walk of three edges: the sentence disjunct fails)
#: and the 3-cycle (it holds).
PLUS_STRUCTURES = {
    "2-path": Structure.from_relations({"E": [(0, 1), (1, 2)]}),
    "3-cycle": Structure.from_relations({"E": [(0, 1), (1, 2), (2, 0)]}),
}


@pytest.mark.parametrize("label", sorted(PLUS_STRUCTURES))
def test_every_plus_member_is_counted_from_ep_counts_alone(label):
    """Section 5.4 / Appendix A: each member of φ⁺, the sentence
    disjunct included, from a brute-force oracle for the whole query."""
    query = example_5_21_query()
    structure = PLUS_STRUCTURES[label]
    decomposition = plus_decomposition(query.disjuncts())
    assert any(f.is_sentence() for f in decomposition.plus)
    for target in decomposition.plus:
        oracle = make_brute_force_oracle(query)
        assert count_pp_via_ep_oracle(
            target, query, structure, oracle, decomposition=decomposition
        ) == count_pp_answers_brute_force(target, structure)


@pytest.mark.parametrize("seed", range(8))
def test_the_vandermonde_solve_is_exact(seed):
    rng = random.Random(seed)
    nodes = rng.sample(range(1, 60), rng.randint(1, 7))
    solution = [rng.randint(-10**6, 10**6) for _ in nodes]
    rhs = [
        sum(x * node**level for x, node in zip(solution, nodes))
        for level in range(len(nodes))
    ]
    assert solve_vandermonde_system(nodes, rhs) == solution
    with pytest.raises(OracleError):
        solve_vandermonde_system(nodes + nodes[:1], rhs + [0])


def _renamed_copy(query, seed: int):
    """A counting-equivalent copy: liberal variables permuted, every
    quantified variable renamed, disjuncts reordered."""
    rng = random.Random(seed)
    disjuncts = query.disjuncts() if isinstance(query, EPFormula) else (query,)
    names = sorted(disjuncts[0].liberal, key=repr)
    permutation = dict(zip(names, rng.sample(names, len(names))))
    renamed = [
        d.rename({**permutation, **{v: f"r{i}_{v.name}" for v in d.quantified_variables}})
        for i, d in enumerate(disjuncts)
    ]
    if isinstance(query, PPFormula):
        return renamed[0]
    return EPFormula.from_disjuncts(rng.sample(renamed, len(renamed)))


def _classified_queries():
    queries = {
        "clique-4": clique_query(4),
        "hidden-clique-4": hidden_clique_query(4),
        "grid-2x3": grid_query(2, 3),
        "example_5_21": example_5_21_query(),
        "lemma-5-18": parse_query("Q(x, y) = (E(x, y) & exists a. E(a, a)) | E(y, x)"),
    }
    queries.update({f"ucq-seed{seed}": _ucq(seed) for seed in range(4)})
    return [pytest.param(name, q, id=name) for name, q in queries.items()]


@pytest.mark.parametrize("name,query", _classified_queries())
def test_the_verdict_is_invariant_under_counting_equivalence(name, query):
    verdicts = []
    for copy_seed in (None, 0, 1):
        q = query if copy_seed is None else _renamed_copy(query, copy_seed)
        result = classify(q)
        verdicts.append(
            (
                result.case,
                result.max_core_treewidth,
                result.max_contract_treewidth,
                len(result.pp_formulas),
            )
        )
    assert verdicts[0] == verdicts[1] == verdicts[2]
