"""ExecutionContext behavior: table elimination, memoization, reuse.

Elimination on the column tables must agree exactly with the
backtracking homomorphism search (the oracle) on every ∃-component;
the boundary-relation memo must be shared across the
inclusion-exclusion terms of an ``ep-plus`` plan; and the batch paths
must encode each distinct structure once.
"""

import pytest

from repro.algorithms.brute_force import count_pp_answers_brute_force
from repro.algorithms.decomposition import TreeDecomposition
from repro.algorithms.fpt_counting import (
    compile_pp_plan,
    count_pp_answers_fpt,
    exists_components,
)
from repro.core.counting import count_answers
from repro.engine import Engine, compile_plan, count_many, execute
from repro.engine.context import ExecutionContext
from repro.exceptions import ReproError
from repro.structures.encoding import EncodedStructure
from repro.structures.homomorphism import enumerate_extendable_assignments
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.workloads.generators import (
    hidden_clique_query,
    path_query,
    random_conjunctive_query,
    star_query,
    union_of_paths_query,
)


#: An ∃-star with four liberal leaves: one ∃-component with a boundary
#: of four, eliminated on the tables like any other.
WIDE_STAR = "exists c. (E(c, a) & E(c, b) & E(c, d) & E(c, e))"


def oracle_relation(component, structure) -> frozenset:
    """The component's boundary relation by backtracking search."""
    boundary = component.boundary_order
    return frozenset(
        tuple(assignment[v] for v in boundary)
        for assignment in enumerate_extendable_assignments(
            component.structure, structure, boundary
        )
    )


# ----------------------------------------------------------------------
# Tables vs backtracking
# ----------------------------------------------------------------------
def component_cases():
    queries = [
        path_query(3, quantify_interior=True),
        path_query(5, quantify_interior=True),
        star_query(3, quantify_leaves=True),
        hidden_clique_query(3),  # cyclic interior, eliminated on tables
    ]
    for seed in range(6):
        queries.append(random_conjunctive_query(5, 4, liberal_count=2, seed=seed))
    for q, query in enumerate(queries):
        for component in exists_components(query):
            yield pytest.param(component, id=f"q{q}:b{len(component.boundary)}")


@pytest.mark.parametrize("component", component_cases())
@pytest.mark.parametrize("seed", [0, 3])
def test_semijoin_matches_backtracking_boundary_relations(component, seed):
    structure = random_graph(7, 0.35, seed=seed)
    assert ExecutionContext(structure).boundary_relation(
        component
    ) == oracle_relation(component, structure)


def test_semijoin_is_actually_used_on_acyclic_components():
    structure = random_graph(8, 0.3, seed=2)
    context = ExecutionContext(structure)
    (component,) = exists_components(path_query(3, quantify_interior=True))
    context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 1


def test_cyclic_interior_is_eliminated_on_tables():
    structure = random_graph(8, 0.4, seed=2)
    context = ExecutionContext(structure)
    (component,) = exists_components(hidden_clique_query(3))
    relation = context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 1
    assert relation == oracle_relation(component, structure)


def test_wide_boundary_is_eliminated_on_tables():
    structure = random_graph(6, 0.4, seed=4)
    context = ExecutionContext(structure)
    (component,) = exists_components(compile_plan(WIDE_STAR).pp.formula)
    assert len(component.boundary) == 4
    relation = context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 1
    assert relation == oracle_relation(component, structure)


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
def test_boundary_memo_is_shared_across_ep_plus_terms():
    # phi+ of a union of paths has terms phi1, phi2, phi1&phi2; the
    # conjunction's ∃-components are exactly phi1's and phi2's, so one
    # execute sees 2 misses and 2 memo hits.
    query = union_of_paths_query([2, 3])
    plan = compile_plan(query)
    assert plan.kind == "ep-plus"
    assert len(plan.terms) == 3
    structure = random_graph(7, 0.3, seed=5)
    context = ExecutionContext(structure)
    execute(plan, structure, context)
    assert context.stats.boundary_misses == 2
    assert context.stats.boundary_hits == 2


def test_memo_disabled_recomputes_per_term():
    query = union_of_paths_query([2, 3])
    plan = compile_plan(query)
    structure = random_graph(7, 0.3, seed=5)
    memoized = ExecutionContext(structure, memoize=True)
    unmemoized = ExecutionContext(structure, memoize=False)
    assert execute(plan, structure, memoized) == execute(plan, structure, unmemoized)
    assert unmemoized.stats.boundary_hits == 0
    assert unmemoized.stats.boundary_misses == 4


def test_repeated_execution_hits_the_memo_via_engine():
    engine = Engine()
    structure = random_graph(7, 0.3, seed=6)
    query = "exists z. (E(x, z) & E(z, y))"
    first = engine.count(query, structure)
    first_misses = engine.stats().boundary_memo_misses
    assert engine.count(query, structure) == first
    stats = engine.stats()
    # The repeat is served by the context's per-(plan, structure) count
    # memo: no boundary relation is recomputed *or even looked up*
    # again -- the whole execution is a dictionary hit.
    assert stats.boundary_memo_misses == first_misses
    assert stats.boundary_memo_hits == 0
    # A context bypassing the memo still recomputes (and then hits the
    # boundary memo), so the shortcut is the memo's doing, not luck.
    context = ExecutionContext(structure)
    plan = engine.compile(query)
    assert execute(plan, structure, context) == first
    context._count_memo.clear()
    assert execute(plan, structure, context) == first
    assert context.stats.boundary_hits >= 1


# ----------------------------------------------------------------------
# Encoding-build regression (one context per distinct structure)
# ----------------------------------------------------------------------
def test_count_many_builds_one_encoding_per_distinct_structure(
    backend, monkeypatch
):
    builds = []
    original = EncodedStructure.__init__

    def counting_init(self, structure):
        builds.append(structure)
        original(self, structure)

    monkeypatch.setattr(EncodedStructure, "__init__", counting_init)
    first = random_graph(6, 0.3, seed=0)
    second = random_graph(6, 0.3, seed=1)
    structures = [first, second, first, second, first]
    queries = [
        "exists z. (E(x, z) & E(z, y))",
        "exists z w. (E(x, z) & E(z, w) & E(w, y))",
        WIDE_STAR,
        "E(x, y)",
        "exists x. E(x, x)",  # a sentence check reads the same encoding
    ]
    grid = count_many([compile_plan(q) for q in queries], structures)
    assert builds == [first, second]
    builds.clear()
    with Engine(processes=1) as engine:
        assert engine.count_many(queries, structures, parallel=False) == grid
    assert builds == [first, second]


def test_materialize_builds_what_the_backend_reads(backend):
    structure = random_graph(7, 0.4, seed=2)
    context = ExecutionContext(structure).materialize()
    assert context.built
    encoded = context.encoded
    # The numpy base tables read zero-copy column views; the python
    # ones read the columns themselves.
    expected_views = set(encoded.relations) if backend == "numpy" else set()
    assert set(encoded._np_columns) == expected_views
    # Nothing else: no table, boundary relation or answer before a query.
    assert not context._base_table_memo and not context._boundary_memo
    assert not context._sentence_memo and not context._count_memo
    # Every reader -- acyclic and cyclic interiors, a wide boundary, a
    # sentence check -- runs on that one encoding.
    for query in (
        "exists z. (E(x, z) & E(z, y))",
        "exists z w. (E(x, z) & E(z, w) & E(w, x))",
        WIDE_STAR,
        "exists x. E(x, x)",
    ):
        execute(compile_plan(query), structure, context)
    assert context.encoded is encoded
    assert set(encoded._np_columns) == expected_views


# ----------------------------------------------------------------------
# Context-aware count_answers and the decomposition-override fix
# ----------------------------------------------------------------------
def test_count_plan_memoizes_per_base_formula(monkeypatch):
    import repro.algorithms.fpt_counting as fpt_module

    structure = random_graph(6, 0.4, seed=5)
    pp = path_query(2, quantify_interior=True)
    pp_plan = compile_pp_plan(pp)
    context = ExecutionContext(structure)
    expected = fpt_module.execute_pp_plan(pp_plan, structure, context)

    calls = []
    real = fpt_module.execute_pp_plan

    def counting_execute(plan, target, ctx=None):
        calls.append(plan)
        return real(plan, target, ctx)

    monkeypatch.setattr(fpt_module, "execute_pp_plan", counting_execute)
    assert context.count_plan(pp_plan) == expected
    assert context.count_plan(pp_plan) == expected  # memo hit
    assert len(calls) == 1

    # With memoization off the execution runs every time.
    bare = ExecutionContext(structure, memoize=False)
    assert bare.count_plan(pp_plan) == expected
    assert bare.count_plan(pp_plan) == expected
    assert len(calls) == 3

    context.clear()
    assert context.count_plan(pp_plan) == expected
    assert len(calls) == 4


def test_remembered_unit_values_are_recalled_without_building_anything():
    from repro.engine.executor import _lower_plan

    structure = random_graph(6, 0.4, seed=5)
    plans = [compile_plan(path_query(2, quantify_interior=True))]
    plans.append(compile_plan("exists x. exists y. E(x, y)"))
    units = _lower_plan(plans, split=True).units
    assert {unit.kind for unit in units} == {"count", "sat"}
    values = ExecutionContext(structure).run_units(units)

    context = ExecutionContext(structure)
    assert context.recall(units) == [None] * len(units)
    context.remember(units, values)
    assert context.recall(units) == values
    assert not context.built  # no encoding
    assert context.run_units(units) == values and not context.built

    # A context that memoizes nothing remembers nothing.
    bare = ExecutionContext(structure, memoize=False)
    bare.remember(units, values)
    assert bare.recall(units) == [None] * len(units)


def test_count_answers_accepts_an_explicit_context():
    structure = random_graph(6, 0.35, seed=8)
    context = ExecutionContext(structure)
    query = "exists z. (E(x, z) & E(z, y))"
    through_context = count_answers(query, structure, context=context)
    assert through_context == count_answers(query, structure)
    assert context.stats.boundary_misses == 1
    # Re-counting through the same context is a count-memo hit: the
    # boundary relation is not recomputed or even consulted again.
    assert count_answers(query, structure, context=context) == through_context
    assert context.stats.boundary_misses == 1
    assert context.stats.boundary_hits == 0


def test_count_answers_rejects_a_mismatched_context():
    context = ExecutionContext(random_graph(5, 0.3, seed=0))
    with pytest.raises(ReproError):
        count_answers("E(x, y)", random_graph(5, 0.3, seed=1), context=context)


def test_count_pp_answers_fpt_decomposition_override_uses_replace():
    formula = path_query(3)  # all-liberal path: contract graph is the path
    structure = random_graph(5, 0.4, seed=3)
    expected = count_pp_answers_brute_force(formula, structure)
    # A valid single-bag decomposition of different width than the
    # compiled plan's: the override (and its width) must be honored.
    override = TreeDecomposition({0: list(formula.liberal)})
    assert override.width != compile_pp_plan(formula).width
    assert count_pp_answers_fpt(formula, structure, decomposition=override) == expected
