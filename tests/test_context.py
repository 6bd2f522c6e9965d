"""ExecutionContext behavior: semijoin elimination, memoization, reuse.

The semijoin evaluator must agree exactly with the backtracking search
on every ∃-component; the boundary-relation memo must be shared across
the inclusion-exclusion terms of an ``ep-plus`` plan; and the batch
paths must build at most one positional index per distinct structure.
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
from repro.structures import indexes as indexes_module
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.workloads.generators import (
    hidden_clique_query,
    path_query,
    random_conjunctive_query,
    star_query,
    union_of_paths_query,
)


#: An ∃-star with four liberal leaves: its one ∃-component has a
#: boundary wider than ``SEMIJOIN_MAX_BOUNDARY``, so backtracking
#: serves it.
WIDE_STAR = "exists c. (E(c, a) & E(c, b) & E(c, d) & E(c, e))"


# ----------------------------------------------------------------------
# Semijoin vs backtracking
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
    with_semijoin = ExecutionContext(structure, semijoin=True)
    without = ExecutionContext(structure, semijoin=False)
    assert with_semijoin.boundary_relation(component) == without.boundary_relation(
        component
    )


def test_semijoin_is_actually_used_on_acyclic_components():
    structure = random_graph(8, 0.3, seed=2)
    context = ExecutionContext(structure)
    (component,) = exists_components(path_query(3, quantify_interior=True))
    context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 1
    assert context.stats.backtracking_eliminations == 0


def test_cyclic_interior_is_eliminated_on_tables():
    structure = random_graph(8, 0.4, seed=2)
    context = ExecutionContext(structure)
    (component,) = exists_components(hidden_clique_query(3))
    relation = context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 1
    assert context.stats.backtracking_eliminations == 0
    reference = ExecutionContext(structure, semijoin=False)
    assert relation == reference.boundary_relation(component)


def test_wide_boundary_falls_back_to_backtracking():
    structure = random_graph(6, 0.4, seed=4)
    context = ExecutionContext(structure, semijoin_max_boundary=0)
    (component,) = exists_components(path_query(2, quantify_interior=True))
    context.boundary_relation(component)
    assert context.stats.semijoin_eliminations == 0
    assert context.stats.backtracking_eliminations == 1


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
# Index-build regression (one context per distinct structure)
# ----------------------------------------------------------------------
def test_count_many_builds_one_index_per_distinct_structure(backend, monkeypatch):
    builds = []
    original = indexes_module.EncodedPositionalIndex.__init__

    def counting_init(self, encoded):
        builds.append(encoded)
        original(self, encoded)

    monkeypatch.setattr(
        indexes_module.EncodedPositionalIndex, "__init__", counting_init
    )
    first = random_graph(6, 0.3, seed=0)
    second = random_graph(6, 0.3, seed=1)
    structures = [first, second, first, second, first]
    queries = [
        "exists z. (E(x, z) & E(z, y))",
        "exists z w. (E(x, z) & E(z, w) & E(w, y))",
        # A boundary wider than SEMIJOIN_MAX_BOUNDARY: backtracking
        # needs the index on every backend (numpy tables never build one).
        WIDE_STAR,
        "E(x, y)",
    ]
    grid = count_many([compile_plan(q) for q in queries], structures)
    assert len(builds) == 2
    assert {e.decode_rows(e.relation_rows("E")) for e in builds} == {
        first.relation("E"),
        second.relation("E"),
    }
    engine = Engine()
    assert engine.count_many(queries, structures, parallel=False) == grid
    # The engine's own counter tracks the same builds.
    assert engine.stats().index_builds == 2


def test_materialize_builds_what_the_backend_reads(backend):
    structure = random_graph(7, 0.4, seed=2)
    context = ExecutionContext(structure).materialize()
    assert context.built
    # The python base tables read the positional index; the numpy ones
    # read column views, and the index waits for a reader.
    assert context.stats.index_builds == (0 if backend == "numpy" else 1)
    acyclic = compile_plan("exists z. (E(x, z) & E(z, y))")
    execute(acyclic, structure, context)
    assert context.stats.index_builds == (0 if backend == "numpy" else 1)
    # A cyclic interior is eliminated on the tables too.
    cyclic = compile_plan("exists z w. (E(x, z) & E(z, w) & E(w, x))")
    execute(cyclic, structure, context)
    assert context.stats.backtracking_eliminations == 0
    assert context.stats.index_builds == (0 if backend == "numpy" else 1)
    # Its two readers: a backtracking elimination (wide boundary)...
    execute(compile_plan(WIDE_STAR), structure, context)
    assert context.stats.backtracking_eliminations == 1
    assert context.stats.index_builds == 1
    # ...and a sentence check, on a fresh context.
    other = ExecutionContext(structure).materialize()
    other.sentence_holds(compile_plan("exists x y. E(x, y)").pp.formula)
    other.sentence_holds(compile_plan("exists x. E(x, x)").pp.formula)
    assert other.stats.index_builds == 1


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
    assert not context.built  # no encoding, so no index either
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
