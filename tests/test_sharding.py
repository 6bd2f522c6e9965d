"""Sharded execution: partition invariants and exact agreement.

The sharded path must return bit-identical counts to whole-structure
execution on every workload: the combination rules (shard counts sum,
query components multiply, sentence components OR) are exact, not
approximate.  Agreement is checked at shard counts {1, 2, 7} across the
domain scenarios, random queries over clustered data, pp-sentence
components, and a ``10^4``-tuple generated structure.
"""

import pytest

from repro.engine import (
    Engine,
    WorkerPool,
    compile_plan,
    execute,
    execute_sharded,
)
from repro.exceptions import StructureError
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.sharding import (
    combine_shard_counts,
    data_components,
    shard_structure,
)
from repro.workloads.generators import (
    example_5_21_query,
    path_query,
    random_conjunctive_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)
from repro.workloads.scenarios import all_scenarios

SHARD_COUNTS = (1, 2, 7)


# ----------------------------------------------------------------------
# Partition invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["hash", "balanced"])
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_shards_partition_universe_and_tuples(strategy, shard_count):
    structure = random_cluster_graph(5, 4, 0.5, seed=1)
    sharded = shard_structure(structure, shard_count, strategy=strategy)
    assert sharded.shard_count == shard_count
    universes = [shard.universe for shard in sharded.shards]
    merged = frozenset().union(*universes)
    assert merged == structure.universe
    assert sum(len(u) for u in universes) == len(structure.universe)
    for name, tuples in structure.relations.items():
        shard_tuples = [shard.relation(name) for shard in sharded.shards]
        assert frozenset().union(*shard_tuples) == tuples
        # No tuple crosses shards: every tuple lies inside one universe.
        for shard in sharded.shards:
            for t in shard.relation(name):
                assert all(e in shard.universe for e in t)


def test_sharding_components_stay_whole():
    structure = random_cluster_graph(6, 3, 0.6, seed=2)
    components = data_components(structure)
    sharded = shard_structure(structure, 4)
    for component in components:
        owners = [
            s
            for s, shard in enumerate(sharded.shards)
            if component & shard.universe
        ]
        assert len(owners) == 1


def test_shard_count_beyond_components_gives_empty_shards():
    structure = random_cluster_graph(2, 3, 1.0, seed=0)
    sharded = shard_structure(structure, 7, strategy="balanced")
    assert len(sharded.non_empty_shards()) == 2
    assert sum(shard.is_empty() for shard in sharded.shards) == 5


def test_shard_structure_rejects_bad_arguments():
    structure = random_graph(3, 0.5, seed=0)
    with pytest.raises(StructureError):
        shard_structure(structure, 0)
    with pytest.raises(StructureError):
        shard_structure(structure, 2, strategy="roulette")


def test_combine_shard_counts_rules():
    assert combine_shard_counts([[1, 2, 0], [3, 0, 4]]) == 21
    assert combine_shard_counts([], []) == 1
    assert combine_shard_counts([[5]], [[False, True]]) == 5
    assert combine_shard_counts([[5]], [[False, False]]) == 0


# ----------------------------------------------------------------------
# Whole-vs-sharded agreement
# ----------------------------------------------------------------------
def scenario_cases():
    for scenario in all_scenarios():
        for name, query in scenario.queries.items():
            yield pytest.param(
                query, scenario.structure, id=f"{scenario.name}:{name}"
            )


@pytest.mark.parametrize("query,structure", scenario_cases())
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_scenarios_sharded_agreement(query, structure, shard_count):
    plan = compile_plan(query)
    whole = execute(plan, structure)
    sharded = execute_sharded(plan, shard_structure(structure, shard_count))
    assert sharded == whole


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_random_queries_on_clustered_data_agree(seed, shard_count):
    structure = random_cluster_graph(4, 4, 0.45, seed=seed)
    queries = [
        random_conjunctive_query(4, 3, liberal_count=2, seed=seed),
        random_ucq(2, 4, 3, liberal_count=2, seed=seed + 10),
        path_query(2, quantify_interior=True),
        union_of_paths_query([1, 2]),
    ]
    for query in queries:
        plan = compile_plan(query)
        whole = execute(plan, structure)
        sharded = execute_sharded(plan, shard_structure(structure, shard_count))
        assert sharded == whole, f"query {query}"


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_sentence_disjuncts_sharded_agreement(shard_count):
    # example_5_21 has a pp-sentence disjunct (a 3-edge path sentence):
    # sharding must OR the satisfiability bits across shards.
    query = example_5_21_query()
    plan = compile_plan(query)
    for seed, p in ((0, 0.05), (1, 0.3), (2, 0.0)):
        structure = random_cluster_graph(3, 4, p, seed=seed)
        whole = execute(plan, structure)
        sharded = execute_sharded(plan, shard_structure(structure, shard_count))
        assert sharded == whole


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_pp_sentence_component_sharded_agreement(shard_count):
    # A pp-formula with a disconnected sentence component (exists a,b:
    # E(a,b)) alongside a liberal component: the sentence bit must come
    # from ANY shard while the liberal counts sum.
    from repro.logic.builder import pp_from_atom_specs

    query = pp_from_atom_specs(
        [("E", ("a", "b")), ("E", ("x", "y"))], liberal=["x", "y"]
    )
    plan = compile_plan(query)
    empty_edges = random_cluster_graph(3, 3, 0.0, seed=0)
    some_edges = random_cluster_graph(3, 3, 0.4, seed=1)
    for structure in (empty_edges, some_edges):
        whole = execute(plan, structure)
        sharded = execute_sharded(plan, shard_structure(structure, shard_count))
        assert sharded == whole


@pytest.mark.parametrize("shard_count", SHARD_COUNTS)
def test_ten_thousand_tuple_generator_agreement(shard_count):
    # The 10^4-tuple serving-scale shape: 60 clusters of 16, p=0.7.
    structure = random_cluster_graph(60, 16, 0.7, seed=7)
    assert structure.total_tuples >= 10_000
    query = star_query(2, quantify_leaves=True)
    plan = compile_plan(query)
    whole = execute(plan, structure)
    sharded = execute_sharded(plan, shard_structure(structure, shard_count))
    assert sharded == whole


# ----------------------------------------------------------------------
# Degenerate sharded paths
# ----------------------------------------------------------------------
def test_sharded_empty_structure_has_zero_nonempty_shards():
    # Zero non-empty shards: the per-unit rows are built from no values
    # at all, and the combination must still be exact.
    from repro.logic.signatures import RelationSymbol, Signature
    from repro.structures.structure import Structure

    signature = Signature([RelationSymbol("E", 2)])
    empty = Structure.empty(signature)
    sharded = shard_structure(empty, 3)
    assert sharded.non_empty_shards() == ()
    for query in (
        path_query(2, quantify_interior=True),  # liberal components
        union_of_paths_query([1, 2]),  # ep-plus terms
        example_5_21_query(),  # sentence disjuncts
    ):
        plan = compile_plan(query)
        assert execute_sharded(plan, sharded) == execute(plan, empty)


def test_sharded_all_components_in_one_shard():
    # A connected structure: every element lands in a single shard and
    # the other shards are empty; per-shard sums degenerate to one term.
    structure = random_cluster_graph(1, 6, 0.8, seed=4)
    sharded = shard_structure(structure, 5)
    assert len(sharded.non_empty_shards()) == 1
    with WorkerPool(processes=2) as pool:
        for query in (
            path_query(2, quantify_interior=True),
            union_of_paths_query([1, 2]),
            example_5_21_query(),
        ):
            plan = compile_plan(query)
            assert execute_sharded(plan, sharded) == execute(plan, structure)
            # The parallel path degenerates to the sequential one (a
            # single job never fans out) and must agree too.
            assert execute_sharded(plan, sharded, pool=pool) == execute(
                plan, structure
            )
        assert not pool.started


def test_parallel_sharded_matches_sequential():
    structure = random_cluster_graph(6, 5, 0.4, seed=3)
    queries = [path_query(2, quantify_interior=True), union_of_paths_query([1, 2])]
    with WorkerPool(processes=2) as pool:
        for query in queries:
            plan = compile_plan(query)
            sharded = shard_structure(structure, 4)
            sequential = execute_sharded(plan, sharded)
            parallel = execute_sharded(plan, sharded, pool=pool)
            assert sequential == parallel == execute(plan, structure)
        assert pool.started


def test_engine_count_sharded_matches_count():
    engine = Engine()
    structure = random_cluster_graph(4, 4, 0.5, seed=9)
    query = "exists z. (E(x, z) & E(z, y))"
    assert engine.count_sharded(query, structure, shard_count=3, parallel=False) == engine.count(
        query, structure
    )
    assert engine.stats().sharded_calls == 1


def test_count_sharded_rejects_zero_shard_count():
    from repro.exceptions import ReproError

    engine = Engine()
    structure = random_cluster_graph(2, 3, 0.5, seed=0)
    query = "exists z. (E(x, z) & E(z, y))"
    for bad in (0, -2):
        with pytest.raises(ReproError):
            engine.count_sharded(query, structure, shard_count=bad)
    # The executor partitions nothing: the shard count is the engine's.
    with pytest.raises(TypeError):
        execute_sharded(compile_plan(query), structure, shard_count=2)
    # shard_count=None still means "the CPU default", not an error.
    assert engine.count_sharded(query, structure, parallel=False) == engine.count(
        query, structure
    )
