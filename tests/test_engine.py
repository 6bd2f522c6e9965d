"""Engine-vs-seed equivalence and engine API behavior.

Warm-cache engine counts must be bit-identical to the brute-force
baseline; the batch and parallel paths must agree with the scalar
path; and ``count_answers`` must hit the default engine's plan cache.
"""

import dataclasses

import pytest

from repro import BudgetExceeded, PolicyRejection
from repro.algorithms.brute_force import count_answers_naive
from repro.core.counting import count_answers
from repro.engine import (
    Engine,
    UnknownStructureError,
    WorkerPool,
    compile_plan,
    count_many,
    execute,
)
from repro.engine.api import (
    EngineStats,
    default_engine,
    reset_default_engine,
    set_default_engine,
)
from repro.engine.plan import as_ep
from repro.obs.prom import ENGINE_COUNTERS
from repro.structures.delta import StructureDelta
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.workloads import frontier_query_pair
from repro.workloads.generators import (
    example_5_21_query,
    hidden_clique_query,
    random_conjunctive_query,
    random_ucq,
)
from repro.workloads.scenarios import movie_database, social_network, triple_store


def scenario_cases():
    for scenario in (
        social_network(people=10, seed=0),
        triple_store(papers=8, authors=6, seed=1),
        movie_database(movies=6, actors=8, seed=2),
    ):
        for name, query in scenario.queries.items():
            yield pytest.param(
                query, scenario.structure, id=f"{scenario.name}:{name}"
            )


@pytest.mark.parametrize("query,structure", scenario_cases())
def test_warm_engine_matches_naive_on_scenarios(query, structure):
    engine = Engine()
    cold = engine.count(query, structure)
    warm = engine.count(query, structure)
    naive = count_answers_naive(query, structure)
    assert cold == warm == naive
    assert engine.stats().plan_hits >= 1


@pytest.mark.parametrize("seed", range(5))
def test_warm_engine_matches_naive_on_random_queries(seed):
    engine = Engine()
    structure = random_graph(5, 0.4, seed=seed)
    for query in (
        random_conjunctive_query(4, 3, liberal_count=2, seed=seed),
        random_ucq(2, 4, 3, liberal_count=2, seed=seed),
    ):
        engine.count(query, structure)  # compile
        warm = engine.count(query, structure)
        assert warm == count_answers_naive(as_ep(query), structure)


def test_count_many_matches_scalar_counts():
    queries = [
        "E(x, y)",
        "exists z. (E(x, z) & E(z, y))",
        random_ucq(2, 4, 3, liberal_count=2, seed=3),
    ]
    structures = [random_graph(6, 0.3, seed=s) for s in range(4)]
    engine = Engine()
    grid = engine.count_many(queries, structures, parallel=False)
    for i, query in enumerate(queries):
        for j, structure in enumerate(structures):
            assert grid[i][j] == engine.count(query, structure)


def test_count_many_parallel_matches_sequential():
    queries = ["E(x, y)", "exists z. (E(x, z) & E(z, y))"]
    structures = [random_graph(5, 0.4, seed=s) for s in range(3)]
    sequential = count_many(queries, structures)
    with WorkerPool(processes=2) as pool:
        parallel = count_many(queries, structures, pool=pool)
        assert pool.started
    assert sequential == parallel


def test_compiled_plan_is_reusable_across_structures():
    plan = compile_plan(example_5_21_query())
    for seed in range(4):
        structure = random_graph(6, 0.35, seed=seed)
        assert execute(plan, structure) == count_answers_naive(
            example_5_21_query(), structure
        )


def test_count_answers_routes_through_default_engine():
    fresh = Engine()
    previous = set_default_engine(fresh)
    try:
        structure = random_graph(5, 0.4, seed=11)
        first = count_answers("exists z. (E(x, z) & E(z, y))", structure)
        second = count_answers("exists z. (E(x, z) & E(z, y))", structure)
        assert first == second
        assert fresh.stats().plan_hits >= 1
        assert default_engine() is fresh
    finally:
        set_default_engine(previous)


def test_reset_default_engine_creates_a_fresh_one():
    first = default_engine()
    reset_default_engine()
    second = default_engine()
    assert second is not first


def test_plans_have_no_on_disk_store_option():
    """The in-memory plan cache is the only compile cache: the engine
    refuses a plan-store directory instead of ignoring it."""
    with pytest.raises(TypeError):
        Engine(persistent_cache_dir="plans")


def test_engine_stats_track_time_and_calls():
    engine = Engine()
    structure = random_graph(5, 0.4, seed=4)
    engine.count("E(x, y)", structure)
    stats = engine.stats()
    assert stats.count_calls == 1
    assert stats.compile_seconds > 0
    assert stats.execute_seconds > 0


#: What ``/metrics`` and ``benchmarks/e2e/layers.py`` read; a key that
#: goes missing here breaks them silently.
ENGINE_STATS_KEYS = """
    count_calls batch_calls sharded_calls plan_hits plan_misses
    plan_hit_rate context_hits context_misses context_hit_rate
    boundary_memo_hits boundary_memo_misses
    semijoin_eliminations worker_context_hits
    worker_context_misses registry_hits registry_misses
    registry_registrations
    registry_evictions encoded_resident_bytes delta_applies
    memo_evictions context_invalidations classifications
    policy_rejections budget_aborts compile_seconds execute_seconds
    verdicts
""".split()


def test_engine_stats_as_dict_has_exactly_the_published_keys():
    engine = Engine()
    structure = random_graph(5, 0.4, seed=4)
    engine.count("E(x, y)", structure)
    engine.count("E(x, y)", structure)
    stats = engine.stats()
    snapshot = stats.as_dict()
    assert sorted(snapshot) == sorted(ENGINE_STATS_KEYS)
    assert snapshot["plan_hit_rate"] == stats.plan_hit_rate == 0.5
    assert snapshot["context_hit_rate"] == stats.context_hit_rate
    # A snapshot, not a view: the dict counters are copies.
    snapshot["verdicts"]["FPT"] = 99
    assert stats.verdicts == {"FPT": 1}
    assert not hasattr(stats, "index_hits")


# ----------------------------------------------------------------------
# The counter list: every EngineStats field moves, and resets
# ----------------------------------------------------------------------
#: State, not history: ``reset_stats()`` leaves it alone and
#: ``/metrics`` serves it as a gauge, not a ``_total`` counter.
GAUGES = {"encoded_resident_bytes"}


@pytest.fixture(scope="module")
def moved_then_reset():
    """``(moved, reset)``: the stats after a workload built to move
    every field, and after a ``reset_stats()`` on top of it."""
    path = "exists z. (E(x, z) & E(z, y))"
    graph = random_cluster_graph(4, 6, 0.4, seed=13)
    _, hard = frontier_query_pair(4)
    with Engine(processes=1, registry_max_entries=1) as engine:
        engine.count(path, graph)
        engine.count("exists z. (E(x, z) & E(z, y)) & E(y, w)", graph)
        engine.count(hidden_clique_query(3), random_graph(7, 0.6, seed=2))
        engine.count_many([path], [graph], parallel=False)
        for _ in range(2):  # a worker-context miss, then a hit
            engine.count_sharded(path, graph, shard_count=4, parallel=True)
        with pytest.raises(PolicyRejection):
            engine.count(str(hard), graph, policy="reject")
        with pytest.raises(BudgetExceeded):
            engine.count(
                path,
                random_graph(9, 0.5, seed=3),
                policy={"mode": "budget", "max_steps": 1},
            )
        engine.register_structure("evicted", graph, pin=False)
        engine.register_structure("net", graph, pin=False, shard_count=2)
        engine.count(path, "net")
        with pytest.raises(UnknownStructureError):
            engine.count(path, "evicted")
        engine.apply_delta("net", StructureDelta(inserts={"E": [(0, 1000)]}))
        engine.unregister_structure("net")
        moved = engine.stats()
        engine.reset_stats()
        return moved, engine.stats()


@pytest.mark.parametrize(
    "stat", dataclasses.fields(EngineStats), ids=lambda stat: stat.name
)
def test_every_engine_stat_moves_and_resets(moved_then_reset, stat):
    moved, reset = moved_then_reset
    assert getattr(moved, stat.name), "the workload never moved it"
    if stat.name in GAUGES:
        assert getattr(reset, stat.name) == getattr(moved, stat.name)
    else:
        assert getattr(reset, stat.name) == type(getattr(moved, stat.name))()


def test_prometheus_exposes_every_integer_engine_counter():
    integer_fields = {
        stat.name
        for stat in dataclasses.fields(EngineStats)
        if stat.type in ("int", int)
    }
    assert set(ENGINE_COUNTERS) == integer_fields - GAUGES
