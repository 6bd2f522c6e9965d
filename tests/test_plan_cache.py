"""Plan-cache behavior: keys, hits, invalidation, eviction, single-flight."""

import threading

import pytest

from repro.engine import Engine
from repro.engine.cache import LRUCache, PlanCache, canonical_query_form
from repro.engine.plan import as_ep
from repro.exceptions import ReproError
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.structures.random_gen import random_graph
from repro.workloads.generators import path_query, random_ucq


def test_lru_cache_eviction_order():
    cache = LRUCache(2)
    cache.get_or_compute("a", lambda: 1)
    cache.get_or_compute("b", lambda: 2)
    cache.get_or_compute("a", lambda: 0)  # refresh a
    cache.get_or_compute("c", lambda: 3)  # evicts b
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.hits == 1 and cache.misses == 3


def test_lru_cache_rejects_zero_capacity():
    with pytest.raises(ReproError):
        LRUCache(0)


def test_concurrent_misses_compute_once():
    """Single-flight: N racing threads on one absent key -> one compute.

    The barrier lines every thread up before the lookup, the event
    keeps the leader's compute slow enough that every follower arrives
    while it is in flight; exactly one compilation must run and the
    miss counter must say so.
    """
    cache = LRUCache(4)
    threads = 8
    barrier = threading.Barrier(threads)
    release = threading.Event()
    computed = []

    def compute():
        computed.append(1)
        release.wait(timeout=5)
        return "value"

    results = [None] * threads

    def worker(i):
        barrier.wait(timeout=5)
        results[i] = cache.get_or_compute("key", compute)

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    # All threads are either computing or waiting on the flight now.
    release.set()
    for t in pool:
        t.join(timeout=10)
    assert results == ["value"] * threads
    assert len(computed) == 1
    assert cache.misses == 1
    assert cache.hits == threads - 1


def test_single_flight_propagates_leader_error_then_recovers():
    cache = LRUCache(4)

    def explode():
        raise ValueError("compile failed")

    with pytest.raises(ValueError):
        cache.get_or_compute("key", explode)
    # The failed flight is cleaned up: the next call computes fresh.
    assert cache.get_or_compute("key", lambda: 42) == 42
    assert cache.misses == 2


def test_single_flight_does_not_overfill_capacity():
    cache = LRUCache(2)
    for i in range(10):
        cache.get_or_compute(i, lambda i=i: i)
    assert len(cache) == 2


def test_canonical_form_unifies_call_styles():
    pp = path_query(2, quantify_interior=True)
    as_text = "exists x1. (E(x0, x1) & E(x1, x2))"
    assert canonical_query_form(pp) == canonical_query_form(EPFormula.from_pp(pp))
    assert canonical_query_form(pp) == canonical_query_form(parse_query(as_text))


def _printed_queries():
    from test_encoding import GENERATOR_QUERIES
    from test_theory import K4_SENTENCE_QUERY

    cells = [pytest.param(q, id=name) for name, q in GENERATOR_QUERIES.items()]
    cells.append(pytest.param(parse_query("exists a b. (E(a, b) & E(b, a))"), id="sentence"))
    cells.append(pytest.param(K4_SENTENCE_QUERY, id="k4_sentence"))
    cells.append(
        pytest.param(parse_query("Q(x) = E(x, x) | exists y. (E(x, y) & T)"), id="truth")
    )
    return cells


@pytest.mark.parametrize("query", _printed_queries())
def test_a_printed_query_parses_back_to_itself(query):
    # A sentence prints an empty header, ``phi() = ...``.
    query = as_ep(query)
    assert parse_query(str(query)) == query


def test_plan_cache_hits_across_call_styles():
    cache = PlanCache(capacity=8, max_disjuncts=16)
    pp = path_query(2, quantify_interior=True)
    cache.get(pp)
    cache.get(EPFormula.from_pp(pp))
    assert cache.hits == 1 and cache.misses == 1


def test_the_query_shape_picks_the_plan_kind():
    cache = PlanCache(capacity=8, max_disjuncts=16)
    assert cache.get("E(x, y)").kind == "pp-fpt"
    assert cache.get("E(x, y) | E(y, x)").kind == "ep-plus"
    assert cache.misses == 2


@pytest.mark.parametrize("max_disjuncts", [None, 8], ids=["default", "eight"])
def test_membership_sees_a_compiled_plan_under_the_engines_limit(max_disjuncts):
    """``query in engine.plans`` probes under the engine's own
    ``max_disjuncts`` (and through the parse cache), touching no plan
    statistics."""
    engine = Engine() if max_disjuncts is None else Engine(max_disjuncts=max_disjuncts)
    query = "exists z. (E(x, z) & E(z, y))"
    assert query not in engine.plans
    engine.compile(query)
    assert query in engine.plans
    assert parse_query(query) in engine.plans
    assert "E(y, x)" not in engine.plans
    assert engine.stats().plan_misses == 1 and engine.stats().plan_hits == 0


def test_plan_keys_separate_disjunct_limits():
    query = "E(x, y) | E(y, x)"
    small, large = PlanCache(max_disjuncts=8), PlanCache(max_disjuncts=16)
    small.get(query)
    assert query in small and query not in large


def test_a_plan_cache_compiles_under_its_own_limit():
    query = "E(x, y) | E(y, x)"
    tight = PlanCache(max_disjuncts=1)
    with pytest.raises(ReproError):
        tight.get(query)  # two disjuncts exceed the cache's limit
    assert query not in tight and len(tight) == 0
    assert PlanCache(max_disjuncts=2).get(query).kind == "ep-plus"


def test_alpha_equivalent_texts_share_one_plan():
    """The key is the canonical form alone: renaming a quantified
    variable is a hit on the same compiled plan."""
    cache = PlanCache(capacity=8)
    first = cache.get("exists z. (E(x, z) & E(z, y))")
    second = cache.get("exists w. (E(x, w) & E(w, y))")
    assert second is first
    assert cache.hits == 1 and cache.misses == 1


def test_plan_cache_get_takes_only_the_query():
    with pytest.raises(TypeError):
        PlanCache().get("E(x, y)", store=None)


def test_plan_cache_eviction_recompiles():
    engine = Engine(plan_cache_size=2)
    structure = random_graph(4, 0.5, seed=0)
    queries = ["E(x, y)", "E(y, x)", "exists z. (E(x, z) & E(z, y))"]
    for query in queries:
        engine.count(query, structure)
    # The first query was evicted by the third; counting it again misses.
    engine.count(queries[0], structure)
    assert engine.stats().plan_misses == 4
    assert engine.stats().plan_hits == 0


def test_clear_caches_invalidates_plans():
    engine = Engine()
    structure = random_graph(4, 0.5, seed=1)
    engine.count("E(x, y)", structure)
    engine.clear_caches()
    engine.count("E(x, y)", structure)
    stats = engine.stats()
    assert stats.plan_misses == 2 and stats.plan_hits == 0
    engine.reset_stats()
    assert engine.stats().plan_misses == 0


def test_cached_plans_return_identical_counts_after_eviction():
    engine = Engine(plan_cache_size=1)
    structure = random_graph(5, 0.4, seed=2)
    query = random_ucq(2, 4, 3, liberal_count=2, seed=5)
    first = engine.count(query, structure)
    engine.count("E(x, y)", structure)  # evicts the UCQ plan
    second = engine.count(query, structure)  # recompiled
    assert first == second


def test_parse_cache_memoizes_query_text():
    cache = PlanCache(capacity=8)
    first = cache.resolve("E(x, y)")
    second = cache.resolve("E(x, y)")
    assert first is second
