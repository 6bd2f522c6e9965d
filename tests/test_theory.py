"""The paper's identities, checked through every engine route.

One seeded matrix of ``pytest.param`` cells; a failing cell's id names
the seed, the parameter and the route.  The clique reduction: on a
symmetric loop-free graph every k-clique gives ``k!`` answers of the
all-liberal k-clique query, so ``answers_to_clique_count`` of any
route's count must be the #Clique baseline ``count_cliques``.
"""

from __future__ import annotations

import pytest

from repro.algorithms.clique import answers_to_clique_count, clique_query, count_cliques
from repro.engine import Engine
from repro.structures.random_gen import random_graph

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
