"""Workload generators: query families, random queries and domain scenarios."""

from repro.algorithms.clique import clique_query
from repro.workloads.generators import (
    cycle_query,
    example_4_1_query,
    example_4_2_query,
    example_5_21_query,
    frontier_family,
    frontier_query_pair,
    grid_query,
    hidden_clique_query,
    path_query,
    random_conjunctive_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)
from repro.workloads.scenarios import (
    Scenario,
    all_scenarios,
    movie_database,
    social_network,
    tenant_network,
    triple_store,
)

__all__ = [
    "clique_query",
    "cycle_query",
    "frontier_family",
    "frontier_query_pair",
    "example_4_1_query",
    "example_4_2_query",
    "example_5_21_query",
    "grid_query",
    "hidden_clique_query",
    "path_query",
    "random_conjunctive_query",
    "random_ucq",
    "star_query",
    "union_of_paths_query",
    "Scenario",
    "all_scenarios",
    "movie_database",
    "social_network",
    "tenant_network",
    "triple_store",
]
