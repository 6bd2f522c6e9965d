"""Algorithms substrate: counting, treewidth and elimination orderings, cliques."""

from repro.algorithms.treewidth import (
    elimination_groups,
    min_degree_ordering,
    min_fill_ordering,
    treewidth,
    treewidth_exact,
    treewidth_upper_bound,
    width_of_ordering,
)
from repro.algorithms.csp import (
    Constraint,
    CSPInstance,
    count_solutions_backtracking,
)
from repro.algorithms.brute_force import (
    count_answers_naive,
    count_ep_answers_by_disjuncts,
    count_pp_answers_brute_force,
    enumerate_answers_naive,
    satisfies,
)
from repro.algorithms.fpt_counting import (
    ExistsComponent,
    contract_graph,
    count_pp_answers_fpt,
    exists_components,
)
from repro.algorithms.clique import (
    answers_to_clique_count,
    clique_query,
    clique_query_family,
    count_cliques,
    enumerate_cliques,
)

__all__ = [
    "elimination_groups",
    "min_degree_ordering",
    "min_fill_ordering",
    "treewidth",
    "treewidth_exact",
    "treewidth_upper_bound",
    "width_of_ordering",
    "Constraint",
    "CSPInstance",
    "count_solutions_backtracking",
    "count_answers_naive",
    "count_ep_answers_by_disjuncts",
    "count_pp_answers_brute_force",
    "enumerate_answers_naive",
    "satisfies",
    "ExistsComponent",
    "contract_graph",
    "count_pp_answers_fpt",
    "exists_components",
    "answers_to_clique_count",
    "clique_query",
    "clique_query_family",
    "count_cliques",
    "enumerate_cliques",
]
