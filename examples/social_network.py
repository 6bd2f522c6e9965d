"""Counting query answers on a synthetic social network.

Run with ``python examples/social_network.py``.

The paper motivates answer counting with decision-support queries over
large data; this example plays that scenario on a synthetic
follows-graph: how many follower-of-follower pairs are there, how many
pairs follow each other inside the same community, and so on.  It also
compares the paper's counting pipeline against the naive enumeration
baseline on growing data.
"""

from __future__ import annotations

import time

from repro import count_answers, parse_query
from repro.algorithms import count_answers_naive
from repro.workloads import social_network


def report_counts() -> None:
    scenario = social_network(people=40, follow_probability=0.06, seed=7)
    structure = scenario.structure
    print(f"Structure: {structure!r}")
    print(f"Universe size: {structure.size}, total rows: {structure.total_tuples}")
    print()
    print(f"{'query':>28} | {'answers':>9}")
    print("-" * 42)
    for name, query in scenario.queries.items():
        count = count_answers(query, structure)
        print(f"{name:>28} | {count:>9}")
    print()


def scaling_comparison() -> None:
    """Compare the paper pipeline against naive enumeration on a 4-ary query.

    The follows-chain query has four output variables, so the naive
    baseline enumerates ``|universe|**4`` assignments while the pipeline
    counts along a treewidth-1 decomposition; the gap widens rapidly
    with the number of people.
    """
    chain = parse_query(
        "Chain(x, y, z, w) = Follows(x, y) & Follows(y, z) & Follows(z, w)"
    )
    print("Scaling: paper pipeline vs naive enumeration on a 4-variable chain query")
    print(f"{'people':>7} | {'paper (s)':>9} | {'naive (s)':>10} | {'answers':>9}")
    print("-" * 46)
    for people in (8, 12, 16, 20):
        structure = social_network(
            people=people, follow_probability=0.15, seed=11
        ).structure

        start = time.perf_counter()
        fast = count_answers(chain, structure)
        fast_seconds = time.perf_counter() - start

        start = time.perf_counter()
        slow = count_answers_naive(chain, structure)
        slow_seconds = time.perf_counter() - start

        assert fast == slow, "pipeline and baseline disagree -- this is a bug"
        print(f"{people:>7} | {fast_seconds:>9.4f} | {slow_seconds:>10.4f} | {fast:>9}")
    print()
    print("The naive baseline enumerates |universe|^4 assignments; the paper")
    print("pipeline counts along a treewidth-1 decomposition of the query, so")
    print("its cost grows with the data's edge count rather than the fourth")
    print("power of the universe size.")


def main() -> None:
    report_counts()
    scaling_comparison()


if __name__ == "__main__":
    main()
