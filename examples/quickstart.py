"""Quickstart: counting answers to queries on a small graph.

Run with ``python examples/quickstart.py``.

The example builds a small directed graph, counts the answers of a few
existential positive queries with the library's main entry point
:func:`repro.count_answers`, and cross-checks the result against the
brute-force baselines.
"""

from __future__ import annotations

from repro import Structure, count_answers, parse_query
from repro.algorithms import count_answers_naive, count_ep_answers_by_disjuncts


def main() -> None:
    # A directed graph on 6 vertices: a cycle 0..4 plus a chord and a loop.
    graph = Structure.from_relations(
        {
            "E": [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (1, 4),
                (5, 5),
                (2, 5),
            ]
        }
    )
    print("Graph:")
    print(graph.describe())
    print()

    # 1. A conjunctive query: pairs connected by a directed path of length 2.
    two_step = "exists z. (E(x, z) & E(z, y))"
    print(f"|{two_step}| =", count_answers(two_step, graph))

    # 2. A union of conjunctive queries: pairs at distance exactly 1 or 2.
    #    The header declares the liberal variables explicitly.
    union = "phi(x, y) = E(x, y) | (exists z. (E(x, z) & E(z, y)))"
    print(f"|{union}| =", count_answers(union, graph))

    # 3. Liberal variables beyond the free variables: the count is taken
    #    over (x, y, w) even though w is unconstrained, so every answer of
    #    E(x, y) is multiplied by |universe| choices for w.
    liberal = parse_query("E(x, y)", liberal=["x", "y", "w"])
    print("|E(x, y)| over liberal (x, y, w) =", count_answers(liberal, graph))

    # 4. The paper's pipeline agrees with the brute-force baselines (the
    #    test-suite asserts this property on randomized inputs; here we
    #    just show it).
    print()
    print("Baseline cross-check for the union query:")
    query = parse_query(union)
    for name, value in (
        ("pipeline", count_answers(query, graph)),
        ("naive", count_answers_naive(query, graph)),
        ("disjuncts", count_ep_answers_by_disjuncts(query, graph)),
    ):
        print(f"  {name:>20}: {value}")


if __name__ == "__main__":
    main()
