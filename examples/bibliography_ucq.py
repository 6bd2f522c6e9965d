"""Counting a union of conjunctive queries over a bibliography.

Run with ``python examples/bibliography_ucq.py``.

A UCQ is an existential positive formula: one ``parse_query`` text
whose header ``Related(p, q) = ...`` names the liberal (output)
variables and whose ``|`` separates the conjunctive disjuncts.  The
example counts its answers on the triple-store scenario, prints the
per-query structural report, and materializes the (small) answer set
of a second query with the brute-force oracle.
"""

from __future__ import annotations

from repro import classify_query, count_answers, parse_query
from repro.algorithms.brute_force import count_answers_naive, enumerate_answers_naive
from repro.workloads import triple_store


def main() -> None:
    structure = triple_store(papers=20, authors=10, seed=3).structure
    schema = sorted(structure.signature, key=lambda symbol: symbol.name)
    print("Schema:", ", ".join(f"{s.name}/{s.arity}" for s in schema))
    print("Rows:", structure.total_tuples, " Domain size:", structure.size)
    print()

    # Pairs of papers related by citation in either direction, or by
    # sharing an author: three conjunctive queries, one union.
    related = parse_query(
        "Related(p, q) = Cites(p, q) | Cites(q, p)"
        " | exists a. (Wrote(a, p) & Wrote(a, q))"
    )
    print("Query:", related)
    count = count_answers(related, structure)
    assert count == count_answers_naive(related, structure), "pipeline disagrees"
    print("Answer count:", count)

    # Structural report: which case of the trichotomy does the family of
    # queries shaped like this one fall into?
    classification = classify_query(related, treewidth_bound=1)
    print("Classification (bound w=1):", classification.case.value)
    print("  ", classification.summary())
    print()

    # Small result sets can be materialized by the brute-force oracle.
    self_citers = parse_query(
        "SelfCite(a) = exists p q. (Wrote(a, p) & Wrote(a, q) & Cites(p, q))"
    )
    answers = list(enumerate_answers_naive(self_citers, structure))
    assert len(answers) == count_answers(self_citers, structure), "pipeline disagrees"
    print("Self-citing authors:", len(answers))
    for answer in answers[:5]:
        print("   ", {variable.name: value for variable, value in answer.items()})


if __name__ == "__main__":
    main()
