"""Walk through the worked examples of the paper (Sections 4 and 5).

Run with ``python examples/paper_examples.py``.

Reproduces, with the library's public API:

* Example 4.1 -- inclusion-exclusion over the disjuncts of
  ``phi(w,x,y,z) = E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))``;
* Example 4.2 / 5.15 -- cancellation of counting-equivalent terms, which
  removes every treewidth-2 term from the expansion;
* Example 4.3 -- recovering the pp-formula counts from an oracle for the
  EP formula by solving a Vandermonde system;
* Example 5.21 -- the general construction ``theta -> theta+`` in the
  presence of a sentence disjunct.
"""

from __future__ import annotations

import sys

from repro import Structure, count_answers, counting_equivalent, star_decomposition
from repro.algorithms import count_pp_answers_brute_force
from repro.core import (
    OracleCallCounter,
    make_brute_force_oracle,
    plus_decomposition,
    raw_inclusion_exclusion,
    recover_star_counts,
)
from repro.workloads import example_4_1_query, example_4_2_query, example_5_21_query


def example_4_1() -> None:
    print("=" * 72)
    print("Example 4.1: inclusion-exclusion over two disjuncts")
    print("=" * 72)
    query = example_4_1_query()
    print("phi:", query)
    structure = Structure.from_relations({"E": [(1, 2), (2, 3), (3, 4), (4, 4)]})
    disjuncts = query.disjuncts()
    for disjunct in disjuncts:
        print("  disjunct:", disjunct, "->", count_pp_answers_brute_force(disjunct, structure))
    conjunction = disjuncts[0].conjoin(disjuncts[1])
    print("  phi1 & phi2:", count_pp_answers_brute_force(conjunction, structure))
    total = count_answers(query, structure)
    print("  |phi(B)| =", total, "(= |phi1| + |phi2| - |phi1 & phi2|)")
    print()


def example_4_2() -> None:
    print("=" * 72)
    print("Example 4.2 / 5.15: cancellation in inclusion-exclusion")
    print("=" * 72)
    query = example_4_2_query()
    print("phi:", query)
    raw = raw_inclusion_exclusion(query.disjuncts())
    cancelled = star_decomposition(query.disjuncts())
    print(f"  raw expansion: {len(raw)} terms, max treewidth {raw.max_treewidth()}")
    print(f"  after cancellation: {len(cancelled)} terms, max treewidth {cancelled.max_treewidth()}")
    for term in cancelled.terms:
        print(f"    {term.coefficient:+d} * |{term.formula}|")
    phi1, phi2, phi3 = query.disjuncts()
    print("  phi1 ~count phi2:", counting_equivalent(phi1, phi2))
    print("  phi1 ~count phi3:", counting_equivalent(phi1, phi3))
    print()


def example_4_3() -> int:
    """Print the recovered counts; return how many differ from the
    direct counts."""
    print("=" * 72)
    print("Example 4.3: recovering pp-counts from an EP oracle (Vandermonde)")
    print("=" * 72)
    query = example_4_1_query()
    structure = Structure.from_relations({"E": [(1, 2), (2, 3), (3, 4), (4, 4)]})
    oracle = OracleCallCounter(make_brute_force_oracle(query))
    recovered = recover_star_counts(query, structure, oracle)
    mismatches = 0
    for formula, value in recovered.items():
        direct = count_pp_answers_brute_force(formula, structure)
        status = "ok" if value == direct else "MISMATCH"
        mismatches += value != direct
        print(f"  |{formula}| = {value} (direct {direct}) [{status}]")
    print(f"  oracle calls used: {oracle.calls}")
    print()
    return mismatches


def example_5_21() -> None:
    print("=" * 72)
    print("Example 5.21: the general construction with a sentence disjunct")
    print("=" * 72)
    query = example_5_21_query()
    decomposition = plus_decomposition(query.disjuncts())
    print("  sentence disjuncts:", len(decomposition.sentence_disjuncts))
    print("  phi*_af:", [str(f) for f in decomposition.star.formulas()])
    print("  phi-_af:", [str(f) for f in decomposition.minus])
    print("  phi+ has", len(decomposition.plus), "formulas:")
    for formula in decomposition.plus:
        print("    ", formula)
    triangle = Structure.from_relations({"E": [(1, 2), (2, 3), (3, 1)]})
    print("  |theta| on a triangle:", count_answers(query, triangle),
          "(the sentence disjunct holds, so the count is |B|^|V| = 3^4)")
    short_path = Structure.from_relations({"E": [(1, 2), (2, 3)]})
    print("  |theta| on a 2-edge path:", count_answers(query, short_path),
          "(no length-3 path, so only the free part contributes)")
    print()


def main() -> int:
    """Run every example; the exit status is 1 if a recovered count is
    wrong."""
    example_4_1()
    example_4_2()
    mismatches = example_4_3()
    example_5_21()
    if mismatches:
        print(f"{mismatches} recovered count(s) differ from the direct count")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
