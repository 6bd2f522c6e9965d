"""Oracle reductions between EP counting and PP counting (Theorem 5.20 / 3.1).

The *equivalence theorem* states that counting answers to an EP formula
``phi`` and counting answers to the pp-formulas of ``phi+`` are
interreducible.  The interesting direction is the backward one: given an
oracle that counts ``phi`` on structures of our choice, recover the
count of an individual pp-formula ``psi in phi+`` on a given structure
``B``.  The machinery is the one previewed in Example 4.3:

1. by Proposition 5.16, ``|phi(D)| = sum_j c_j |psi_j(D)|`` over the
   star formulas;
2. for a distinguishing structure ``C`` (Lemma 5.12) the counts
   ``|psi_j(C)|`` are positive and constant on each semi-counting
   equivalence class but distinct across classes, so querying the oracle
   on ``B x C^l`` for ``l = 0, 1, ..., s-1`` yields a linear system
   whose matrix is a Vandermonde matrix -- invertible, and solvable in
   exact integer arithmetic;
3. the solution gives the per-class sums ``sum_{psi in class_j} c_psi
   |psi(B)|``; Lemma 5.18 splits a class sum into the individual counts
   by multiplying ``B`` with structures that satisfy exactly one formula
   of the class (Proposition 5.19).

All linear algebra is done with :class:`fractions.Fraction`, so results
are exact integers, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from repro.algorithms.brute_force import count_pp_answers_brute_force
from repro.core.distinguishing import (
    find_distinguishing_structure,
    uniquely_satisfied_structure,
)
from repro.core.ep_to_pp import PlusDecomposition, plus_decomposition, sentence_holds
from repro.core.inclusion_exclusion import LinearCombination, star_decomposition
from repro.core.semi_equivalence import group_by_semi_counting_equivalence
from repro.exceptions import OracleError
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.structures.operations import direct_product, disjoint_union, power, relabel_to_integers
from repro.structures.structure import Structure

#: An oracle for a fixed EP formula: maps a structure to the answer count.
StructureOracle = Callable[[Structure], int]


# ----------------------------------------------------------------------
# Exact linear algebra
# ----------------------------------------------------------------------
def solve_vandermonde_system(nodes: Sequence[int], rhs: Sequence[int]) -> list[Fraction]:
    """Solve ``sum_j nodes[j]**l * x_j = rhs[l]`` for ``l = 0..len(nodes)-1``.

    The nodes must be pairwise distinct (this is what the distinguishing
    structure guarantees); the system then has a unique solution, which
    is returned as exact fractions.
    """
    size = len(nodes)
    if len(rhs) != size:
        raise OracleError("right-hand side length must match the number of nodes")
    if len(set(nodes)) != size:
        raise OracleError(f"Vandermonde nodes must be distinct, got {list(nodes)!r}")
    # Build the augmented matrix with Fractions and run Gaussian elimination.
    matrix = [
        [Fraction(nodes[j]) ** level for j in range(size)] + [Fraction(rhs[level])]
        for level in range(size)
    ]
    for column in range(size):
        pivot_row = next(
            (row for row in range(column, size) if matrix[row][column] != 0), None
        )
        if pivot_row is None:
            raise OracleError("singular Vandermonde system; nodes were not distinct")
        matrix[column], matrix[pivot_row] = matrix[pivot_row], matrix[column]
        pivot = matrix[column][column]
        matrix[column] = [value / pivot for value in matrix[column]]
        for row in range(size):
            if row != column and matrix[row][column] != 0:
                factor = matrix[row][column]
                matrix[row] = [
                    value - factor * pivot_value
                    for value, pivot_value in zip(matrix[row], matrix[column])
                ]
    return [matrix[row][size] for row in range(size)]


def _as_int(value: Fraction, context: str) -> int:
    if value.denominator != 1:
        raise OracleError(f"expected an integer {context}, got {value}")
    return int(value)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def make_brute_force_oracle(query: EPFormula) -> StructureOracle:
    """An oracle that answers ``|query(.)|`` by brute-force enumeration.

    Used by the tests and ``examples/paper_examples.py`` to *simulate*
    the oracle the reductions assume; in the paper the oracle is the
    hypothetical algorithm whose existence the reduction transfers.
    """
    from repro.algorithms.brute_force import count_ep_answers_by_disjuncts

    def oracle(structure: Structure) -> int:
        return count_ep_answers_by_disjuncts(query, structure)

    return oracle


@dataclass
class OracleCallCounter:
    """Wraps an oracle and counts how many times it is invoked."""

    oracle: StructureOracle
    calls: int = 0

    def __call__(self, structure: Structure) -> int:
        self.calls += 1
        return self.oracle(structure)


# ----------------------------------------------------------------------
# The all-free backward reduction (Theorem 5.20)
# ----------------------------------------------------------------------
class StarCountRecovery:
    """Recovers ``|psi(B)|`` for every ``psi in phi*`` from a ``phi`` oracle.

    ``star`` is the cancelled decomposition of an all-free EP formula
    ``phi`` (:func:`~repro.core.inclusion_exclusion.star_decomposition`
    of its disjuncts); ``oracle`` answers ``|phi(D)|`` for structures
    ``D`` of the reduction's choice.  The distinguishing structure and
    the semi-counting-equivalence classes only depend on the query, so
    they are computed once per instance and shared across calls to
    :meth:`recover` -- exactly the "preprocessing of the parameter" that
    fixed-parameter tractability allows.
    """

    def __init__(
        self,
        star: LinearCombination,
        oracle: StructureOracle,
        seed: int = 0,
    ):
        self.oracle = oracle
        self.star = star
        formulas = list(self.star.formulas())
        self.coefficient_of: dict[PPFormula, int] = {
            term.formula: term.coefficient for term in self.star.terms
        }
        self.classes = group_by_semi_counting_equivalence(formulas)
        representatives = [group[0] for group in self.classes]
        self.distinguishing = find_distinguishing_structure(representatives, seed=seed)
        self.nodes = [
            count_pp_answers_brute_force(representative, self.distinguishing)
            for representative in representatives
        ]
        if len(set(self.nodes)) != len(self.nodes) or any(n <= 0 for n in self.nodes):
            raise OracleError(
                "the distinguishing structure does not separate the "
                "semi-counting-equivalence classes; this is a bug in the search"
            )

    # -- class sums ------------------------------------------------------
    def class_sums(self, structure: Structure) -> list[int]:
        """The per-class sums ``sum_{psi in class_j} c_psi |psi(B)|``.

        Obtained by querying the oracle on ``B x C^l`` for
        ``l = 0..s-1`` and solving the Vandermonde system.
        """
        size = len(self.classes)
        rhs = []
        for level in range(size):
            product = structure if level == 0 else relabel_to_integers(
                direct_product(structure, power(self.distinguishing, level))
            )
            rhs.append(self.oracle(product))
        solution = solve_vandermonde_system(self.nodes, rhs)
        return [_as_int(value, "class sum") for value in solution]

    # -- splitting a class (Lemma 5.18) ----------------------------------
    def _split_class(
        self,
        formulas: Sequence[PPFormula],
        class_oracle: Callable[[Structure], int],
        structure: Structure,
    ) -> dict[PPFormula, int]:
        """Lemma 5.18: recover individual counts from a class-sum oracle.

        ``formulas`` are semi-counting equivalent and pairwise not
        counting equivalent; ``class_oracle(D)`` returns
        ``sum_i c_i |formulas[i](D)|``.
        """
        if not formulas:
            return {}
        if len(formulas) == 1:
            formula = formulas[0]
            coefficient = self.coefficient_of[formula]
            total = class_oracle(structure)
            if total % coefficient:
                raise OracleError("class sum is not divisible by the coefficient")
            return {formula: total // coefficient}
        index, witness = uniquely_satisfied_structure(formulas)
        target = formulas[index]
        coefficient = self.coefficient_of[target]
        witness_count = count_pp_answers_brute_force(target, witness)
        if witness_count <= 0:
            raise OracleError("witness structure does not satisfy its own formula")

        def count_target(base: Structure) -> int:
            product = relabel_to_integers(direct_product(base, witness))
            value = class_oracle(product)
            if value % (coefficient * witness_count):
                raise OracleError(
                    "oracle values are inconsistent with the Lemma 5.18 recursion"
                )
            return value // (coefficient * witness_count)

        result = {target: count_target(structure)}
        remaining = [f for i, f in enumerate(formulas) if i != index]

        def reduced_oracle(base: Structure) -> int:
            return class_oracle(base) - coefficient * count_target(base)

        result.update(self._split_class(remaining, reduced_oracle, structure))
        return result

    # -- public entry points ---------------------------------------------
    def recover(self, structure: Structure) -> dict[PPFormula, int]:
        """Recover ``|psi(structure)|`` for every star formula ``psi``."""
        out: dict[PPFormula, int] = {}
        sums = self.class_sums(structure)
        for class_index, group in enumerate(self.classes):
            if len(group) == 1:
                formula = group[0]
                coefficient = self.coefficient_of[formula]
                if sums[class_index] % coefficient:
                    raise OracleError("class sum is not divisible by the coefficient")
                out[formula] = sums[class_index] // coefficient
                continue

            def class_oracle(base: Structure, class_index=class_index) -> int:
                return self.class_sums(base)[class_index]

            out.update(self._split_class(group, class_oracle, structure))
        return out

    def recover_one(self, formula: PPFormula, structure: Structure) -> int:
        """Recover the count of a single star formula."""
        counts = self.recover(structure)
        if formula not in counts:
            raise OracleError(f"{formula} is not one of the star formulas of the query")
        return counts[formula]


def recover_star_counts(
    query: EPFormula,
    structure: Structure,
    oracle: StructureOracle,
    seed: int = 0,
) -> dict[PPFormula, int]:
    """One-shot convenience wrapper around :class:`StarCountRecovery`
    for an all-free EP formula."""
    star = star_decomposition(query.disjuncts())
    return StarCountRecovery(star, oracle, seed=seed).recover(structure)


# ----------------------------------------------------------------------
# The general backward reduction (Section 5.4 / Appendix A)
# ----------------------------------------------------------------------
def _free_part_factor(decomposition: PlusDecomposition) -> Structure:
    """The structure ``C`` used to neutralize sentence disjuncts.

    The appendix takes the disjoint union of the structures of the
    formulas in ``phi-_af``; it must (i) give every ``phi-_af`` formula a
    positive count and (ii) satisfy no sentence disjunct, so that on any
    product ``D x C`` the formula agrees with its all-free part.  The
    disjoint union is tried first; if a sentence disjunct happens to hold
    on it (possible when a sentence has several components entailed by
    different ``phi-_af`` formulas), a search over alternative candidates
    is performed.
    """
    minus = decomposition.minus
    sentences = decomposition.sentence_disjuncts
    if not minus:
        raise OracleError("the decomposition has no free part to neutralize")
    candidates: list[Structure] = []
    pieces = [relabel_to_integers(f.structure) for f in minus]
    if len(pieces) == 1:
        candidates.append(pieces[0])
    else:
        candidates.append(relabel_to_integers(disjoint_union(*pieces)))
        candidates.extend(pieces)

    def acceptable(candidate: Structure) -> bool:
        if any(sentence_holds(sentence, candidate) for sentence in sentences):
            return False
        return all(count_pp_answers_brute_force(f, candidate) > 0 for f in minus)

    for candidate in candidates:
        if acceptable(candidate):
            return candidate
    raise OracleError(
        "could not find a structure on which every phi-_af formula is positive "
        "and no sentence disjunct holds; the query's sentence disjuncts are "
        "entailed by combinations of its free disjuncts"
    )


def count_pp_via_ep_oracle(
    target: PPFormula,
    query: EPFormula,
    structure: Structure,
    oracle: StructureOracle,
    seed: int = 0,
    decomposition: PlusDecomposition | None = None,
) -> int:
    """Count ``|target(structure)|`` using only an oracle for ``|query(.)|``.

    ``target`` must belong to ``phi+`` (the plus set of ``query``).  This
    is the backward direction of the equivalence theorem in its general
    form: free formulas are recovered through the all-free machinery on
    products with a sentence-neutralizing factor, and sentence disjuncts
    are recovered through the maximum-count trick of Appendix A.
    """
    if decomposition is None:
        decomposition = plus_decomposition(query.disjuncts())
    liberal = decomposition.liberal

    if target in decomposition.minus:
        # Appendix A: run the all-free recovery on B x C, where C is a
        # structure on which no sentence disjunct holds.  Every structure
        # the recovery passes to the oracle then has C as a direct factor,
        # so the query agrees with its all-free part there and the oracle
        # answers are the all-free counts the recovery expects.
        factor = _free_part_factor(decomposition)
        recovery = StarCountRecovery(decomposition.star, oracle, seed=seed)
        product = relabel_to_integers(direct_product(structure, factor))
        target_on_product = recovery.recover_one(target, product)
        target_on_factor = count_pp_answers_brute_force(target, factor)
        if target_on_factor <= 0:
            raise OracleError("the neutralizing factor does not satisfy the target formula")
        if target_on_product % target_on_factor:
            raise OracleError("product count is not divisible by the factor count")
        return target_on_product // target_on_factor

    for sentence in decomposition.sentence_disjuncts:
        if sentence == target:
            witness = relabel_to_integers(sentence.structure)
            product = relabel_to_integers(direct_product(witness, structure))
            observed = oracle(product)
            maximum = (len(witness.universe) * len(structure.universe)) ** len(liberal)
            if observed == maximum:
                return len(structure.universe) ** len(liberal)
            return 0
    raise OracleError(f"{target} does not belong to the plus set of the query")
