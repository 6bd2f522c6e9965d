"""Distinguishing structures (Lemmas 5.12 - 5.14, Proposition 5.19).

The backward direction of the equivalence theorem recovers individual
pp-formula counts from counts of the whole EP formula by solving linear
systems.  For the systems to be solvable, the paper needs structures
with two properties:

* **positivity** -- every pp-formula over the vocabulary has at least
  one answer on the structure (so the Vandermonde entries are nonzero);
* **separation** -- formulas from different (semi-)counting-equivalence
  classes have *different* counts on the structure (so the Vandermonde
  nodes are distinct).

Lemma 5.12 proves such structures exist for any finite family of
pairwise non-semi-counting-equivalent liberal pp-formulas.  The proof is
constructive but produces enormous product structures; this module
implements a search that follows the same ingredients -- candidates are
always of the form "something + k copies of the idempotent structure
``I``" (positivity), separation failures are repaired with products as
in the induction step of Lemma 5.12 -- but tries cheap candidates first.
If the bounded search fails, :class:`DistinguishingStructureError` is
raised (the theory guarantees a structure exists; the search budget may
simply be too small).

Proposition 5.19 -- the existence, for pairwise non-counting-equivalent
but semi-counting-equivalent formulas, of a structure satisfying exactly
one of them -- is implemented exactly as in the paper: take a formula
whose structure is minimal in the homomorphism order.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.algorithms.brute_force import count_pp_answers_brute_force
from repro.exceptions import DistinguishingStructureError
from repro.logic.pp import PPFormula
from repro.logic.signatures import Signature
from repro.structures.homomorphism import has_homomorphism
from repro.structures.operations import (
    add_idempotent_copies,
    direct_product,
    disjoint_union,
    relabel_to_integers,
)
from repro.structures.random_gen import random_structure
from repro.structures.structure import Structure, complete_structure


def _strip_variables(structure: Structure) -> Structure:
    """Relabel a formula structure so it can serve as a data structure."""
    return relabel_to_integers(structure)


def _formula_data_structures(formulas: Sequence[PPFormula], signature: Signature) -> list[Structure]:
    out = []
    for formula in formulas:
        out.append(_strip_variables(formula.structure.with_signature(signature)))
    return out


def _candidate_structures(
    formulas: Sequence[PPFormula],
    signature: Signature,
    seed: int,
    rounds: int,
) -> Iterable[Structure]:
    """Candidate base structures ``B`` (positivity is added by the caller)."""
    data = _formula_data_structures(formulas, signature)
    # The formulas' own structures, their disjoint union, and pairwise products.
    yield from data
    if len(data) > 1:
        yield relabel_to_integers(disjoint_union(*data))
    for i in range(len(data)):
        for j in range(i, len(data)):
            yield relabel_to_integers(direct_product(data[i], data[j]))
    # Small complete structures (these realize the count 2^|lib| of
    # Observation 5.5 and scale differently with each liberal set).
    for size in (2, 3):
        yield complete_structure(signature, range(size))
    # Random structures of growing size and density.
    rng = random.Random(seed)
    for round_index in range(rounds):
        size = 3 + round_index % 5
        density = 0.2 + 0.15 * (round_index % 4)
        yield random_structure(signature, size, density, seed=rng.randrange(1 << 30))


def _counts(formulas: Sequence[PPFormula], structure: Structure) -> list[int]:
    return [count_pp_answers_brute_force(f, structure) for f in formulas]


def separating_structure(
    first: PPFormula,
    second: PPFormula,
    seed: int = 0,
    max_idempotent_copies: int = 6,
    search_rounds: int = 40,
) -> Structure:
    """A structure on which all counts are positive and the two formulas differ.

    Implements Lemma 5.13: starting from a base structure where the
    (hatted) formulas have different counts, adding ``k`` copies of the
    idempotent structure ``I`` makes all counts positive while, for some
    small ``k``, preserving the difference (the counts are distinct
    polynomials in ``k``).
    """
    signature = first.signature | second.signature
    first = first.with_signature(signature)
    second = second.with_signature(signature)
    for base in _candidate_structures([first, second], signature, seed, search_rounds):
        for copies in range(1, max_idempotent_copies + 1):
            candidate = relabel_to_integers(add_idempotent_copies(base, copies))
            first_count = count_pp_answers_brute_force(first, candidate)
            second_count = count_pp_answers_brute_force(second, candidate)
            if first_count > 0 and second_count > 0 and first_count != second_count:
                return candidate
    raise DistinguishingStructureError(
        "could not find a separating structure for the given pair within the "
        "search budget; if the formulas are not semi-counting equivalent a "
        "larger budget (search_rounds / max_idempotent_copies) will succeed"
    )


def find_distinguishing_structure(
    formulas: Sequence[PPFormula],
    seed: int = 0,
    max_idempotent_copies: int = 6,
    search_rounds: int = 40,
    max_product_repairs: int = 4,
) -> Structure:
    """A structure that is positive everywhere and separates the given formulas.

    The formulas are expected to be pairwise non-semi-counting-equivalent
    (typically: one representative per semi-counting-equivalence class).
    The returned structure ``C`` satisfies

    * ``|phi(C)| > 0`` for every pp-formula ``phi`` over the vocabulary
      (because ``C`` always contains a disjoint idempotent element), and
    * ``|phi_i(C)| != |phi_j(C)|`` for all ``i != j``.

    Search strategy: try cheap candidates (``base + k.I``) first; if a
    candidate separates some but not all pairs, repair it with products
    against pairwise separating structures, following the induction step
    of Lemma 5.12.
    """
    if not formulas:
        raise DistinguishingStructureError("need at least one formula")
    signature = formulas[0].signature
    for formula in formulas[1:]:
        signature = signature | formula.signature
    formulas = [f.with_signature(signature) for f in formulas]

    if len(formulas) == 1:
        base = _strip_variables(formulas[0].structure)
        return relabel_to_integers(add_idempotent_copies(base, 1))

    def is_distinguishing(candidate: Structure) -> bool:
        counts = _counts(formulas, candidate)
        return all(c > 0 for c in counts) and len(set(counts)) == len(counts)

    best_candidate: Structure | None = None
    best_distinct = -1
    for base in _candidate_structures(formulas, signature, seed, search_rounds):
        for copies in range(1, max_idempotent_copies + 1):
            candidate = relabel_to_integers(add_idempotent_copies(base, copies))
            counts = _counts(formulas, candidate)
            if any(c == 0 for c in counts):
                continue
            distinct = len(set(counts))
            if distinct == len(formulas):
                return candidate
            if distinct > best_distinct:
                best_distinct = distinct
                best_candidate = candidate

    # Product repair (Lemma 5.12 induction step): take the best partial
    # separator and multiply with pairwise separators of colliding pairs.
    if best_candidate is not None:
        candidate = best_candidate
        for _ in range(max_product_repairs):
            counts = _counts(formulas, candidate)
            colliding = _first_collision(counts)
            if colliding is None:
                return candidate
            i, j = colliding
            try:
                pair_separator = separating_structure(
                    formulas[i], formulas[j], seed=seed, search_rounds=search_rounds
                )
            except DistinguishingStructureError:
                break
            candidate = relabel_to_integers(direct_product(candidate, pair_separator))
            if is_distinguishing(candidate):
                return candidate
    raise DistinguishingStructureError(
        "could not find a distinguishing structure within the search budget; "
        "increase search_rounds / max_product_repairs, or check that the "
        "formulas are pairwise non-semi-counting-equivalent"
    )


def _first_collision(counts: Sequence[int]) -> tuple[int, int] | None:
    seen: dict[int, int] = {}
    for index, value in enumerate(counts):
        if value in seen:
            return seen[value], index
        seen[value] = index
    return None


def uniquely_satisfied_structure(formulas: Sequence[PPFormula]) -> tuple[int, Structure]:
    """Proposition 5.19: a structure satisfying exactly one of the formulas.

    The formulas must be semi-counting equivalent and pairwise not
    counting equivalent.  Following the paper, order the formula
    structures by homomorphism and pick a minimal one ``A_i``: no other
    formula's structure maps into it, so ``A_i`` (as a data structure)
    satisfies ``phi_i`` but no ``phi_j`` with ``j != i``.  Returns the
    index ``i`` and the structure.
    """
    if not formulas:
        raise DistinguishingStructureError("need at least one formula")
    signature = formulas[0].signature
    for formula in formulas[1:]:
        signature = signature | formula.signature
    normalized = [f.with_signature(signature) for f in formulas]
    structures = [_strip_variables(f.structure) for f in normalized]

    def maps_into(i: int, j: int) -> bool:
        return has_homomorphism(structures[i], structures[j])

    for i in range(len(normalized)):
        if not any(maps_into(j, i) for j in range(len(normalized)) if j != i):
            return i, structures[i]
    raise DistinguishingStructureError(
        "no minimal formula found; the formulas are probably not pairwise "
        "non-counting-equivalent (their structures are homomorphically comparable in cycles)"
    )
