"""Cliques: the hard side of the trichotomy.

The intractable cases of the classification are calibrated against the
(parameterized) clique problem and its counting version:

* case (2) formula classes are interreducible with ``p-Clique``
  (W[1]-complete), and
* case (3) classes are at least as hard as ``p-#Clique``
  (#W[1]-complete).

This module provides the clique and #clique baselines themselves
(decision and counting by enumeration over vertex subsets, with degree
pruning) and the canonical hard query families used by the benchmarks:
the *clique queries*, whose contract graphs are complete graphs and
which therefore fall outside every bounded-treewidth class.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from repro.exceptions import WorkloadError
from repro.logic.builder import pp_from_atom_specs
from repro.logic.pp import PPFormula
from repro.structures.structure import Element, Structure


def _adjacency(graph: Structure, relation: str, symmetric: bool) -> dict[Element, set[Element]]:
    adjacency: dict[Element, set[Element]] = {v: set() for v in graph.universe}
    for source, target in graph.relation(relation):
        if source == target:
            continue
        adjacency[source].add(target)
        if symmetric:
            adjacency[target].add(source)
    return adjacency


def enumerate_cliques(
    graph: Structure, k: int, relation: str = "E", directed_as_undirected: bool = True
) -> Iterator[frozenset[Element]]:
    """Enumerate the ``k``-cliques of a graph structure.

    A ``k``-clique is a set of ``k`` vertices that are pairwise adjacent.
    When ``directed_as_undirected`` is true (default) an edge in either
    direction counts as adjacency; otherwise both directions are
    required.
    """
    if k < 0:
        raise WorkloadError("k must be non-negative")
    if k == 0:
        yield frozenset()
        return
    adjacency = _adjacency(graph, relation, symmetric=directed_as_undirected)
    if not directed_as_undirected:
        both = {v: {u for u in adjacency[v] if v in adjacency.get(u, set())} for v in adjacency}
        adjacency = both
    vertices = sorted(adjacency, key=repr)

    def extend(clique: list[Element], candidates: list[Element]) -> Iterator[frozenset[Element]]:
        if len(clique) == k:
            yield frozenset(clique)
            return
        needed = k - len(clique)
        for index, vertex in enumerate(candidates):
            if len(candidates) - index < needed:
                return
            remaining = [u for u in candidates[index + 1 :] if u in adjacency[vertex]]
            yield from extend(clique + [vertex], remaining)

    yield from extend([], vertices)


def count_cliques(graph: Structure, k: int, relation: str = "E") -> int:
    """Count the ``k``-cliques of a graph structure (the #Clique baseline)."""
    return sum(1 for _ in enumerate_cliques(graph, k, relation))


def has_clique(graph: Structure, k: int, relation: str = "E") -> bool:
    """Decide whether a graph structure contains a ``k``-clique."""
    return next(enumerate_cliques(graph, k, relation), None) is not None


def clique_query(k: int, relation: str = "E", liberal: bool = True) -> PPFormula:
    """The ``k``-clique query as a pp-formula.

    Variables ``x0, ..., x{k-1}``; atoms ``E(xi, xj)`` for every ordered
    pair ``i != j`` (so it matches cliques of directed graphs with edges
    in both directions, and of symmetric structures).  With
    ``liberal=True`` (default) all variables are liberal, so the answer
    count on a graph with a symmetric edge relation is ``k! *``
    (number of k-cliques).  With ``liberal=False`` the query is a
    sentence (pure clique existence).

    With every variable liberal the contract graph *is* the query
    graph, so both the contract and the core have treewidth ``k - 1``:
    for ``k >= bound + 2`` the query fails both halves of the
    tractability condition and classifies as p-#Clique-hard -- the
    canonical witness on the intractable side of the frontier.
    """
    if k < 1:
        raise WorkloadError("k must be at least 1")
    variables = [f"x{i}" for i in range(k)]
    specs = [
        (relation, (variables[i], variables[j]))
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    if k == 1:
        # A single vertex: no edge atoms; use a self-loop-free convention
        # by constraining nothing (every vertex is a 1-clique).
        return PPFormula.from_atoms([], liberal=variables if liberal else [])
    if liberal:
        return pp_from_atom_specs(specs, liberal=variables)
    return pp_from_atom_specs(specs, quantified=variables).with_liberal([])


def clique_query_family(max_k: int, relation: str = "E") -> list[PPFormula]:
    """The family of clique queries for ``k = 2 .. max_k``.

    This family violates the contraction condition's boundedness (its
    contract graphs are the complete graphs), so it lands in the hard
    cases of the trichotomy; it is the canonical witness used by the
    hardness benchmarks.
    """
    if max_k < 2:
        raise WorkloadError("max_k must be at least 2")
    return [clique_query(k, relation) for k in range(2, max_k + 1)]


def answers_to_clique_count(answer_count: int, k: int) -> int:
    """Convert the answer count of the liberal clique query into #k-cliques.

    On a symmetric graph, every k-clique contributes ``k!`` answers (one
    per ordering of the variables), so the number of cliques is the
    answer count divided by ``k!``.
    """
    import math

    factorial = math.factorial(k)
    if answer_count % factorial:
        raise WorkloadError(
            "answer count is not divisible by k!; was the graph symmetric and loop-free?"
        )
    return answer_count // factorial
