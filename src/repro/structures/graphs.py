"""Gaifman graphs and connectivity of pp-formulas.

To every prenex pp-formula ``(A, S)`` the paper assigns a graph (its
Gaifman graph) whose vertices are ``A ∪ S`` and whose edges connect two
vertices that occur together in some tuple of a relation of ``A``.  The
graph drives two notions used throughout:

* **components** of a pp-formula: the restrictions of the formula to the
  connected components of its graph.  Answer counts multiply over
  components, which the proofs of Section 5.2 exploit.
* **treewidth** of a pp-formula (treewidth of its graph) and of the
  *contract graph*, which together define the tractability frontier.

These graphs are formula-sized, so a graph is a plain adjacency dict
(:data:`Graph`: each vertex to the set of its neighbours, no
self-loops).  This module provides the graph constructions; the
treewidth algorithms live in :mod:`repro.algorithms.treewidth`.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.structures.structure import Element, Structure

#: An undirected graph: every vertex to the set of its neighbours.
Graph = dict[Hashable, set[Hashable]]


def gaifman_graph(structure: Structure, extra_vertices: Iterable[Element] = ()) -> Graph:
    """The Gaifman graph of a structure.

    Vertices are the universe elements plus ``extra_vertices`` (used to
    include liberal variables that occur in no atom); two vertices are
    adjacent when they occur together in a tuple of some relation.
    """
    graph: Graph = {v: set() for v in structure.universe}
    for v in extra_vertices:
        graph.setdefault(v, set())
    for tuples in structure.relations.values():
        for t in tuples:
            for v in t:
                graph[v].update(t)
    for v, neighbors in graph.items():
        neighbors.discard(v)
    return graph


def graph_components(graph: Graph) -> list[frozenset]:
    """The vertex sets of the connected components of ``graph``, in the
    order of their first vertex in ``graph``."""
    components, reached = [], set()
    for start in graph:
        if start in reached:
            continue
        reached.add(start)
        component, stack = [start], [start]
        while stack:
            for neighbor in graph[stack.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    component.append(neighbor)
                    stack.append(neighbor)
        components.append(frozenset(component))
    return components


def connected_components(structure: Structure, extra_vertices: Iterable[Element] = ()) -> list[frozenset[Element]]:
    """Connected components of the Gaifman graph, as vertex sets.

    Components are returned in a deterministic order (sorted by the
    representation of their smallest vertex).
    """
    components = graph_components(gaifman_graph(structure, extra_vertices))
    return sorted(components, key=lambda c: min(repr(v) for v in c))


def component_substructures(
    structure: Structure, liberal: Iterable[Element]
) -> list[tuple[Structure, frozenset[Element]]]:
    """Split a pp-formula ``(structure, liberal)`` into its components.

    Returns a list of pairs ``(A_i, S_i)`` where ``A_i`` is the induced
    substructure on the ``i``-th connected component ``C`` of the graph
    and ``S_i = liberal ∩ C``; this is exactly the definition of
    components in Section 2.1 of the paper.  Liberal variables that occur
    in no atom form singleton components with no tuples.
    """
    liberal_set = frozenset(liberal)
    pieces: list[tuple[Structure, frozenset[Element]]] = []
    for component in connected_components(structure, extra_vertices=liberal_set):
        sub = structure.restrict(component & structure.universe)
        pieces.append((sub, liberal_set & component))
    return pieces
