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

This module provides the graph constructions; the treewidth algorithms
live in :mod:`repro.algorithms.treewidth`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import networkx as nx

from repro.structures.structure import Element, Structure


def gaifman_graph(structure: Structure, extra_vertices: Iterable[Element] = ()) -> nx.Graph:
    """The Gaifman graph of a structure.

    Vertices are the universe elements plus ``extra_vertices`` (used to
    include liberal variables that occur in no atom); two vertices are
    adjacent when they occur together in a tuple of some relation.
    """
    graph = nx.Graph()
    graph.add_nodes_from(structure.universe)
    graph.add_nodes_from(extra_vertices)
    for tuples in structure.relations.values():
        for t in tuples:
            distinct = sorted(set(t), key=repr)
            for left, right in combinations(distinct, 2):
                graph.add_edge(left, right)
    return graph


def connected_components(structure: Structure, extra_vertices: Iterable[Element] = ()) -> list[frozenset[Element]]:
    """Connected components of the Gaifman graph, as vertex sets.

    Components are returned in a deterministic order (sorted by the
    representation of their smallest vertex).
    """
    graph = gaifman_graph(structure, extra_vertices)
    components = [frozenset(c) for c in nx.connected_components(graph)]
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


def is_connected_formula(structure: Structure, liberal: Iterable[Element]) -> bool:
    """True if the pp-formula ``(structure, liberal)`` is connected."""
    return len(component_substructures(structure, liberal)) <= 1
