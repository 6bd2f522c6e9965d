"""Tree decompositions.

A tree decomposition of a graph ``G`` is a tree whose nodes carry *bags*
of vertices of ``G`` such that

1. every vertex of ``G`` appears in some bag,
2. for every edge of ``G`` some bag contains both endpoints, and
3. for every vertex, the bags containing it form a connected subtree
   (the running-intersection property).

The *width* of a decomposition is the size of its largest bag minus one;
the treewidth of ``G`` is the minimum width over all decompositions.

Treewidth drives the tractability frontier of the paper: the FPT cases
of the trichotomy are exactly the query classes whose cores and contract
graphs have bounded treewidth, and the counting algorithms in
:mod:`repro.algorithms.csp` run in time exponential only in the width of
the decomposition they are given.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Mapping

import networkx as nx

from repro.exceptions import DecompositionError

Vertex = Hashable
BagId = int


class TreeDecomposition:
    """An immutable tree decomposition.

    Parameters
    ----------
    bags:
        A mapping from bag identifiers (any hashable; usually integers)
        to iterables of graph vertices.
    edges:
        The edges of the decomposition tree, as pairs of bag identifiers.
        For a single-bag decomposition this may be empty.
    """

    __slots__ = ("_bags", "_tree")

    def __init__(
        self,
        bags: Mapping[BagId, Iterable[Vertex]],
        edges: Iterable[tuple[BagId, BagId]] = (),
    ):
        self._bags: dict[BagId, frozenset[Vertex]] = {
            bag_id: frozenset(content) for bag_id, content in bags.items()
        }
        if not self._bags:
            raise DecompositionError("a tree decomposition needs at least one bag")
        tree = nx.Graph()
        tree.add_nodes_from(self._bags)
        for left, right in edges:
            if left not in self._bags or right not in self._bags:
                raise DecompositionError(f"edge ({left!r}, {right!r}) references unknown bags")
            tree.add_edge(left, right)
        if not nx.is_tree(tree):
            raise DecompositionError("the decomposition's bag graph is not a tree")
        self._tree = tree

    # ------------------------------------------------------------------
    @property
    def bags(self) -> dict[BagId, frozenset[Vertex]]:
        """A copy of the bag mapping."""
        return dict(self._bags)

    @property
    def tree(self) -> nx.Graph:
        """The decomposition tree (a networkx graph over bag ids)."""
        return self._tree.copy()

    def bag(self, bag_id: BagId) -> frozenset[Vertex]:
        """The contents of one bag."""
        return self._bags[bag_id]

    @property
    def width(self) -> int:
        """The width of the decomposition (largest bag size minus one)."""
        return max(len(bag) for bag in self._bags.values()) - 1

    def vertices(self) -> frozenset[Vertex]:
        """All graph vertices covered by the decomposition."""
        out: set[Vertex] = set()
        for bag in self._bags.values():
            out |= bag
        return frozenset(out)

    def __len__(self) -> int:
        return len(self._bags)

    def __iter__(self) -> Iterator[BagId]:
        return iter(self._bags)

    # ------------------------------------------------------------------
    def elimination_order(self) -> tuple[tuple[Vertex, ...], ...]:
        """The vertices in groups, in an order to eliminate them.

        Repeatedly peels a leaf bag off the tree and emits, as one
        group (``repr``-sorted), its vertices that its neighbor does
        not hold; the last bag emits what is left.  By the
        running-intersection property a group's vertices occur in no
        bag still on the tree, so eliminating them -- in any order
        inside the group -- only ever connects vertices of their bag:
        the induced width is at most this decomposition's width.  A
        leaf whose neighbor it contains passes its vertices on to the
        neighbor instead, so groups are as large, and leave the data
        as much choice, as the width allows.  Iterative, so a
        decomposition of any depth is fine.
        """
        bags = dict(self._bags)
        degree = {bag_id: self._tree.degree(bag_id) for bag_id in bags}
        leaves = deque(bag_id for bag_id, d in degree.items() if d <= 1)
        peeled: set[BagId] = set()
        groups = []
        while leaves:
            bag_id = leaves.popleft()
            peeled.add(bag_id)
            neighbor = next(
                (n for n in self._tree.neighbors(bag_id) if n not in peeled), None
            )
            if neighbor is None:
                held = frozenset()
            elif bags[neighbor] < bags[bag_id]:
                bags[neighbor] = held = bags[bag_id]
            else:
                held = bags[neighbor]
            group = sorted(bags[bag_id] - held, key=repr)
            if group:
                groups.append(tuple(group))
            if neighbor is not None:
                degree[neighbor] -= 1
                if degree[neighbor] == 1:
                    leaves.append(neighbor)
        return tuple(groups)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TreeDecomposition(width={self.width}, bags={len(self._bags)})"


def trivial_decomposition(graph: nx.Graph) -> TreeDecomposition:
    """The one-bag decomposition containing every vertex."""
    vertices = list(graph.nodes) or ["<empty>"]
    return TreeDecomposition({0: vertices})


def decomposition_from_elimination_ordering(
    graph: nx.Graph, ordering: list[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from a vertex elimination ordering.

    Eliminating a vertex connects all its remaining neighbors into a
    clique; the bag created for the vertex is the vertex together with
    those neighbors.  The bag of a vertex is connected to the bag of its
    earliest-eliminated remaining neighbor, which yields a valid
    decomposition whose width is the maximum back-degree of the
    ordering.
    """
    if set(ordering) != set(graph.nodes):
        raise DecompositionError("ordering must list every vertex exactly once")
    if not ordering:
        return trivial_decomposition(graph)
    working = graph.copy()
    position = {vertex: index for index, vertex in enumerate(ordering)}
    bags: dict[int, set[Vertex]] = {}
    neighbors_at_elimination: dict[Vertex, set[Vertex]] = {}
    for index, vertex in enumerate(ordering):
        neighbors = set(working.neighbors(vertex))
        neighbors_at_elimination[vertex] = neighbors
        bags[index] = {vertex} | neighbors
        for left in neighbors:
            for right in neighbors:
                if left != right:
                    working.add_edge(left, right)
        working.remove_node(vertex)
    edges: list[tuple[int, int]] = []
    for index, vertex in enumerate(ordering):
        neighbors = neighbors_at_elimination[vertex]
        if neighbors:
            successor = min(neighbors, key=lambda v: position[v])
            edges.append((index, position[successor]))
    # The bag graph built this way is a forest with one component per
    # connected component of the input graph (isolated vertices included);
    # link the components into a single tree before constructing the
    # decomposition.
    forest = nx.Graph()
    forest.add_nodes_from(bags)
    forest.add_edges_from(edges)
    components = list(nx.connected_components(forest))
    if len(components) > 1:
        anchor = min(components[0])
        for component in components[1:]:
            edges.append((anchor, min(component)))
    return TreeDecomposition(bags, edges)
