"""Treewidth computation: exact for small graphs, heuristic otherwise.

The classification machinery needs the treewidth of two graphs derived
from each query: the graph of its core and its contract graph.  Both are
formula-sized (their vertices are query variables), so an exact
exponential algorithm is perfectly adequate; heuristics are provided for
experiments on larger synthetic graphs and as a fast upper bound.

Exact algorithm
---------------
One memoized dynamic program of Bodlaender, Fomin, Koster, Kratsch and
Thilikos (*On exact algorithms for treewidth*, ESA 2006) over subsets
of vertices, in :func:`_solve`.  For a subset ``S`` already
eliminated, ``rest(S)`` is the least width that eliminates the rest:
the minimum over the next vertex ``v`` of ``max(q(S, v), rest(S ∪
{v}))``, where ``q(S, v)`` counts the vertices outside ``S`` adjacent
to ``v`` *through* ``S`` (reachable from ``v`` via internal vertices in
``S``), which is ``v``'s degree in the graph ``S``'s elimination
leaves.  The treewidth is ``rest(∅)``, and an optimal ordering is read
from the same memo by a walk that keeps ``rest`` at the width.  Runs in
``O*(2^n)`` and is used up to :data:`DEFAULT_EXACT_THRESHOLD` vertices.

Heuristics
----------
Min-degree and min-fill elimination orderings, returning both an upper
bound and the ordering that witnesses it.  Each keeps its vertices'
keys in a heap and recomputes, after an elimination, only the keys the
elimination can change.

Graphs are :data:`repro.structures.graphs.Graph` adjacency dicts.  An
ordering is turned into the groups the count sums out by
:func:`elimination_groups`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Hashable, Iterator, Sequence

from repro.exceptions import DecompositionError
from repro.structures.graphs import Graph

Vertex = Hashable

#: The number of vertices up to which the exact algorithm is used: the
#: one cutoff of every compiled width and every profile measure.
DEFAULT_EXACT_THRESHOLD = 13


# ----------------------------------------------------------------------
# Elimination-ordering heuristics
# ----------------------------------------------------------------------
def _fill_in(neighbors: dict[Vertex, set[Vertex]], vertex: Vertex) -> int:
    """The edges eliminating ``vertex`` would add between its neighbours."""
    around = neighbors[vertex] - {vertex}
    adjacent_twice = sum(
        len(neighbors[other] & around) - (other in neighbors[other]) for other in around
    )
    return len(around) * (len(around) - 1) // 2 - adjacent_twice // 2


def _greedy_ordering(graph: Graph, fill: bool) -> list[Vertex]:
    """Repeatedly eliminate the vertex of least ``(fill-in, degree, repr)``
    (``fill``) or ``(degree, repr)``, ties in node order.

    Each vertex's key sits in a heap (stale entries are skipped when
    popped).  Eliminating ``v`` changes only the degrees of ``v``'s
    neighbours and only the fill-ins of those neighbours and of their
    neighbours, so only their keys are recomputed.
    """
    neighbors = {v: set(around) for v, around in graph.items()}
    by_rank = sorted(graph, key=repr)
    rank = {v: i for i, v in enumerate(by_rank)}

    def key(vertex: Vertex) -> tuple[int, ...]:
        # A self-loop counts twice towards the degree.
        degree = len(neighbors[vertex]) + (vertex in neighbors[vertex])
        if fill:
            return (_fill_in(neighbors, vertex), degree, rank[vertex])
        return (degree, rank[vertex])

    current = {v: key(v) for v in by_rank}
    heap = list(current.values())
    heapq.heapify(heap)
    ordering: list[Vertex] = []
    while heap:
        entry = heapq.heappop(heap)
        vertex = by_rank[entry[-1]]
        if current.get(vertex) != entry:
            continue
        del current[vertex]
        ordering.append(vertex)
        around = neighbors.pop(vertex) - {vertex}
        for other in around:
            neighbors[other].discard(vertex)
            neighbors[other] |= around - {other}
        touched = set(around)
        if fill:
            for other in around:
                touched |= neighbors[other]
        for other in touched:
            updated = key(other)
            if updated != current[other]:
                current[other] = updated
                heapq.heappush(heap, updated)
    return ordering


def min_degree_ordering(graph: Graph) -> list[Vertex]:
    """The min-degree elimination ordering."""
    return _greedy_ordering(graph, fill=False)


def min_fill_ordering(graph: Graph) -> list[Vertex]:
    """The min-fill elimination ordering (minimize edges added per step)."""
    return _greedy_ordering(graph, fill=True)


def _eliminations(graph: Graph, ordering: Sequence[Vertex]) -> Iterator[set[Vertex]]:
    """Each vertex's later neighbours in the graph ``ordering`` fills
    in: eliminating a vertex joins its remaining neighbours into a
    clique."""
    if set(ordering) != set(graph) or len(ordering) != len(graph):
        raise DecompositionError("ordering must list every vertex exactly once")
    working = {v: set(around) - {v} for v, around in graph.items()}
    for vertex in ordering:
        later = working.pop(vertex)
        for other in later:
            working[other] |= later
            working[other] -= {other, vertex}
        yield later


def width_of_ordering(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """The width induced by an elimination ordering (max back-degree)."""
    return max((len(later) for later in _eliminations(graph, ordering)), default=-1)


def elimination_groups(
    graph: Graph, ordering: Sequence[Vertex]
) -> tuple[tuple[Vertex, ...], ...]:
    """The vertices in groups, in an order to eliminate them.

    Bag ``i`` is ``ordering[i]`` with its later neighbours, and its
    parent is the bag of the earliest of them; this forest is linked
    into a tree by joining bag 0 to the least bag of every other
    component, a tree decomposition of width
    :func:`width_of_ordering`.  The groups repeatedly peel a leaf bag
    off it and emit, ``repr``-sorted, its vertices that its neighbour
    does not hold; the last bag emits what is left.  By the
    running-intersection property a group's vertices occur in no bag
    still on the tree, so eliminating them -- in any order inside the
    group -- only ever connects vertices of their bag.  A leaf whose
    neighbour it contains passes its vertices on to the neighbour
    instead, so groups are as large, and leave the data as much
    choice, as the width allows.  Iterative, so any depth is fine.
    """
    position = {vertex: i for i, vertex in enumerate(ordering)}
    bags, edges = [], []
    least = list(range(len(ordering)))  # the least bag of each subtree
    for i, (vertex, later) in enumerate(zip(ordering, _eliminations(graph, ordering))):
        bags.append(frozenset(later | {vertex}))
        if later:
            parent = min(position[v] for v in later)
            edges.append((i, parent))
            least[parent] = min(least[parent], least[i])
        elif least[i]:
            # A root comes after every bag of its forest component.
            edges.append((least[i], 0))
    tree: list[set[int]] = [set() for _ in bags]
    for left, right in edges:
        tree[left].add(right)
        tree[right].add(left)
    degree = [len(neighbors) for neighbors in tree]
    leaves = deque(i for i, d in enumerate(degree) if d <= 1)
    peeled: set[int] = set()
    groups = []
    while leaves:
        bag = leaves.popleft()
        peeled.add(bag)
        neighbor = next((n for n in tree[bag] if n not in peeled), None)
        if neighbor is None:
            held = frozenset()
        elif bags[neighbor] < bags[bag]:
            bags[neighbor] = held = bags[bag]
        else:
            held = bags[neighbor]
        group = sorted(bags[bag] - held, key=repr)
        if group:
            groups.append(tuple(group))
        if neighbor is not None:
            degree[neighbor] -= 1
            if degree[neighbor] == 1:
                leaves.append(neighbor)
    return tuple(groups)


def treewidth_upper_bound(
    graph: Graph, heuristic: str = "min_fill"
) -> tuple[int, list[Vertex]]:
    """A heuristic upper bound on treewidth plus the elimination
    ordering that witnesses it.

    ``heuristic`` is ``"min_fill"`` (default) or ``"min_degree"``.
    """
    if heuristic == "min_fill":
        ordering = min_fill_ordering(graph)
    elif heuristic == "min_degree":
        ordering = min_degree_ordering(graph)
    else:
        raise DecompositionError(f"unknown heuristic {heuristic!r}")
    return width_of_ordering(graph, ordering), ordering


# ----------------------------------------------------------------------
# Exact treewidth
# ----------------------------------------------------------------------
def _adjacency(graph: Graph) -> tuple[list[Vertex], tuple[int, ...]]:
    """The vertices in ``repr`` order and each one's neighbours as a
    bitmask over that order."""
    vertices = sorted(graph, key=repr)
    index_of = {v: i for i, v in enumerate(vertices)}
    adjacency = tuple(
        sum(1 << index_of[n] for n in graph[v]) for v in vertices
    )
    return vertices, adjacency


def _solve(adjacency: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """``(treewidth, optimal elimination ordering)`` of the graph whose
    vertex ``i`` has the neighbour bitmask ``adjacency[i]``.

    One memoized subset DP: ``rest(S)`` is the least width with which
    the vertices outside ``S`` can be eliminated once those in ``S``
    are, the treewidth is ``rest(∅)``.  The ordering is read from the
    same memo: at every step, the first vertex by (degree in the
    filled graph, index) whose degree is at most the width and after
    which ``rest`` stays at most the width.
    """
    n = len(adjacency)
    if n == 0:
        return -1, ()
    full = (1 << n) - 1

    def q(eliminated: int, vertex: int) -> int:
        """Neighbours of ``vertex`` outside ``eliminated`` reachable
        through it: ``vertex``'s degree once ``eliminated`` is."""
        seen = 1 << vertex
        frontier = adjacency[vertex]
        reachable_outside = 0
        while True:
            new_inside = frontier & eliminated & ~seen
            reachable_outside |= frontier & ~eliminated & ~seen
            if not new_inside:
                break
            seen |= new_inside
            next_frontier = 0
            bits = new_inside
            while bits:
                low = bits & -bits
                next_frontier |= adjacency[low.bit_length() - 1]
                bits ^= low
            frontier = next_frontier
        return bin(reachable_outside).count("1")

    memo = {full: -1}

    def rest(eliminated: int) -> int:
        best = memo.get(eliminated)
        if best is None:
            best = n
            bits = full ^ eliminated
            while bits:
                low = bits & -bits
                bits ^= low
                degree = q(eliminated, low.bit_length() - 1)
                # max(degree, rest(...)) cannot beat ``best`` otherwise.
                if degree < best:
                    best = min(best, max(degree, rest(eliminated | low)))
            memo[eliminated] = best
        return best

    width = rest(0)
    ordering: list[int] = []
    eliminated = 0
    while eliminated != full:
        candidates = sorted(
            (q(eliminated, v), v) for v in range(n) if not eliminated >> v & 1
        )
        for degree, vertex in candidates:
            if degree > width:
                break
            if rest(eliminated | 1 << vertex) <= width:
                ordering.append(vertex)
                eliminated |= 1 << vertex
                break
        else:
            raise DecompositionError(
                "failed to recover an optimal elimination ordering; "
                "this indicates a bug in the exact treewidth computation"
            )
    return width, tuple(ordering)


def _exact_treewidth_value(graph: Graph) -> int:
    """Exact treewidth via subset dynamic programming."""
    return _solve(_adjacency(graph)[1])[0]


def treewidth_exact(graph: Graph) -> tuple[int, list[Vertex]]:
    """The exact treewidth and an optimal elimination ordering."""
    vertices, adjacency = _adjacency(graph)
    width, indices = _solve(adjacency)
    return width, [vertices[i] for i in indices]


def treewidth(graph: Graph) -> tuple[int, list[Vertex]]:
    """Treewidth of ``graph``: exact when small, best heuristic otherwise.

    Returns ``(width, ordering)``, an elimination ordering of that
    width (-1 and no vertex for the empty graph).  For graphs with at
    most :data:`DEFAULT_EXACT_THRESHOLD` vertices the result is exact;
    otherwise it is the better of the min-fill and min-degree upper
    bounds.
    """
    if len(graph) <= DEFAULT_EXACT_THRESHOLD:
        return treewidth_exact(graph)
    fill_width, fill_ordering = treewidth_upper_bound(graph, "min_fill")
    degree_width, degree_ordering = treewidth_upper_bound(graph, "min_degree")
    if fill_width <= degree_width:
        return fill_width, fill_ordering
    return degree_width, degree_ordering
