"""The engine-independent oracle.

Catalogue queries get hand-written reference functions over plain
successor dicts.  Every catalogue query is connected, so its answer
count is additive over the data's connected components (Section 2.1 of
the paper); the oracle computes it per generator cluster and sums, which
is also what makes it incremental: a delta inside one cluster only
recomputes that cluster.

Ad-hoc UCQs are counted from a boolean truth table over the small
structure -- the semantics written out, no rewriting.
"""

from __future__ import annotations


def successors(edges) -> dict[int, set[int]]:
    succ: dict[int, set[int]] = {}
    for source, target in edges:
        succ.setdefault(source, set()).add(target)
    return succ


def walks(succ, length: int) -> int:
    """Homomorphisms of the directed path with ``length`` edges."""
    ending = {node: 1 for node in succ}
    for _ in range(length):
        following: dict[int, int] = {}
        for node, count in ending.items():
            for target in succ.get(node, ()):
                following[target] = following.get(target, 0) + count
        ending = following
    return sum(ending.values())


def _reach(succ, source: int, length: int) -> set[int]:
    frontier = {source}
    for _ in range(length):
        frontier = {t for node in frontier for t in succ.get(node, ())}
    return frontier


def pairs_by_walk(succ, lengths) -> int:
    """Pairs ``(x, y)`` joined by a walk of one of the given lengths."""
    return sum(
        len(set().union(*(_reach(succ, source, n) for n in lengths)))
        for source in succ
    )


def stars(succ, rays: int) -> int:
    return sum(len(targets) ** rays for targets in succ.values())


def star_centres(succ) -> int:
    return sum(1 for targets in succ.values() if targets)


def triangles(succ) -> int:
    """Homomorphisms of the directed 3-cycle (ordered triples)."""
    pred: dict[int, set[int]] = {}
    for source, targets in succ.items():
        for target in targets:
            pred.setdefault(target, set()).add(source)
    return sum(
        len(succ.get(b, set()) & pred.get(a, set()))
        for a, targets in succ.items()
        for b in targets
    )


#: Reference function per ``inputs.CATALOGUE`` key.
REFERENCE = {
    "p1": lambda succ: walks(succ, 1),
    "p2": lambda succ: walks(succ, 2),
    "p3": lambda succ: walks(succ, 3),
    "p2q": lambda succ: pairs_by_walk(succ, (2,)),
    "p3q": lambda succ: pairs_by_walk(succ, (3,)),
    "s2": lambda succ: stars(succ, 2),
    "s2q": star_centres,
    "tri": triangles,
    "u12": lambda succ: pairs_by_walk(succ, (1, 2)),
}


class ClusterOracle:
    """Per-cluster reference counts of some catalogue queries."""

    def __init__(self, graph, keys):
        self.graph = graph
        self.keys = tuple(keys)
        self.per_cluster = [self._count(c) for c in range(graph.clusters)]

    def _count(self, cluster: int) -> dict[str, int]:
        succ = successors(self.graph.edges_by_cluster[cluster])
        return {key: REFERENCE[key](succ) for key in self.keys}

    def refresh(self, cluster: int) -> None:
        """Recompute one cluster after the graph changed inside it."""
        self.per_cluster[cluster] = self._count(cluster)

    def total(self, key: str) -> int:
        return sum(counts[key] for counts in self.per_cluster)


def ucq_count(universe_size: int, edges, liberal, disjuncts) -> int:
    """``|phi(B)|`` of a UCQ over ``E/2`` by truth table.

    ``liberal`` are the shared liberal variable names and each disjunct
    a list of ``(source, target)`` variable-name atoms; variables of a
    disjunct outside ``liberal`` are existentially quantified.  One
    boolean axis per variable: atoms AND in, quantified axes are
    ``any``-ed out, disjuncts OR together (a liberal variable a
    disjunct does not mention stays unconstrained by broadcasting).
    """
    import numpy as np

    n = universe_size
    adjacency = np.zeros((n, n), dtype=bool)
    for source, target in edges:
        adjacency[source, target] = True
    k = len(liberal)
    answers = np.zeros((n,) * k, dtype=bool)
    for atoms in disjuncts:
        mentioned = {name for atom in atoms for name in atom}
        names = list(liberal) + sorted(mentioned - set(liberal))
        axis = {name: index for index, name in enumerate(names)}
        table = np.ones((1,) * len(names), dtype=bool)
        for source, target in atoms:
            shape = [1] * len(names)
            shape[axis[source]] = n
            if source == target:
                relation = adjacency.diagonal()
            else:
                shape[axis[target]] = n
                relation = adjacency if axis[source] < axis[target] else adjacency.T
            table = table & relation.reshape(shape)
        if len(names) > k:
            table = table.any(axis=tuple(range(k, len(names))))
        answers |= table
    return int(answers.sum())
