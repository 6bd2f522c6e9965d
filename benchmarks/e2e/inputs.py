"""Seeded input generation.

Everything the program receives -- edges, query texts, deltas -- derives
from ``--seed`` through the plain-Python generators below.  The graph is
kept as per-cluster edge sets so the oracle (``oracle.py``) can work on
the raw data without ever touching a ``repro`` object.
"""

from __future__ import annotations

import random

#: Generator arguments per size.  The gated size is ``full``; larger
#: points (``--cluster-size 40`` is the 1e5-tuple one) run outside the
#: contract -- see README "Sizes".
SIZES = {
    "full": dict(clusters=100, cluster_size=20, edge_probability=0.65, shard_count=50),
    "quick": dict(clusters=60, cluster_size=16, edge_probability=0.70, shard_count=30),
}

#: The small structure ad-hoc UCQs run on: 16 elements so the oracle's
#: truth table (16^5 cells) stays a few milliseconds per query.
SMALL = dict(clusters=2, cluster_size=8, edge_probability=0.90)

#: Catalogue queries, all from ``repro.workloads.generators`` with the
#: generators' own variable names.  Key -> (generator, args, kwargs).
CATALOGUE = {
    "p1": ("path_query", (1,), {}),
    "p2": ("path_query", (2,), {}),
    "p3": ("path_query", (3,), {}),
    "p2q": ("path_query", (2,), {"quantify_interior": True}),
    "p3q": ("path_query", (3,), {"quantify_interior": True}),
    "s2": ("star_query", (2,), {}),
    "s2q": ("star_query", (2,), {"quantify_leaves": True}),
    "tri": ("cycle_query", (3,), {}),
    "u12": ("union_of_paths_query", ([1, 2],), {}),
}

#: warm-http-mix hot set, most popular first (zipf weight 1/rank).
HOT_SET = ("p2q", "u12", "p1", "p2", "s2", "p3q", "s2q", "p3")


class ClusterGraph:
    """A disjoint union of dense random clusters over ``E/2``.

    Same shape as ``repro.random_cluster_graph`` (vertices
    ``0..clusters*cluster_size-1``, edges only inside a cluster), but
    held as plain per-cluster edge sets owned by the harness.
    """

    def __init__(self, clusters: int, cluster_size: int, edge_probability: float, rng: random.Random):
        self.clusters = clusters
        self.cluster_size = cluster_size
        self.edges_by_cluster: list[set[tuple[int, int]]] = []
        for cluster in range(clusters):
            nodes = self.nodes_of(cluster)
            self.edges_by_cluster.append(
                {
                    (source, target)
                    for source in nodes
                    for target in nodes
                    if source != target and rng.random() < edge_probability
                }
            )

    @property
    def universe_size(self) -> int:
        return self.clusters * self.cluster_size

    @property
    def tuple_count(self) -> int:
        return sum(len(edges) for edges in self.edges_by_cluster)

    def nodes_of(self, cluster: int) -> range:
        offset = cluster * self.cluster_size
        return range(offset, offset + self.cluster_size)

    def edges(self) -> list[tuple[int, int]]:
        return [edge for edges in self.edges_by_cluster for edge in edges]

    def structure(self):
        """A fresh ``repro.Structure`` (a new object on every call)."""
        from repro import Structure

        return Structure.from_relations(
            {"E": self.edges()}, universe=range(self.universe_size)
        )

    def wire(self) -> dict:
        """The HTTP wire form (``PUT /structures/<name>`` body field)."""
        return {
            "relations": {"E": [list(edge) for edge in self.edges()]},
            "universe": list(range(self.universe_size)),
        }

    def flip_edge(self, rng: random.Random, insert: bool) -> tuple[int, tuple[int, int]]:
        """Insert or delete one edge inside a random cluster.

        Mutates the graph and returns ``(cluster, edge)``; the caller
        turns it into the program's delta and refreshes the oracle.
        """
        while True:
            cluster = rng.randrange(self.clusters)
            edges = self.edges_by_cluster[cluster]
            if insert:
                source, target = rng.sample(self.nodes_of(cluster), 2)
                if (source, target) not in edges:
                    edges.add((source, target))
                    return cluster, (source, target)
            elif len(edges) > 1:
                edge = rng.choice(sorted(edges))
                edges.remove(edge)
                return cluster, edge


def make_graph(seed: int, size: dict) -> ClusterGraph:
    return ClusterGraph(
        size["clusters"],
        size["cluster_size"],
        size["edge_probability"],
        random.Random(f"graph-{seed}"),
    )


def make_small_graph(seed: int) -> ClusterGraph:
    return ClusterGraph(rng=random.Random(f"small-{seed}"), **SMALL)


def catalogue_query(key: str):
    """The generator query for a catalogue key (a ``repro`` formula)."""
    from repro.workloads import generators

    name, args, kwargs = CATALOGUE[key]
    return getattr(generators, name)(*args, **kwargs)


def catalogue_text(key: str) -> str:
    """The query text sent over HTTP (``str`` round-trips the parser)."""
    return str(catalogue_query(key))


class AdHocQueries:
    """A never-repeating stream of ``random_ucq(3, 5, 5)`` texts.

    The number of liberal variables cycles through 2, 3 and 5 so the
    EP->pp translation, cores and the ∃-elimination all get work (with
    all five liberal there is nothing quantified to eliminate).  Each
    item is ``(text, liberal_names, disjunct_atoms)``; the last two are
    what the truth-table oracle needs.
    """

    LIBERAL_COUNTS = (2, 3, 5)

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[str] = set()

    def next(self) -> tuple[str, list[str], list[list[tuple[str, str]]]]:
        from repro.workloads.generators import random_ucq

        while True:
            query = random_ucq(
                3,
                5,
                5,
                liberal_count=self._rng.choice(self.LIBERAL_COUNTS),
                seed=self._rng.randrange(1 << 30),
            )
            text = str(query)
            if text in self._seen:
                continue
            self._seen.add(text)
            liberal = sorted(variable.name for variable in query.liberal)
            disjuncts = [
                [tuple(v.name for v in atom.arguments) for atom in disjunct.atoms()]
                for disjunct in query.disjuncts()
            ]
            return text, liberal, disjuncts
