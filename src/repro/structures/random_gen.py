"""Random structure generators.

These generators produce the synthetic "databases" used by the examples,
tests and benchmark harness.  All generators take an explicit
``random.Random`` instance or seed so experiments are reproducible.
"""

from __future__ import annotations

import random

from repro.exceptions import WorkloadError
from repro.logic.signatures import Signature
from repro.structures.structure import Structure


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_graph(
    size: int,
    edge_probability: float,
    seed: int | random.Random | None = None,
    relation: str = "E",
    symmetric: bool = False,
    loops: bool = False,
) -> Structure:
    """An Erdos-Renyi style random directed graph structure.

    Parameters
    ----------
    size:
        Number of vertices (the universe is ``0 .. size-1``).
    edge_probability:
        Probability of each ordered pair being an edge.
    symmetric:
        If true, edges are added in both directions together.
    loops:
        If true, self-loops are eligible.
    """
    if size < 0:
        raise WorkloadError("size must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise WorkloadError("edge_probability must be in [0, 1]")
    rng = _rng(seed)
    edges: set[tuple[int, int]] = set()
    for source in range(size):
        for target in range(size):
            if source == target and not loops:
                continue
            if symmetric and source > target:
                continue
            if rng.random() < edge_probability:
                edges.add((source, target))
                if symmetric:
                    edges.add((target, source))
    signature = Signature.graph(relation)
    return Structure(signature, range(size), {relation: edges})


def random_cluster_graph(
    clusters: int,
    cluster_size: int,
    edge_probability: float,
    seed: int | random.Random | None = None,
    relation: str = "E",
) -> Structure:
    """A disjoint union of dense Erdos-Renyi clusters.

    The universe is ``0 .. clusters*cluster_size - 1``; edges only ever
    connect vertices of the same cluster, so the Gaifman graph has (up
    to) ``clusters`` connected components and the structure shards
    cleanly (:mod:`repro.structures.sharding`).  This is the
    many-tenants data shape of the serving scenario: expected tuple
    count is ``clusters * cluster_size * (cluster_size - 1) *
    edge_probability``, so e.g. ``(60, 16, 0.7)`` yields a ``10^4``-tuple
    structure.
    """
    if clusters < 0 or cluster_size < 0:
        raise WorkloadError("clusters and cluster_size must be non-negative")
    if not 0.0 <= edge_probability <= 1.0:
        raise WorkloadError("edge_probability must be in [0, 1]")
    rng = _rng(seed)
    edges: set[tuple[int, int]] = set()
    for cluster in range(clusters):
        offset = cluster * cluster_size
        for source in range(offset, offset + cluster_size):
            for target in range(offset, offset + cluster_size):
                if source != target and rng.random() < edge_probability:
                    edges.add((source, target))
    signature = Signature.graph(relation)
    return Structure(signature, range(clusters * cluster_size), {relation: edges})


def random_structure(
    signature: Signature,
    size: int,
    tuple_probability: float,
    seed: int | random.Random | None = None,
) -> Structure:
    """A random structure over an arbitrary signature.

    For relations of arity ``k`` the expected number of tuples is
    ``tuple_probability * size**k``; to keep generation cheap for higher
    arities, tuples are sampled rather than enumerated when ``size**k``
    is large.
    """
    if size < 0:
        raise WorkloadError("size must be non-negative")
    if not 0.0 <= tuple_probability <= 1.0:
        raise WorkloadError("tuple_probability must be in [0, 1]")
    rng = _rng(seed)
    universe = list(range(size))
    relations: dict[str, set[tuple[int, ...]]] = {}
    for symbol in signature:
        total = size**symbol.arity
        chosen: set[tuple[int, ...]] = set()
        if total <= 100_000:
            from itertools import product as iter_product

            for candidate in iter_product(universe, repeat=symbol.arity):
                if rng.random() < tuple_probability:
                    chosen.add(candidate)
        else:
            expected = int(tuple_probability * total)
            for _ in range(expected):
                chosen.add(tuple(rng.choice(universe) for _ in range(symbol.arity)))
        relations[symbol.name] = chosen
    return Structure(signature, universe, relations)


def path_graph(length: int, relation: str = "E") -> Structure:
    """A directed path with ``length`` edges (``length + 1`` vertices)."""
    if length < 0:
        raise WorkloadError("length must be non-negative")
    edges = [(i, i + 1) for i in range(length)]
    return Structure(Signature.graph(relation), range(length + 1), {relation: edges})


def cycle_graph(length: int, relation: str = "E") -> Structure:
    """A directed cycle on ``length`` vertices."""
    if length < 1:
        raise WorkloadError("length must be at least 1")
    edges = [(i, (i + 1) % length) for i in range(length)]
    return Structure(Signature.graph(relation), range(length), {relation: edges})


def clique_graph(size: int, relation: str = "E", loops: bool = False) -> Structure:
    """The complete directed graph on ``size`` vertices."""
    if size < 0:
        raise WorkloadError("size must be non-negative")
    edges = [
        (i, j) for i in range(size) for j in range(size) if loops or i != j
    ]
    return Structure(Signature.graph(relation), range(size), {relation: edges})


def grid_graph(rows: int, cols: int, relation: str = "E") -> Structure:
    """A directed grid graph; vertices are ``(row, col)`` pairs."""
    if rows < 1 or cols < 1:
        raise WorkloadError("rows and cols must be positive")
    vertices = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
    return Structure(Signature.graph(relation), vertices, {relation: edges})
