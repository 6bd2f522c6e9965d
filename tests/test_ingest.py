"""Ingest on columns: encode once, shard and fingerprint the int columns.

A registered structure is interned once; its fingerprint, its data
components, its shard placement and every shard's encoding are then
computed on that encoding's int columns, and the shard encodings are
slices of it.  The agreement matrix holds all of that to element-level
references -- the union-find over element objects, the shard build
through the validating ``Structure`` constructor, and the sorted-row
encoding of each shard -- on both table backends.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro.engine import Engine, compile_plan, execute, execute_sharded
from repro.engine.context import ExecutionContext
from repro.engine.registry import approximate_structure_bytes
from repro.exceptions import SignatureError, StructureError
from repro.logic.signatures import RelationSymbol, Signature
from repro.obs.trace import get_tracer
from repro.structures.delta import StructureDelta
from repro.structures.encoding import EncodedStructure
from repro.structures.random_gen import random_cluster_graph
from repro.structures.sharding import (
    ShardedStructure,
    _component_roots,
    data_components,
    shard_structure,
)
from repro.structures.structure import Structure

SRC = str(Path(__file__).resolve().parents[1] / "src")

SIGNATURE = Signature(
    [RelationSymbol("A", 3), RelationSymbol("E", 2), RelationSymbol("P", 1)]
)

QUERIES = (
    "E(x, y)",
    "exists z. (E(x, z) & E(z, y))",
    "exists z. (A(x, y, z) & P(z))",
    "exists x y z. (A(x, y, z) & E(x, y))",
)


def mixed_structure(seed: int) -> Structure:
    """A seeded structure over ints, strings and tuples -- ``repr`` order
    is not natural order (``10`` sorts before ``9``) -- with isolated
    elements and relations of arity 1, 2 and 3."""
    rng = random.Random(seed)
    elements = [*range(14), *(f"s{i}" for i in range(8)), *((i, "t") for i in range(6))]
    rng.shuffle(elements)
    blocks = [elements[i : i + 4] for i in range(0, 20, 4)]
    relations = {"A": set(), "E": set(), "P": set()}
    for block in blocks:
        for _ in range(4):
            relations["E"].add((rng.choice(block), rng.choice(block)))
        relations["A"].add(tuple(rng.choice(block) for _ in range(3)))
        relations["P"].add((rng.choice(block),))
    return Structure(SIGNATURE, elements, relations)  # elements[20:] isolated


# ----------------------------------------------------------------------
# Element-level references
# ----------------------------------------------------------------------
def reference_components(structure: Structure) -> list[frozenset]:
    parent = {e: e for e in structure.universe}

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for tuples in structure.relations.values():
        for t in tuples:
            for other in t[1:]:
                a, b = find(t[0]), find(other)
                if a != b:
                    parent[b] = a
    groups: dict = {}
    for element in structure.universe:
        groups.setdefault(find(element), set()).add(element)
    return sorted(
        (frozenset(g) for g in groups.values()),
        key=lambda c: min(repr(e) for e in c),
    )


def reference_stable_hash(component: frozenset) -> int:
    return zlib.crc32(repr(min(component, key=repr)).encode("utf-8"))


def reference_shards(structure: Structure, count: int, strategy: str) -> list:
    if count == 1:
        return [structure]
    placement = {}
    components = reference_components(structure)
    if strategy == "hash":
        for component in components:
            for element in component:
                placement[element] = reference_stable_hash(component) % count
    else:
        weights = [0] * count
        for component in sorted(
            components, key=lambda c: (-len(c), min(repr(e) for e in c))
        ):
            shard = min(range(count), key=lambda s: (weights[s], s))
            weights[shard] += len(component)
            for element in component:
                placement[element] = shard
    universes = [set() for _ in range(count)]
    for element, shard in placement.items():
        universes[shard].add(element)
    relations = [{} for _ in range(count)]
    for name, tuples in structure.relations.items():
        for t in tuples:
            relations[placement[t[0]]].setdefault(name, []).append(t)
    return [
        Structure(structure.signature, universes[s], relations[s])
        for s in range(count)
    ]


def reference_encoding(structure: Structure) -> tuple:
    """``(decode, {name: (arity, rows, column bytes)})`` from sorted
    python rows."""
    decode = tuple(sorted(structure.universe, key=repr))
    encode = {element: code for code, element in enumerate(decode)}
    relations = {}
    for symbol in structure.signature:
        rows = sorted(
            tuple(encode[v] for v in t) for t in structure.relation(symbol.name)
        )
        columns = tuple(
            array("q", (row[i] for row in rows)).tobytes()
            for i in range(symbol.arity)
        )
        relations[symbol.name] = (symbol.arity, len(rows), columns)
    return decode, relations


def layout(encoded: EncodedStructure) -> tuple:
    return encoded.decode, {
        name: (
            relation.arity,
            relation.row_count,
            tuple(column.tobytes() for column in relation.columns),
        )
        for name, relation in encoded.relations.items()
    }


# ----------------------------------------------------------------------
# The agreement matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_encodings_and_components_match_the_element_level_references(
    backend, seed
):
    structure = mixed_structure(seed)
    assert layout(EncodedStructure(structure)) == reference_encoding(structure)
    assert data_components(structure) == reference_components(structure)
    # Every isolated element is its own component.
    singletons = [c for c in data_components(structure) if len(c) == 1]
    assert set().union(*singletons) >= structure.isolated_elements()


@pytest.mark.parametrize("strategy", ["hash", "balanced"])
@pytest.mark.parametrize("shard_count", [1, 2, 7, 40])
@pytest.mark.parametrize("seed", range(3))
def test_shard_plans_match_the_element_level_references(
    backend, seed, shard_count, strategy
):
    structure = mixed_structure(seed)
    assert shard_count != 40 or len(reference_components(structure)) < 40
    sharded = shard_structure(structure, shard_count, strategy)
    expected = reference_shards(structure, shard_count, strategy)
    assert [s.universe for s in sharded.shards] == [s.universe for s in expected]
    assert [s.relations for s in sharded.shards] == [s.relations for s in expected]
    for shard, reference in zip(sharded.shards, expected):
        # The slice the shard carries, adopted by its first context, is
        # the shard's own fresh encoding; so is the fingerprint.
        assert layout(ExecutionContext(shard).encoded) == reference_encoding(
            reference
        )
        assert shard.fingerprint() == reference.fingerprint()
    reference_plan = ShardedStructure(structure, tuple(expected), strategy)
    for query in QUERIES:
        plan = compile_plan(query)
        assert execute_sharded(plan, sharded) == execute_sharded(
            plan, reference_plan
        ) == execute(plan, structure)
    # Deltas route identically, a tuple over new elements included.
    old = sorted(structure.relation("E"), key=repr)[0]
    delta = StructureDelta(
        inserts={"E": [("new", "newer"), (old[0], "fresh")]},
        deletes={"E": [old]},
    )
    assert sharded.route_delta(delta) == reference_plan.route_delta(delta)


def test_a_shuffled_path_of_a_hundred_thousand_elements_hooks_in_log_rounds(
    backend,
):
    n = 100_000
    labels = list(range(n))
    random.Random(5).shuffle(labels)
    path = Structure.from_relations({"E": list(zip(labels, labels[1:]))})
    roots, rounds = _component_roots(EncodedStructure(path))
    assert set(roots) == {0}
    # Hooking roots halves the trees most rounds; propagating a least
    # label per vertex would take one round per vertex of the path.
    assert rounds <= math.ceil(math.log2(n))
    assert (rounds > 0) == (backend == "numpy")


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
FINGERPRINTS = """
import pickle, random
from repro.structures.encoding import resolve_backend
from repro.structures.sharding import shard_structure
from repro.structures.structure import Structure

rng = random.Random(11)
elements = [f"v{i}" for i in range(60)] + list(range(30))
edges = {(rng.choice(elements[i::6]), rng.choice(elements[i::6]))
         for i in range(6) for _ in range(25)}
structure = Structure.from_relations({"E": edges}, universe=elements)
sharded = shard_structure(structure, 7)
for shard in sharded.shards:
    carried = pickle.loads(pickle.dumps(shard)).fingerprint()
    fresh = Structure(shard.signature, shard.universe, shard.relations)
    assert carried == fresh.fingerprint(), (carried, fresh.fingerprint())
print(resolve_backend(), structure.fingerprint(),
      [shard.fingerprint() for shard in sharded.shards])
"""


def test_fingerprints_are_stable_across_hash_seeds_and_backends(tmp_path):
    (tmp_path / "numpy.py").write_text('raise ImportError("numpy hidden")\n')
    outputs = {}
    for hide_numpy in (False, True):
        for seed in (1, 2):
            path = [str(tmp_path), SRC] if hide_numpy else [SRC]
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(path),
                PYTHONHASHSEED=str(seed),
            )
            result = subprocess.run(
                [sys.executable, "-c", FINGERPRINTS],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            backend, printed = result.stdout.split(" ", 1)
            outputs[(backend, seed)] = printed
    assert {backend for backend, _ in outputs} <= {"numpy", "array"}
    assert ("array", 1) in outputs
    assert len(set(outputs.values())) == 1, outputs


def test_a_fingerprint_and_a_count_intern_the_structure_once(monkeypatch):
    builds = []
    original = EncodedStructure.__init__

    def counting_init(self, structure):
        builds.append(structure)
        original(self, structure)

    monkeypatch.setattr(EncodedStructure, "__init__", counting_init)
    structure = mixed_structure(0)
    structure.fingerprint()
    context = ExecutionContext(structure)
    assert layout(context.encoded) == reference_encoding(structure)
    assert builds == [structure]
    # The adopted encoding left the structure: it is held once.
    assert structure._encoding is None


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def test_registration_interns_the_whole_structure_once_and_no_shard(
    monkeypatch,
):
    graph = random_cluster_graph(100, 20, 0.65, seed=7)
    assert 20_000 < graph.total_tuples < 30_000
    builds = []
    original = EncodedStructure.__init__

    def counting_init(self, structure):
        builds.append(structure)
        original(self, structure)

    monkeypatch.setattr(EncodedStructure, "__init__", counting_init)
    tracer = get_tracer()
    tracer.set_enabled(True)
    try:
        with Engine(processes=2) as engine:
            entry = engine.register_structure("net", graph, shard_count=16)
            assert builds == [graph]
            tracer.clear()
            # A parallel count forks the pool: the parent materializes
            # every placed context first, each from its shard's slice.
            count = engine.count_sharded("E(x, y)", "net", parallel=True)
            assert count == graph.total_tuples
            (trace,) = tracer.finished_traces()
            assert not [s for s in trace.spans() if s.name == "context.encode"]
            assert builds == [graph]
            for shard in entry.sharded.non_empty_shards():
                assert engine.contexts.held(shard).built
                assert shard._encoding is None  # adopted, held once
    finally:
        tracer.set_enabled(None)
        tracer.clear()


# ----------------------------------------------------------------------
# Satellites: the trusted constructor, the admission estimate
# ----------------------------------------------------------------------
def test_the_public_constructor_still_validates():
    graph = Signature.graph()
    with pytest.raises(StructureError, match="arity"):
        Structure(graph, [1, 2], {"E": [(1, 2, 2)]})
    with pytest.raises(StructureError, match="not in the universe"):
        Structure(graph, [1, 2], {"E": [(1, 3)]})
    with pytest.raises(SignatureError, match="not in the signature"):
        Structure(graph, [1, 2], {"F": [(1, 2)]})


@pytest.mark.parametrize("seed", range(3))
def test_derived_structures_equal_their_validated_builds(seed):
    structure = mixed_structure(seed)
    kept = sorted(structure.universe, key=repr)[::2]
    relations = structure.relations
    restricted = structure.restrict(kept)
    assert restricted == Structure(
        SIGNATURE,
        kept,
        {
            name: [t for t in tuples if set(t) <= set(kept)]
            for name, tuples in relations.items()
        },
    )
    smaller = Signature([RelationSymbol("E", 2)])
    assert structure.reduct(smaller) == Structure(
        smaller, structure.universe, {"E": relations["E"]}
    )
    larger = SIGNATURE | Signature([RelationSymbol("F", 2)])
    widened = structure.with_signature(larger)
    assert widened == Structure(larger, structure.universe, relations)
    assert widened.relation("F") == frozenset()
    assert widened.fingerprint() == Structure(
        larger, structure.universe, relations
    ).fingerprint()


@pytest.mark.parametrize("seed", range(4))
def test_the_admission_estimate_equals_the_per_tuple_sum(seed):
    structure = mixed_structure(seed)
    expected = sys.getsizeof(structure.universe)
    expected += sum(sys.getsizeof(e) for e in structure.universe)
    for tuples in structure.relations.values():
        expected += sys.getsizeof(tuples)
        expected += sum(sys.getsizeof(t) for t in tuples)
    assert approximate_structure_bytes(structure) == expected
