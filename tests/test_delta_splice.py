"""Writes proportional to the delta.

``EncodedStructure.apply_delta`` splices delta rows into the sorted
columns, and the numpy kernel's sorted-array probes depend on the result
being *sorted*, not merely the right set of rows.  So: a seeded chain of
random deltas checked column by column against a from-scratch encoding,
the strictness cells, and two guards that need no wall clock -- the
python-level call count of a one-edge write must not grow with the
structure, and a delta routes through a shard plan once.
"""

import functools
import itertools
import random
import sys

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.engine import Engine
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute
from repro.engine.plan import as_ep, compile_plan
from repro.engine.resident import ResidentContexts
from repro.exceptions import DeltaError
from repro.structures.delta import StructureDelta
from repro.structures.encoding import EncodedStructure
from repro.structures.random_gen import random_cluster_graph
from repro.structures.sharding import ShardedStructure, shard_structure
from repro.structures.structure import Structure
from test_encoding import GENERATOR_QUERIES

# ----------------------------------------------------------------------
# The chain: seed x backend, every delta checked against a re-encode
# ----------------------------------------------------------------------
ARITIES = {"U": 1, "E": 2, "T": 3}
CHAIN_LENGTH = 24
START_SIZE = 3
#: Where a chain's universe stops growing.  Brute force is
#: ``n ** variables``, so only the small chains are counted; the large
#: ones see more new elements and longer columns.
COUNTED_SIZE, LARGE_SIZE = 5, 12
#: The generator queries are counted after these deltas.
CHECKPOINTS = (CHAIN_LENGTH // 2, CHAIN_LENGTH)
PLANS = {name: compile_plan(query) for name, query in GENERATOR_QUERIES.items()}


def _all_tuples(universe, arity):
    return list(itertools.product(universe, repeat=arity))


def _random_delta(
    rng: random.Random, structure: Structure, max_size: int
) -> StructureDelta:
    """A delta that applies to ``structure``: one to three relations,
    batch sizes from one tuple to about the relation, inserts and
    deletes mixed, now and then over a brand-new element."""
    universe = sorted(structure.universe)
    if len(universe) < max_size and rng.random() < 0.5:
        universe.append(max(universe) + rng.randint(1, 9))
    inserts, deletes = {}, {}
    for name in rng.sample(sorted(ARITIES), rng.randint(1, len(ARITIES))):
        present = sorted(structure.relation(name))
        absent = sorted(
            set(_all_tuples(universe, ARITIES[name])) - set(present)
        )
        size = rng.randint(1, max(1, len(present)))
        # Deletes are the smaller half, so relations grow along a chain.
        removed = rng.sample(present, rng.randint(0, size // 2))
        added = rng.sample(absent, min(size - len(removed), len(absent)))
        if removed:
            deletes[name] = removed
        if added:
            inserts[name] = added
    return StructureDelta(inserts, deletes)


@functools.lru_cache(maxsize=None)
def _chain(seed: int, max_size: int):
    """``(base structure, [(delta, structure after it)])``: the same
    for both backends."""
    rng = random.Random(seed)
    universe = range(START_SIZE)
    base = structure = Structure.from_relations(
        {
            name: rng.sample(
                _all_tuples(universe, arity), rng.randint(1, START_SIZE)
            )
            for name, arity in ARITIES.items()
        },
        universe=universe,
    )
    steps = []
    while len(steps) < CHAIN_LENGTH:
        delta = _random_delta(rng, structure, max_size)
        if not delta.is_empty:
            structure = structure.apply_delta(delta)
            steps.append((delta, structure))
    return base, steps


@functools.lru_cache(maxsize=None)
def _brute_force(seed: int, step: int, name: str) -> int:
    structure = _chain(seed, COUNTED_SIZE)[1][step - 1][1]
    return count_answers_naive(as_ep(GENERATOR_QUERIES[name]), structure)


def _assert_sorted_and_equal(encoded: EncodedStructure, structure: Structure):
    fresh = EncodedStructure(structure)
    assert set(encoded.decode) == set(structure.universe)
    for name, relation in encoded.relations.items():
        rows = list(relation.iter_rows())
        assert rows == sorted(rows), name  # what the numpy probes rely on
        assert len(set(rows)) == len(rows) == relation.row_count
        assert all(len(column) == relation.row_count for column in relation.columns)
        assert encoded.decode_rows(rows) == fresh.decode_rows(
            fresh.relations[name].iter_rows()
        ) == structure.relation(name)


@pytest.mark.parametrize("max_size", [COUNTED_SIZE, LARGE_SIZE])
@pytest.mark.parametrize("seed", range(3))
def test_a_chain_of_deltas_keeps_the_columns_sorted_and_the_counts_exact(
    backend, seed, max_size
):
    base, steps = _chain(seed, max_size)
    context = ExecutionContext(base).materialize()
    for step, (delta, after) in enumerate(steps, 1):
        before = context.encoded
        context = context.apply_delta(delta)
        assert context.structure == after
        _assert_sorted_and_equal(context.encoded, after)
        # Old codes never move; new elements extend the tail.
        assert context.encoded.decode[: before.size] == before.decode
        for name in set(ARITIES) - delta.relations:
            assert context.encoded.relations[name] is before.relations[name]
        if max_size == COUNTED_SIZE and step in CHECKPOINTS:
            for name, plan in PLANS.items():
                assert execute(plan, after, context) == _brute_force(
                    seed, step, name
                ), (name, step)


# ----------------------------------------------------------------------
# Strictness: a delta that does not apply changes nothing
# ----------------------------------------------------------------------
STRICT = Structure.from_relations(
    {"E": [(0, 1), (1, 2), (2, 0), (2, 3)], "U": [(0,), (3,)]}
)
NOT_APPLYING = {
    "delete-absent": StructureDelta(deletes={"E": [(0, 1), (1, 0)]}),
    "insert-present": StructureDelta(inserts={"E": [(3, 0), (2, 3)]}),
    "unknown-element-in-delete": StructureDelta(deletes={"E": [(0, 99)]}),
    "wrong-arity": StructureDelta(inserts={"U": [(1, 2)]}),
}


@pytest.mark.parametrize("cell", NOT_APPLYING)
def test_a_delta_that_does_not_apply_raises_and_leaves_everything_serving(
    backend, cell
):
    delta = NOT_APPLYING[cell]
    context = ExecutionContext(STRICT).materialize()
    encoded = context.encoded
    columns = {
        name: [bytes(column) for column in relation.columns]
        for name, relation in encoded.relations.items()
    }
    with pytest.raises(DeltaError):
        encoded.apply_delta(delta)
    with pytest.raises(DeltaError):
        context.apply_delta(delta)
    assert context.encoded is encoded and context.structure is STRICT
    for name, relation in encoded.relations.items():
        assert [bytes(column) for column in relation.columns] == columns[name]
    for name, plan in PLANS.items():
        assert execute(plan, STRICT, context) == count_answers_naive(
            as_ep(GENERATOR_QUERIES[name]), STRICT
        ), name


def test_a_row_named_twice_in_one_batch_is_refused():
    # A StructureDelta holds sets, so only the column layer can be
    # handed the same row twice.
    relation = EncodedStructure(STRICT).relations["E"]
    for inserts, deletes in [([(1, 3), (1, 3)], []), ([], [(1, 2), (1, 2)])]:
        with pytest.raises(DeltaError):
            relation.splice(inserts, deletes)
    spliced = relation.splice([(1, 3)], [(1, 2)])
    assert list(spliced.iter_rows()) == [(0, 1), (1, 3), (2, 0), (2, 3)]
    assert list(relation.iter_rows()) == [(0, 1), (1, 2), (2, 0), (2, 3)]


# ----------------------------------------------------------------------
# Scaling: the python work of a one-edge write does not grow with |B|
# ----------------------------------------------------------------------
def _python_calls(action) -> int:
    """How many python-level and C-level calls ``action()`` makes."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def _absent_edges(structure: Structure):
    """Edges inside cluster 0 (nodes 0..15) the structure does not hold."""
    present = structure.relation("E")
    return [
        (a, b) for a in range(16) for b in range(16)
        if a != b and (a, b) not in present
    ]


SHARDS = 4
#: ~2 000 and ~20 000 tuples of the benchmark's graph shape.
SIZES = {"small": 10, "large": 100}


def _cluster_graph(clusters: int) -> Structure:
    return random_cluster_graph(clusters, 16, 0.85, seed=5)


def _engine_write_calls(clusters: int) -> int:
    structure = _cluster_graph(clusters)
    warm_up, measured = _absent_edges(structure)[:2]
    with Engine(processes=1) as engine:
        engine.register_structure("g", structure, pin=True, shard_count=SHARDS)
        engine.count_sharded("exists z. (E(x, z) & E(z, y))", "g", parallel=False)
        engine.apply_delta("g", StructureDelta(inserts={"E": [warm_up]}))
        delta = StructureDelta(inserts={"E": [measured]})
        calls = _python_calls(lambda: engine.apply_delta("g", delta))
        assert not engine.pool.started
        assert engine.registry.peek("g").version == 3
    return calls


def _worker_write_calls(clusters: int) -> int:
    structure = _cluster_graph(clusters)
    sharded = shard_structure(structure, SHARDS)
    store = ResidentContexts()
    for context in store.place((structure,) + sharded.non_empty_shards()):
        context.materialize()
    calls = 0
    for edge in _absent_edges(structure)[:2]:  # the first one warms up
        delta = StructureDelta(inserts={"E": [edge]})
        advance = sharded.advance(delta, structure.apply_delta(delta))
        updates = [
            (old, sub, new.fingerprint())
            for old, sub, new in [
                (structure.fingerprint(), delta, advance.sharded.structure)
            ] + advance.updates
        ]
        migrated = []
        calls = _python_calls(lambda: migrated.append(store.apply_delta(updates)))
        assert migrated == [2]  # the whole structure and the touched shard
        structure, sharded = advance.sharded.structure, advance.sharded
    return calls


@pytest.mark.parametrize("half", [_engine_write_calls, _worker_write_calls])
def test_a_one_edge_write_makes_no_more_calls_on_a_ten_times_larger_structure(
    half,
):
    small, large = half(SIZES["small"]), half(SIZES["large"])
    assert large <= 1.5 * small, (small, large)


# ----------------------------------------------------------------------
# One plan advance per delta
# ----------------------------------------------------------------------
def test_a_delta_routes_once_and_entry_and_context_share_the_plan(monkeypatch):
    routed = []
    route_delta = ShardedStructure.route_delta

    def spy(self, delta):
        routed.append(delta)
        return route_delta(self, delta)

    monkeypatch.setattr(ShardedStructure, "route_delta", spy)
    structure = _cluster_graph(6)
    with Engine() as engine:
        engine.register_structure("g", structure, pin=False, shard_count=SHARDS)
        before = engine.registry.peek("g").sharded
        placement = dict(before.placement())
        # A known element and a brand-new one: the placement grows.
        delta = StructureDelta(inserts={"E": [(0, 1000)]})
        entry = engine.apply_delta("g", delta)
        assert routed == [delta]
        assert entry.sharded is engine.registry.peek("g").sharded
        assert entry.sharded is (
            engine.contexts.lookup(entry.structure)[0].sharded(SHARDS)
        )
        assert entry.sharded.structure is entry.structure
        # The old plan still reads what it read; the new one knows more.
        assert before.placement() == placement and 1000 not in placement
        assert entry.sharded.placement() == {**placement, 1000: placement[0]}
        # Without a new element the placement itself is carried over.
        (edge,) = _absent_edges(entry.structure)[:1]
        after = engine.apply_delta("g", StructureDelta(inserts={"E": [edge]}))
        assert after.sharded.placement() is entry.sharded.placement()
        assert len(routed) == 2
