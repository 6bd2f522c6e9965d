"""Live structures: versioned deltas through every caching layer.

One suite per layer of the delta pipeline: the delta value object and
its canonical digest, chained structure fingerprints, per-shard delta
routing, incremental re-encoding, read-set context invalidation, the
registry's optimistic version advance, the engine's end-to-end
``apply_delta``, and the HTTP ``PATCH /structures/<name>`` surface with
its ``409`` optimistic-concurrency contract.
"""

from __future__ import annotations

import json
import random
import urllib.error
import urllib.request

import pytest

from repro.engine import Engine, UnknownStructureError, VersionConflict
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute
from repro.engine.plan import compile_plan
from repro.engine.registry import StructureRegistry
from repro.exceptions import DeltaError, DeltaRoutingError, ReproError
from repro.serve import BackgroundServer, CountingServer
from repro.structures.delta import StructureDelta
from repro.structures.encoding import EncodedStructure
from repro.structures.sharding import ShardedStructure, shard_structure
from repro.structures.structure import Structure

PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


def two_paths() -> Structure:
    """Two disjoint paths: deltas can stay inside one component."""
    return Structure.from_relations(
        {"E": [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12)]}
    )


def shard_placement(sharded: ShardedStructure) -> dict:
    """Element -> shard index, derived from the shard universes."""
    return {
        element: index
        for index, shard in enumerate(sharded.shards)
        for element in shard.universe
    }


def reference_count(structure: Structure) -> int:
    """The count on a from-scratch rebuild, through a fresh engine."""
    rebuilt = Structure(
        structure.signature,
        sorted(structure.universe, key=repr),
        {name: sorted(tuples, key=repr)
         for name, tuples in structure.relations.items()},
    )
    with Engine() as engine:
        return engine.count(PATH_QUERY, rebuilt)


# ----------------------------------------------------------------------
# The delta value object
# ----------------------------------------------------------------------
def test_delta_canonicalization_makes_equal_deltas_digest_equal():
    a = StructureDelta(inserts={"E": [(1, 2), (3, 4)]})
    b = StructureDelta(inserts={"E": [(3, 4), (1, 2), (1, 2)]})
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest() == b.digest()
    assert a.canonical_bytes() == b.canonical_bytes()


def test_delta_accessors_and_empty_form():
    delta = StructureDelta(
        inserts={"E": [(1, 2)]}, deletes={"F": [(3,)], "E": [(9, 9)]}
    )
    assert delta.relations == {"E", "F"}
    assert delta.tuple_count == 3
    assert not delta.is_empty
    assert delta.inserted_elements() == {1, 2}
    empty = StructureDelta()
    assert empty.is_empty and empty.tuple_count == 0
    # Explicitly-empty batches are dropped, not recorded.
    assert StructureDelta(inserts={"E": []}).is_empty


def test_delta_rejects_malformed_batches():
    with pytest.raises(DeltaError):
        StructureDelta(inserts={"E": [(1, 2), (1, 2, 3)]})  # mixed arity
    with pytest.raises(DeltaError):
        StructureDelta(inserts={"E": [()]})  # empty tuple
    with pytest.raises(DeltaError):
        StructureDelta(inserts={"": [(1,)]})  # unnamed relation
    with pytest.raises(DeltaError):
        # The same tuple on both sides of the same relation.
        StructureDelta(inserts={"E": [(1, 2)]}, deletes={"E": [(1, 2)]})


# ----------------------------------------------------------------------
# Chained structure fingerprints
# ----------------------------------------------------------------------
def test_apply_delta_chains_fingerprint_deterministically():
    base = two_paths()
    delta = StructureDelta(inserts={"E": [(4, 5)]})
    once = base.apply_delta(delta)
    twice = two_paths().apply_delta(StructureDelta(inserts={"E": [(4, 5)]}))
    assert once.fingerprint() == twice.fingerprint()
    # Chained, not content-derived: the same relations built from
    # scratch fingerprint differently from the delta-applied version.
    rebuilt = Structure.from_relations(
        {"E": sorted(once.relations["E"])}, universe=sorted(once.universe)
    )
    assert rebuilt == once
    assert rebuilt.fingerprint() != once.fingerprint()


def test_apply_delta_is_strict_and_grows_universe_only():
    base = two_paths()
    with pytest.raises(DeltaError):
        base.apply_delta(StructureDelta(deletes={"E": [(7, 7)]}))
    with pytest.raises(DeltaError):
        base.apply_delta(StructureDelta(inserts={"E": [(1, 2)]}))
    with pytest.raises(DeltaError):
        base.apply_delta(StructureDelta(inserts={"E": [(1, 2, 3)]}))
    grown = base.apply_delta(
        StructureDelta(inserts={"E": [(100, 101)]}, deletes={"E": [(1, 2)]})
    )
    assert {100, 101} <= set(grown.universe)
    # Deleting tuples never removes elements from the universe.
    assert set(base.universe) <= set(grown.universe)
    assert base.apply_delta(StructureDelta()) is base


def test_apply_delta_touches_only_named_relations():
    base = Structure.from_relations({"E": [(1, 2)], "F": [(2, 3)]})
    after = base.apply_delta(StructureDelta(inserts={"E": [(5, 6)]}))
    assert after.relations["F"] == base.relations["F"]
    assert after.relations["E"] == frozenset({(1, 2), (5, 6)})


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
def test_route_delta_reuses_untouched_shards():
    sharded = shard_structure(two_paths(), 2)
    # Insert inside whichever component is alone on its shard.
    delta = StructureDelta(inserts={"E": [(12, 13)]})
    routed = sharded.route_delta(delta)
    touched = [i for i, sub in enumerate(routed) if sub is not None]
    assert len(touched) == 1
    migrated = sharded.apply_delta(delta)
    for i, (old, new) in enumerate(zip(sharded.shards, migrated.shards)):
        if i in touched:
            assert (12, 13) in new.relations["E"]
        else:
            assert new is old  # untouched shards reused by reference
    assert migrated.structure.fingerprint() == (
        sharded.structure.apply_delta(delta).fingerprint()
    )


def test_route_delta_rejects_cross_shard_component_merges():
    many_components = Structure.from_relations(
        {"E": [(i, i + 1) for i in range(0, 20, 2)]}
    )
    sharded = shard_structure(many_components, 2)
    # Find two elements living on different shards; an edge between
    # them merges their components across the shard boundary.
    by_shard: dict[int, object] = {}
    for element, shard in shard_placement(sharded).items():
        by_shard.setdefault(shard, element)
    assert len(by_shard) == 2
    a, b = by_shard.values()
    with pytest.raises(DeltaRoutingError):
        sharded.route_delta(StructureDelta(inserts={"E": [(a, b)]}))


# ----------------------------------------------------------------------
# Incremental encoding
# ----------------------------------------------------------------------
def test_encoded_apply_delta_matches_full_reencode():
    base = two_paths()
    encoded = EncodedStructure(base)
    delta = StructureDelta(
        inserts={"E": [(4, 5), (50, 51)]}, deletes={"E": [(10, 11)]}
    )
    after = base.apply_delta(delta)
    incremental = encoded.apply_delta(delta)
    fresh = EncodedStructure(after)
    for name in after.relations:
        assert set(incremental.relations[name].iter_rows()) == set(
            fresh.relations[name].iter_rows()
        )
    # Existing integer codes never change; new elements extend the end.
    for element in base.universe:
        assert incremental.encode[element] == encoded.encode[element]
    assert set(incremental.decode) == set(after.universe)


# ----------------------------------------------------------------------
# Context migration with read-set invalidation
# ----------------------------------------------------------------------
def test_context_apply_delta_returns_fresh_context_sharing_stats():
    base = two_paths()
    context = ExecutionContext(base)
    plan = compile_plan(PATH_QUERY, "auto")
    before = execute(plan, base, context)
    delta = StructureDelta(inserts={"E": [(4, 5)]})
    migrated = context.apply_delta(delta)
    assert migrated is not context
    assert migrated.stats is context.stats
    assert migrated.structure == base.apply_delta(delta)
    assert execute(plan, migrated.structure, migrated) == reference_count(
        migrated.structure
    )
    # The untouched original still serves the old version.
    assert execute(plan, base, context) == before
    # An empty delta is the identity, not a copy.
    assert context.apply_delta(StructureDelta()) is context


def test_context_apply_delta_keeps_memos_for_untouched_relations():
    base = Structure.from_relations(
        {"E": [(1, 2), (2, 3), (3, 4)], "F": [(1, 2)]}
    )
    plan = compile_plan(PATH_QUERY, "auto")
    context = ExecutionContext(base)
    execute(plan, base, context)
    # A delta touching only F and adding no elements: the E-only count
    # memo survives the migration, so re-executing is a memo hit (no
    # new boundary-memo misses).
    migrated = context.apply_delta(StructureDelta(deletes={"F": [(1, 2)]}))
    misses_before = context.stats.snapshot().boundary_misses
    count = execute(plan, migrated.structure, migrated)
    assert count == reference_count(migrated.structure)
    assert context.stats.snapshot().boundary_misses == misses_before
    # A delta on E evicts those memos, and memo_evictions says so.
    evictions_before = context.stats.snapshot().memo_evictions
    migrated.apply_delta(StructureDelta(inserts={"E": [(4, 5)]}))
    assert context.stats.snapshot().memo_evictions > evictions_before


#: Memoized counts for the eviction matrix.  The sentence disjunct of
#: ``with-sentence`` is a unit of its own, counting ``|B|^2`` or 0
#: (its liberal variables occur in no atom), like ``E(x, x)`` with a
#: liberal ``y`` in no atom; the others read only their atoms.
EVICTION_QUERIES = (
    "exists a. E(a, a)",
    "E(x, y)",
    "R(x, x)",
    PATH_QUERY,
    "Q(x, y) = E(x, x)",
    "Q(x, y) = E(x, y) | exists a. (R(a, a))",
    "Q(x, y) = R(x, y) | E(y, x)",
)


def _eviction_base() -> Structure:
    return Structure.from_relations(
        {"E": [(1, 1), (1, 2)], "R": [(3, 3)]}
    )


def _eviction_delta(seed: int) -> StructureDelta:
    """A seeded delta on the eviction base: inserts into E and/or R
    over old and new elements (new ones grow the universe), deletes of
    present tuples, or both."""
    rng = random.Random(seed)
    base = _eviction_base()
    elements = sorted(base.universe) + [4, 5]
    inserts, deletes = {}, {}
    for name in rng.sample(["E", "R"], rng.randint(1, 2)):
        present = sorted(base.relations[name])
        if present and rng.random() < 0.3:
            deletes[name] = [rng.choice(present)]
        else:
            candidate = (rng.choice(elements), rng.choice(elements))
            while candidate in base.relations[name]:
                candidate = (rng.choice(elements), rng.choice(elements))
            inserts[name] = [candidate]
    return StructureDelta(inserts=inserts, deletes=deletes)


def _eviction_units():
    from repro.engine.executor import _lower_plan

    plans = [compile_plan(text) for text in EVICTION_QUERIES]
    units = {}
    for split in (False, True):
        for unit in _lower_plan(plans, split=split).units:
            units.setdefault(unit.base, unit)
    return list(units.values())


@pytest.mark.parametrize("seed", range(12))
def test_a_delta_keeps_exactly_the_counts_it_cannot_change(seed):
    """Soundness: every count a delta keeps is the fresh recount and
    the brute force.  Precision: every count whose read relations the
    delta misses, and whose liberal variables all occur in atoms, is
    kept -- universe growth alone changes only a count with a liberal
    variable in no atom (``|B|`` choices each)."""
    from repro.algorithms.brute_force import count_pp_answers_brute_force

    base = _eviction_base()
    delta = _eviction_delta(seed)
    units = _eviction_units()
    context = ExecutionContext(base)
    context.run_units(units)
    migrated = context.apply_delta(delta)
    after = migrated.structure
    grew = len(after.universe) > len(base.universe)
    fresh = ExecutionContext(after, memoize=False).run_units(units)
    for unit, kept, recount in zip(units, migrated.recall(units), fresh):
        assert recount == count_pp_answers_brute_force(unit.base, after)
        if kept is not None:
            assert kept == recount, (str(unit.base), delta)
        reads = {name for name, tuples in unit.base.structure.relations.items() if tuples}
        sensitive = grew and unit.base.unconstrained_liberal_variables
        if not (reads & delta.relations) and not sensitive:
            assert kept is not None, (str(unit.base), delta)


def test_universe_growth_in_another_relation_keeps_the_counts():
    # R(4, 4) adds an element but leaves E alone: neither count of an
    # E-only formula can change.
    units = [compile_plan(text).pp for text in ("exists a. E(a, a)", "E(x, y)")]
    context = ExecutionContext(_eviction_base())
    values = context.run_units(units)
    evictions = context.stats.snapshot().memo_evictions
    migrated = context.apply_delta(StructureDelta(inserts={"R": [(4, 4)]}))
    assert migrated.recall(units) == values
    assert context.stats.snapshot().memo_evictions == evictions


# ----------------------------------------------------------------------
# Registry versioning
# ----------------------------------------------------------------------
def test_registry_advance_bumps_version_and_checks_identity():
    registry = StructureRegistry()
    base = two_paths()
    entry, _, _ = registry.register("g", base, pin=False)
    assert entry.version == 1
    delta = StructureDelta(inserts={"E": [(4, 5)]})
    advanced = registry.advance("g", entry, base.apply_delta(delta))
    assert advanced.version == 2
    assert advanced.fingerprint != entry.fingerprint
    assert registry.peek("g") is advanced
    # Committing against the stale parent snapshot conflicts.
    with pytest.raises(VersionConflict):
        registry.advance("g", entry, base.apply_delta(delta))


def test_registry_advance_expect_version_mismatch_is_conflict():
    registry = StructureRegistry()
    base = two_paths()
    entry, _, _ = registry.register("g", base, pin=False)
    delta = StructureDelta(inserts={"E": [(4, 5)]})
    with pytest.raises(VersionConflict) as excinfo:
        registry.advance(
            "g", entry, base.apply_delta(delta), expect_version=7
        )
    assert excinfo.value.expected == 7
    assert excinfo.value.actual == 1
    with pytest.raises(UnknownStructureError):
        registry.advance("nope", entry, base.apply_delta(delta))


def test_registry_entry_as_dict_exposes_version():
    registry = StructureRegistry()
    entry, _, _ = registry.register("g", two_paths(), pin=False)
    assert entry.as_dict()["version"] == 1


def test_advance_incremental_bytes_match_full_sweep():
    # advance(delta=...) carries resident_bytes incrementally; the
    # estimate must agree exactly with a fresh full sweep through
    # inserts of new elements, inserts of known elements, and deletes.
    from repro.engine.registry import approximate_structure_bytes

    registry = StructureRegistry()
    base = two_paths()
    entry, _, _ = registry.register("g", base, pin=False)
    assert entry.resident_bytes == approximate_structure_bytes(base)
    deltas = [
        StructureDelta(inserts={"E": [(4, 99), (99, 100)]}),
        StructureDelta(inserts={"E": [(99, 1)]}, deletes={"E": [(1, 2)]}),
        StructureDelta(deletes={"E": [(99, 100)]}),
    ]
    for delta in deltas:
        entry = registry.advance(
            "g", entry, entry.structure.apply_delta(delta), delta=delta
        )
        assert entry.resident_bytes == approximate_structure_bytes(
            entry.structure
        )


# ----------------------------------------------------------------------
# Engine end to end
# ----------------------------------------------------------------------
def test_engine_apply_delta_counts_track_every_version():
    with Engine() as engine:
        base = two_paths()
        engine.register_structure("g", base, pin=False, shard_count=2)
        engine.count(PATH_QUERY, "g")
        entry = engine.apply_delta(
            "g", StructureDelta(inserts={"E": [(4, 5)]})
        )
        assert entry.version == 2
        expected = reference_count(entry.structure)
        assert engine.count(PATH_QUERY, "g") == expected
        assert engine.count_sharded(PATH_QUERY, "g", parallel=False) == expected
        entry = engine.apply_delta(
            "g", StructureDelta(deletes={"E": [(1, 2)]}), expect_version=2
        )
        assert entry.version == 3
        assert engine.count(PATH_QUERY, "g") == reference_count(entry.structure)
        stats = engine.stats()
        assert stats.delta_applies == 2
        assert stats.memo_evictions >= 1


def test_engine_apply_delta_version_conflicts_and_unknown_names():
    with Engine() as engine:
        engine.register_structure("g", two_paths(), pin=False)
        with pytest.raises(VersionConflict):
            engine.apply_delta(
                "g", StructureDelta(inserts={"E": [(4, 5)]}), expect_version=9
            )
        with pytest.raises(UnknownStructureError):
            engine.apply_delta(
                "nope", StructureDelta(inserts={"E": [(4, 5)]})
            )
        with pytest.raises(ReproError):
            engine.apply_delta("g", "not a delta")  # type: ignore[arg-type]


def test_engine_apply_delta_reshards_on_cross_shard_merge():
    with Engine() as engine:
        base = Structure.from_relations(
            {"E": [(i, i + 1) for i in range(0, 20, 2)]}
        )
        engine.register_structure("g", base, pin=False, shard_count=2)
        sharded = engine.registry.peek("g").sharded
        by_shard: dict[int, object] = {}
        for element, shard in shard_placement(sharded).items():
            by_shard.setdefault(shard, element)
        assert len(by_shard) == 2
        a, b = by_shard.values()
        entry = engine.apply_delta(
            "g", StructureDelta(inserts={"E": [(a, b)]})
        )
        assert entry.version == 2
        assert entry.sharded is not sharded
        expected = reference_count(entry.structure)
        assert engine.count_sharded(PATH_QUERY, "g", parallel=False) == expected


def _placed_in_worker(_):
    from repro.engine import pool as pool_module

    return pool_module.TaskOk(pool_module._resident.placed_fingerprints())


def test_engine_apply_delta_migrates_pinned_worker_contexts():
    # Disjoint edges: "x has an out-edge" changes with every inserted
    # edge, so pre- and post-delta counts must differ.
    out_query = "exists y. E(x, y)"
    edges = [(i, i + 1) for i in range(0, 40, 2)]
    base = Structure.from_relations({"E": edges}, universe=range(41))
    with Engine(processes=2) as engine:
        entry = engine.register_structure("g", base, pin=True, shard_count=4)
        before = engine.count_sharded(out_query, "g", parallel=True)
        assert engine.pool.started
        new_entry = engine.apply_delta(
            "g", StructureDelta(inserts={"E": [(100, 101)]})
        )
        for pinned in engine.pool.map(_placed_in_worker, [None, None]):
            assert new_entry.fingerprint in pinned
            assert entry.fingerprint not in pinned
        after = engine.count_sharded(out_query, "g", parallel=True)
        with Engine() as fresh:
            assert after == fresh.count(
                "exists y. E(x, y)",
                Structure.from_relations(
                    {"E": edges + [(100, 101)]},
                    universe=list(range(41)) + [100, 101],
                ),
            )
        assert before + 1 == after


def test_deltas_reregistration_and_a_fresh_engine_all_agree():
    """Three routes to the same data -- incremental deltas, re-registering
    each rebuilt version, an engine that saw neither -- one count."""
    versions = [two_paths()]
    deltas = [
        StructureDelta(inserts={"E": [(4, 5)]}),
        StructureDelta(deletes={"E": [(1, 2)]}),
        StructureDelta(inserts={"E": [(5, 10)]}),  # merges the two paths
    ]
    for delta in deltas:
        versions.append(versions[-1].apply_delta(delta))
    with Engine(processes=2) as live, Engine(processes=2) as rereg:
        live.register_structure("g", versions[0], pin=True, shard_count=2)
        live.count_sharded(PATH_QUERY, "g", parallel=True)
        for delta, version in zip(deltas, versions[1:]):
            live.apply_delta("g", delta)
            rebuilt = Structure.from_relations(
                {"E": sorted(version.relations["E"])},
                universe=sorted(version.universe),
            )
            rereg.register_structure("g", rebuilt, pin=True, shard_count=2)
            assert (
                live.count_sharded(PATH_QUERY, "g", parallel=True)
                == rereg.count_sharded(PATH_QUERY, "g", parallel=True)
                == reference_count(version)
            )


# ----------------------------------------------------------------------
# Stale-shard-plan regression (re-registration with a drifted plan)
# ----------------------------------------------------------------------
def test_count_sharded_ignores_drifted_registration_shard_plan():
    with Engine() as engine:
        s1 = two_paths()
        engine.register_structure("g", s1, pin=False, shard_count=2)
        stale_plan = engine.registry.peek("g").sharded
        s2 = Structure.from_relations(
            {"E": [(1, 2), (2, 3), (3, 4), (4, 5), (20, 21), (21, 22)]}
        )
        # Seed an entry whose recorded shard plan belongs to different
        # data (what a buggy re-registration path would leave behind):
        # counting by reference must detect the drift and re-partition
        # instead of trusting the recorded plan.
        engine.registry.register(
            "g", s2, pin=False, shard_count=2, sharded=stale_plan
        )
        expected = engine.count(PATH_QUERY, s2)
        assert (
            engine.count_sharded(PATH_QUERY, "g", parallel=False) == expected
        )


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
def _request(base: str, method: str, path: str, payload=None):
    body = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path,
        data=body,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_patch_applies_delta_and_enforces_versions():
    server = CountingServer(port=0)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        status, body = _request(
            base,
            "PUT",
            "/structures/g",
            {"structure": {"E": [[1, 2], [2, 3], [10, 11]]}, "shard_count": 2},
        )
        assert status == 200 and body["version"] == 1
        status, body = _request(
            base, "POST", "/count",
            {"query": PATH_QUERY, "structure": {"ref": "g"}},
        )
        assert status == 200
        before = body["count"]
        status, body = _request(
            base, "PATCH", "/structures/g",
            {"insert": {"E": [[3, 4]]}, "expect_version": 1},
        )
        assert status == 200
        assert body["version"] == 2
        status, body = _request(
            base, "POST", "/count",
            {"query": PATH_QUERY, "structure": {"ref": "g"}},
        )
        assert status == 200 and body["count"] == before + 1
        # Optimistic concurrency: a stale expect_version is a 409 that
        # changes nothing.
        status, body = _request(
            base, "PATCH", "/structures/g",
            {"insert": {"E": [[5, 6]]}, "expect_version": 1},
        )
        assert status == 409
        assert body["expected_version"] == 1 and body["actual_version"] == 2
        status, body = _request(base, "GET", "/structures/g")
        assert status == 200 and body["version"] == 2
        # Unknown name and malformed deltas.
        status, body = _request(
            base, "PATCH", "/structures/nope", {"insert": {"E": [[1, 2]]}}
        )
        assert status == 404 and "g" in body["known_structures"]
        status, body = _request(base, "PATCH", "/structures/g", {})
        assert status == 400
        status, body = _request(
            base, "PATCH", "/structures/g", {"delete": {"E": [[99, 98]]}}
        )
        assert status == 400
        # The new counters flow through /metrics.
        status, body = _request(base, "GET", "/metrics")
        assert status == 200
        assert body["engine"]["delta_applies"] == 1
