"""The structure registry: residency, pinning, eviction, and the HTTP surface.

Covers the acceptance surface of the named-structure layer: counting by
reference through the engine and over a fresh HTTP connection carrying
zero structure bytes, LRU eviction of unpinned entries under capacity
pressure, pinned entries surviving ``clear_caches()``, 404 on unknown
references, and re-registration under the same name with different
data invalidating the stale worker-resident contexts.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.engine import (
    Engine,
    RegistryFull,
    StructureRegistry,
    UnknownStructureError,
)
from repro.engine.plan import as_ep
from repro.engine.registry import approximate_structure_bytes
from repro.exceptions import ReproError
from repro.obs.trace import get_tracer
from repro.serve import (
    BackgroundServer,
    BadRequest,
    CountingServer,
    CountingService,
    structure_or_ref_from_json,
)
from repro.structures.delta import StructureDelta
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.structure import Structure

TRIANGLE = {"E": [(1, 2), (2, 3), (3, 1)]}
PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


def triangle() -> Structure:
    return Structure.from_relations(TRIANGLE)


def clustered(seed: int = 13) -> Structure:
    return random_cluster_graph(4, 6, 0.4, seed=seed)


def _placed_in_worker(_):
    from repro.engine import pool as pool_module

    return pool_module.TaskOk(pool_module._resident.placed_fingerprints())


def worker_placed(pool) -> list[tuple]:
    """What the workers a dispatch would run on now hold placed: one
    answer per job, from a generation forked since the store's last
    change (its workers share one fork, so any answer is all of them)."""
    return pool.map(_placed_in_worker, [None] * pool.processes)


def brute_force(structure: Structure) -> int:
    return count_answers_naive(as_ep(PATH_QUERY), structure)


# ----------------------------------------------------------------------
# Registry unit semantics
# ----------------------------------------------------------------------
def test_registry_register_resolve_and_entry_stats():
    registry = StructureRegistry(max_entries=4)
    entry, previous, evicted = registry.register("tri", triangle(), pin=False)
    assert previous is None and evicted == []
    assert registry.resolve("tri") == triangle()
    assert registry.entry("tri").hits == 2  # resolve + entry both count
    assert "tri" in registry and len(registry) == 1
    again, previous, _ = registry.register("tri", triangle(), pin=False)
    assert previous is entry
    assert again.registrations == 2
    assert again.hits == 2  # per-entry hits survive re-registration
    hits, misses, registrations, evictions = registry.stats_snapshot()
    assert (hits, misses, registrations, evictions) == (2, 0, 2, 0)


def test_registry_rejects_bad_names():
    registry = StructureRegistry()
    for bad in ("", "a/b", "x\n", "y" * 300, 7):
        with pytest.raises(ReproError):
            registry.register(bad, triangle())  # type: ignore[arg-type]


def test_registry_unknown_name_is_a_distinct_error():
    registry = StructureRegistry()
    registry.register("known", triangle())
    with pytest.raises(UnknownStructureError) as excinfo:
        registry.resolve("unknown")
    assert excinfo.value.known == ("known",)
    assert registry.stats_snapshot()[1] == 1  # one miss


def test_registry_evicts_least_recently_used_unpinned():
    registry = StructureRegistry(max_entries=2)
    registry.register("a", triangle(), pin=False)
    registry.register("b", clustered(), pin=False)
    registry.resolve("a")  # b becomes the LRU entry
    _, _, evicted = registry.register("c", clustered(seed=5), pin=False)
    assert [e.name for e in evicted] == ["b"]
    assert registry.names() == ("a", "c")
    assert registry.stats_snapshot()[3] == 1  # one eviction


def test_registry_eviction_skips_pinned_entries():
    registry = StructureRegistry(max_entries=2)
    registry.register("pinned", triangle(), pin=True)
    registry.register("lru", clustered(), pin=False)
    _, _, evicted = registry.register("fresh", clustered(seed=5), pin=False)
    assert [e.name for e in evicted] == ["lru"]
    assert "pinned" in registry


def test_registry_full_when_everything_is_pinned():
    registry = StructureRegistry(max_entries=2)
    registry.register("a", triangle(), pin=True)
    registry.register("b", clustered(), pin=True)
    with pytest.raises(RegistryFull):
        registry.register("c", clustered(seed=5), pin=True)
    # The failed registration must not have disturbed the survivors.
    assert registry.names() == ("a", "b")
    assert registry.resolve("a") == triangle()


def test_failed_reregistration_keeps_the_previous_entry():
    small = triangle()
    budget = approximate_structure_bytes(small) + 16
    registry = StructureRegistry(max_entries=10, max_bytes=budget)
    registry.register("a", small, pin=True)
    # Replacing "a" with something too big for the budget fails -- and
    # must leave the old "a" serving, not drop it on the floor.
    with pytest.raises(RegistryFull):
        registry.register("a", clustered(), pin=True)
    assert registry.resolve("a") == small


def test_registry_byte_capacity_evicts_and_rejects():
    small = triangle()
    budget = approximate_structure_bytes(small) + 16
    registry = StructureRegistry(max_entries=10, max_bytes=budget)
    registry.register("first", small, pin=False)
    # A second structure of the same weight cannot coexist: the first
    # (unpinned) entry is evicted to fit it.
    _, _, evicted = registry.register("second", triangle(), pin=False)
    assert [e.name for e in evicted] == ["first"]
    # A structure bigger than the whole budget is rejected outright.
    with pytest.raises(RegistryFull):
        registry.register("huge", clustered(), pin=False)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_engine_counts_by_name_everywhere():
    with Engine(processes=2) as engine:
        graph = triangle()
        expected = engine.count(PATH_QUERY, graph)
        engine.register_structure("tri", graph, pin=False)
        assert engine.count(PATH_QUERY, "tri") == expected
        assert engine.count_sharded(PATH_QUERY, "tri", parallel=False) == expected
        assert engine.count_many([PATH_QUERY], ["tri", graph], parallel=False) == [
            [expected, expected]
        ]
        stats = engine.stats()
        assert stats.registry_registrations == 1
        assert stats.registry_hits >= 3
        with pytest.raises(UnknownStructureError):
            engine.count(PATH_QUERY, "nope")
        assert engine.stats().registry_misses == 1


def test_engine_count_sharded_by_name_reuses_registration_shard_plan():
    with Engine(processes=2) as engine:
        graph = clustered()
        entry = engine.register_structure("net", graph, pin=False, shard_count=4)
        assert entry.shard_count == 4
        expected = engine.count_sharded(PATH_QUERY, graph, shard_count=4,
                                        parallel=False)
        # The name defaults to the registration-time shard plan: same
        # object, no re-partitioning.
        assert engine.count_sharded(PATH_QUERY, "net", parallel=False) == expected
        assert entry.sharded is engine.registry.peek("net").sharded
        # An explicit different shard_count still works (re-partitions).
        assert (
            engine.count_sharded(PATH_QUERY, "net", shard_count=2, parallel=False)
            == expected
        )


def test_engine_register_is_not_fooled_by_references():
    with Engine(processes=2) as engine:
        with pytest.raises(ReproError):
            engine.register_structure("alias", "other")  # type: ignore[arg-type]


def test_pinned_entries_survive_clear_caches():
    with Engine(processes=2) as engine:
        graph = triangle()
        engine.register_structure("tri", graph, pin=True)
        expected = engine.count(PATH_QUERY, "tri")
        engine.clear_caches()
        # The registry is state, not cache: the name still resolves and
        # the pin set is untouched.
        assert engine.count(PATH_QUERY, "tri") == expected
        assert engine.registry.peek("tri").pinned
        assert graph.fingerprint() in engine.contexts.placed_fingerprints()


def test_pinning_broadcasts_into_live_workers():
    with Engine(processes=2) as engine:
        graph = clustered()
        # Start the pool cold on unrelated work first, so the pin below
        # must reach workers forked after it, not the first generation.
        engine.count_sharded(
            PATH_QUERY, clustered(seed=5), shard_count=4, parallel=True
        )
        assert engine.pool.started
        engine.register_structure("net", graph, pin=True, shard_count=4)
        per_worker = worker_placed(engine.pool)
        assert len(per_worker) == 2
        assert all(graph.fingerprint() in keys for keys in per_worker)
        # The first sharded call by reference runs fully on pinned
        # contexts: every shard job is a worker-context hit.
        engine.pool.reset_stats()
        engine.count_sharded(PATH_QUERY, "net", parallel=True)
        hits, misses = engine.pool.stats_snapshot()
        assert misses == 0 and hits > 0


def test_reregistration_with_different_data_invalidates_workers():
    with Engine(processes=2) as engine:
        old = clustered(seed=13)
        new = clustered(seed=14)
        assert old.fingerprint() != new.fingerprint()
        engine.register_structure("net", old, pin=True, shard_count=4)
        engine.count_sharded(PATH_QUERY, "net", parallel=True)  # starts the pool
        engine.register_structure("net", new, pin=True, shard_count=4)
        assert engine.registry.peek("net").structure == new
        parent_pins = engine.contexts.placed_fingerprints()
        assert old.fingerprint() not in parent_pins
        assert new.fingerprint() in parent_pins
        for keys in worker_placed(engine.pool):
            assert old.fingerprint() not in keys
            assert new.fingerprint() in keys


def test_resharding_same_data_unpins_the_old_shard_plan():
    with Engine(processes=2) as engine:
        graph = clustered()
        first = engine.register_structure("net", graph, pin=True, shard_count=4)
        engine.count_sharded(PATH_QUERY, "net", parallel=True)  # starts the pool
        old_shard_prints = {
            s.fingerprint() for s in first.sharded.non_empty_shards()
        }
        second = engine.register_structure("net", graph, pin=True, shard_count=2)
        new_shard_prints = {
            s.fingerprint() for s in second.sharded.non_empty_shards()
        }
        retired = old_shard_prints - new_shard_prints
        assert retired  # the plans genuinely differ
        parent_pins = set(engine.contexts.placed_fingerprints())
        assert not retired & parent_pins
        assert graph.fingerprint() in parent_pins
        for keys in worker_placed(engine.pool):
            assert not retired & set(keys)
            assert graph.fingerprint() in keys


def test_reregistering_unpinned_releases_the_pin_everywhere():
    with Engine(processes=2) as engine:
        graph = clustered()
        first = engine.register_structure("net", graph, pin=True, shard_count=4)
        engine.count_sharded(PATH_QUERY, "net", parallel=True)  # starts the pool
        engine.register_structure("net", graph, pin=False, shard_count=4)
        held = set(first.worker_fingerprints())
        assert not held & set(engine.contexts.placed_fingerprints())
        for keys in worker_placed(engine.pool):
            assert not held & set(keys)


def test_unregister_unpins_everywhere():
    with Engine(processes=2) as engine:
        graph = triangle()
        engine.register_structure("tri", graph, pin=True)
        engine.count_sharded(PATH_QUERY, "tri", parallel=True)
        assert engine.unregister_structure("tri")
        assert not engine.unregister_structure("tri")  # idempotent: gone
        assert graph.fingerprint() not in engine.contexts.placed_fingerprints()
        for keys in worker_placed(engine.pool):
            assert graph.fingerprint() not in keys
        with pytest.raises(UnknownStructureError):
            engine.count(PATH_QUERY, "tri")


def _refusals():
    """``(id, engine factory, name, expected error)``: the three ways
    ``register_structure`` refuses ``clustered()``."""
    small = approximate_structure_bytes(triangle()) + 16

    def all_pinned() -> Engine:
        engine = Engine(processes=1, registry_max_entries=1)
        engine.register_structure("resident", triangle(), pin=True)
        return engine

    yield pytest.param(
        lambda: Engine(processes=1), "a/b", ReproError, id="bad-name"
    )
    yield pytest.param(
        lambda: Engine(processes=1, registry_max_bytes=small),
        "big",
        RegistryFull,
        id="over-byte-cap",
    )
    yield pytest.param(all_pinned, "extra", RegistryFull, id="all-pinned")


@pytest.mark.parametrize("make_engine,name,error", _refusals())
@pytest.mark.parametrize("cached_before", [False, True], ids=["cold", "cached"])
def test_refused_registration_leaves_no_context_behind(
    make_engine, name, error, cached_before
):
    graph = clustered()
    with make_engine() as engine:
        if cached_before:
            # A context an earlier count cached is not the refusal's to drop.
            engine.count(PATH_QUERY, graph)
        contexts = len(engine.contexts)
        resident = engine.stats().encoded_resident_bytes
        with pytest.raises(error):
            engine.register_structure(name, graph, pin=True)
        assert len(engine.contexts) == contexts
        assert engine.stats().encoded_resident_bytes == resident
        assert name not in engine.registry


# ----------------------------------------------------------------------
# One context store: the engine's placed tier is the pool's pin set
# ----------------------------------------------------------------------
def test_ad_hoc_traffic_never_evicts_a_pinned_refs_context():
    graph = clustered()
    with Engine(processes=1) as engine:
        engine.register_structure("net", graph, pin=True, shard_count=2)
        assert engine.count(PATH_QUERY, "net") == brute_force(graph)
        ad_hoc = [random_graph(8, 0.5, seed=seed) for seed in range(40)]
        assert len({g.fingerprint() for g in ad_hoc}) == 40
        for other in ad_hoc:
            engine.count(PATH_QUERY, other)
        before = engine.stats()
        assert engine.count(PATH_QUERY, "net") == brute_force(graph)
        after = engine.stats()
        assert after.context_misses == before.context_misses
        assert after.boundary_memo_misses == before.boundary_memo_misses


def test_a_warm_sequential_sharded_count_runs_on_resident_shard_contexts():
    graph = clustered()
    expected = brute_force(graph)
    tracer = get_tracer()
    tracer.set_enabled(True)
    try:
        with Engine(processes=1) as engine:
            engine.register_structure("net", graph, pin=True, shard_count=4)
            before = engine.stats()
            encodes = []
            for _ in range(2):
                tracer.clear()
                assert engine.count_sharded(
                    PATH_QUERY, "net", parallel=False
                ) == expected
                (trace,) = tracer.finished_traces()
                encodes.append(
                    sum(s.name == "context.encode" for s in trace.spans())
                )
            # The placed shards adopt the slices registration cut out of
            # the whole structure's encoding: no call interns a shard.
            assert encodes == [0, 0]
            first = engine.stats()
            assert first.boundary_memo_misses > before.boundary_memo_misses
            assert first.context_hits > before.context_hits

        # An unregistered structure's shards are throwaways: what the
        # count leaves in the LRU tier is the whole structure's context.
        with Engine(processes=1) as engine:
            assert engine.count_sharded(
                PATH_QUERY, graph, shard_count=4, parallel=False
            ) == expected
            assert engine.contexts.placed_fingerprints() == ()
            assert len(engine.contexts) == 1
            assert graph.fingerprint() in engine.contexts
    finally:
        tracer.set_enabled(None)
        tracer.clear()


def test_the_engines_placed_contexts_mirror_the_pool_pin_set():
    live, a, b = clustered(15), clustered(13), clustered(14)
    big = random_cluster_graph(8, 6, 0.4, seed=16)
    # Room for live (give or take its deltas) beside a or b, never
    # beside big, which alone fits.
    size = approximate_structure_bytes
    max_bytes = size(live) + size(big) - size(a) // 2
    assert size(live) + max(size(a), size(b)) < max_bytes

    with Engine(processes=1, registry_max_bytes=max_bytes) as engine:

        def check(step: str) -> None:
            placed = set(engine.contexts.placed_fingerprints())
            for held in worker_placed(engine.pool):
                assert set(held) == placed, step
            for name in engine.registry.names():
                expected = brute_force(engine.registry.peek(name).structure)
                assert engine.count(PATH_QUERY, name) == expected, step
                assert engine.count_sharded(
                    PATH_QUERY, name, parallel=False
                ) == expected, step
                # Twice: the first may dispatch, the second is answered
                # from the parent's memos -- stale ones would show here.
                for _ in range(2):
                    assert engine.count_sharded(
                        PATH_QUERY, name, parallel=True
                    ) == expected, step

        engine.register_structure("live", live, shard_count=4)
        engine.register_structure("net", a, shard_count=4)
        check("register")
        engine.register_structure("net", a, shard_count=2)
        check("same data, another shard_count")
        engine.register_structure("net", b, shard_count=2)
        check("different data")
        engine.register_structure("net", b, pin=False, shard_count=2)
        check("pinned -> unpinned")
        placement = engine.registry.peek("live").sharded.placement()
        u = min(placement)
        engine.apply_delta("live", StructureDelta(inserts={"E": [(u, 1000)]}))
        check("routed delta")
        placement = engine.registry.peek("live").sharded.placement()
        v = min(e for e, shard in placement.items() if shard != placement[u])
        shards = set(engine.registry.peek("live").worker_fingerprints())
        engine.apply_delta("live", StructureDelta(inserts={"E": [(u, v)]}))
        resharded = set(engine.registry.peek("live").worker_fingerprints())
        assert len(shards & resharded) == 0  # the merge re-sharded
        check("re-sharding delta")
        with pytest.raises(RegistryFull):
            engine.register_structure("big", big, shard_count=4)
        assert big.fingerprint() not in engine.contexts
        check("RegistryFull refusal")
        engine.unregister_structure("live")
        engine.unregister_structure("net")
        check("unregister")
        assert engine.contexts.placed_fingerprints() == ()


def test_after_a_routed_delta_only_the_owner_shard_is_dispatched(monkeypatch):
    from repro.engine import executor

    graph = clustered()
    dispatched: list[list] = []
    for route in ("_run_cluster", "_run_pool", "_run_sequential"):

        def spy(units_by, structures, *args, _route=getattr(executor, route)):
            dispatched.append([shard.fingerprint() for shard in structures])
            return _route(units_by, structures, *args)

        monkeypatch.setattr(executor, route, spy)
    with Engine(processes=2) as engine:
        entry = engine.register_structure("net", graph, shard_count=4)
        shards = len(entry.sharded.non_empty_shards())
        assert engine.count_sharded(PATH_QUERY, "net", parallel=True) == (
            brute_force(graph)
        )
        assert len(dispatched[-1]) == shards > 1
        placement = entry.sharded.placement()
        u = min(placement)
        edited = engine.apply_delta(
            "net", StructureDelta(inserts={"E": [(u, 1000)]})
        )
        owner = edited.sharded.shards[placement[u]]
        dispatched.clear()
        assert engine.count_sharded(PATH_QUERY, "net", parallel=True) == (
            brute_force(edited.structure)
        )
        assert dispatched == [[owner.fingerprint()]]
        dispatched.clear()
        assert engine.count_sharded(PATH_QUERY, "net", parallel=True) == (
            brute_force(edited.structure)
        )
        assert dispatched == []


def test_the_context_cache_size_option_is_gone():
    with pytest.raises(TypeError):
        Engine(context_cache_size=32)


# ----------------------------------------------------------------------
# The wire form
# ----------------------------------------------------------------------
def test_structure_or_ref_decoding():
    assert structure_or_ref_from_json({"ref": "tenants"}) == "tenants"
    assert structure_or_ref_from_json({"E": [[1, 2]]}) == Structure.from_relations(
        {"E": [(1, 2)]}
    )
    with pytest.raises(BadRequest):
        structure_or_ref_from_json({"ref": ""})
    with pytest.raises(BadRequest):
        structure_or_ref_from_json({"ref": "x", "relations": {}})


# ----------------------------------------------------------------------
# End to end over HTTP
# ----------------------------------------------------------------------
def _request(
    base: str, method: str, path: str, payload: dict | None = None
) -> tuple[int, dict, dict]:
    """``(status, body, headers)`` of one fresh-connection request."""
    request = urllib.request.Request(
        f"{base}{path}",
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def test_http_registry_end_to_end():
    engine = Engine(processes=2)
    server = CountingServer(
        service=CountingService(engine=engine, owns_engine=True), port=0
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        # Register once, shipping the data.
        status, entry, _ = _request(
            base,
            "PUT",
            "/structures/tenants",
            {"structure": {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}}},
        )
        assert status == 200
        assert entry["name"] == "tenants" and entry["pinned"]
        assert entry["relations"] == {"E": 3}

        # Count by reference from a *fresh* connection (urllib opens a
        # new one per request): the body carries zero structure bytes.
        ref_body = {"query": PATH_QUERY, "structure": {"ref": "tenants"}}
        assert b"relations" not in json.dumps(ref_body).encode()
        status, body, _ = _request(base, "POST", "/count", ref_body)
        assert (status, body) == (200, {"count": 3})
        status, body, _ = _request(
            base,
            "POST",
            "/count_sharded",
            {"query": PATH_QUERY, "structure": {"ref": "tenants"},
             "parallel": False},
        )
        assert (status, body) == (200, {"count": 3})
        status, body, _ = _request(
            base,
            "POST",
            "/count_many",
            {"queries": [PATH_QUERY], "structures": [{"ref": "tenants"}],
             "parallel": False},
        )
        assert (status, body) == (200, {"counts": [[3]]})

        # Introspection: the list, the single entry, health and metrics.
        status, listing, _ = _request(base, "GET", "/structures")
        assert status == 200 and listing["entries"] == 1
        assert listing["structures"][0]["name"] == "tenants"
        status, single, _ = _request(base, "GET", "/structures/tenants")
        assert status == 200 and single["hits"] >= 3
        status, health, _ = _request(base, "GET", "/healthz")
        assert health["registry_entries"] == 1
        status, metrics, _ = _request(base, "GET", "/metrics")
        assert metrics["registry"]["entries"] == 1
        assert metrics["engine"]["registry_hits"] >= 3

        # Unknown references are 404s naming what exists.
        status, body, _ = _request(
            base, "POST", "/count",
            {"query": PATH_QUERY, "structure": {"ref": "ghost"}},
        )
        assert status == 404
        assert body["known_structures"] == ["tenants"]
        status, body, _ = _request(base, "GET", "/structures/ghost")
        assert status == 404

        # Delete, then the reference goes stale.
        status, body, _ = _request(base, "DELETE", "/structures/tenants")
        assert (status, body) == (200, {"deleted": "tenants"})
        status, body, _ = _request(base, "DELETE", "/structures/tenants")
        assert status == 404
        status, body, _ = _request(
            base, "POST", "/count",
            {"query": PATH_QUERY, "structure": {"ref": "tenants"}},
        )
        assert status == 404 and body["known_structures"] == []


def test_http_error_bodies_name_paths_and_methods():
    server = CountingServer(service=CountingService(), port=0)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        status, body, _ = _request(base, "POST", "/nope", {})
        assert status == 404
        assert "/count" in body["known_paths"]
        assert "/structures/<name>" in body["known_paths"]

        status, body, headers = _request(base, "GET", "/count")
        assert status == 405
        assert body["allowed"] == ["POST"]
        assert headers["Allow"] == "POST"

        status, body, headers = _request(base, "POST", "/structures/x", {})
        assert status == 405
        assert body["allowed"] == ["DELETE", "GET", "PATCH", "PUT"]
        assert headers["Allow"] == "DELETE, GET, PATCH, PUT"

        status, body, _ = _request(
            base, "PUT", f"/structures/{'x' * 250}",
            {"structure": {"E": [[1, 2]]}},
        )
        assert status == 400

        # JSON true is a bool, not the integer 1: shard_count rejects it.
        status, body, _ = _request(
            base, "PUT", "/structures/ok",
            {"structure": {"E": [[1, 2]]}, "shard_count": True},
        )
        assert status == 400 and "shard_count" in body["error"]
        status, body, _ = _request(
            base, "POST", "/count_sharded",
            {"query": "E(x, y)", "structure": {"E": [[1, 2]]},
             "shard_count": True},
        )
        assert status == 400 and "shard_count" in body["error"]
