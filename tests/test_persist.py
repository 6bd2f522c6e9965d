"""The on-disk plan store: warm starts, versioning, corruption tolerance.

A persisted plan must round-trip into a *fresh* engine (write, new
``Engine`` on the same directory, hit without recompiling); a bumped
library version or a corrupted file must be a clean miss, never an
error; writes must be atomic (no ``.tmp`` debris, no half files).
"""

import os
import pickle

import pytest

from repro.engine import Engine, PlanStore, compile_plan
from repro.engine.cache import plan_key
from repro.engine.persist import PLAN_FILE_SUFFIX, key_digest
from repro.exceptions import ReproError
from repro.structures.random_gen import random_graph
from repro.workloads.generators import example_5_21_query, union_of_paths_query

QUERY = "exists z. (E(x, z) & E(z, y))"


def test_store_round_trips_a_plan(tmp_path):
    store = PlanStore(tmp_path)
    plan = compile_plan(QUERY)
    key = plan_key(plan.query, 40)
    assert store.load(key) is None  # cold miss
    store.save(key, plan)
    reloaded = PlanStore(tmp_path).load(key)
    assert reloaded is not None
    assert reloaded.kind == plan.kind
    assert reloaded.query == plan.query
    assert store.misses == 1 and store.stores == 1


def test_engine_round_trip_write_new_engine_hit(tmp_path):
    structure = random_graph(5, 0.4, seed=1)
    first = Engine(persistent_cache_dir=str(tmp_path))
    count = first.count(QUERY, structure)
    assert first.stats().persist_stores == 1
    assert len(first.store) == 1

    # A genuinely fresh process stand-in: new engine, cold memory cache.
    second = Engine(persistent_cache_dir=str(tmp_path))
    assert second.count(QUERY, structure) == count
    stats = second.stats()
    assert stats.persist_hits == 1
    assert stats.persist_stores == 0  # loaded, not recompiled-and-rewritten


def test_warm_from_disk_and_flush_to_disk(tmp_path):
    structure = random_graph(5, 0.4, seed=2)
    writer = Engine(persistent_cache_dir=str(tmp_path))
    queries = [QUERY, "E(x, y)", union_of_paths_query([1, 2])]
    for query in queries:
        writer.count(query, structure)
    assert writer.flush_to_disk() == len(queries)

    reader = Engine(persistent_cache_dir=str(tmp_path))
    assert reader.warm_from_disk() == len(queries)
    for query in queries:
        assert reader.count(query, structure) == writer.count(query, structure)
    # Every query was served from the warmed in-memory cache.
    assert reader.stats().plan_misses == 0
    assert reader.stats().plan_hits >= len(queries)


def test_warm_and_flush_require_a_store():
    engine = Engine()
    with pytest.raises(ReproError):
        engine.warm_from_disk()
    with pytest.raises(ReproError):
        engine.flush_to_disk()


def test_version_bump_is_a_clean_miss(tmp_path):
    plan = compile_plan(QUERY)
    key = plan_key(plan.query, 40)
    PlanStore(tmp_path, version="1.0.0").save(key, plan)
    bumped = PlanStore(tmp_path, version="2.0.0")
    assert bumped.load(key) is None
    assert len(bumped) == 0
    assert bumped.misses == 1


def test_corrupted_file_is_a_clean_miss(tmp_path):
    store = PlanStore(tmp_path)
    plan = compile_plan(QUERY)
    key = plan_key(plan.query, 40)
    store.save(key, plan)
    (path,) = list(store._version_dir.glob(f"*{PLAN_FILE_SUFFIX}"))

    path.write_bytes(b"\x00not a pickle")
    assert PlanStore(tmp_path).load(key) is None

    # A truncated pickle (simulating a torn write) is also a miss.
    path.write_bytes(pickle.dumps((key, plan))[:20])
    assert PlanStore(tmp_path).load(key) is None

    # And warming skips the rotten file instead of raising.
    assert list(PlanStore(tmp_path).load_all()) == []


def test_key_mismatch_is_a_miss(tmp_path):
    # Simulate a digest collision: the file exists but holds a plan for
    # a different key.  The stored key is verified, so this is a miss.
    store = PlanStore(tmp_path)
    plan = compile_plan(QUERY)
    key = plan_key(plan.query, 40)
    other_key = plan_key(compile_plan("E(x, y)").query, 40)
    store.save(key, plan)
    os.replace(store._path(key), store._path(other_key))
    assert PlanStore(tmp_path).load(other_key) is None


def test_writes_leave_no_temp_debris(tmp_path):
    store = PlanStore(tmp_path)
    plan = compile_plan(example_5_21_query())
    store.save(plan_key(plan.query, 40), plan)
    leftovers = [
        name
        for name in os.listdir(store._version_dir)
        if not name.endswith(PLAN_FILE_SUFFIX)
    ]
    assert leftovers == []


def test_key_digest_is_stable_and_distinct():
    key_a = plan_key(compile_plan(QUERY).query, 40)
    key_b = plan_key(compile_plan("E(x, y)").query, 40)
    assert key_digest(key_a) == key_digest(key_a)
    assert key_digest(key_a) != key_digest(key_b)
    # The disjunct limit is part of the identity.
    assert key_digest(key_a) != key_digest(
        plan_key(compile_plan(QUERY).query, 16)
    )


def test_clear_removes_only_this_version(tmp_path):
    plan = compile_plan(QUERY)
    key = plan_key(plan.query, 40)
    old = PlanStore(tmp_path, version="1.0.0")
    new = PlanStore(tmp_path, version="2.0.0")
    old.save(key, plan)
    new.save(key, plan)
    new.clear()
    assert len(new) == 0
    assert len(old) == 1
