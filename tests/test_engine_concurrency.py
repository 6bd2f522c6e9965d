"""Concurrent engine use: stats coherence and lifecycle hygiene.

The serving layer hammers one :class:`Engine` from many threads while
scraping ``stats()`` and occasionally zeroing them; these tests pin the
behaviors that makes that safe -- locked counter snapshots, no lost
updates -- plus the lifecycle regression that swapping the default
engine must not leak the previous engine's worker processes.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.engine.api import (
    Engine,
    default_engine,
    reset_default_engine,
    set_default_engine,
)
from repro.engine.context import ContextStats
from repro.engine.plan import as_ep
from repro.engine.pool import WorkerPool
from repro.obs.trace import get_tracer
from repro.structures.delta import StructureDelta
from repro.structures.random_gen import random_graph
from repro.structures.structure import Structure

PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


def two_component_graph() -> Structure:
    """Two disjoint paths, so sharding produces two real shard jobs."""
    return Structure.from_relations(
        {
            "E": [(i, i + 1) for i in range(10)]
            + [(i + 100, i + 101) for i in range(10)]
        }
    )


def test_concurrent_counts_while_stats_and_resets_run():
    """N threads mixing count/count_many/count_sharded against one
    engine, racing a stats-scraper and a stats-resetter: every count
    stays correct and no reader ever crashes or sees torn state."""
    engine = Engine()
    structures = [random_graph(5, 0.4, seed=seed) for seed in range(3)]
    expected = [
        count_answers_naive(as_ep(PATH_QUERY), structure)
        for structure in structures
    ]
    errors: list[BaseException] = []
    stop = threading.Event()

    def hammer(worker: int) -> None:
        try:
            for round_ in range(8):
                structure = structures[(worker + round_) % len(structures)]
                want = expected[(worker + round_) % len(structures)]
                assert engine.count(PATH_QUERY, structure) == want
                assert (
                    engine.count_sharded(
                        PATH_QUERY, structure, shard_count=2, parallel=False
                    )
                    == want
                )
                grid = engine.count_many(
                    [PATH_QUERY], structures, parallel=False
                )
                assert grid == [expected]
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def scrape() -> None:
        try:
            while not stop.is_set():
                stats = engine.stats()
                assert stats.plan_hits >= 0 and stats.plan_misses >= 0
                assert stats.context_hits >= 0
                stats.as_dict()  # must always serialize
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reset() -> None:
        try:
            while not stop.is_set():
                engine.reset_stats()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    workers = [
        threading.Thread(target=hammer, args=(index,)) for index in range(4)
    ]
    observers = [
        threading.Thread(target=scrape),
        threading.Thread(target=reset),
    ]
    for thread in workers + observers:
        thread.start()
    for thread in workers:
        thread.join()
    stop.set()
    for thread in observers:
        thread.join()
    assert not errors


def test_context_stats_bump_has_no_lost_updates():
    """The shared ContextStats sink is a locked read-modify-write: 8
    threads x 2000 increments land exactly, where a bare ``+=`` loses
    updates under preemption."""
    stats = ContextStats()

    def bump() -> None:
        for _ in range(2000):
            stats.bump("boundary_hits")

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert stats.snapshot().boundary_hits == 8 * 2000


def test_worker_pool_stats_snapshot_and_reset():
    pool = WorkerPool(processes=1)
    pool.worker_context_hits = 5
    pool.worker_context_misses = 2
    assert pool.stats_snapshot() == (5, 2)
    pool.reset_stats()
    assert pool.stats_snapshot() == (0, 0)
    pool.close()


def test_swapping_default_engine_leaves_no_children():
    """The lifecycle regression: replacing the default engine must shut
    the previous engine's worker pool down instead of stranding its
    forked children behind a ``__del__`` safety net."""
    children_before = set(multiprocessing.active_children())
    graph = two_component_graph()
    first = Engine(processes=2)
    set_default_engine(first)
    try:
        # Start the first engine's pool for real (two shard jobs).
        default_engine().count_sharded(
            PATH_QUERY, graph, shard_count=2, parallel=True
        )
        assert first.pool.started

        second = Engine(processes=2)
        set_default_engine(second)
        # The swap closed (and joined) the previous pool.
        assert not first.pool.started
        assert default_engine() is second

        second.count_sharded(PATH_QUERY, graph, shard_count=2, parallel=True)
        assert second.pool.started
    finally:
        reset_default_engine(close=True)
    assert not set(multiprocessing.active_children()) - children_before


def test_reset_default_engine_close_false_keeps_pool():
    engine = Engine(processes=2)
    set_default_engine(engine)
    engine.count_sharded(
        PATH_QUERY, two_component_graph(), shard_count=2, parallel=True
    )
    assert engine.pool.started
    reset_default_engine(close=False)
    try:
        assert engine.pool.started  # still ours to manage
    finally:
        engine.close()
    assert not engine.pool.started


@pytest.mark.parametrize("pin", [False, True], ids=["lru", "placed"])
def test_counts_racing_deltas_observe_whole_versions_only(pin):
    """Readers hammering a registered name while a writer applies
    deltas: every observed count must belong to exactly one version
    (pre- or post-delta), never a torn mix -- also when the sequential
    shard counts share the engine's placed shard contexts.

    The workload is built so whole versions have even counts (each
    delta deletes one edge and inserts three disjoint new ones, a net
    +2 to "x has an out-edge") -- any partially-applied state would
    surface as an odd count.
    """
    out_query = "exists y. E(x, y)"
    edges = [(i, i + 1) for i in range(0, 40, 2)]  # 20 disjoint edges
    base = Structure.from_relations({"E": edges})
    rounds = 5
    valid_counts = {20 + 2 * k for k in range(rounds + 1)}
    errors: list[BaseException] = []
    done = threading.Event()

    with Engine() as engine:
        engine.register_structure("live", base, pin=pin, shard_count=2)

        def read() -> None:
            try:
                while not done.is_set():
                    count = engine.count(out_query, "live")
                    assert count in valid_counts, f"torn count {count}"
                    count = engine.count_sharded(
                        out_query, "live", parallel=False
                    )
                    assert count in valid_counts, f"torn sharded {count}"
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for k in range(rounds):
                delta = StructureDelta(
                    inserts={
                        "E": [
                            (1000 + 10 * k + j, 2000 + 10 * k + j)
                            for j in range(3)
                        ]
                    },
                    deletes={"E": [(2 * k, 2 * k + 1)]},
                )
                entry = engine.apply_delta("live", delta, expect_version=k + 1)
                assert entry.version == k + 2
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        assert not errors, errors
        final = engine.count(out_query, "live")
        assert final == 20 + 2 * rounds


def test_deltas_migrate_contexts_that_concurrent_counts_still_fill():
    """A delta migrates the engine's contexts -- the whole structure's
    and its placed shards' -- while counts against the pre-delta version
    are still adding memo entries to them.  With a tiny switch interval
    a migration that iterates live memo dicts dies with "dictionary
    changed size during iteration"; every count must stay exact."""
    queries = [
        "exists y. E(x, y)",
        PATH_QUERY,
        "exists z. exists w. (E(x, z) & E(z, w) & E(w, y))",
        "E(x, y) & E(y, x)",
        "exists z. (E(z, x) & E(z, y))",
    ]
    base = Structure.from_relations({"E": [(i, i + 1) for i in range(0, 400, 2)]})
    errors: list[BaseException] = []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Engine(processes=1) as engine:
            engine.register_structure("live", base, shard_count=4)

            def read(sharded: bool) -> None:
                try:
                    while not done.is_set():
                        for query in queries:
                            if sharded:
                                engine.count_sharded(query, "live", parallel=False)
                            else:
                                engine.count(query, "live")
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            readers = [
                threading.Thread(target=read, args=(index % 2 == 0,))
                for index in range(4)
            ]
            for thread in readers:
                thread.start()
            try:
                for k in range(300):
                    if errors:
                        break
                    engine.apply_delta(
                        "live", StructureDelta(inserts={"E": [(1000 + k, 5000 + k)]})
                    )
            finally:
                done.set()
                for thread in readers:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in readers)
            assert not errors, errors
            final = engine.registry.peek("live").structure
            for query in queries:
                # Brute force is too slow on ~1000 elements; a fresh
                # engine shares none of the migrated state under test.
                expected = Engine().count(query, final)
                assert engine.count(query, "live") == expected
                assert engine.count_sharded(query, "live", parallel=False) == expected
    finally:
        sys.setswitchinterval(interval)


def test_parallel_counts_racing_deltas_are_recalled_from_whole_versions_only():
    """Readers repeating parallel sharded counts of a pinned ref -- each
    answered from the parent's memos or shipped and remembered there --
    while a writer alternates inserting and deleting one edge: every
    count is the pre- or the post-delta oracle, and the final state
    counts what a fresh engine counts."""
    edges = [(i, i + 1) for i in range(0, 40, 2)]
    edges += [(i, i + 2) for i in range(0, 40, 4)]
    base = Structure.from_relations({"E": edges})
    edge = (1, 2)  # inside one component: a routed delta
    insert = StructureDelta(inserts={"E": [edge]})
    delete = StructureDelta(deletes={"E": [edge]})
    grown = base.apply_delta(insert)
    before = count_answers_naive(as_ep(PATH_QUERY), base)
    oracle = {before, count_answers_naive(as_ep(PATH_QUERY), grown)}
    assert len(oracle) == 2
    seen: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with Engine(processes=2) as engine:
            engine.register_structure("live", base, shard_count=4)
            # Warm: every shard's count is memoized in the parent first.
            assert (
                engine.count_sharded(PATH_QUERY, "live", parallel=True)
                == before
            )

            def read() -> None:
                try:
                    while not done.is_set():
                        seen.append(
                            engine.count_sharded(
                                PATH_QUERY, "live", parallel=True
                            )
                        )
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            readers = [threading.Thread(target=read) for _ in range(3)]
            for thread in readers:
                thread.start()
            try:
                # An odd number of deltas: a count memo kept stale
                # across them would still read the base count at the end.
                for k in range(31):
                    engine.apply_delta("live", insert if k % 2 == 0 else delete)
            finally:
                done.set()
                for thread in readers:
                    thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in readers)
            assert not errors, errors
            assert seen and set(seen) <= oracle
            final = engine.registry.peek("live").structure
            assert final == grown
            with Engine(processes=1) as fresh:
                expected = fresh.count(PATH_QUERY, final)
            for _ in range(2):
                assert (
                    engine.count_sharded(PATH_QUERY, "live", parallel=True)
                    == expected
                )
    finally:
        sys.setswitchinterval(interval)


#: Sixteen queries with sixteen plans: a reader never repeats one, so
#: no count is answered from the parent's memos and each one dispatches.
NEVER_REPEATED = (
    "E(x, y)",
    "E(y, x)",
    "exists z. (E(x, z) & E(z, y))",
    "exists z. (E(z, x) & E(z, y))",
    "exists z. (E(x, z) & E(y, z))",
    "exists z. (E(z, x) & E(y, z))",
    "exists z w. (E(x, z) & E(z, w) & E(w, y))",
    "exists z w. (E(z, x) & E(z, w) & E(w, y))",
    "exists z w. (E(x, z) & E(w, z) & E(w, y))",
    "exists z. (E(x, z) & E(z, y) & E(x, y))",
    "exists z. (E(z, x) & E(z, y) & E(x, y))",
    "E(x, y) | E(y, x)",
    "E(x, y) | exists z. (E(x, z) & E(z, y))",
    "exists z. (E(x, z)) & exists w. (E(w, y))",
    "exists z. (E(x, z) & E(x, y))",
    "exists z. (E(z, y) & E(x, y))",
)


def test_parallel_counts_racing_re_forks_run_on_whole_versions():
    """Readers counting never-repeated queries on a pinned ref through
    the pool while a writer re-registers it (alternating shard plans)
    and applies alternating deltas: every change makes the next
    dispatch fork a fresh generation while jobs still run on the old
    one.  Each count is an oracle count of one whole version, none
    fails, and at quiescence the pool runs exactly its own workers,
    every one holding the placed shards."""
    edges = [(i, i + 1) for i in range(0, 16, 2)]
    edges += [(i, i + 2) for i in range(0, 16, 4)]
    base = Structure.from_relations({"E": edges})  # four components
    insert = StructureDelta(inserts={"E": [(1, 2)]})
    delete = StructureDelta(deletes={"E": [(1, 2)]})
    grown = base.apply_delta(insert)
    oracle = {
        query: {
            count_answers_naive(as_ep(query), base),
            count_answers_naive(as_ep(query), grown),
        }
        for query in NEVER_REPEATED
    }
    queries = iter(NEVER_REPEATED)
    take = threading.Lock()
    seen: list[tuple[str, int]] = []
    errors: list[BaseException] = []
    done = threading.Event()
    children_before = set(multiprocessing.active_children())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with Engine(processes=2) as engine:
            engine.register_structure("live", base, shard_count=4)
            engine.count_sharded("E(x, x)", "live", parallel=True)

            def read() -> None:
                try:
                    while True:
                        with take:
                            query = next(queries, None)
                        if query is None:
                            return
                        count = engine.count_sharded(
                            query, "live", parallel=True
                        )
                        seen.append((query, count))
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            def write() -> None:
                try:
                    step = 0
                    while not done.is_set():
                        engine.register_structure(
                            "live", base, shard_count=4 if step % 2 else 2
                        )
                        engine.apply_delta("live", insert)
                        engine.apply_delta("live", delete)
                        engine.apply_delta("live", insert)
                        step += 1
                except BaseException as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            writer = threading.Thread(target=write)
            readers = [threading.Thread(target=read) for _ in range(3)]
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            done.set()
            writer.join(timeout=60)
            assert not any(t.is_alive() for t in readers + [writer])
            assert not errors, errors
            assert len(seen) == len(NEVER_REPEATED)
            for query, count in seen:
                assert count in oracle[query], query
            # Quiescent, on a shard plan no job has carried: only the
            # fork the next dispatch makes can hold it, and then every
            # job names a shard its worker holds, so none is resent.
            final = engine.register_structure("live", grown, shard_count=3)
            query = "exists z. (E(z, x) & E(x, y))"
            tracer = get_tracer()
            tracer.set_enabled(True)
            tracer.clear()
            try:
                count = engine.count_sharded(query, "live", parallel=True)
                (fanout,) = [
                    span
                    for trace in tracer.finished_traces()
                    for span in trace.spans()
                    if span.name == "shard.fanout"
                ]
            finally:
                tracer.set_enabled(None)
                tracer.clear()
            assert count == count_answers_naive(as_ep(query), final.structure)
            shards = len(final.sharded.non_empty_shards())
            assert fanout.attributes["shards"] == shards
            assert fanout.attributes["by_ref"] == shards
            assert fanout.attributes["resent"] == 0
            children = set(multiprocessing.active_children()) - children_before
            assert len(children) == engine.pool.processes
    finally:
        sys.setswitchinterval(interval)
