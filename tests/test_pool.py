"""Worker pools, structure fingerprints, and parallel-path error handling.

The long-lived :class:`~repro.engine.pool.WorkerPool` must (a) keep
execution contexts resident across calls, keyed by structure
fingerprint, (b) propagate exceptions raised inside workers to the
caller (never mask them with a silent sequential re-run), (c) leave
the sequential fallback in place for genuine pool-*setup* failures such
as unpicklable jobs, and (d) be the only pool an engine ever creates.
"""

import functools
import os
import threading

import pytest

from repro.engine import executor
from repro.engine import (
    Engine,
    WorkerPool,
    WorkerTaskError,
    compile_plan,
    count_many,
    execute,
    execute_sharded,
)
from repro.engine.pool import shard_task
from repro.engine.resident import ResidentContexts
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.sharding import shard_structure
from repro.structures.structure import Structure
from repro.workloads.generators import path_query, union_of_paths_query


# ----------------------------------------------------------------------
# Structure fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_equal_for_equal_structures():
    a = random_cluster_graph(3, 4, 0.5, seed=5)
    b = random_cluster_graph(3, 4, 0.5, seed=5)
    assert a is not b and a == b
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_distinguishes_content():
    base = Structure.from_relations({"E": [(1, 2), (2, 3)]})
    different_tuples = Structure.from_relations({"E": [(1, 2), (3, 2)]})
    different_universe = Structure.from_relations(
        {"E": [(1, 2), (2, 3)]}, universe=[1, 2, 3, 4]
    )
    prints = {
        base.fingerprint(),
        different_tuples.fingerprint(),
        different_universe.fingerprint(),
    }
    assert len(prints) == 3


def test_fingerprint_shape_and_caching():
    structure = Structure.from_relations({"E": [(1, 2)], "R": [(2, 1)]})
    size, counts, digest = structure.fingerprint()
    assert size == 2
    assert counts == (("E", 2, 1), ("R", 2, 1))
    assert isinstance(digest, str) and len(digest) == 32
    assert structure.fingerprint() is structure.fingerprint()


# ----------------------------------------------------------------------
# WorkerPool lifecycle
# ----------------------------------------------------------------------
def test_worker_pool_starts_lazily_and_closes():
    pool = WorkerPool(processes=1)
    assert not pool.started
    with pool:
        pass  # never used: no processes were ever forked
    assert not pool.started


def test_worker_pool_rejects_nonpositive_processes():
    from repro.exceptions import ReproError

    with pytest.raises(ReproError):
        WorkerPool(processes=0)


def test_worker_lru_capacity_is_not_an_option():
    with pytest.raises(TypeError):
        WorkerPool(context_capacity=8)
    with pytest.raises(TypeError):
        Engine(worker_context_cache_size=8)


def test_engine_pool_is_lazy_until_parallel_call():
    with Engine() as engine:
        structure = random_graph(4, 0.5, seed=0)
        engine.count("E(x, y)", structure)
        assert not engine.pool.started


def test_collector_paused_restores_the_state_it_found():
    import gc

    from repro.engine.pool import collector_paused

    assert gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    gc.disable()
    try:
        with collector_paused():
            pass
        assert not gc.isenabled()  # the caller's own choice survives
    finally:
        gc.enable()


def _collector_state_task(_):
    import gc

    from repro.engine import pool as pool_module

    return pool_module.TaskOk(
        (
            gc.isenabled(),
            gc.get_freeze_count(),
            pool_module._resident.placed_fingerprints(),
        )
    )


def test_workers_start_collecting_with_the_resident_heap_frozen():
    graph = random_graph(10, 0.5, seed=3)
    store = ResidentContexts()
    store.place([graph])
    with WorkerPool(processes=2, contexts=store) as pool:
        states = pool.map(_collector_state_task, [None, None])
        assert len(states) == 2
        for enabled, frozen, placed in states:
            assert enabled and frozen > 0
            assert placed == (graph.fingerprint(),)


# ----------------------------------------------------------------------
# Worker-resident context caches
# ----------------------------------------------------------------------
def test_repeated_count_sharded_hits_worker_contexts():
    structure = random_cluster_graph(6, 4, 0.5, seed=3)
    query = path_query(2, quantify_interior=True)
    # One worker: with more, which worker takes which shard job is a
    # race, and a hit needs the same shard on the same worker twice.
    with Engine(processes=1) as engine:
        first = engine.count_sharded(
            query, structure, shard_count=6, parallel=True
        )
        assert engine.stats().worker_context_hits == 0
        assert engine.stats().worker_context_misses > 0
        second = engine.count_sharded(
            query, structure, shard_count=6, parallel=True
        )
        assert first == second == execute(compile_plan(query), structure)
        assert engine.stats().worker_context_hits > 0


def test_repeated_parallel_count_many_hits_worker_contexts():
    structures = [random_graph(5, 0.4, seed=s) for s in range(3)]
    queries = [path_query(2, quantify_interior=True), union_of_paths_query([1, 2])]
    with Engine() as engine:
        first = engine.count_many(queries, structures, parallel=True)
        second = engine.count_many(queries, structures, parallel=True)
        assert first == second
        assert engine.stats().worker_context_hits > 0
        assert engine.stats().as_dict()["worker_context_hits"] > 0


def _trace_of(call):
    """The one finished trace of ``call()`` and its result."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    tracer.set_enabled(True)
    tracer.clear()
    try:
        result = call()
        (trace,) = tracer.finished_traces()
        return result, trace
    finally:
        tracer.set_enabled(None)
        tracer.clear()


def test_a_warm_parallel_count_on_a_pinned_ref_never_reaches_the_pool():
    from repro.algorithms.brute_force import count_answers_naive
    from repro.engine.plan import as_ep

    graph = random_cluster_graph(6, 4, 0.5, seed=3)
    query = path_query(2, quantify_interior=True)
    expected = count_answers_naive(as_ep(query), graph)
    with Engine(processes=2) as engine:
        entry = engine.register_structure("net", graph, shard_count=6)
        shards = len(entry.sharded.non_empty_shards())
        assert shards > 1
        assert engine.count_sharded(query, "net", parallel=True) == expected
        # A fresh pool: only a dispatch could start it again.
        engine.pool.close()
        hits = engine.stats().context_hits
        count, trace = _trace_of(
            lambda: engine.count_sharded(query, "net", parallel=True)
        )
        assert count == expected
        assert not engine.pool.started
        names = [span.name for span in trace.spans()]
        assert "shard.fanout" not in names
        assert not any(name.startswith("shard.execute[") for name in names)
        (combine,) = [span for span in trace.spans() if span.name == "combine"]
        assert combine.attributes["answered"] == shards
        # One context hit per shard answered from the parent's memos.
        assert engine.stats().context_hits == hits + shards


def test_a_warm_parallel_count_many_ships_only_the_missing_units(monkeypatch):
    graph = random_cluster_graph(4, 4, 0.5, seed=9)
    other = random_cluster_graph(4, 4, 0.5, seed=10)
    old = [path_query(k, quantify_interior=True) for k in range(1, 4)]
    new = [union_of_paths_query([1, 2])]

    def expected(queries):
        return [
            [execute(compile_plan(q), graph), execute(compile_plan(q), other)]
            for q in queries
        ]

    def keys(units):
        return {u.base for u in units}

    with Engine(processes=2) as engine:
        engine.register_structure("net", graph, shard_count=2)
        assert engine.count_many(old, ["net", other], parallel=True) == (
            expected(old)
        )
        shipped: list[list] = []
        real_map = engine.pool.map

        def recording(task, jobs, by_value=None):
            shipped.append(list(jobs))
            return real_map(task, jobs, by_value)

        monkeypatch.setattr(engine.pool, "map", recording)
        # The pinned ref is answered from the parent's context; the
        # unregistered structure was never held there, so it ships.
        again, trace = _trace_of(
            lambda: engine.count_many(old, ["net", other], parallel=True)
        )
        assert again == expected(old)
        (jobs,) = shipped
        assert jobs and all(job[1] is other for job in jobs)
        (combine,) = [span for span in trace.spans() if span.name == "combine"]
        assert combine.attributes["answered"] == 1
        # New queries ship only the units the parent has not memoized.
        shipped.clear()
        both = engine.count_many(old + new, ["net"], parallel=True)
        assert both == [[row[0]] for row in expected(old + new)]
        (jobs,) = shipped
        sent = keys(unit for job in jobs for unit in job[0])
        program = executor._lower_plan(
            [compile_plan(q) for q in old], split=False
        )
        assert sent and not sent & keys(program.units)


def test_a_per_call_pool_size_is_a_type_error():
    # The pool size is the engine's deployment setting, not a per-call
    # one: there is no second pool a call could ask for.
    structure = random_cluster_graph(4, 4, 0.5, seed=6)
    query = path_query(2, quantify_interior=True)
    with Engine(processes=2) as engine:
        with pytest.raises(TypeError, match="processes"):
            engine.count_sharded(
                query, structure, shard_count=4, parallel=True, processes=1
            )
        with pytest.raises(TypeError, match="processes"):
            engine.count_many([query], [structure], parallel=True, processes=1)
        assert not engine.pool.started


def test_every_parallel_call_runs_on_the_engines_one_pool(monkeypatch):
    import multiprocessing

    pools: list = []  # every WorkerPool constructed, in order
    original = WorkerPool.__init__

    def recording(self, *args, **kwargs):
        pools.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "__init__", recording)
    children_before = set(multiprocessing.active_children())
    graph = random_cluster_graph(4, 4, 0.5, seed=6)
    query = path_query(2, quantify_interior=True)
    with Engine(processes=2) as engine:
        engine.register_structure("pinned", graph, shard_count=4)
        engine.register_structure(
            "unpinned",
            random_cluster_graph(4, 4, 0.5, seed=7),
            pin=False,
            shard_count=4,
        )
        ad_hoc = random_cluster_graph(5, 4, 0.5, seed=8)
        for ref in ("pinned", "unpinned", ad_hoc):
            expected = execute(
                compile_plan(query), engine.resolve_structure(ref)
            )
            assert (
                engine.count_sharded(query, ref, shard_count=4, parallel=True)
                == expected
            )
            assert engine.count_many(
                [query, "E(x, y)"], [ref, graph], parallel=True
            )[0] == [expected, execute(compile_plan(query), graph)]
        assert engine.pool.started
        assert pools == [engine.pool]
    assert pools == [engine.pool]
    assert not set(multiprocessing.active_children()) - children_before


def test_count_many_on_one_structure_fans_its_units_out(monkeypatch):
    from repro.algorithms.brute_force import count_answers_naive
    from repro.engine.plan import as_ep

    graph = random_cluster_graph(4, 4, 0.5, seed=9)
    queries = [path_query(k, quantify_interior=True) for k in range(1, 5)]
    queries += [union_of_paths_query([1, k]) for k in range(2, 4)]
    expected = [[count_answers_naive(as_ep(q), graph)] for q in queries]
    with Engine(processes=2) as engine:
        assert len(queries) >= 2 * engine.pool.processes
        shipped: list[list] = []
        real_map = engine.pool.map

        def recording(task, jobs, by_value=None):
            shipped.append(list(jobs))
            return real_map(task, jobs, by_value)

        monkeypatch.setattr(engine.pool, "map", recording)
        assert engine.count_many(queries, [graph], parallel=True) == expected
        engine.register_structure("net", graph, shard_count=2)
        assert engine.count_many(queries, ["net"], parallel=True) == expected
        ad_hoc, by_ref = shipped
        # One structure, many plans: still more than one job, and every
        # job of the pinned ref names it instead of carrying it.
        assert len(ad_hoc) > 1 and len(by_ref) > 1
        assert all(isinstance(job[1], Structure) for job in ad_hoc)
        assert all(job[1] == graph.fingerprint() for job in by_ref)


def test_an_explicit_pool_agrees_with_sequential():
    structure = random_cluster_graph(5, 4, 0.4, seed=8)
    query = path_query(2, quantify_interior=True)
    plan = compile_plan(query)
    sharded = shard_structure(structure, 5)
    with WorkerPool(processes=2) as pool:
        assert execute_sharded(plan, sharded, pool=pool) == execute_sharded(
            plan, sharded
        )
        assert pool.started


# ----------------------------------------------------------------------
# Worker errors propagate; setup errors fall back
# ----------------------------------------------------------------------
def test_worker_value_error_propagates_from_count_many(monkeypatch):
    """A counting bug inside a pool worker must reach the caller.

    The patch lands before the pool forks, so the workers inherit the
    exploding ``execute_pp_plan``; the sequential path would raise the
    same way, and the parallel path must not silently demote to it.
    """
    import repro.algorithms.fpt_counting as fpt_module

    def explode(plan, structure, context=None):
        raise ValueError("boom inside worker")

    monkeypatch.setattr(fpt_module, "execute_pp_plan", explode)
    structures = [random_graph(4, 0.5, seed=s) for s in range(3)]
    with WorkerPool(processes=2) as pool:
        with pytest.raises(ValueError, match="boom inside worker"):
            count_many(["E(x, y)"], structures, pool=pool)
        assert pool.started  # raised by a worker, not the parent


def test_worker_error_propagates_from_execute_sharded(monkeypatch):
    import repro.algorithms.fpt_counting as fpt_module

    def explode(plan, structure, context=None):
        raise ValueError("shard worker boom")

    monkeypatch.setattr(fpt_module, "execute_pp_plan", explode)
    structure = random_cluster_graph(4, 3, 0.6, seed=2)
    plan = compile_plan(path_query(2, quantify_interior=True))
    with WorkerPool(processes=2) as pool:
        with pytest.raises(ValueError, match="shard worker boom"):
            execute_sharded(plan, shard_structure(structure, 4), pool=pool)
        assert pool.started


def test_worker_task_error_carries_original():
    error = WorkerTaskError(ValueError("original"))
    assert isinstance(error.original, ValueError)
    assert "ValueError" in str(error)


def _unpicklable_structure() -> Structure:
    # Lambdas are hashable universe elements but cannot be pickled, so
    # shipping this structure to a pool fails at job-submission time --
    # a setup failure, which is exactly what the fallback is for.  Two
    # disjoint edges give two data components, hence two shard jobs.
    return Structure.from_relations(
        {"E": [(lambda: 0, lambda: 1), (lambda: 2, lambda: 3)]}
    )


def test_unpicklable_structure_falls_back_to_sequential():
    bad = _unpicklable_structure()
    with WorkerPool(processes=2) as pool:
        grid = count_many(
            ["E(x, y)", "exists z. (E(x, z) & E(z, y))"], [bad], pool=pool
        )
    assert grid == [[2], [0]]


def test_unpicklable_shards_fall_back_to_sequential():
    bad = _unpicklable_structure()
    plan = compile_plan("E(x, y)")
    sharded = shard_structure(bad, 2, strategy="balanced")
    assert len(sharded.non_empty_shards()) == 2
    # Hand over a pool; submission fails to pickle the shard jobs and
    # the sequential fallback must still produce the count.
    with WorkerPool(processes=2) as pool:
        assert execute_sharded(plan, sharded, pool=pool) == execute(plan, bad)


# ----------------------------------------------------------------------
# Pinning survives worker generations, not just pool restarts
# ----------------------------------------------------------------------
def _die_task(_):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _placed_in_worker(_):
    from repro.engine import pool as pool_module

    return pool_module.TaskOk(pool_module._resident.placed_fingerprints())


def test_respawned_worker_rebuilds_pins_made_after_the_pool_started():
    import time

    graph = random_graph(10, 0.5, seed=3)
    store = ResidentContexts()
    pool = WorkerPool(processes=2, contexts=store)
    try:
        pool.map(shard_task, [])  # fork with nothing placed
        before = set(pool._worker_pids())
        pool._ensure_pool().apply_async(_die_task, (None,))
        deadline = time.monotonic() + 30
        while True:
            now = set(pool._worker_pids())
            if len(now) == 2 and now != before:
                break
            assert time.monotonic() < deadline, "worker was never respawned"
            time.sleep(0.05)
        store.place([graph])  # placed after the pool started
        per_worker = pool.map(_placed_in_worker, [None, None])
        assert len(per_worker) == 2
        for pins in per_worker:
            assert graph.fingerprint() in pins
        # The generation that lost a worker was terminated, respawn
        # included: the jobs ran on a fresh fork.
        assert not set(pool._worker_pids()) & now
    finally:
        # The lost job died with its terminated generation.
        pool.close()


_PARENT_PID = os.getpid()


class _SlowProperty:
    """A cached property that, in the test process, holds its lock until
    released; in a worker it returns at once."""

    computing = threading.Event()
    release = threading.Event()

    @functools.cached_property
    def value(self) -> int:
        if os.getpid() == _PARENT_PID:
            _SlowProperty.computing.set()
            _SlowProperty.release.wait(30)
        return os.getpid()


def _cached_property_task(_):
    from repro.engine import pool as pool_module

    return pool_module.TaskOk(_SlowProperty().value)


def test_a_fork_during_a_cached_property_computation_leaves_workers_free():
    import multiprocessing

    holder = threading.Thread(target=lambda: _SlowProperty().value)
    holder.start()
    try:
        assert _SlowProperty.computing.wait(10)
        pool = WorkerPool(processes=1)
        try:
            # Forked while this process holds the property's lock.
            pending = pool._ensure_pool().apply_async(
                _cached_property_task, (None,)
            )
            try:
                (value,) = pool._unwrap([pending.get(timeout=20)])
            except multiprocessing.TimeoutError:
                pytest.fail("the worker waited on a lock held at the fork")
            assert value != _PARENT_PID
        finally:
            pool.terminate()
    finally:
        _SlowProperty.release.set()
        holder.join(10)


_LOSE_THE_IDLE_WORKERS = """
import os, signal, time
from repro.engine import Engine, compile_plan, execute
from repro.engine.pool import shard_task
from repro.structures.random_gen import random_cluster_graph
from repro.workloads.generators import path_query

graph = random_cluster_graph(6, 4, 0.5, seed=3)
query = path_query(2, quantify_interior=True)


def lose_the_idle_workers(engine):
    engine.pool.map(shard_task, [])  # start the workers; both idle
    victims = set(engine.pool._worker_pids())
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    while set(engine.pool._worker_pids()) & victims:
        time.sleep(0.01)
    return victims


engine = Engine(processes=2)
victims = lose_the_idle_workers(engine)
count = engine.count_sharded(query, graph, shard_count=6, parallel=True)
workers = set(engine.pool._worker_pids())
lose_the_idle_workers(engine)
engine.close()  # straight after the loss, no dispatch in between
print(count == execute(compile_plan(query), graph), len(workers),
      bool(workers & victims))
"""


def test_a_pool_that_lost_its_idle_workers_counts_and_closes():
    """A worker killed while idle can take the task queue's read lock
    with it, which wedged the respawns and ``close()`` for good; the
    next dispatch must terminate that generation and fork a fresh one,
    and ``close()`` must terminate it too.
    Run in a process group of its own, so a hang fails this test
    instead of stalling the suite's exit on the wedged pool."""
    import os
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _LOSE_THE_IDLE_WORKERS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("counting or closing after losing idle workers hung")
    assert child.returncode == 0, err
    assert out.split() == ["True", "2", "False"]


# ----------------------------------------------------------------------
# Generations: a fork per store version, none left behind
# ----------------------------------------------------------------------
def test_a_started_pool_has_no_helper_process():
    import multiprocessing

    from repro.structures.delta import StructureDelta

    graph = random_cluster_graph(4, 4, 0.6, seed=41)
    edge = sorted(graph.relation("E"))[0]
    before = set(multiprocessing.active_children())
    with Engine(processes=2) as engine:
        engine.register_structure("net", graph, shard_count=4)
        engine.count_sharded(path_query(2), "net", parallel=True)
        engine.apply_delta("net", StructureDelta(deletes={"E": [edge]}))
        engine.register_structure("other", random_graph(8, 0.5, seed=2))
        # A query the parent has not memoized: the shards miss and the
        # jobs land on a fork of the changed store, and the generation
        # it replaced is gone.
        engine.count_sharded(path_query(3), "net", parallel=True)
        children = set(multiprocessing.active_children()) - before
        assert len(children) == engine.pool.processes == 2
        assert {child.pid for child in children} == set(
            engine.pool._worker_pids()
        )
    assert not set(multiprocessing.active_children()) - before
