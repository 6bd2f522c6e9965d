"""The worker runtime: one resident-context store, two transports.

Two layers, one conformance matrix each:

* process-free tests of :class:`~repro.engine.resident.ResidentContexts`
  itself, parametrized over the tier (placed / LRU) a context sits in;
* the same place -> hit, drop -> miss, delta -> migrated-and-exact
  sequence driven through both transports that own such a store -- the
  fork pool's generations and a one-worker cluster -- over a set of
  generator queries, every count checked against
  ``algorithms/brute_force.py``.

The cluster worker here runs on a thread of the test process (real
coordinator, real TCP frames), so tests can patch what it executes and
see its store; the subprocess deployments are ``test_cluster.py``'s.
"""

from __future__ import annotations

import asyncio
import logging
import threading

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.cluster import ClusterCoordinator, ClusterWorker
from repro.cluster.coordinator import ClusterUnavailable
from repro.engine import (
    Engine,
    WorkerPool,
    compile_plan,
    execute,
    execute_sharded,
)
from repro.engine.plan import as_ep
from repro.engine import pool as pool_module
from repro.engine.pool import shard_task
from repro.engine.resident import (
    LRU_CAPACITY,
    NotResident,
    ResidentContexts,
    TaskFailure,
    TaskOk,
)
from repro.exceptions import DeltaError
from repro.obs.trace import get_tracer
from repro.structures.delta import StructureDelta
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.sharding import shard_structure
from repro.structures.structure import Structure
from repro.workloads.generators import (
    path_query,
    star_query,
    union_of_paths_query,
)

# ----------------------------------------------------------------------
# The store itself (no processes, no sockets)
# ----------------------------------------------------------------------
TWO_RELATIONS = Structure.from_relations(
    {"E": [(1, 2), (2, 3)], "R": [(1, 2), (2, 1), (2, 3)]}
)
TOUCH_E = StructureDelta(inserts={"E": [(3, 1)]})
GRAPH_OF_TWO = Structure.from_relations({"E": [(1, 2), (2, 1)]})
R_PLAN = compile_plan("exists z. (R(x, z) & R(z, y))").pp


def resident(store: ResidentContexts, structure: Structure, tier: str):
    """A context for ``structure`` sitting in the named tier."""
    if tier == "placed":
        return store.place([structure])[0]
    context, hit = store.lookup(structure)
    assert not hit
    return context


TIERS = pytest.mark.parametrize("tier", ["placed", "lru"])


def test_place_is_idempotent_and_promotes_an_lru_entry_without_rebuilding():
    store = ResidentContexts()
    context = resident(store, TWO_RELATIONS, "lru").materialize()
    assert store.placed_fingerprints() == ()
    assert store.place([TWO_RELATIONS]) == [context]  # promoted as it is
    assert store.place([TWO_RELATIONS]) == [context]  # and again: same one
    assert store.placed_fingerprints() == (TWO_RELATIONS.fingerprint(),)
    assert store.lookup(TWO_RELATIONS) == (context, True)
    # Promotion moved it: dropping finds exactly one context, not two.
    assert store.drop([TWO_RELATIONS.fingerprint()]) == 1


def test_only_placed_tier_changes_bump_the_version():
    store = ResidentContexts()
    fingerprint = TWO_RELATIONS.fingerprint()
    resident(store, TWO_RELATIONS, "lru")
    store.drop([("never", "held")])
    assert store.version == 0  # LRU traffic and no-op drops leave it
    store.place([TWO_RELATIONS])  # a promotion is a placement
    store.place([TWO_RELATIONS])  # idempotent
    assert store.version == 1
    after = TWO_RELATIONS.apply_delta(TOUCH_E)
    migration = (fingerprint, TOUCH_E, after.fingerprint())
    assert store.apply_delta([migration]) == 1
    assert store.version == 2
    assert store.drop([after.fingerprint()]) == 1
    assert store.version == 3


def test_a_store_pickles_as_its_placed_structures_and_adopts_built_ones():
    import pickle

    store = ResidentContexts()
    (placed,) = store.place([TWO_RELATIONS])
    resident(store, GRAPH_OF_TWO, "lru")
    expected = placed.count_plan(R_PLAN)
    shipped = pickle.loads(pickle.dumps(store))
    assert shipped.placed_fingerprints() == (TWO_RELATIONS.fingerprint(),)
    assert len(shipped) == 1 and not shipped.lookup(TWO_RELATIONS)[1]
    adopted = ResidentContexts()
    adopted.adopt(store)
    context, hit = adopted.lookup(TWO_RELATIONS.fingerprint())
    assert (context, hit) == (placed, True)
    assert context.stats is adopted.stats  # counts into its new sink
    assert context.count_plan(R_PLAN) == expected
    assert GRAPH_OF_TWO.fingerprint() not in adopted  # placed tier only


def test_placed_contexts_start_unbuilt_and_count_as_a_miss_until_used():
    store = ResidentContexts()
    (context,) = store.place([TWO_RELATIONS])
    assert not context.built
    assert store.lookup(TWO_RELATIONS.fingerprint()) == (context, False)
    context.count_plan(R_PLAN)
    assert store.lookup(TWO_RELATIONS.fingerprint()) == (context, True)


@TIERS
def test_drop_clears_the_tier(tier):
    store = ResidentContexts()
    resident(store, TWO_RELATIONS, tier)
    fingerprint = TWO_RELATIONS.fingerprint()
    assert store.drop([fingerprint, ("never", "held")]) == 1
    with pytest.raises(NotResident):
        store.lookup(fingerprint)
    assert store.drop([fingerprint]) == 0


@TIERS
def test_delta_migration_rekeys_and_keeps_what_was_built(tier):
    store = ResidentContexts()
    context = resident(store, TWO_RELATIONS, tier)
    expected = context.count_plan(R_PLAN)
    eliminations = context.stats.snapshot().boundary_misses
    assert eliminations > 0
    after = TWO_RELATIONS.apply_delta(TOUCH_E)
    old, new = TWO_RELATIONS.fingerprint(), after.fingerprint()
    assert store.apply_delta([(old, TOUCH_E, new)]) == 1
    with pytest.raises(NotResident):
        store.lookup(old)
    migrated, hit = store.lookup(new)
    assert hit and migrated.structure == after  # encoding came along
    # The delta touched E only: R's memos survived, nothing re-eliminates.
    assert migrated.count_plan(R_PLAN) == expected
    assert migrated.stats.snapshot().boundary_misses == eliminations
    # It stayed in its tier: placed stays exempt, LRU stays evictable.
    assert (new in store.placed_fingerprints()) == (tier == "placed")
    # A fingerprint nobody holds is skipped, not an error.
    assert store.apply_delta([(old, TOUCH_E, new)]) == 0


@TIERS
def test_a_drifted_migration_is_dropped_not_kept(tier):
    store = ResidentContexts()
    resident(store, TWO_RELATIONS, tier)
    old = TWO_RELATIONS.fingerprint()
    truth = TWO_RELATIONS.apply_delta(TOUCH_E).fingerprint()
    claimed = ("not", "what", "the delta yields")
    assert store.apply_delta([(old, TOUCH_E, claimed)]) == 0
    for fingerprint in (old, truth, claimed):
        with pytest.raises(NotResident):
            store.lookup(fingerprint)


@TIERS
def test_a_delta_that_does_not_apply_leaves_its_context_resident(tier):
    store = ResidentContexts()
    context = resident(store, TWO_RELATIONS, tier)
    expected = context.count_plan(R_PLAN)
    old = TWO_RELATIONS.fingerprint()
    after = TWO_RELATIONS.apply_delta(TOUCH_E)
    absent = StructureDelta(deletes={"E": [(3, 1)]})
    # The second update raises after the first one migrated.
    other = Structure.from_relations({"E": [(7, 8)]})
    resident(store, other, tier)
    with pytest.raises(DeltaError):
        store.apply_delta(
            [
                (old, TOUCH_E, after.fingerprint()),
                (other.fingerprint(), absent, ("never", "reached")),
            ]
        )
    # Nothing was lost and the lock was released: both answer.
    assert store.lookup(other.fingerprint())[0].structure is other
    assert store.lookup(after.fingerprint())[0].count_plan(R_PLAN) == expected
    with pytest.raises(NotResident):
        store.lookup(old)
    # The refused context is still in its tier, not orphaned.
    assert store.drop([other.fingerprint()]) == 1
    assert (after.fingerprint() in store.placed_fingerprints()) == (
        tier == "placed"
    )


def test_a_bare_fingerprint_miss_is_typed_not_a_key_error():
    with pytest.raises(NotResident) as miss:
        ResidentContexts().lookup(TWO_RELATIONS.fingerprint())
    assert not isinstance(miss.value, KeyError)


def test_lru_evicts_at_capacity_and_never_touches_placed():
    store = ResidentContexts()
    (pinned,) = store.place([TWO_RELATIONS])
    graphs = [random_graph(4, 0.5, seed=s) for s in range(LRU_CAPACITY + 1)]
    assert len({g.fingerprint() for g in graphs}) == len(graphs)
    for graph in graphs:
        store.lookup(graph)
    # The oldest went, the rest and the placed one are still there.
    with pytest.raises(NotResident):
        store.lookup(graphs[0].fingerprint())
    for graph in graphs[1:]:
        store.lookup(graph.fingerprint())
    assert store.lookup(TWO_RELATIONS.fingerprint())[0] is pinned


def test_held_finds_either_tier_and_creates_builds_and_counts_nothing():
    store = ResidentContexts()
    graphs = [random_graph(4, 0.5, seed=s) for s in range(LRU_CAPACITY + 1)]
    assert store.held(TWO_RELATIONS) is None and len(store) == 0
    (pinned,) = store.place([TWO_RELATIONS])
    kept, _ = store.lookup(graphs[0])
    before = store.stats.snapshot()
    assert store.held(TWO_RELATIONS) is pinned and not pinned.built
    assert store.held(graphs[0]) is kept and not kept.built
    assert store.held(graphs[1]) is None and len(store) == 2
    assert store.stats.snapshot() == before
    # A recall is a use: the LRU context it finds becomes the newest.
    for graph in graphs[1:LRU_CAPACITY]:
        store.lookup(graph)
    assert store.held(graphs[0]) is kept
    store.lookup(graphs[LRU_CAPACITY])
    assert store.held(graphs[0]) is kept and store.held(graphs[1]) is None


@pytest.fixture
def tracing():
    """The process-wide tracer, switched on for one test."""
    tracer = get_tracer()
    tracer.set_enabled(True)
    tracer.clear()
    yield tracer
    tracer.set_enabled(None)
    tracer.clear()


def test_execute_returns_the_outcome_and_its_spans_either_way(tracing):
    store = ResidentContexts()
    store.place([TWO_RELATIONS])
    fingerprint = TWO_RELATIONS.fingerprint()

    def lose_a_key(context):
        raise KeyError("inside the work")

    ok = store.execute(
        lambda context: context.count_plan(R_PLAN),
        fingerprint,
        None,
        "job",
        units=1,
    )
    failed = store.execute(lose_a_key, fingerprint, None, "job")
    missed = store.execute(lose_a_key, ("never", "held"), None, "job")
    assert isinstance(ok, TaskOk) and ok.context_hit is False
    assert ok.value == count_answers_naive(
        as_ep("exists z. (R(x, z) & R(z, y))"), TWO_RELATIONS
    )
    assert ok.spans[0]["name"] == "job" and "error" not in ok.spans[0]
    assert ok.spans[0]["attributes"] == {"units": 1, "context_hit": False}
    assert isinstance(failed, TaskFailure)
    assert isinstance(failed.exception, KeyError)
    assert failed.spans[0]["error"].startswith("KeyError")
    assert failed.spans[0]["attributes"]["context_hit"] is True
    assert isinstance(missed.exception, NotResident) and missed.spans


# ----------------------------------------------------------------------
# The two transports
# ----------------------------------------------------------------------
class PoolTransport:
    """Residency through the store a one-worker ``WorkerPool`` forks."""

    def __init__(self):
        self.store = ResidentContexts()
        self.pool = WorkerPool(processes=1, contexts=self.store)
        # Fork now, with nothing placed, so every change below reaches
        # the worker through a later generation, not the first one.
        self.pool.map(shard_task, [])
        self.place = self.store.place
        self.drop = self.store.drop
        self.apply_delta = self.store.apply_delta

    def count(self, plan, sharded) -> int:
        return execute_sharded(plan, sharded, pool=self.pool)

    def lookups(self) -> tuple[int, int]:
        return self.pool.stats_snapshot()

    def close(self) -> None:
        self.pool.close()


class ClusterTransport:
    """Residency through coordinator frames to one in-process worker."""

    def __init__(self):
        self.coordinator = ClusterCoordinator().start()
        host, port = self.coordinator.address
        self.worker = ClusterWorker(host, port, capacity=1, name="in-process")
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        self.coordinator.wait_for_workers(1, timeout=30)
        self.place = self.coordinator.place_structures
        self.drop = self.coordinator.unplace
        self.apply_delta = self.coordinator.apply_delta

    def _serve(self) -> None:
        try:
            asyncio.run(self.worker.run())
        except ConnectionError:
            pass  # the coordinator hung up mid-read: same end as an EOF

    def count(self, plan, sharded) -> int:
        # A cluster that cannot route degrades to the sequential path.
        return execute_sharded(plan, sharded, cluster=self.coordinator)

    def lookups(self) -> tuple[int, int]:
        stats = self.coordinator.stats_snapshot()
        return stats["worker_context_hits"], stats["worker_context_misses"]

    def close(self) -> None:
        self.coordinator.stop()  # the closed connection ends worker.run()
        self.thread.join(15)
        assert not self.thread.is_alive()


@pytest.fixture(params=[PoolTransport, ClusterTransport], ids=["pool", "cluster"])
def transport(request):
    driver = request.param()
    try:
        yield driver
    finally:
        driver.close()


@pytest.fixture
def cluster():
    driver = ClusterTransport()
    try:
        yield driver
    finally:
        driver.close()


GRAPH = random_cluster_graph(4, 4, 0.6, seed=41)
NEW_EDGE = next(
    (a, b)
    for a in range(4)
    for b in range(4)
    if a != b and (a, b) not in GRAPH.relation("E")
)
QUERIES = {
    "path": path_query(2, quantify_interior=True),
    "star": star_query(2),
    "union_of_paths": union_of_paths_query([1, 2]),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_place_hits_drop_misses_delta_migrates_and_every_count_is_exact(
    transport, name
):
    plan = compile_plan(QUERIES[name])
    sharded = shard_structure(GRAPH, 4, strategy="balanced")
    shards = sharded.non_empty_shards()
    assert len(shards) == 4
    expected = count_answers_naive(as_ep(QUERIES[name]), GRAPH)

    def lookups_during(count) -> tuple[int, int]:
        hits, misses = transport.lookups()
        count()
        after_hits, after_misses = transport.lookups()
        return after_hits - hits, after_misses - misses

    def check(structure_sharded, exact):
        assert transport.count(plan, structure_sharded) == exact

    # place -> hit: once something ran against the placed contexts,
    # every shard job reuses them.
    transport.place(shards)
    check(sharded, expected)
    assert lookups_during(lambda: check(sharded, expected)) == (4, 0)

    # drop -> miss: nothing resident serves the count (the pool worker
    # rebuilds from the shipped shard, the cluster cannot route and the
    # executor degrades), and it is still exact.
    transport.drop([shard.fingerprint() for shard in shards])
    hits, _ = lookups_during(lambda: check(sharded, expected))
    assert hits == 0

    # delta -> migrated and exact: the touched shard's context moves to
    # the post-delta fingerprint with its built state (a rebuilt one
    # would be a miss), the untouched shards do not move at all.
    transport.place(shards)
    check(sharded, expected)
    delta = StructureDelta(inserts={"E": [NEW_EDGE]})
    advanced = sharded.apply_delta(delta)
    updates = [
        (old.fingerprint(), sub, new)
        for old, sub, new in zip(
            sharded.shards, sharded.route_delta(delta), advanced.shards
        )
        if sub is not None
    ]
    assert len(updates) == 1
    transport.apply_delta(updates)
    after = count_answers_naive(as_ep(QUERIES[name]), advanced.structure)
    assert lookups_during(lambda: check(advanced, after)) == (4, 0)


def test_a_fingerprint_lost_behind_the_coordinators_back_is_a_routing_miss(
    cluster,
):
    """Only the store's typed miss maps to ``unplaced``: the coordinator
    strips the disproved holder, and with no other holder the caller is
    told to degrade -- never handed an error."""
    plan = compile_plan(QUERIES["path"])
    sharded = shard_structure(GRAPH, 4, strategy="balanced")
    cluster.place(sharded.non_empty_shards())
    expected = cluster.count(plan, sharded)  # frames are in: all placed
    lost = sharded.non_empty_shards()[0].fingerprint()
    assert cluster.worker.resident.drop([lost]) == 1
    units = ()
    with pytest.raises(ClusterUnavailable):
        cluster.coordinator.run_units([(units, lost)])
    assert not cluster.coordinator.can_route([lost])
    assert cluster.count(plan, sharded) == expected  # degraded, exact


# ----------------------------------------------------------------------
# Failures inside a cluster job are the job's, with their trace
# ----------------------------------------------------------------------
def _registered(engine: Engine, cluster: ClusterTransport):
    engine.attach_cluster(cluster.coordinator)
    entry = engine.register_structure("net", GRAPH, pin=True, shard_count=4)
    fingerprints = [s.fingerprint() for s in entry.sharded.non_empty_shards()]
    assert sum(entry.placements.values()) == len(fingerprints) > 1
    return fingerprints


def _lose_a_key(plan, structure, context=None):
    raise KeyError("lost inside the counting code")


def test_a_key_error_inside_a_cluster_job_is_not_taken_for_a_routing_miss(
    cluster, monkeypatch
):
    import repro.algorithms.fpt_counting as fpt_module

    with Engine(processes=1) as engine:
        fingerprints = _registered(engine, cluster)
        monkeypatch.setattr(fpt_module, "execute_pp_plan", _lose_a_key)
        with pytest.raises(KeyError, match="lost inside the counting code"):
            engine.count_sharded(QUERIES["path"], "net")
        stats = cluster.coordinator.stats_snapshot()
        assert stats["jobs_failed"] >= 1
        assert stats["reassignments"] == 0
        # The holder was right all along, and still is.
        assert cluster.coordinator.can_route(fingerprints)
        assert cluster.coordinator.status()["placements"] == len(fingerprints)
        assert not engine.pool.started  # no local re-run masked anything


def test_a_failed_cluster_job_still_produces_an_error_annotated_trace(
    cluster, monkeypatch, tracing
):
    import repro.algorithms.fpt_counting as fpt_module

    with Engine(processes=1) as engine:
        _registered(engine, cluster)
        monkeypatch.setattr(fpt_module, "execute_pp_plan", _lose_a_key)
        with pytest.raises(KeyError):
            engine.count_sharded(QUERIES["path"], "net")
    trace = tracing.finished_traces()[0]
    assert trace.root.name == "engine.count_sharded"
    assert trace.root.error is not None
    job_spans = [
        s for s in trace.spans() if s.name.startswith("cluster.execute[")
    ]
    assert job_spans  # the failed worker job shipped its spans back
    assert all(s.error.startswith("KeyError") for s in job_spans)
    assert all("context_hit" in s.attributes for s in job_spans)


# ----------------------------------------------------------------------
# The local pool ships references: pinned data is named, not carried
# ----------------------------------------------------------------------
MUTUAL = "E(x, y) & E(y, x)"


def _clusters(cluster_size: int) -> Structure:
    """20 components whatever the size, so the shard plan has the same
    shape at 2x10^3 (12) and 2x10^4 (38) tuples."""
    return random_cluster_graph(20, cluster_size, 0.7, seed=7)


#: Ten components of four: small enough for the naive oracle of a
#: quantified query, still several non-empty shards.
SMALL = random_cluster_graph(10, 4, 0.7, seed=7)


@pytest.fixture
def shipped(monkeypatch):
    """Every job list handed to ``WorkerPool.map``, engine pool or
    throwaway, in call order."""
    calls: list[list] = []
    original = WorkerPool.map

    def recording(self, task, jobs, *args, **kwargs):
        jobs = list(jobs)
        calls.append(jobs)
        return original(self, task, jobs, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "map", recording)
    return calls


def _holds_a_structure(job) -> bool:
    return any(isinstance(slot, Structure) for slot in job)


def test_jobs_for_a_pinned_ref_do_not_grow_with_the_data(shipped):
    import pickle

    tuples, job_bytes = [], []
    for cluster_size in (12, 38):
        graph = _clusters(cluster_size)
        with Engine(processes=2) as engine:
            engine.register_structure("net", graph, shard_count=10)
            shipped.clear()
            count = engine.count_sharded(MUTUAL, "net", parallel=True)
        assert count == count_answers_naive(as_ep(MUTUAL), graph)
        (jobs,) = shipped
        assert len(jobs) == 10
        assert not any(_holds_a_structure(job) for job in jobs)
        tuples.append(len(graph.relation("E")))
        job_bytes.append(len(pickle.dumps(jobs)))
    assert tuples[1] > 10 * tuples[0]
    # A fingerprint's integers (universe size, tuple count) pickle a
    # few bytes wider as they grow; the data never rides along.
    assert job_bytes[1] <= job_bytes[0] + 8 * 10


@pytest.mark.parametrize("cell", ["unpinned ref", "ad-hoc"])
def test_everything_not_pinned_in_the_pool_it_runs_on_ships_by_value(
    shipped, cell
):
    graph = _clusters(12)
    with Engine(processes=2) as engine:
        engine.register_structure(
            "net", graph, pin=cell != "unpinned ref", shard_count=10
        )
        if cell == "ad-hoc":
            # Not the registered data: equal shards would be pinned ones.
            graph = random_cluster_graph(20, 12, 0.7, seed=8)
        shipped.clear()
        count = engine.count_sharded(
            MUTUAL,
            graph if cell == "ad-hoc" else "net",
            shard_count=10,
            parallel=True,
        )
    assert count == count_answers_naive(as_ep(MUTUAL), graph)
    (jobs,) = shipped
    assert len(jobs) == 10
    assert all(_holds_a_structure(job) for job in jobs)


@pytest.mark.parametrize("method", ["count_sharded", "count_many"])
def test_no_call_can_ask_for_a_pool_other_than_the_engines(shipped, method):
    # A pool of another size would hold no pinned context, so every
    # job on it would ship its shard by value: no call may ask for one.
    with Engine(processes=2) as engine:
        engine.register_structure("net", _clusters(12), shard_count=10)
        count = getattr(engine, method)
        query = MUTUAL if method == "count_sharded" else [MUTUAL]
        ref = "net" if method == "count_sharded" else ["net"]
        with pytest.raises(TypeError, match="processes"):
            count(query, ref, parallel=True, processes=1)
        assert not engine.pool.started
    assert not shipped


class _Records(logging.Handler):
    """What one logger emitted, whatever ``repro``'s propagation is."""

    def __init__(self, name: str):
        super().__init__(logging.DEBUG)
        self.records: list[logging.LogRecord] = []
        self.logger = logging.getLogger(name)

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)

    def __enter__(self) -> "_Records":
        self.level_before = self.logger.level
        self.logger.setLevel(logging.DEBUG)
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.logger.removeHandler(self)
        self.logger.setLevel(self.level_before)


def _fanout(tracer):
    (span,) = [
        span
        for trace in tracer.finished_traces()
        for span in trace.spans()
        if span.name == "shard.fanout"
    ]
    return span


def test_a_context_dropped_behind_the_parents_back_is_re_run_by_value(
    tracing, monkeypatch
):
    # Three queries: the parent answers a repeated one from its own
    # memos, and each count here must reach the workers.
    first, warm_query, query = (QUERIES[name] for name in sorted(QUERIES))
    graph = SMALL
    expected = count_answers_naive(as_ep(query), graph)
    with Engine(processes=2) as engine:
        entry = engine.register_structure("net", graph, shard_count=10)
        lost = tuple(
            shard.fingerprint() for shard in entry.sharded.non_empty_shards()
        )
        assert engine.count_sharded(first, "net", parallel=True) == (
            count_answers_naive(as_ep(first), graph)
        )
        tracing.clear()
        assert engine.count_sharded(warm_query, "net", parallel=True) == (
            count_answers_naive(as_ep(warm_query), graph)
        )
        warm = _fanout(tracing).attributes
        assert (warm["by_ref"], warm["resent"]) == (len(lost), 0)

        # The parent's store still places what the next generation's
        # workers lose right after adopting it.
        class Forgetful(ResidentContexts):
            def adopt(self, other):
                super().adopt(other)
                self.drop(lost)

        monkeypatch.setattr(pool_module, "ResidentContexts", Forgetful)
        engine.pool.close()
        misses = engine.stats().worker_context_misses
        tracing.clear()
        with _Records("repro.engine.pool") as log:
            assert engine.count_sharded(query, "net", parallel=True) == expected
        assert engine.stats().worker_context_misses > misses
        fanout = _fanout(tracing)
        assert fanout.error is None
        assert fanout.attributes["by_ref"] == len(lost)
        assert fanout.attributes["resent"] == len(lost)
        retries = [r for r in log.records if "by value" in r.getMessage()]
        assert len(retries) == 1 and retries[0].levelno == logging.DEBUG
        assert retries[0].jobs == len(lost)
        # The miss and its re-run are both in the trace, under the
        # job's own index.
        first = [
            span
            for span in tracing.finished_traces()[-1].spans()
            if span.name == "shard.execute[0]"
        ]
        assert [span.error is None for span in first] == [False, True]
        assert first[0].error.startswith("NotResident")


def test_any_other_failure_of_a_by_ref_job_still_propagates_as_itself(
    monkeypatch,
):
    import repro.algorithms.fpt_counting as fpt_module

    with Engine(processes=2) as engine:
        engine.register_structure("net", SMALL, shard_count=10)
        # Workers fork on the first parallel call: they inherit the patch.
        monkeypatch.setattr(fpt_module, "execute_pp_plan", _lose_a_key)
        with pytest.raises(KeyError, match="lost inside the counting code"):
            engine.count_sharded(QUERIES["path"], "net", parallel=True)


def _die_in_a_job(_):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def test_a_by_ref_count_after_a_worker_was_killed_is_exact(tracing):
    import time

    # Six path lengths: the parent answers a repeated query from its
    # own memos, and each count after the kill must reach the workers.
    query, *later = [
        path_query(k, quantify_interior=True) for k in range(1, 7)
    ]
    graph = SMALL
    engine = Engine(processes=2)
    try:
        engine.register_structure("net", graph, shard_count=10)
        expected = count_answers_naive(as_ep(query), graph)
        assert engine.count_sharded(query, "net", parallel=True) == expected
        before = set(engine.pool._worker_pids())
        engine.pool._ensure_pool().apply_async(_die_in_a_job, (None,))
        deadline = time.monotonic() + 30
        while True:
            now = set(engine.pool._worker_pids())
            if len(now) == 2 and now != before:
                break
            assert time.monotonic() < deadline, "worker was never respawned"
            time.sleep(0.05)
        tracing.clear()
        for query in later:  # enough for the respawn to serve some jobs
            assert engine.count_sharded(query, "net", parallel=True) == (
                execute(compile_plan(query), graph)
            )
        # The generation that lost a worker was replaced by a fresh fork
        # of the store: every job named its shard and none had to be
        # re-run by value.
        fanouts = [
            span.attributes
            for trace in tracing.finished_traces()
            for span in trace.spans()
            if span.name == "shard.fanout"
        ]
        assert len(fanouts) == 5
        for attributes in fanouts:
            assert attributes["by_ref"] == attributes["shards"] > 1
            assert attributes["resent"] == 0
    finally:
        engine.close()


def test_by_ref_readers_racing_a_writer_only_ever_see_an_oracle_count():
    import sys

    query = path_query(2)  # every walk is an answer: any edge counts
    graph = SMALL
    edge = min(graph.relation("E"))
    delete = StructureDelta(deletes={"E": [edge]})
    insert = StructureDelta(inserts={"E": [edge]})
    oracle = {
        count_answers_naive(as_ep(query), graph),
        count_answers_naive(as_ep(query), graph.apply_delta(delete)),
    }
    assert len(oracle) == 2
    seen: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def write():
        try:
            for _ in range(20):
                engine.apply_delta("net", delete)
                engine.apply_delta("net", insert)
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    def read():
        try:
            while not done.is_set():
                seen.append(engine.count_sharded(query, "net", parallel=True))
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with Engine(processes=2) as engine:
            engine.register_structure("net", graph, shard_count=10)
            engine.count_sharded(query, "net", parallel=True)
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert seen and set(seen) <= oracle
