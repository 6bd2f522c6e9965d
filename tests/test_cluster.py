"""The distributed execution cluster: protocol, placement, agreement.

Three layers of coverage:

* unit tests for the wire codec (`repro.cluster.proto`), the fault
  seam (`repro.cluster.faults`), and the placement map
  (`repro.cluster.placement`) -- no sockets, no subprocesses;
* coordinator/worker integration over real TCP with worker
  subprocesses (`python -m repro.cluster.worker`);
* the randomized agreement suite: every generator query counted
  through the local ``WorkerPool``, a single-worker cluster, and a
  3-worker cluster must be bit-identical under both table backends
  (the ``backend`` fixture sets the engine process's; the worker
  subprocesses derive their own, so the ``array`` cells also check
  agreement *across* backends).  The chaos/fault scenarios live in
  ``test_cluster_chaos.py``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterCoordinator,
    FaultInjector,
    PlacementMap,
    load_fault_plan,
)
from repro.cluster import proto
from repro.cluster.faults import FaultPlan
from repro.engine import Engine
from repro.exceptions import ReproError
from repro.structures.random_gen import random_cluster_graph
from repro.workloads.generators import (
    cycle_query,
    example_4_2_query,
    example_5_21_query,
    path_query,
    random_conjunctive_query,
    random_ucq,
    star_query,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = str(REPO_ROOT / "src")


# ----------------------------------------------------------------------
# Worker subprocess helpers (shared with the chaos suite)
# ----------------------------------------------------------------------
def worker_env(faults: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    else:
        env.pop("REPRO_FAULTS", None)
    return env


def spawn_workers(
    coordinator: ClusterCoordinator,
    count: int,
    capacity: int = 2,
    faults: str | None = None,
    name_prefix: str = "w",
) -> list:
    host, port = coordinator.address
    return [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--connect",
                f"{host}:{port}",
                "--capacity",
                str(capacity),
                "--name",
                f"{name_prefix}{index}",
            ],
            env=worker_env(faults),
        )
        for index in range(count)
    ]


def reap(processes) -> None:
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            process.kill()
            process.wait(timeout=15)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def _read_one(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await proto.read_frame(reader)

    return asyncio.run(run())


def test_frame_roundtrip_header_and_body():
    header = {"type": "execute", "job_id": "j7"}
    body = proto.pickle_body(("units", (("E",), "fp"), None, "array"))
    frame = _read_one(proto.encode_frame(header, body))
    assert frame == (header, body)
    assert proto.unpickle_body(body) == ("units", (("E",), "fp"), None, "array")
    assert proto.unpickle_body(b"") is None


def test_clean_eof_between_frames_is_none():
    assert _read_one(b"") is None


def test_torn_frame_raises_incomplete_read():
    whole = proto.encode_frame({"type": "heartbeat", "worker_id": "w1"})
    with pytest.raises(asyncio.IncompleteReadError):
        _read_one(whole[: len(whole) - 1])


def test_encode_rejects_unknown_frame_type():
    with pytest.raises(proto.ProtocolError):
        proto.encode_frame({"type": "teleport"})
    with pytest.raises(proto.ProtocolError):
        proto.encode_frame({})


def test_read_rejects_malformed_headers():
    import struct

    bad_json = struct.pack("!II", 7, 0) + b"notjson"
    with pytest.raises(proto.ProtocolError):
        _read_one(bad_json)
    bad_type = b'{"type":"warp"}'
    framed = struct.pack("!II", len(bad_type), 0) + bad_type
    with pytest.raises(proto.ProtocolError):
        _read_one(framed)


def test_read_rejects_oversized_frames():
    import struct

    huge = struct.pack("!II", 2**31, 2**31)
    with pytest.raises(proto.ProtocolError):
        _read_one(huge)


def test_unpicklable_body_is_a_protocol_error():
    with pytest.raises(proto.ProtocolError):
        proto.pickle_body(lambda: None)


# ----------------------------------------------------------------------
# Fault plans and injection
# ----------------------------------------------------------------------
def test_fault_plan_parsing_roundtrip():
    plan = load_fault_plan("drop_frame=0.25, delay_heartbeat=0.5,seed=7")
    assert plan == FaultPlan(drop_frame=0.25, delay_heartbeat=0.5, seed=7)
    assert plan.active
    assert load_fault_plan(plan.as_env()) == plan
    assert not load_fault_plan("").active
    assert not FaultPlan().active


def test_fault_plan_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "delay_execute=0.75")
    assert load_fault_plan() == FaultPlan(delay_execute=0.75)
    monkeypatch.delenv("REPRO_FAULTS")
    assert load_fault_plan() == FaultPlan()


@pytest.mark.parametrize(
    "spec",
    [
        "drop_frame=2.0",  # probability out of range
        "drop_frame=nope",  # not a float
        "delay_execute=-1",  # negative delay
        "teleport=0.5",  # unknown key
        "drop_frame",  # not key=value
    ],
)
def test_fault_plan_rejects_bad_specs(spec):
    with pytest.raises(ReproError):
        load_fault_plan(spec)


def test_injector_is_deterministic_and_counts():
    plan = load_fault_plan("drop_frame=0.5,seed=42")
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    decisions = [first.should_drop_frame("result") for _ in range(50)]
    assert decisions == [second.should_drop_frame("result") for _ in range(50)]
    assert 0 < sum(decisions) < 50
    assert first.counters["frames_dropped"] == sum(decisions)


def test_registration_frames_are_never_dropped():
    injector = FaultInjector(load_fault_plan("drop_frame=1.0,seed=1"))
    for frame_type in ("register", "registered", "register_refused"):
        assert not injector.should_drop_frame(frame_type)
    assert injector.should_drop_frame("heartbeat")
    assert injector.counters["frames_dropped"] == 1


def test_execute_delay_is_fixed_not_probabilistic():
    injector = FaultInjector(load_fault_plan("delay_execute=0.25"))
    assert injector.execute_delay() == 0.25
    assert injector.execute_delay() == 0.25
    assert injector.counters["executions_delayed"] == 2
    assert FaultInjector(FaultPlan()).execute_delay() == 0.0


def test_heartbeat_delay_is_one_full_interval():
    injector = FaultInjector(load_fault_plan("delay_heartbeat=1.0,seed=3"))
    assert injector.heartbeat_delay(0.2) == 0.2
    assert FaultInjector(FaultPlan()).heartbeat_delay(0.2) == 0.0


# ----------------------------------------------------------------------
# Placement map
# ----------------------------------------------------------------------
def test_placement_spreads_least_loaded_first():
    placement = PlacementMap(replication=1)
    outgoing = placement.assign(["f1", "f2", "f3"], ["a", "b", "c"])
    assert sorted(placement.worker_load().values()) == [1, 1, 1]
    assert sum(len(v) for v in outgoing.values()) == 3
    for fingerprint in ("f1", "f2", "f3"):
        assert len(placement.holders(fingerprint)) == 1


def test_placement_replication_tops_up_without_reshuffling():
    placement = PlacementMap(replication=2)
    placement.assign(["f1"], ["a"])
    assert placement.holders("f1") == ("a",)  # degraded: one worker only
    outgoing = placement.assign(["f1"], ["a", "b"])
    # Existing holder kept; only the top-up frame goes out.
    assert set(placement.holders("f1")) == {"a", "b"}
    assert outgoing == {"b": ["f1"]}
    assert placement.assign(["f1"], ["a", "b"]) == {}  # already satisfied


def test_placement_empty_cluster_is_an_error():
    with pytest.raises(ReproError):
        PlacementMap().assign(["f1"], [])
    with pytest.raises(ReproError):
        PlacementMap(replication=0)


def test_placement_drop_worker_reports_orphans():
    placement = PlacementMap(replication=2)
    placement.assign(["f1", "f2"], ["a", "b"])
    placement.assign(["f3"], ["c"])
    assert placement.drop_worker("a") == []  # b still holds f1, f2
    assert placement.drop_worker("c") == ["f3"]  # last holder gone
    assert placement.holders("f3") == ()


def test_placement_rekey_and_unplace():
    placement = PlacementMap()
    placement.assign(["old"], ["a"])
    assert placement.rekey("old", "new") == ("a",)
    assert placement.holders("new") == ("a",)
    assert not placement.is_placed("old")
    assert placement.unplace(["new"]) == {"a": ["new"]}
    assert len(placement) == 0
    assert placement.worker_load()["a"] == 0


def test_placement_remove_holder_handles_routing_misses():
    placement = PlacementMap(replication=2)
    placement.assign(["f1"], ["a", "b"])
    placement.remove_holder("f1", "a")
    assert placement.holders("f1") == ("b",)
    placement.remove_holder("f1", "zz")  # unknown holder: no-op
    assert placement.holders("f1") == ("b",)


# ----------------------------------------------------------------------
# Coordinator/worker integration over real TCP
# ----------------------------------------------------------------------
def test_coordinator_lifecycle_and_status_without_workers():
    coordinator = ClusterCoordinator()
    assert not coordinator.running
    with coordinator:
        assert coordinator.running
        host, port = coordinator.address
        assert port != 0
        status = coordinator.status()
        assert status["attached"] is True
        assert status["workers"] == 0
        assert not coordinator.can_route([("any", "fingerprint")])
    assert not coordinator.running


def test_wait_for_workers_times_out_cleanly():
    from repro.cluster.coordinator import ClusterUnavailable

    with ClusterCoordinator() as coordinator:
        with pytest.raises(ClusterUnavailable):
            coordinator.wait_for_workers(1, timeout=0.3)


QUERY = "exists z. (E(x, z) & E(z, y))"
FORK_QUERY = "exists z. (E(z, x) & E(z, y))"


def test_cluster_counts_place_route_and_recover_membership():
    graph = random_cluster_graph(4, 5, 0.5, seed=23)
    with ClusterCoordinator(replication=1) as coordinator:
        workers = spawn_workers(coordinator, 2, name_prefix="pair")
        try:
            coordinator.wait_for_workers(2, timeout=30)
            with Engine(processes=2) as engine:
                expected = engine.count(QUERY, graph)
                expected_fork = engine.count(FORK_QUERY, graph)
                engine.attach_cluster(coordinator)
                entry = engine.register_structure(
                    "net", graph, pin=True, shard_count=4
                )
                # Registration placed every non-empty shard somewhere.
                placed = sum(entry.placements.values())
                assert placed == len(entry.sharded.non_empty_shards())
                assert engine.count_sharded(QUERY, "net") == expected
                stats = coordinator.stats_snapshot()
                assert stats["jobs_dispatched"] >= 1
                assert stats["jobs_completed"] >= 1
                assert stats["jobs_failed"] == 0
                # Worker-resident contexts are reused across calls; a
                # repeated query would be answered from the parent's
                # memos, so the second call asks a new one.
                assert engine.count_sharded(FORK_QUERY, "net") == expected_fork
                assert coordinator.stats_snapshot()["worker_context_hits"] >= 1
                # Unregistering unplaces.
                engine.unregister_structure("net")
                assert coordinator.status()["placements"] == 0
        finally:
            reap(workers)


def test_detached_engine_and_adhoc_counts_never_route():
    graph = random_cluster_graph(3, 4, 0.5, seed=5)
    with ClusterCoordinator() as coordinator:
        workers = spawn_workers(coordinator, 1, name_prefix="solo")
        try:
            coordinator.wait_for_workers(1, timeout=30)
            with Engine(processes=2) as engine:
                engine.attach_cluster(coordinator)
                # Ad-hoc (by-value) sharded counts stay local: nothing
                # was placed, so nothing may route.
                expected = engine.count(QUERY, graph)
                assert (
                    engine.count_sharded(QUERY, graph, shard_count=3)
                    == expected
                )
                assert coordinator.stats_snapshot()["jobs_dispatched"] == 0
                assert engine.detach_cluster() is coordinator
                assert engine.cluster is None
        finally:
            reap(workers)


def test_cluster_degrades_to_local_pool_when_workers_vanish():
    graph = random_cluster_graph(3, 4, 0.5, seed=31)
    with ClusterCoordinator(heartbeat_interval=0.2) as coordinator:
        workers = spawn_workers(coordinator, 1, name_prefix="mortal")
        try:
            coordinator.wait_for_workers(1, timeout=30)
            with Engine(processes=2) as engine:
                expected = engine.count(QUERY, graph)
                engine.attach_cluster(coordinator)
                engine.register_structure("net", graph, pin=True, shard_count=3)
                assert engine.count_sharded(QUERY, "net") == expected
                # Kill the only worker; the count must fall back to the
                # local pool and stay exact.
                reap(workers)
                deadline = time.monotonic() + 10
                while (
                    coordinator.status()["workers"]
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                assert coordinator.status()["workers"] == 0
                assert engine.count_sharded(QUERY, "net") == expected
        finally:
            reap(workers)


def test_delta_fanout_migrates_placed_shards():
    from repro.structures.delta import StructureDelta

    graph = random_cluster_graph(4, 5, 0.5, seed=17)
    with ClusterCoordinator() as coordinator:
        workers = spawn_workers(coordinator, 2, name_prefix="delta")
        try:
            coordinator.wait_for_workers(2, timeout=30)
            with Engine(processes=2) as engine:
                engine.attach_cluster(coordinator)
                engine.register_structure("net", graph, pin=True, shard_count=4)
                placements_before = coordinator.status()["placements"]
                # Add an edge inside cluster 0 (universe stays fixed).
                delta = StructureDelta(inserts={"E": [(0, 3)]})
                engine.apply_delta("net", delta)
                # Placement count unchanged: re-keyed, not re-placed.
                assert (
                    coordinator.status()["placements"] == placements_before
                )
                fresh = Engine()
                try:
                    expected = fresh.count(
                        QUERY, graph.apply_delta(delta)
                    )
                finally:
                    fresh.close()
                assert engine.count_sharded(QUERY, "net") == expected
                dispatched = coordinator.stats_snapshot()["jobs_dispatched"]
                assert dispatched >= 1  # the post-delta count routed
        finally:
            reap(workers)


# ----------------------------------------------------------------------
# Randomized agreement: local pool vs 1-worker vs 3-worker cluster
# ----------------------------------------------------------------------
AGREEMENT_QUERIES = [
    path_query(2),
    path_query(3, quantify_interior=True),
    star_query(3),
    cycle_query(3),
    example_4_2_query(),
    example_5_21_query(),
    random_conjunctive_query(4, 3, seed=7),
    random_conjunctive_query(3, 4, liberal_count=2, seed=19),
    random_ucq(2, 3, 2, seed=11),
]


def test_generator_queries_agree_across_all_execution_tiers(backend):
    graph = random_cluster_graph(5, 5, 0.5, seed=29)
    with ClusterCoordinator(replication=1) as solo, ClusterCoordinator(
        replication=2
    ) as trio:
        workers = spawn_workers(solo, 1, name_prefix="solo") + spawn_workers(
            trio, 3, name_prefix="trio"
        )
        try:
            solo.wait_for_workers(1, timeout=30)
            trio.wait_for_workers(3, timeout=30)
            with Engine(processes=2) as engine:
                engine.register_structure(
                    "net", graph, pin=True, shard_count=4
                )
                expected = [
                    engine.count(query, graph)
                    for query in AGREEMENT_QUERIES
                ]
                local = [
                    engine.count_sharded(query, "net", parallel=True)
                    for query in AGREEMENT_QUERIES
                ]
                assert local == expected
                # Each tier counts on a shard plan of its own: the
                # parent answers a repeated (query, shard) from its
                # memos, which would leave the cluster idle.
                for coordinator, shard_count in ((solo, 3), (trio, 5)):
                    before = coordinator.stats_snapshot()[
                        "jobs_completed"
                    ]
                    engine.attach_cluster(coordinator)
                    engine.register_structure(
                        "net", graph, pin=True, shard_count=shard_count
                    )
                    clustered = [
                        engine.count_sharded(query, "net")
                        for query in AGREEMENT_QUERIES
                    ]
                    engine.detach_cluster()
                    assert clustered == expected
                    # The cluster genuinely served shard jobs (the
                    # agreement is not vacuous local fallback).
                    after = coordinator.stats_snapshot()[
                        "jobs_completed"
                    ]
                    assert after > before
        finally:
            reap(workers)


# ----------------------------------------------------------------------
# Serving surface: the cluster block in /healthz, /metrics, Prometheus
# ----------------------------------------------------------------------
def test_service_surfaces_cluster_block_and_prom_families():
    from repro.obs.prom import (
        parse_exposition,
        render_prometheus,
        validate_exposition,
    )
    from repro.serve import CountingService

    async def drive(engine):
        async with CountingService(engine=engine) as service:
            return service.healthz(), service.metrics()

    def gauge(families, name):
        return families[name]["samples"][0][2]

    # Detached: the block is explicit, never missing, and the cluster
    # families render at zero (deterministic family set).
    with Engine(processes=1) as engine:
        health, metrics = asyncio.run(drive(engine))
        assert health["cluster"] == {"attached": False}
        assert metrics["cluster"] == {"attached": False}
        text = render_prometheus(metrics)
        assert validate_exposition(text) == []
        families = parse_exposition(text)
        assert gauge(families, "repro_cluster_attached") == 0
        assert gauge(families, "repro_cluster_workers") == 0

    with ClusterCoordinator() as coordinator:
        workers = spawn_workers(coordinator, 1, name_prefix="svc")
        try:
            coordinator.wait_for_workers(1, timeout=30)
            with Engine(processes=1) as engine:
                engine.attach_cluster(coordinator)
                health, metrics = asyncio.run(drive(engine))
                assert health["cluster"]["attached"] is True
                assert health["cluster"]["workers"] == 1
                assert metrics["cluster"]["capacity_slots"] == 2
                families = parse_exposition(render_prometheus(metrics))
                assert gauge(families, "repro_cluster_attached") == 1
                assert gauge(families, "repro_cluster_workers") == 1
                assert gauge(families, "repro_cluster_capacity_slots") == 2
        finally:
            reap(workers)
