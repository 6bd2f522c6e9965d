"""Chaos and fault-injection scenarios for the execution cluster.

The failure-recovery claims in ``docs/cluster.md`` are only worth the
tests that *cause* the failures: a worker SIGKILLed mid-count, a worker
whose uplink drops every frame, a coordinator that refuses
registrations, registrations churning under concurrent counting load.
Every scenario asserts the engine's exactness contract end to end --
the count after recovery equals the sequential count, bit for bit.

Fault injection rides the ``REPRO_FAULTS`` seam
(`repro.cluster.faults`); in particular ``delay_execute`` widens the
in-flight window so the mid-count SIGKILL lands deterministically on a
1-CPU CI box instead of racing the scheduler.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.cluster import ClusterCoordinator, FaultInjector, load_fault_plan
from repro.engine import Engine
from repro.structures.random_gen import random_cluster_graph

from test_cluster import reap, spawn_workers

QUERY = "exists z. (E(x, z) & E(z, y))"
# The parent answers a repeated (query, shard) from its own memos, so
# every count that must reach the cluster asks a query of its own.
FORK_QUERY = "exists z. (E(z, x) & E(z, y))"
JOIN_QUERY = "exists z. (E(x, z) & E(y, z))"


def _delta(after: dict, before: dict) -> dict:
    """How far each coordinator counter moved between two snapshots."""
    return {key: after[key] - before.get(key, 0) for key in after}


# ----------------------------------------------------------------------
# The acceptance scenario: SIGKILL one of three workers mid-count
# ----------------------------------------------------------------------
def test_sigkill_one_of_three_mid_count_stays_exact_and_fast():
    graph = random_cluster_graph(8, 4, 0.5, seed=41)
    with ClusterCoordinator(
        heartbeat_interval=0.2, replication=2
    ) as coordinator:
        # delay_execute holds every shard job in flight for a full
        # second: the kill window is sleep-dominated, not
        # scheduler-dominated, so the test is timing-robust.
        workers = spawn_workers(
            coordinator,
            3,
            capacity=2,
            faults="delay_execute=1.0",
            name_prefix="chaos",
        )
        try:
            coordinator.wait_for_workers(3, timeout=30)
            with Engine(processes=1) as engine:
                expected = engine.count(QUERY, graph)
                expected_fork = engine.count(FORK_QUERY, graph)
                expected_join = engine.count(JOIN_QUERY, graph)
                engine.attach_cluster(coordinator)
                engine.register_structure(
                    "net", graph, pin=True, shard_count=8
                )
                # Unperturbed baseline over the same cluster.
                before = coordinator.stats_snapshot()
                assert engine.count_sharded(QUERY, "net") == expected
                unperturbed = _delta(coordinator.stats_snapshot(), before)

                # Perturbed run: count in a thread, kill a busy worker.
                outcome: dict = {}

                def count() -> None:
                    outcome["value"] = engine.count_sharded(FORK_QUERY, "net")

                thread = threading.Thread(target=count)
                before = coordinator.stats_snapshot()
                thread.start()
                victim_pid = None
                deadline = time.monotonic() + 10
                while victim_pid is None and time.monotonic() < deadline:
                    details = coordinator.status()["worker_details"]
                    busy = [
                        detail
                        for detail in details.values()
                        if detail["in_flight"] > 0 and detail["pid"]
                    ]
                    if busy:
                        victim = max(busy, key=lambda d: d["in_flight"])
                        victim_pid = victim["pid"]
                    else:
                        time.sleep(0.01)
                assert victim_pid is not None, "no worker ever held a job"
                os.kill(victim_pid, signal.SIGKILL)
                # The hang guard: recovery must finish, however slowly.
                thread.join(timeout=60)
                assert not thread.is_alive(), "count wedged after the kill"
                perturbed = _delta(coordinator.stats_snapshot(), before)

                # Exactness survives the kill...
                assert outcome["value"] == expected_fork
                # ...because in-flight units were genuinely reassigned.
                assert perturbed["reassignments"] >= 1
                assert perturbed["worker_failures"] >= 1
                assert perturbed["jobs_failed"] == 0
                assert coordinator.status()["workers"] == 2
                # Recovery is bounded in events, not seconds: every
                # dispatch either completed or was reassigned, and no
                # job ran more than twice.
                assert perturbed["jobs_dispatched"] == (
                    perturbed["jobs_completed"] + perturbed["reassignments"]
                ), perturbed
                assert (
                    perturbed["jobs_dispatched"]
                    <= 2 * unperturbed["jobs_dispatched"]
                ), (perturbed, unperturbed)
                # The cluster keeps serving exactly with 2 workers.
                before = coordinator.stats_snapshot()
                assert engine.count_sharded(JOIN_QUERY, "net") == expected_join
                served = _delta(coordinator.stats_snapshot(), before)
                assert served["jobs_completed"] == unperturbed["jobs_completed"]
        finally:
            reap(workers)


# ----------------------------------------------------------------------
# Registration churn under concurrent counting load
# ----------------------------------------------------------------------
def test_registration_churn_under_concurrent_counting_load():
    base = random_cluster_graph(4, 5, 0.5, seed=43)
    with ClusterCoordinator(replication=1) as coordinator:
        workers = spawn_workers(coordinator, 2, name_prefix="churn")
        try:
            coordinator.wait_for_workers(2, timeout=30)
            with Engine(processes=1) as engine:
                expected = engine.count(QUERY, base)
                engine.attach_cluster(coordinator)
                engine.register_structure(
                    "net", base, pin=True, shard_count=4
                )
                errors: list = []

                def churn() -> None:
                    try:
                        for index in range(8):
                            name = f"tmp{index}"
                            tmp = random_cluster_graph(
                                2, 4, 0.6, seed=100 + index
                            )
                            engine.register_structure(
                                name, tmp, pin=True, shard_count=2
                            )
                            assert engine.count_sharded(
                                QUERY, name
                            ) == engine.count(QUERY, tmp)
                            engine.unregister_structure(name)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                thread = threading.Thread(target=churn)
                thread.start()
                try:
                    for _ in range(10):
                        assert (
                            engine.count_sharded(QUERY, "net") == expected
                        )
                finally:
                    thread.join(timeout=90)
                assert not thread.is_alive()
                assert not errors, errors
                # Churned registrations were unplaced on the way out;
                # only the base structure's shards remain resident.
                entry = engine.registry.peek("net")
                assert coordinator.status()["placements"] == len(
                    entry.sharded.non_empty_shards()
                )
                assert engine.count_sharded(QUERY, "net") == expected
                assert coordinator.stats_snapshot()["jobs_failed"] == 0
        finally:
            reap(workers)


# ----------------------------------------------------------------------
# REPRO_FAULTS scenarios
# ----------------------------------------------------------------------
def test_dark_worker_trips_heartbeat_deadline_and_fails_over():
    # drop_frame=1.0 models a worker whose uplink goes completely dark
    # *after* the (exempt) registration handshake: its heartbeats and
    # results all vanish, the deadline trips, and its jobs fail over.
    graph = random_cluster_graph(4, 4, 0.5, seed=47)
    with ClusterCoordinator(
        heartbeat_interval=0.3, replication=2
    ) as coordinator:
        healthy = spawn_workers(coordinator, 1, name_prefix="healthy")
        dark = []
        try:
            coordinator.wait_for_workers(1, timeout=30)
            with Engine(processes=1) as engine:
                # Pre-pay the slow bits (engine startup, the sequential
                # baseline) *before* the dark worker joins, so the
                # placement + count below land well inside its
                # heartbeat deadline -- jobs must reach the dark worker
                # while the coordinator still believes in it.
                expected = engine.count(QUERY, graph)
                engine.attach_cluster(coordinator)
                dark = spawn_workers(
                    coordinator, 1, faults="drop_frame=1.0",
                    name_prefix="dark",
                )
                coordinator.wait_for_workers(2, timeout=30)
                engine.register_structure(
                    "net", graph, pin=True, shard_count=4
                )
                assert engine.count_sharded(QUERY, "net") == expected
                stats = coordinator.stats_snapshot()
                assert stats["heartbeat_timeouts"] >= 1
                assert stats["worker_failures"] >= 1
                assert stats["reassignments"] >= 1
                assert stats["jobs_failed"] == 0
                assert coordinator.status()["workers"] == 1
                # The healthy worker's heartbeats kept flowing.
                assert stats["heartbeats"] >= 1
        finally:
            reap(healthy + dark)


def test_refused_registrations_back_off_and_eventually_join():
    # Coordinator-side injection: half of all register handshakes are
    # refused (seeded, so the sequence replays); workers retry with
    # backoff until accepted.
    injector = FaultInjector(load_fault_plan("refuse_registration=0.5,seed=3"))
    with ClusterCoordinator(faults=injector) as coordinator:
        workers = spawn_workers(coordinator, 2, name_prefix="persistent")
        try:
            coordinator.wait_for_workers(2, timeout=30)
            stats = coordinator.stats_snapshot()
            assert stats["registrations"] == 2
            assert stats["registrations_refused"] >= 1
            assert (
                injector.counters["registrations_refused"]
                == stats["registrations_refused"]
            )
        finally:
            reap(workers)
