"""A distributed execution cluster for the sharded counting path.

The single-host pillars of the engine -- compiled plans, resident
execution contexts, the component-aligned shard partition with exact
recombination -- already express a ``count_sharded`` call as a bag of
independent, picklable ``(units, shard)`` jobs whose results combine
placement-independently (shard counts sum, query components multiply,
a sentence component's 0/1 counts OR).  This package runs those jobs across *processes that
do not share a parent*: a TCP coordinator/worker protocol over stdlib
``asyncio`` with length-prefixed JSON+pickle frames.

* :mod:`repro.cluster.proto` -- the frame codec and message-type
  registry shared by both ends;
* :mod:`repro.cluster.faults` -- the ``REPRO_FAULTS`` fault-injection
  seam (dropped frames, delayed heartbeats, refused registrations)
  the chaos suite drives;
* :mod:`repro.cluster.placement` -- the shard-to-worker placement map
  (replication factor >= 1) that generalizes the registry's pinning,
  which every worker-pool generation forks, to cluster-wide residency;
* :mod:`repro.cluster.worker` -- the worker process
  (``python -m repro.cluster.worker``): registers with a capacity,
  heartbeats, keeps placed shards resident, executes shard units;
* :mod:`repro.cluster.coordinator` -- the coordinator: worker
  registration and liveness, job dispatch with capacity limits, and
  retry/reassignment of in-flight units when a worker dies or misses
  its heartbeat deadline.

Failure semantics sit *under* the engine's exactness contract: a job
whose worker dies is reassigned to another holder of the same shard;
when no live holder remains the whole call degrades to the local
:class:`~repro.engine.pool.WorkerPool` via
:class:`~repro.cluster.coordinator.ClusterUnavailable` -- the count is
recomputed, never approximated.
"""

from repro.cluster.coordinator import ClusterCoordinator, ClusterUnavailable
from repro.cluster.faults import FaultInjector, FaultPlan, load_fault_plan
from repro.cluster.placement import PlacementMap
from repro.cluster.proto import MESSAGE_TYPES, encode_frame, read_frame


def __getattr__(name: str):
    # Deferred so `python -m repro.cluster.worker` does not import the
    # worker module twice (package import + runpy execution).
    if name == "ClusterWorker":
        from repro.cluster.worker import ClusterWorker

        return ClusterWorker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterCoordinator",
    "ClusterUnavailable",
    "ClusterWorker",
    "FaultInjector",
    "FaultPlan",
    "load_fault_plan",
    "PlacementMap",
    "MESSAGE_TYPES",
    "encode_frame",
    "read_frame",
]
