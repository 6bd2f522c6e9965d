"""The cluster worker: a remote, heartbeat-monitored pool worker.

``python -m repro.cluster.worker --connect HOST:PORT`` starts one.  A
worker connects to the coordinator, registers with a *capacity* (how
many shard-unit jobs it executes concurrently), then serves frames:

* ``place`` / ``unplace`` / ``delta`` are the ``place`` / ``drop`` /
  ``apply_delta`` of the worker's one
  :class:`~repro.engine.resident.ResidentContexts` -- the same store,
  and the same code, a fork-pool worker keeps its pinned contexts in.
  ``place`` ships structures; their contexts are built lazily on first
  use and kept for the placement's lifetime.  ``delta`` migrates them
  in ``O(|delta|)``, so a PATCH advance never costs a rebuild.
* ``execute`` runs shard units through that store in a thread pool
  sized to the capacity, under the shipped
  :class:`~repro.budget.CostBudget` remaining allowance; the recorded
  trace spans travel back in the ``result`` frame -- on success *and*
  on failure -- for parent-side ``attach_foreign`` re-parenting.
* ``heartbeat`` frames flow worker -> coordinator on the interval the
  ``registered`` reply dictates; the fault seam can delay or drop
  them, which is how the chaos tests exercise the deadline machinery.

TCP ordering is the consistency story: ``place`` is processed before
any later ``execute`` on the same connection, so a fingerprint-only
job never races its own placement.  An execution for a fingerprint the
worker does not hold reports ``status="unplaced"`` rather than an
error -- the coordinator reroutes it, because a routing miss is the
cluster's fault, never the query's.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster import proto
from repro.cluster.faults import FaultInjector, load_fault_plan
from repro.engine.resident import NotResident, ResidentContexts, TaskOk
from repro.exceptions import ReproError
from repro.obs.log import get_logger

_log = get_logger("cluster.worker")

#: How many times a refused registration is retried before giving up.
DEFAULT_REGISTER_ATTEMPTS = 20

#: Base backoff between registration attempts (grows linearly).
REGISTER_BACKOFF = 0.05


class ClusterWorker:
    """One worker endpoint; ``run()`` serves until the connection ends."""

    def __init__(
        self,
        host: str,
        port: int,
        capacity: int = 2,
        name: str | None = None,
        faults: FaultInjector | None = None,
        register_attempts: int = DEFAULT_REGISTER_ATTEMPTS,
    ):
        if capacity < 1:
            raise ReproError("cluster worker capacity must be >= 1")
        self.host = host
        self.port = port
        self.capacity = capacity
        self.name = name or f"worker-{os.getpid()}"
        self.worker_id: str | None = None
        self.heartbeat_interval = 1.0
        self._faults = faults if faults is not None else FaultInjector()
        self._register_attempts = register_attempts
        #: The same store a fork-pool worker owns; frames drive it here.
        self.resident = ResidentContexts()
        self._executor: ThreadPoolExecutor | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        self._in_flight = 0

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def _execute_units(self, units, fingerprint, budget):
        """One job, on a thread of the capacity-sized executor."""
        delay = self._faults.execute_delay()
        if delay:
            time.sleep(delay)
        return self.resident.execute(
            lambda context: context.run_units(units),
            fingerprint,
            budget,
            "cluster.execute",
            units=len(units),
            worker=self.name,
        )

    async def _run_job(self, header: dict, body: bytes) -> None:
        result = {"type": "result", "job_id": header.get("job_id")}
        loop = asyncio.get_running_loop()
        self._in_flight += 1
        try:
            units, fingerprint, budget = proto.unpickle_body(body)
            outcome = await loop.run_in_executor(
                self._executor, self._execute_units, units, fingerprint, budget
            )
            if isinstance(outcome, TaskOk):
                result.update(status="ok", context_hit=outcome.context_hit)
                await self._send(
                    result, proto.pickle_body((outcome.value, outcome.spans))
                )
            elif isinstance(outcome.exception, NotResident):
                # Only the typed miss is a routing miss; any other
                # exception -- a KeyError out of the units included --
                # is the job's own error and must reach the caller.
                await self._send({**result, "status": "unplaced"})
            else:
                await self._send(
                    {**result, "status": "error"},
                    proto.pickle_body((outcome.exception, outcome.spans)),
                )
        finally:
            self._in_flight -= 1

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    async def _send(self, header: dict, body: bytes = b"") -> None:
        assert self._writer is not None
        async with self._write_lock:
            await proto.send_frame(
                self._writer, header, body, faults=self._faults
            )

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(
                self.heartbeat_interval
                + self._faults.heartbeat_delay(self.heartbeat_interval)
            )
            await self._send(
                {
                    "type": "heartbeat",
                    "worker_id": self.worker_id,
                    "in_flight": self._in_flight,
                }
            )

    async def _register(self, reader) -> bool:
        """The registration handshake; ``True`` once accepted."""
        await self._send(
            {
                "type": "register",
                "name": self.name,
                "capacity": self.capacity,
                "pid": os.getpid(),
            }
        )
        frame = await proto.read_frame(reader)
        if frame is None:
            return False
        header, _ = frame
        if header["type"] == "register_refused":
            _log.info(
                "registration refused",
                extra={"worker": self.name, "reason": header.get("reason")},
            )
            return False
        if header["type"] != "registered":
            raise proto.ProtocolError(
                f"expected registered, got {header['type']!r}"
            )
        self.worker_id = header["worker_id"]
        self.heartbeat_interval = float(
            header.get("heartbeat_interval", self.heartbeat_interval)
        )
        return True

    async def run(self) -> None:
        """Connect, register (with backoff on refusal), serve frames."""
        reader = None
        for attempt in range(1, self._register_attempts + 1):
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._writer = writer
            if await self._register(reader):
                break
            writer.close()
            self._writer = None
            if attempt == self._register_attempts:
                raise ReproError(
                    f"registration refused {attempt} times; giving up"
                )
            await asyncio.sleep(REGISTER_BACKOFF * attempt)
        assert reader is not None and self._writer is not None
        _log.info(
            "worker registered",
            extra={
                "worker": self.name,
                "worker_id": self.worker_id,
                "capacity": self.capacity,
            },
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.capacity,
            thread_name_prefix=f"cluster-{self.name}",
        )
        heartbeats = asyncio.create_task(self._heartbeat_loop())
        jobs: set[asyncio.Task] = set()
        try:
            while True:
                frame = await proto.read_frame(reader)
                if frame is None:
                    break
                header, body = frame
                kind = header["type"]
                if kind == "execute":
                    task = asyncio.create_task(self._run_job(header, body))
                    jobs.add(task)
                    task.add_done_callback(jobs.discard)
                elif kind == "place":
                    # Contexts stay unbuilt: this is the event-loop
                    # thread, and a build would stall the heartbeats.
                    self.resident.place(proto.unpickle_body(body))
                elif kind == "unplace":
                    self.resident.drop(proto.unpickle_body(body))
                elif kind == "delta":
                    self.resident.apply_delta(proto.unpickle_body(body))
                elif kind == "heartbeat_ack":
                    pass
                elif kind == "goodbye":
                    break
                else:
                    raise proto.ProtocolError(
                        f"worker cannot handle frame type {kind!r}"
                    )
        finally:
            heartbeats.cancel()
            for task in jobs:
                task.cancel()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._writer.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Start one cluster worker and connect it to a "
        "coordinator.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=2,
        help="concurrent shard-unit jobs this worker executes (default 2)",
    )
    parser.add_argument("--name", default=None, help="worker display name")
    args = parser.parse_args(argv)
    host, separator, port = args.connect.rpartition(":")
    if not separator or not port.isdigit():
        parser.error("--connect must be HOST:PORT")
    worker = ClusterWorker(
        host or "127.0.0.1",
        int(port),
        capacity=args.capacity,
        name=args.name,
        faults=FaultInjector(load_fault_plan()),
    )
    # The import heap lives as long as the process: park it outside the
    # collector's generations, as a fork-pool worker does at start
    # (pool._init_worker), so a full collection landing inside a job
    # traverses what jobs allocated, not ~15 ms of modules.
    gc.freeze()
    try:
        asyncio.run(worker.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
