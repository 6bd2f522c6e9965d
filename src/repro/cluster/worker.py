"""The cluster worker: a remote, heartbeat-monitored pool worker.

``python -m repro.cluster.worker --connect HOST:PORT`` starts one.  A
worker connects to the coordinator, registers with a *capacity* (how
many shard-unit jobs it executes concurrently), then serves frames:

* ``place`` / ``unplace`` / ``delta`` maintain the worker's resident
  shard set -- the cluster-wide generalization of the pool's pinned
  contexts.  ``place`` ships structures; execution contexts are built
  lazily per fingerprint on first use and kept for the placement's
  lifetime.  ``delta`` migrates resident structures *and*
  their built contexts in ``O(|delta|)``, exactly like the pool's
  ``apply_delta_task``, so a PATCH advance never costs a rebuild.
* ``execute`` runs shard units in a thread pool sized to the capacity,
  under the shipped :class:`~repro.budget.CostBudget` remaining
  allowance, recording trace spans that travel back in the ``result``
  frame for parent-side ``attach_foreign`` re-parenting.
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
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.budget import budget_scope
from repro.cluster import proto
from repro.cluster.faults import FaultInjector, load_fault_plan
from repro.engine.pool import picklable_exception
from repro.exceptions import ReproError
from repro.obs import trace as _trace
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
        #: fingerprint -> resident placed Structure.
        self._structures: dict = {}
        #: fingerprint -> built ExecutionContext.
        self._contexts: dict = {}
        self._executor: ThreadPoolExecutor | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._write_lock = asyncio.Lock()
        self._in_flight = 0
        self.jobs_executed = 0

    # ------------------------------------------------------------------
    # Resident shard state
    # ------------------------------------------------------------------
    def _place(self, structures) -> None:
        for structure in structures:
            self._structures[structure.fingerprint()] = structure

    def _unplace(self, fingerprints) -> None:
        for fingerprint in fingerprints:
            self._structures.pop(fingerprint, None)
            self._contexts.pop(fingerprint, None)

    def _apply_delta(self, updates) -> int:
        applied = 0
        for old_fingerprint, delta, new_fingerprint in updates:
            structure = self._structures.pop(old_fingerprint, None)
            context = self._contexts.pop(old_fingerprint, None)
            if structure is None:
                continue
            new_structure = structure.apply_delta(delta)
            if new_structure.fingerprint() != new_fingerprint:
                # Never keep (let alone serve) drifted data; the next
                # place frame re-ships the truth.
                continue
            self._structures[new_fingerprint] = new_structure
            if context is not None:
                self._contexts[new_fingerprint] = context.apply_delta(
                    delta, new_structure
                )
            applied += 1
        return applied

    def _context_for(self, fingerprint):
        """``(context, cache_hit)`` for a placed fingerprint."""
        from repro.engine.context import ExecutionContext

        context = self._contexts.get(fingerprint)
        if context is not None:
            return context, True
        structure = self._structures.get(fingerprint)
        if structure is None:
            raise KeyError(fingerprint)
        context = ExecutionContext(structure)
        self._contexts[fingerprint] = context
        return context, False

    # ------------------------------------------------------------------
    # Job execution (runs in the thread pool)
    # ------------------------------------------------------------------
    def _execute_units(self, units, fingerprint, budget):
        delay = self._faults.execute_delay()
        if delay:
            time.sleep(delay)
        cap = _trace.capture(
            "cluster.execute", units=len(units), worker=self.name
        )
        with cap:
            context, hit = self._context_for(fingerprint)
            cap.root.set("context_hit", hit)
            with budget_scope(budget):
                out = context.run_units(units)
        return out, hit, cap.spans

    async def _run_job(self, header: dict, body: bytes) -> None:
        job_id = header.get("job_id")
        loop = asyncio.get_running_loop()
        self._in_flight += 1
        try:
            units, fingerprint, budget = proto.unpickle_body(body)
            try:
                values, hit, spans = await loop.run_in_executor(
                    self._executor,
                    self._execute_units,
                    units,
                    fingerprint,
                    budget,
                )
            except KeyError:
                await self._send(
                    {
                        "type": "result",
                        "job_id": job_id,
                        "status": "unplaced",
                    }
                )
                return
            except Exception as exc:
                await self._send(
                    {"type": "result", "job_id": job_id, "status": "error"},
                    proto.pickle_body((picklable_exception(exc), None)),
                )
                return
            self.jobs_executed += 1
            await self._send(
                {
                    "type": "result",
                    "job_id": job_id,
                    "status": "ok",
                    "context_hit": hit,
                },
                proto.pickle_body((values, spans)),
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
                    self._place(proto.unpickle_body(body))
                elif kind == "unplace":
                    self._unplace(proto.unpickle_body(body))
                elif kind == "delta":
                    self._apply_delta(proto.unpickle_body(body))
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
    try:
        asyncio.run(worker.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
