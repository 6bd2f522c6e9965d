"""The four workloads.

Each class has the same shape: ``setup()`` turns the seed into inputs
and a warmed system (repeated by the runner to report a median
``setup_s``), ``prepare_oracle()`` computes the expected counts outside
every timed region, ``timed()`` runs the closed loop until the deadline,
``finish()`` does deferred verification and ``teardown()`` releases
every process and socket.

Load is sized for two cores: the engine pool keeps its default process
count, HTTP gets two keep-alive client threads, the cluster two workers
of capacity one.  Every loop is closed -- a caller sends its next op
only after the previous one returned.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import inputs
import oracle
from measure import Children, OpTimeout, Recorder, Spans, now, span_of, timed_op


@dataclass
class Env:
    """What the runner hands every workload."""

    seed: int
    size: dict
    op_timeout: float
    children: Children = field(default_factory=Children)
    spans: Spans | None = None  # set only while the traced phase runs


def _summed(snapshots) -> dict:
    """Numeric counters summed over per-round snapshots."""
    out: dict = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
    return out


#: Socket timeout of set-up and one-off requests; only the timed ops run
#: under the (injectable) per-op timeout.
SETUP_TIMEOUT = 120.0


class HttpClient:
    """One keep-alive connection; a non-200 reply raises."""

    def __init__(self, address, timeout: float = SETUP_TIMEOUT):
        self._connection = http.client.HTTPConnection(*address, timeout=timeout)

    def request(self, method: str, path: str, payload=None) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self._connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self._connection.getresponse()
            data = response.read()
        except TimeoutError as exc:
            self._connection.close()  # the next request reconnects
            raise OpTimeout(f"{method} {path}: {exc}") from exc
        except OSError:
            self._connection.close()
            raise
        if response.status != 200:
            raise RuntimeError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        self._connection.close()


# ----------------------------------------------------------------------
# cold-local / cold-cluster
# ----------------------------------------------------------------------
class Cold:
    """Every cache cold: fresh Structure, fresh Engine, first counts.

    With ``cluster_workers`` each round also starts a fresh coordinator
    and that many TCP worker subprocesses (replication 1) and attaches
    them, so the data plane is placement + frames + pickle instead of
    the fork pool.
    """

    queries = ("p2q", "tri", "u12")
    tail_percentile = 75

    def __init__(self, env: Env, cluster_workers: int = 0):
        self.env = env
        self.cluster_workers = cluster_workers
        self.spawn_seconds: list[float] = []
        self.engine_stats: list[dict] = []
        self.cluster_stats: list[dict] = []

    def setup(self) -> None:
        self.graph = inputs.make_graph(self.env.seed, self.env.size)
        self.plans = {key: inputs.catalogue_query(key) for key in self.queries}
        # First-use costs (lazy imports, numpy warm-up) land in this
        # discarded round, not in the timed phase.
        self.round(Recorder(self.env.op_timeout), expected=None)

    def prepare_oracle(self) -> None:
        reference = oracle.ClusterOracle(self.graph, self.queries)
        self.expected = {key: reference.total(key) for key in self.queries}

    @contextmanager
    def fresh_engine(self):
        from repro import Engine

        engine = Engine()
        coordinator, workers = None, []
        state = {"hung": False}
        try:
            if self.cluster_workers:
                from repro.cluster import ClusterCoordinator

                started = now()
                coordinator = ClusterCoordinator(replication=1).start()
                host, port = coordinator.address
                self.env.children.addresses.append((host, port))
                workers = [
                    self.env.children.spawn(
                        [
                            sys.executable, "-m", "repro.cluster.worker",
                            "--connect", f"{host}:{port}",
                            "--capacity", "1", "--name", f"bench{index}",
                        ]
                    )
                    for index in range(self.cluster_workers)
                ]
                coordinator.wait_for_workers(self.cluster_workers, timeout=30)
                self.spawn_seconds.append(now() - started)
                engine.attach_cluster(coordinator)
            yield engine, state
        finally:
            self.engine_stats.append(engine.stats().as_dict())
            engine.close(terminate=state["hung"])
            if coordinator is not None:
                self.cluster_stats.append(coordinator.stats_snapshot())
                # Workers first, and let the coordinator notice they are
                # gone: stopping it with live connections makes asyncio
                # log its cancelled handler tasks.
                self.env.children.reap(workers)
                deadline = time.monotonic() + 1.0
                while coordinator.status()["workers"] and time.monotonic() < deadline:
                    time.sleep(0.005)
                coordinator.stop()

    def round(self, recorder: Recorder, expected) -> None:
        spans = self.env.spans
        with span_of(spans, "round", request=f"round-{recorder.attempted}"):
            structure = self.graph.structure()
            with self.fresh_engine() as (engine, state):
                try:
                    timed_op(
                        recorder, "write",
                        lambda: engine.register_structure(
                            "net", structure, pin=True,
                            shard_count=self.env.size["shard_count"],
                        ),
                        tag="register", spans=spans,
                    )
                    for key in self.queries:
                        timed_op(
                            recorder, "count",
                            lambda: engine.count_sharded(
                                self.plans[key], "net", parallel=True
                            ),
                            expected=expected and expected[key],
                            tag=key, spans=spans,
                        )
                except OpTimeout:
                    state["hung"] = True  # abandon the round, kill its pool

    def timed(self, recorder: Recorder, seconds: float) -> None:
        started = now()
        while now() - started < seconds:
            self.round(recorder, self.expected)
        recorder.wall_seconds += now() - started

    def finish(self, recorder: Recorder) -> None:
        pass

    def counters(self) -> dict:
        """``Engine.stats()`` / ``coordinator.stats_snapshot()`` summed
        over every round's engine and coordinator."""
        return {
            "engine": _summed(self.engine_stats),
            "cluster": _summed(self.cluster_stats) if self.cluster_stats else None,
        }

    def teardown(self) -> None:
        pass  # every round releases what it started


# ----------------------------------------------------------------------
# warm-http-mix
# ----------------------------------------------------------------------
class WarmHttp:
    """Memoized by-reference counts plus never-repeated ad-hoc UCQs,
    over real HTTP, from two closed-loop keep-alive clients."""

    clients = 2
    adhoc_share = 0.2
    warmup_rounds = 6
    tail_percentile = 95

    def __init__(self, env: Env):
        self.env = env
        self.background = None
        self.put_seconds: list[float] = []
        self.adhoc_results: list[tuple] = []

    def setup(self) -> None:
        from repro.serve import BackgroundServer, CountingServer

        self.graph = inputs.make_graph(self.env.seed, self.env.size)
        self.small = inputs.make_small_graph(self.env.seed)
        self.hot_texts = {key: inputs.catalogue_text(key) for key in inputs.HOT_SET}
        # Per-client request streams live across timed() calls, so the
        # ad-hoc texts never repeat within a run.
        self.streams = [
            (
                random.Random(f"client-{self.env.seed}-{index}"),
                inputs.AdHocQueries(random.Random(f"adhoc-{self.env.seed}-{index}")),
            )
            for index in range(self.clients)
        ]
        self.background = BackgroundServer(CountingServer(port=0))
        self.address = self.background.start()
        self.env.children.addresses.append(self.address)
        client = HttpClient(self.address)
        try:
            started = now()
            client.request(
                "PUT", "/structures/net",
                {
                    "structure": self.graph.wire(), "pin": True,
                    "shard_count": self.env.size["shard_count"],
                },
            )
            self.put_seconds.append(now() - started)
            client.request(
                "PUT", "/structures/small",
                {"structure": self.small.wire(), "pin": True, "shard_count": 2},
            )
            for _ in range(self.warmup_rounds):
                for key in inputs.HOT_SET:
                    client.request("POST", "/count_sharded", self.hot_payload(key))
        finally:
            client.close()

    def hot_payload(self, key: str) -> dict:
        return {
            "query": self.hot_texts[key],
            "structure": {"ref": "net"},
            "parallel": True,
        }

    def prepare_oracle(self) -> None:
        reference = oracle.ClusterOracle(self.graph, inputs.HOT_SET)
        self.expected = {key: reference.total(key) for key in inputs.HOT_SET}

    def _client_loop(self, index: int, recorder: Recorder, deadline: float) -> None:
        rng, adhoc = self.streams[index]
        weights = [1.0 / rank for rank in range(1, len(inputs.HOT_SET) + 1)]
        client = HttpClient(self.address, self.env.op_timeout)
        spans = self.env.spans
        try:
            while now() < deadline:
                try:
                    if rng.random() < self.adhoc_share:
                        text, liberal, disjuncts = adhoc.next()
                        payload = {"query": text, "structure": {"ref": "small"}}
                        value = timed_op(
                            recorder, "count",
                            lambda: client.request("POST", "/count", payload)["count"],
                            tag="adhoc", spans=spans, threaded=False,
                        )
                        if value is not None:
                            # Verified after the timed phase (finish()).
                            self.adhoc_results.append(
                                (text, liberal, disjuncts, value)
                            )
                    else:
                        key = rng.choices(inputs.HOT_SET, weights)[0]
                        payload = self.hot_payload(key)
                        timed_op(
                            recorder, "count",
                            lambda: client.request(
                                "POST", "/count_sharded", payload
                            )["count"],
                            expected=self.expected[key],
                            tag="hot", spans=spans, threaded=False,
                        )
                except OpTimeout:
                    pass  # recorded; the connection was reset
        finally:
            client.close()

    def timed(self, recorder: Recorder, seconds: float) -> None:
        started = now()
        threads = [
            threading.Thread(
                target=self._client_loop, args=(i, recorder, started + seconds)
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        recorder.wall_seconds += now() - started

    def finish(self, recorder: Recorder) -> None:
        edges = self.small.edges()
        for text, liberal, disjuncts, value in self.adhoc_results:
            reference = oracle.ucq_count(
                self.small.universe_size, edges, liberal, disjuncts
            )
            if value != reference:
                recorder.mark_wrong(f"adhoc {text}: got {value}, oracle {reference}")
        self.adhoc_results.clear()
        # This workload's state-changing op is the set-up's PUT of the
        # large structure; the timed phase has no writes.
        for seconds in self.put_seconds:
            recorder.ok("write", seconds, "put")

    def counters(self) -> dict:
        metrics = self.get("/metrics")
        return {
            "engine": metrics["engine"],
            "rejected_429": sum(
                endpoint["rejected"]
                for endpoint in metrics["service"]["endpoints"].values()
            ),
        }

    def get(self, path: str) -> dict:
        client = HttpClient(self.address)
        try:
            return client.request("GET", path)
        finally:
            client.close()

    def teardown(self) -> None:
        if self.background is not None:
            # Client and server share this process, so the pool workers
            # forked from it hold copies of the client sockets.  Closing
            # the pool first (and giving the loop a moment) lets the
            # server see those connections end instead of destroying
            # their handler tasks at loop close.
            self.background.server.service.engine.close()
            time.sleep(0.1)
            self.background.stop()  # drains and releases the port
            self.background = None


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
class Live:
    """Writes beside reads: one-edge deltas alternating insert/delete
    (so the size stays constant), each followed by two counts."""

    queries = ("p2q", "u12")
    warmup_rounds = 4
    tail_percentile = 90

    def __init__(self, env: Env):
        self.env = env
        self.engine = None
        self.iterations = 0
        self.hung = False

    def setup(self) -> None:
        from repro import Engine

        self.graph = inputs.make_graph(self.env.seed, self.env.size)
        self.plans = {key: inputs.catalogue_query(key) for key in self.queries}
        self.rng = random.Random(f"deltas-{self.env.seed}")
        self.engine = Engine()
        self.engine.register_structure(
            "net", self.graph.structure(), pin=True,
            shard_count=self.env.size["shard_count"],
        )
        for _ in range(self.warmup_rounds):
            for key in self.queries:
                self.engine.count_sharded(self.plans[key], "net", parallel=True)

    def prepare_oracle(self) -> None:
        self.reference = oracle.ClusterOracle(self.graph, self.queries)

    def timed(self, recorder: Recorder, seconds: float) -> None:
        from repro import StructureDelta

        spans = self.env.spans
        started = now()
        try:
            while now() - started < seconds:
                insert = self.iterations % 2 == 0
                self.iterations += 1
                cluster, edge = self.graph.flip_edge(self.rng, insert)
                self.reference.refresh(cluster)  # only the touched cluster
                delta = (
                    StructureDelta(inserts={"E": [edge]})
                    if insert
                    else StructureDelta(deletes={"E": [edge]})
                )
                with span_of(spans, "iteration", request=f"delta-{self.iterations}"):
                    timed_op(
                        recorder, "write",
                        lambda: self.engine.apply_delta("net", delta),
                        tag="apply_delta", spans=spans,
                    )
                    for key in self.queries:
                        timed_op(
                            recorder, "count",
                            lambda: self.engine.count_sharded(
                                self.plans[key], "net", parallel=True
                            ),
                            expected=self.reference.total(key),
                            tag=key, spans=spans,
                        )
        except OpTimeout:
            self.hung = True  # engine state unknown: stop the phase
        recorder.wall_seconds += now() - started

    def finish(self, recorder: Recorder) -> None:
        """The final state against a fresh engine on the structure
        rebuilt from scratch out of the oracle's edge sets."""
        from repro import Engine

        if self.hung:
            return
        rebuilt = self.graph.structure()
        with Engine() as fresh:
            for key in self.queries:
                expected = self.reference.total(key)
                scratch = fresh.count_sharded(
                    self.plans[key], rebuilt,
                    shard_count=self.env.size["shard_count"], parallel=True,
                )
                live = self.engine.count_sharded(self.plans[key], "net", parallel=True)
                recorder.check(
                    scratch == expected == live,
                    f"final {key}: live {live}, rebuilt {scratch}, oracle {expected}",
                )

    def counters(self) -> dict:
        return {"engine": self.engine.stats().as_dict()}

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close(terminate=self.hung)
            self.engine = None


def build(name: str, env: Env):
    return {
        "cold-local": lambda: Cold(env),
        "cold-cluster": lambda: Cold(env, cluster_workers=2),
        "warm-http-mix": lambda: WarmHttp(env),
        "live": lambda: Live(env),
    }[name]()
