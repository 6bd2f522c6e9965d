"""The serving front end: service semantics and the live HTTP server.

Covers the acceptance surface of the serving layer: correct counts
through every endpoint, admission control that rejects (never
queue-collapses) under saturation, per-request deadlines on both the
queue and the execution side, ``/metrics`` agreeing with
``Engine.stats()``, and graceful shutdown leaving zero child
processes.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.engine.api import Engine
from repro.engine.plan import as_ep
from repro.obs.trace import get_tracer
from repro.serve import (
    BackgroundServer,
    CountingServer,
    CountingService,
    ServiceClosed,
    ServiceConfig,
    ServiceSaturated,
    ServiceTimeout,
    structure_from_json,
)
from repro.structures.structure import Structure

TRIANGLE = {"E": [(1, 2), (2, 3), (3, 1)]}
PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


def triangle() -> Structure:
    return Structure.from_relations(TRIANGLE)


class SlowEngine(Engine):
    """An engine whose ``count`` sleeps first -- saturation on demand."""

    def __init__(self, delay: float = 0.3, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def count(self, query, structure, *, policy=None):
        time.sleep(self.delay)
        return super().count(query, structure, policy=policy)


# ----------------------------------------------------------------------
# Service-level semantics
# ----------------------------------------------------------------------
def test_service_counts_match_engine():
    async def scenario():
        async with CountingService() as service:
            graph = triangle()
            count = await service.count(PATH_QUERY, graph)
            sharded = await service.count_sharded(
                PATH_QUERY, graph, shard_count=2, parallel=False
            )
            grid = await service.count_many(
                [PATH_QUERY, "E(x, y)"], [graph], parallel=False
            )
            return count, sharded, grid

    count, sharded, grid = asyncio.run(scenario())
    expected = count_answers_naive(as_ep(PATH_QUERY), triangle())
    assert count == sharded == expected
    assert grid == [[expected], [3]]


def test_service_saturation_rejects_immediately():
    async def scenario():
        config = ServiceConfig(
            max_in_flight=1, max_queue=1, request_timeout_seconds=10
        )
        service = CountingService(
            engine=SlowEngine(0.3), config=config, owns_engine=True
        )
        async with service:
            before = time.perf_counter()
            results = await asyncio.gather(
                *(service.count("E(x, y)", triangle()) for _ in range(5)),
                return_exceptions=True,
            )
            elapsed = time.perf_counter() - before
            return results, elapsed, service.metrics()

    results, elapsed, metrics = asyncio.run(scenario())
    rejected = [r for r in results if isinstance(r, ServiceSaturated)]
    completed = [r for r in results if isinstance(r, int)]
    # One executing + one queued are admitted; the other three bounce.
    assert len(completed) == 2 and len(rejected) == 3
    assert all(count == 3 for count in completed)
    counters = metrics["service"]["endpoints"]["count"]
    assert counters["rejected"] == 3
    assert counters["completed"] == 2
    assert counters["requests"] == 5
    # Rejection is immediate, not queued: the whole burst takes about
    # two sequential slow counts, nowhere near five.
    assert elapsed < 5 * 0.3


def test_service_timeout_on_execution_and_queue():
    async def scenario():
        config = ServiceConfig(
            max_in_flight=1, max_queue=2, request_timeout_seconds=0.1
        )
        service = CountingService(
            engine=SlowEngine(0.4), config=config, owns_engine=True
        )
        async with service:
            outcomes = await asyncio.gather(
                *(service.count("E(x, y)", triangle()) for _ in range(2)),
                return_exceptions=True,
            )
            # Both the executing request and the queued one miss the
            # 0.1s deadline; the abandoned execution thread still holds
            # its slot until the sleep ends, then gets reaped.
            abandoned_during = service.metrics()["service"]["abandoned"]
            await asyncio.sleep(0.6)
            after = service.metrics()["service"]
            # The slot is usable again after the reap: a fresh request
            # is *admitted* (it times out on execution -- the engine is
            # slower than the deadline by construction -- but it is
            # never bounced as saturated, which is what a leaked slot
            # would produce).
            try:
                await service.count("E(x, y)", triangle())
                late = "completed"
            except ServiceTimeout:
                late = "admitted-then-timed-out"
            await asyncio.sleep(0.6)  # let the late thread reap too
            return outcomes, abandoned_during, after, late

    outcomes, abandoned_during, after, late = asyncio.run(scenario())
    assert all(isinstance(outcome, ServiceTimeout) for outcome in outcomes)
    assert abandoned_during == 1  # the executing one; the queued one never ran
    assert after["abandoned"] == 0
    assert after["executing"] == 0
    assert late == "admitted-then-timed-out"


def test_service_rejects_after_close():
    async def scenario():
        service = CountingService()
        await service.count("E(x, y)", triangle())
        await service.aclose()
        with pytest.raises(ServiceClosed):
            await service.count("E(x, y)", triangle())

    asyncio.run(scenario())


def test_service_metrics_mirror_engine_stats():
    async def scenario():
        engine = Engine()
        async with CountingService(engine=engine, owns_engine=True) as service:
            for _ in range(3):
                await service.count(PATH_QUERY, triangle())
            return service.metrics(), engine.stats().as_dict()

    metrics, stats = asyncio.run(scenario())
    engine_view = metrics["engine"]
    for field in ("count_calls", "plan_hits", "plan_misses", "context_hits"):
        assert engine_view[field] == stats[field]
    assert engine_view["count_calls"] == 3
    assert engine_view["plan_hits"] == 2
    latency = metrics["service"]["endpoints"]["count"]["latency"]
    assert latency["count"] == 3
    assert latency["p50_seconds"] is not None
    assert latency["p99_seconds"] >= latency["p50_seconds"]


def test_structure_from_json_forms():
    bare = structure_from_json({"E": [[1, 2], [2, 3], [3, 1]]})
    wrapped = structure_from_json(
        {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}, "universe": [1, 2, 3, 4]}
    )
    assert bare == triangle()
    assert len(wrapped.universe) == 4
    from repro.serve import BadRequest

    with pytest.raises(BadRequest):
        structure_from_json([["not", "a", "mapping"]])
    with pytest.raises(BadRequest):
        structure_from_json({"E": [["ragged"], ["a", "b"]]})


# ----------------------------------------------------------------------
# The live HTTP server
# ----------------------------------------------------------------------
def _post(base: str, path: str, payload: dict, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(base: str, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.load(response)


def test_http_server_end_to_end():
    children_before = set(multiprocessing.active_children())
    engine = Engine(processes=2)
    server = CountingServer(
        service=CountingService(engine=engine, owns_engine=True), port=0
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        assert _get(base, "/healthz")["status"] == "ok"

        expected = count_answers_naive(as_ep(PATH_QUERY), triangle())
        structure_json = {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}}
        assert (
            _post(base, "/count", {"query": PATH_QUERY, "structure": structure_json})[
                "count"
            ]
            == expected
        )
        # Sharded execution over the live engine pool returns the same
        # count; this also forks real worker children that the shutdown
        # check below must see die.
        assert (
            _post(
                base,
                "/count_sharded",
                {
                    "query": PATH_QUERY,
                    "structure": structure_json,
                    "shard_count": 2,
                    "parallel": True,
                },
            )["count"]
            == expected
        )
        assert _post(
            base,
            "/count_many",
            {
                "queries": [PATH_QUERY, "E(x, y)"],
                "structures": [structure_json],
                "parallel": False,
            },
        )["counts"] == [[expected], [3]]

        metrics = _get(base, "/metrics")
        endpoints = metrics["service"]["endpoints"]
        assert endpoints["count"]["completed"] == 1
        assert endpoints["count_sharded"]["completed"] == 1
        assert endpoints["count_many"]["completed"] == 1
        assert metrics["engine"]["count_calls"] == engine.stats().count_calls
        assert metrics["pool"]["processes"] == 2

        # Error mapping.
        for path, payload, status in (
            ("/nope", {}, 404),
            ("/count", {"query": PATH_QUERY}, 400),  # missing structure
            ("/count", {"query": "E(x", "structure": structure_json}, 400),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, path, payload)
            assert excinfo.value.code == status
        # A body still carrying the removed field is refused on every
        # route that once read it, with the same message.
        for path, payload in (
            ("/count", {"query": PATH_QUERY, "structure": structure_json}),
            (
                "/count_many",
                {"queries": [PATH_QUERY], "structures": [structure_json]},
            ),
            ("/count_sharded", {"query": PATH_QUERY, "structure": structure_json}),
            ("/classify", {"query": PATH_QUERY}),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, path, {**payload, "strategy": "auto"})
            assert excinfo.value.code == 400, path
            assert json.load(excinfo.value) == {
                "error": "the 'strategy' field was removed in 1.11.0; every "
                "count runs the paper's pipeline"
            }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base, "/count")  # GET on a POST route
        assert excinfo.value.code == 405

    # Graceful shutdown: the engine's forked workers are joined, so no
    # child processes survive the server.
    lingering = set(multiprocessing.active_children()) - children_before
    assert not lingering


def _send(base: str, method: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


@pytest.fixture(scope="module")
def served_triangle():
    """A live server with the triangle registered as ``tri``."""
    server = CountingServer(
        service=CountingService(engine=Engine(processes=1), owns_engine=True),
        port=0,
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        status, _ = _send(base, "PUT", "/structures/tri", {"structure": TRIANGLE})
        assert status == 200
        yield base


@pytest.mark.parametrize(
    "method,path,payload",
    [
        # ``true`` == 1 and ``false`` == 0 in Python: decoded as they
        # were, these two rows became one loop-free pair over {0, True}
        # on which E(x, x) counted 2.
        pytest.param(
            "POST", "/count",
            {"query": "E(x, x)", "structure": {"E": [[True, 1], [0, False]]}},
            id="bool",
        ),
        pytest.param(
            "POST", "/count",
            {"query": "E(x, y)", "structure": {"E": [[1.5, 2]]}},
            id="float",
        ),
        pytest.param(
            "POST", "/count",
            {"query": "E(x, y)", "structure": {"E": [[None, 2]]}},
            id="null",
        ),
        pytest.param(
            "POST", "/count",
            {"query": "E(x, y)", "structure": {"E": [[[1], 2]]}},
            id="nested",
        ),
        pytest.param(
            "PUT", "/structures/letters",
            {"structure": {"relations": {"E": [[1, 2]]}, "universe": "abc"}},
            id="string-universe",
        ),
        pytest.param(
            "PATCH", "/structures/tri", {"insert": {"E": [[True, 5]]}},
            id="delta-insert",
        ),
    ],
)
def test_http_elements_must_be_ints_or_strings(
    served_triangle, method, path, payload
):
    status, body = _send(served_triangle, method, path, payload)
    assert status == 400, body
    assert "ints or strings" in body["error"]
    # Nothing was registered or changed on the way to the 400.
    status, view = _send(
        served_triangle, "POST", "/count",
        {"query": "E(x, y)", "structure": {"ref": "tri"}},
    )
    assert (status, view) == (200, {"count": 3})


def test_an_untraced_server_counts_and_retains_no_trace(served_triangle):
    # With tracing off, each request is handled and logged against the
    # shared no-op trace.
    tracer = get_tracer()
    newest = tracer.finished_traces()[:1]
    tracer.set_enabled(False)
    try:
        status, body = _send(
            served_triangle, "POST", "/count",
            {"query": PATH_QUERY, "structure": {"ref": "tri"}},
        )
    finally:
        tracer.set_enabled(None)
    assert (status, body) == (200, {"count": 3})
    assert tracer.finished_traces()[:1] == newest


@pytest.mark.parametrize("value", ["false", 1, []], ids=["string", "int", "list"])
@pytest.mark.parametrize("path", ["/count_many", "/count_sharded"])
def test_http_parallel_must_be_a_boolean(path, value):
    # ``"false"`` is truthy: passed through unchecked, it would fork the
    # worker pool the client asked not to use.
    def payload(start: int) -> dict:
        edges = {"relations": {"E": [[i, i + 1] for i in range(start, 40, 2)]}}
        if path == "/count_many":
            return {"queries": [PATH_QUERY, "E(x, y)"], "structures": [edges]}
        return {"query": PATH_QUERY, "structure": edges, "shard_count": 4}

    engine = Engine(processes=2)
    server = CountingServer(
        service=CountingService(engine=engine, owns_engine=True), port=0
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, path, {**payload(0), "parallel": value})
        assert excinfo.value.code == 400
        assert json.load(excinfo.value) == {
            "error": "parallel must be a boolean"
        }
        assert not engine.pool.started
        _post(base, path, {**payload(0), "parallel": False})
        assert not engine.pool.started
        # Other data: the engine answers counts it already holds
        # without the pool.
        _post(base, path, {**payload(1), "parallel": True})
        assert engine.pool.started


def test_service_config_has_no_latency_buckets():
    # The histogram bounds were never configurable: every endpoint
    # always built the 16 default buckets.
    with pytest.raises(TypeError, match="latency_buckets"):
        ServiceConfig(latency_buckets=(0.1, 1.0))


@pytest.mark.parametrize(
    "value, status",
    [
        pytest.param(None, 200, id="null"),
        pytest.param("hash", 200, id="hash"),
        pytest.param(1, 400, id="int"),
        pytest.param(["hash"], 400, id="list"),
    ],
)
def test_http_shard_strategy_is_a_string_or_null(served_triangle, value, status):
    status_code, body = _send(
        served_triangle, "POST", "/count_sharded",
        {
            "query": PATH_QUERY,
            "structure": {"ref": "tri"},
            "shard_strategy": value,
            "parallel": False,
        },
    )
    assert status_code == status, body
    if status == 200:
        assert body == {"count": 3}
    else:
        assert body == {"error": "shard_strategy must be a string"}


def test_http_server_saturation_returns_429():
    config = ServiceConfig(max_in_flight=1, max_queue=0, request_timeout_seconds=10)
    server = CountingServer(
        service=CountingService(
            engine=SlowEngine(0.5), config=config, owns_engine=True
        ),
        port=0,
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        payload = {"query": "E(x, y)", "structure": {"relations": TRIANGLE_JSON}}

        # (status, retry_after) pairs; asserted on the main thread so a
        # failure actually fails the test (a thread-side assert would
        # be swallowed by threading).
        results: list[tuple[int, str | None]] = []
        lock = threading.Lock()

        def fire() -> None:
            try:
                _post(base, "/count", payload)
                with lock:
                    results.append((200, None))
            except urllib.error.HTTPError as error:
                with lock:
                    results.append((error.code, error.headers["Retry-After"]))

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        statuses = [status for status, _ in results]
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1
        assert set(statuses) <= {200, 429}
        assert all(
            retry == "1" for status, retry in results if status == 429
        )
        rejected = _get(base, "/metrics")["service"]["endpoints"]["count"]["rejected"]
        assert rejected == statuses.count(429)


TRIANGLE_JSON = {"E": [[1, 2], [2, 3], [3, 1]]}


def test_http_server_timeout_returns_504():
    config = ServiceConfig(max_in_flight=1, max_queue=0, request_timeout_seconds=0.1)
    server = CountingServer(
        service=CountingService(
            engine=SlowEngine(0.4), config=config, owns_engine=True
        ),
        port=0,
    )
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/count",
                {"query": "E(x, y)", "structure": {"relations": TRIANGLE_JSON}},
            )
        assert excinfo.value.code == 504
        assert (
            _get(base, "/metrics")["service"]["endpoints"]["count"]["timeouts"] == 1
        )
