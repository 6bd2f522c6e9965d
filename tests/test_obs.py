"""The observability stack: tracing, structured logs, Prometheus text.

Covers the acceptance surface of ``repro.obs``: span trees assembled
across the fork boundary (one worker-recorded ``shard.execute[i]`` span
per shard, error-annotated traces when a worker job dies), the trace
ring buffer and debug endpoints, request-id propagation over live HTTP,
Prometheus exposition rendered/parsed/validated round-trip, the
JSON-lines log formatter, and the latency-histogram percentile edge
cases the renderer depends on.
"""

from __future__ import annotations

import io
import json
import logging
import math
import urllib.error
import urllib.request

import pytest

from repro.engine import pool as pool_module
from repro.engine.api import Engine
from repro.engine.resident import ResidentContexts
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.prom import (
    CONTENT_TYPE,
    family_names,
    parse_exposition,
    render_prometheus,
    validate_exposition,
)
from repro.obs.trace import Tracer, get_tracer
from repro.serve import (
    BackgroundServer,
    CountingServer,
    CountingService,
    ServiceConfig,
)
from repro.serve.service import LatencyHistogram
from repro.structures.structure import Structure

PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


@pytest.fixture(autouse=True)
def clean_tracer():
    """Each test starts with an empty, env-default tracer."""
    tracer = get_tracer()
    tracer.set_enabled(None)
    tracer.clear()
    yield tracer
    tracer.set_enabled(None)
    tracer.clear()


def triangles(count: int) -> Structure:
    """``count`` disjoint triangles -- ``count`` connected components,
    so sharded execution genuinely fans out."""
    edges = []
    for i in range(count):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (c, a)]
    return Structure.from_relations({"E": edges})


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
def test_trace_tree_and_ring_buffer():
    tracer = Tracer(capacity=2, enabled=True)
    with tracer.trace("first", request_id="req-1") as trace:
        with tracer.span("outer", depth=1) as outer:
            with tracer.span("inner") as inner:
                inner.set("answer", 42)
        assert outer.duration_seconds is not None

    assert len(tracer) == 1
    kept = tracer.get(trace.trace_id)
    assert kept is trace
    tree = kept.as_dict()
    assert tree["trace_id"] == trace.trace_id
    assert tree["request_id"] == "req-1"
    assert tree["span_count"] == 3
    root = tree["root"]
    assert root["name"] == "first"
    (outer_node,) = root["children"]
    assert outer_node["name"] == "outer"
    assert outer_node["attributes"] == {"depth": 1}
    (inner_node,) = outer_node["children"]
    assert inner_node["attributes"] == {"answer": 42}

    # Ring buffer: capacity 2, newest first, oldest evicted.
    with tracer.trace("second"):
        pass
    with tracer.trace("third"):
        pass
    names = [t.root.name for t in tracer.finished_traces()]
    assert names == ["third", "second"]
    assert tracer.get(trace.trace_id) is None


def test_trace_records_exceptions():
    tracer = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with tracer.trace("failing"):
            with tracer.span("step"):
                raise ValueError("boom")
    (trace,) = tracer.finished_traces()
    assert trace.root.error == "ValueError: boom"
    step = next(s for s in trace.spans() if s.name == "step")
    assert step.error == "ValueError: boom"
    assert trace.summary()["error"] == "ValueError: boom"


def test_disabled_tracer_is_inert():
    tracer = Tracer(enabled=False)
    with tracer.trace("ignored") as trace:
        with tracer.span("child") as span:
            span.set("k", "v")
        trace.set("root-attr", 1)
    assert len(tracer) == 0
    assert trace.as_dict() == {}
    cap = tracer.capture("worker")
    with cap:
        pass
    assert cap.spans is None


def test_capture_and_attach_foreign_reparents_spans():
    tracer = Tracer(enabled=True)
    # Worker side: record an unretained local trace, serialize it.
    cap = tracer.capture("shard.execute", units=3)
    with cap:
        with tracer.span("context.build", universe=9):
            pass
    assert cap.spans is not None

    # Parent side: re-parent under the ambient trace, suffixing the root.
    with tracer.trace("parent") as trace:
        with tracer.span("shard.fanout"):
            assert tracer.attach_foreign(cap.spans, suffix="[0]")
    tree = trace.as_dict()["root"]
    (fanout,) = tree["children"]
    (shard,) = fanout["children"]
    assert shard["name"] == "shard.execute[0]"
    assert shard["attributes"] == {"units": 3}
    (build,) = shard["children"]
    assert build["name"] == "context.build"

    # No ambient trace -> spans are dropped, not crashed on.
    assert tracer.attach_foreign(cap.spans) is False


def test_stage_breakdown_sums_direct_children():
    tracer = Tracer(enabled=True)
    with tracer.trace("request") as trace:
        for _ in range(2):
            with tracer.span("plan.compile"):
                with tracer.span("nested"):
                    pass
    stages = trace.stage_breakdown()
    assert set(stages) == {"plan.compile"}
    assert stages["plan.compile"] > 0


# ----------------------------------------------------------------------
# Trace propagation across the pool boundary
# ----------------------------------------------------------------------
def test_count_sharded_traces_one_worker_span_per_shard():
    engine = Engine(processes=2)
    tracer = get_tracer()
    tracer.set_enabled(True)
    try:
        structure = triangles(12)
        count = engine.count_sharded(
            PATH_QUERY, structure, shard_count=4, parallel=True
        )
        assert count == 12 * 3  # 3 directed 2-paths per triangle
    finally:
        engine.close()

    trace = tracer.finished_traces()[0]
    assert trace.root.name == "engine.count_sharded"
    shard_spans = sorted(
        (s for s in trace.spans() if s.name.startswith("shard.execute[")),
        key=lambda s: s.name,
    )
    assert [s.name for s in shard_spans] == [
        f"shard.execute[{i}]" for i in range(4)
    ]
    for span in shard_spans:
        # Worker-recorded wall clock, shipped back through the job result.
        assert span.duration_seconds is not None
        assert span.duration_seconds >= 0
        assert span.attributes["units"] >= 1
        assert "context_hit" in span.attributes
    fanout = next(s for s in trace.spans() if s.name == "shard.fanout")
    assert fanout.attributes["shards"] == 4
    assert any(s.name == "combine" for s in trace.spans())
    assert any(s.name == "plan.compile" for s in trace.spans())


@pytest.mark.parametrize("enabled", [True, False], ids=["traced", "untraced"])
def test_tracing_never_changes_a_count(enabled):
    get_tracer().set_enabled(enabled)
    with Engine(processes=2) as engine:
        counts = [
            engine.count_sharded(
                PATH_QUERY, triangles(12), shard_count=4, parallel=True
            )
            for _ in range(3)  # cold, then warm workers
        ]
    assert counts == [12 * 3] * 3
    assert bool(get_tracer().finished_traces()) is enabled


def test_worker_exception_still_produces_error_annotated_trace(monkeypatch):
    class Exploding(ResidentContexts):
        def lookup(self, key, keep=True):
            raise RuntimeError("worker blew up")

    # Patch before the pool forks so the workers build their stores
    # with the broken resident-context lookup (the engine's own store,
    # built in this process, stays intact).
    monkeypatch.setattr(pool_module, "ResidentContexts", Exploding)
    engine = Engine(processes=2)
    tracer = get_tracer()
    tracer.set_enabled(True)
    try:
        # The executor unwraps WorkerTaskError to the original error.
        with pytest.raises(RuntimeError, match="worker blew up"):
            engine.count_sharded(
                PATH_QUERY, triangles(12), shard_count=4, parallel=True
            )
    finally:
        engine.close()

    trace = tracer.finished_traces()[0]
    assert trace.root.error is not None
    shard_spans = [
        s for s in trace.spans() if s.name.startswith("shard.execute[")
    ]
    assert shard_spans  # failed worker jobs still ship their spans back
    assert all(
        "RuntimeError: worker blew up" == s.error for s in shard_spans
    )


def test_count_sharded_sequential_records_same_span_shape():
    engine = Engine()
    tracer = get_tracer()
    tracer.set_enabled(True)
    try:
        count = engine.count_sharded(
            PATH_QUERY, triangles(8), shard_count=4, parallel=False
        )
        assert count == 8 * 3
    finally:
        engine.close()
    trace = tracer.finished_traces()[0]
    names = {s.name for s in trace.spans()}
    assert {f"shard.execute[{i}]" for i in range(4)} <= names
    assert "combine" in names


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
def test_json_line_formatter_includes_extras_and_exceptions():
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(obs_log.JsonLineFormatter())
    logger = logging.getLogger("test.obs.json")
    logger.setLevel(logging.DEBUG)
    logger.addHandler(handler)
    logger.propagate = False
    try:
        logger.info("hello", extra={"request_id": "abc", "status": 200})
        try:
            raise ValueError("oops")
        except ValueError:
            logger.exception("it failed")
    finally:
        logger.removeHandler(handler)

    first, second = stream.getvalue().splitlines()
    record = json.loads(first)
    assert record["message"] == "hello"
    assert record["level"] == "INFO"
    assert record["logger"] == "test.obs.json"
    assert record["request_id"] == "abc"
    assert record["status"] == 200
    assert isinstance(record["ts"], float)
    failure = json.loads(second)
    assert "ValueError: oops" in failure["exception"]


def test_configure_is_idempotent_and_validates_level():
    def marked(logger):
        return [
            h for h in logger.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]

    root = obs_log.configure(level="warning")
    assert len(marked(root)) == 1
    again = obs_log.configure(level="debug")
    assert again is root
    # Reconfiguring replaces the attached handler instead of stacking.
    assert len(marked(root)) == 1
    assert root.level == logging.DEBUG
    with pytest.raises(ValueError):
        obs_log.configure(level="chatty")
    assert obs_log.get_logger("engine.pool").name == "repro.engine.pool"
    assert obs_log.get_logger("repro.engine.pool").name == "repro.engine.pool"


# ----------------------------------------------------------------------
# Latency histogram edge cases (the Prometheus renderer's substrate)
# ----------------------------------------------------------------------
def test_histogram_percentile_edge_cases():
    histogram = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
    assert histogram.percentile(0.5) is None  # empty

    histogram.observe(0.05)
    histogram.observe(0.07)
    histogram.observe(5.0)  # above the top bound
    assert histogram.percentile(0.0) == 0.1  # first non-empty bucket
    assert histogram.percentile(0.5) == 0.1
    assert histogram.percentile(1.0) == 5.0  # the true max, not +Inf
    assert histogram.percentile(0.99) == 5.0

    lone = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
    lone.observe(0.5)
    assert lone.percentile(0.0) == 1.0  # bucket upper bound
    assert lone.percentile(1.0) == 0.5  # q=1 reports the observed max


def test_histogram_cumulative_buckets_and_sum():
    histogram = LatencyHistogram(buckets=(0.01, 0.1))
    for value in (0.005, 0.05, 0.07, 3.0):
        histogram.observe(value)
    buckets = histogram.cumulative_buckets()
    assert [b["le"] for b in buckets] == [0.01, 0.1, None]
    assert [b["count"] for b in buckets] == [1, 3, 4]
    assert histogram.sum_seconds == pytest.approx(0.005 + 0.05 + 0.07 + 3.0)
    payload = histogram.as_dict()
    assert payload["buckets"][-1]["le"] is None
    assert payload["buckets"][-1]["cumulative"] == 4
    cumulative = [b["cumulative"] for b in payload["buckets"]]
    assert cumulative == sorted(cumulative)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_render_parse_validate_round_trip():
    import asyncio

    async def drive():
        async with CountingService() as service:
            structure = Structure.from_relations(
                {"E": [(1, 2), (2, 3), (3, 1)]}
            )
            assert await service.count(PATH_QUERY, structure) == 3
            return render_prometheus(service.metrics())

    text = asyncio.run(drive())

    assert validate_exposition(text) == []
    families = parse_exposition(text)
    assert family_names() <= set(families)
    requests = {
        labels["endpoint"]: value
        for _, labels, value in families["repro_requests_total"]["samples"]
    }
    assert requests["count"] == 1
    histogram = families["repro_request_latency_seconds"]
    assert histogram["type"] == "histogram"
    count_buckets = [
        (labels["le"], value)
        for name, labels, value in histogram["samples"]
        if name.endswith("_bucket") and labels.get("endpoint") == "count"
    ]
    assert count_buckets[-1][0] == "+Inf"
    assert count_buckets[-1][1] == 1


def test_exposition_escapes_label_values():
    metrics = {
        "service": {
            "endpoints": {
                'we"ird\nname\\x': {
                    "requests": 1,
                    "completed": 1,
                    "rejected": 0,
                    "timeouts": 0,
                    "errors": 0,
                    "latency": {
                        "count": 1,
                        "sum_seconds": 0.5,
                        "buckets": [
                            {"le": 1.0, "count": 1, "cumulative": 1},
                            {"le": None, "count": 1, "cumulative": 1},
                        ],
                    },
                }
            }
        },
        "engine": {},
    }
    text = render_prometheus(metrics)
    assert validate_exposition(text) == []
    families = parse_exposition(text)
    (sample,) = families["repro_requests_total"]["samples"]
    assert sample[1]["endpoint"] == 'we"ird\nname\\x'


def test_validate_exposition_catches_violations():
    assert validate_exposition("garbage line without value") != []
    broken = (
        "# HELP x_seconds h\n"
        "# TYPE x_seconds histogram\n"
        'x_seconds_bucket{le="1"} 5\n'
        'x_seconds_bucket{le="+Inf"} 3\n'
        "x_seconds_sum 1.0\n"
        "x_seconds_count 3\n"
    )
    problems = validate_exposition(broken)
    assert any("not cumulative" in p for p in problems)
    no_inf = (
        "# HELP y_seconds h\n"
        "# TYPE y_seconds histogram\n"
        'y_seconds_bucket{le="1"} 5\n'
        "y_seconds_sum 1.0\n"
        "y_seconds_count 5\n"
    )
    assert any(
        "+Inf" in p for p in validate_exposition(no_inf)
    )


# ----------------------------------------------------------------------
# Live HTTP: request ids, debug endpoints, content negotiation
# ----------------------------------------------------------------------
def _raw_get(base: str, path: str, headers: dict | None = None):
    request = urllib.request.Request(f"{base}{path}", headers=headers or {})
    return urllib.request.urlopen(request, timeout=30)


def test_http_request_ids_traces_and_prometheus():
    get_tracer().set_enabled(True)
    server = CountingServer(service=CountingService(), port=0)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        # Generated X-Request-Id on every response.
        payload = json.dumps(
            {
                "query": PATH_QUERY,
                "structure": {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}},
            }
        ).encode()
        request = urllib.request.Request(
            f"{base}/count", data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            generated = response.headers["X-Request-Id"]
            assert json.load(response)["count"] == 3
        assert generated

        # A client-supplied id is echoed back verbatim.
        request = urllib.request.Request(
            f"{base}/count", data=payload,
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "client-chose-this",
            },
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == "client-chose-this"

        # The finished trace is listed and retrievable by id.
        with _raw_get(base, "/debug/traces") as response:
            listing = json.load(response)
        assert listing["tracing_enabled"] is True
        by_request_id = {
            t["request_id"]: t for t in listing["traces"]
        }
        assert "client-chose-this" in by_request_id
        trace_id = by_request_id["client-chose-this"]["trace_id"]
        with _raw_get(base, f"/debug/traces/{trace_id}") as response:
            tree = json.load(response)
        assert tree["trace_id"] == trace_id
        assert tree["root"]["name"] == "POST /count"
        stage_names = {c["name"] for c in tree["root"].get("children", ())}
        assert "admission.queue" in stage_names

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _raw_get(base, "/debug/traces/doesnotexist")
        assert excinfo.value.code == 404

        # Content negotiation: query param and Accept header both yield
        # valid exposition text; the default stays JSON.
        for suffix, headers in (
            ("?format=prometheus", None),
            ("", {"Accept": "text/plain"}),
        ):
            with _raw_get(base, f"/metrics{suffix}", headers) as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
                text = response.read().decode()
            assert validate_exposition(text) == []
        with _raw_get(base, "/metrics") as response:
            assert "application/json" in response.headers["Content-Type"]
            body = json.load(response)
        assert body["obs"]["tracing_enabled"] is True
        assert body["obs"]["traces_retained"] >= 2


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


def test_http_slow_query_log_dumps_trace():
    get_tracer().set_enabled(True)
    # A handler directly on the slowquery logger: `configure()` stops
    # propagation to the root logger, so capture must happen here.
    slow_logger = logging.getLogger("repro.serve.slowquery")
    handler = _ListHandler()
    slow_logger.addHandler(handler)
    old_level = slow_logger.level
    slow_logger.setLevel(logging.WARNING)
    try:
        config = ServiceConfig(slow_request_seconds=1e-9)
        server = CountingServer(
            service=CountingService(config=config), port=0
        )
        with BackgroundServer(server) as background:
            host, port = background.server.address
            base = f"http://{host}:{port}"
            payload = json.dumps(
                {
                    "query": PATH_QUERY,
                    "structure": {
                        "relations": {"E": [[1, 2], [2, 3], [3, 1]]}
                    },
                }
            ).encode()
            request = urllib.request.Request(
                f"{base}/count", data=payload,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert json.load(response)["count"] == 3
    finally:
        slow_logger.removeHandler(handler)
        slow_logger.setLevel(old_level)

    assert handler.records
    record = handler.records[0]
    assert record.trace["root"]["name"] == "POST /count"
    assert record.threshold_seconds == 1e-9
    assert record.request_id
