"""Command-line entry point: ``python -m repro.serve``.

Boots a :class:`~repro.serve.httpd.CountingServer` and serves until
interrupted.  ``--smoke`` instead runs the CI smoke check: bind an
ephemeral port, serve ``/count``, a registered structure counted by
reference through the worker pool before and after a delta, and the
introspection endpoints over a real socket, shut down gracefully, and
verify that exactly the pool's workers ran and none survive.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import urllib.request

from repro.engine.api import Engine
from repro.obs import trace as _trace
from repro.obs.log import configure as configure_logging
from repro.serve.httpd import BackgroundServer, CountingServer
from repro.serve.service import CountingService, ServiceConfig


def _build_server(args: argparse.Namespace) -> CountingServer:
    configure_logging(level=args.log_level, json_lines=args.log_json)
    tracer = _trace.get_tracer()
    if args.trace_buffer <= 0:
        tracer.set_enabled(False)
    else:
        tracer.set_capacity(args.trace_buffer)
    registry_knobs = {
        knob: value
        for knob, value in (
            ("registry_max_entries", args.registry_max_entries),
            ("registry_max_bytes", args.registry_max_bytes),
        )
        if value is not None
    }
    engine = Engine(processes=args.processes, **registry_knobs)
    slow = args.slow_query_threshold
    config = ServiceConfig(
        max_in_flight=args.max_in_flight,
        max_queue=args.max_queue,
        request_timeout_seconds=args.timeout,
        slow_request_seconds=slow if slow and slow > 0 else None,
    )
    service = CountingService(engine=engine, config=config, owns_engine=True)
    return CountingServer(service=service, host=args.host, port=args.port)


def _smoke(args: argparse.Namespace) -> int:
    """Boot, count inline and by reference (through the pool, across a
    delta), shut down clean: the pool's workers and no other child
    while serving, none after."""
    import multiprocessing

    args.port = 0
    server = _build_server(args)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        last_headers: dict = {}

        def call(method: str, path: str, payload: dict | None = None) -> dict:
            request = urllib.request.Request(
                f"{base}{path}",
                data=None if payload is None else json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method=method,
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                last_headers.clear()
                last_headers.update(response.headers.items())
                return json.load(response)

        query = "exists z. (E(x, z) & E(z, y))"
        triangle = {"relations": {"E": [[1, 2], [2, 3], [3, 1]]}}
        count = call("POST", "/count", {"query": query, "structure": triangle})[
            "count"
        ]
        if count != 3:
            print(f"smoke FAILED: /count returned {count}, expected 3")
            return 1
        request_id = last_headers.get("X-Request-Id")
        if not request_id:
            print("smoke FAILED: /count response carried no X-Request-Id")
            return 1
        # Register the structure, then count against the reference: the
        # second request ships zero structure bytes.
        entry = call("PUT", "/structures/smoke", {"structure": triangle})
        if entry["name"] != "smoke" or not entry["pinned"]:
            print(f"smoke FAILED: registration returned {entry}")
            return 1
        by_ref = call(
            "POST", "/count", {"query": query, "structure": {"ref": "smoke"}}
        )["count"]
        if by_ref != 3:
            print(f"smoke FAILED: /count by ref returned {by_ref}, expected 3")
            return 1
        # The same reference through the worker pool, for a query the
        # engine has not memoized: two components, one shard each, so
        # the count fans out as jobs that name the pinned shards; then
        # a one-tuple delta and another query not memoized yet, whose
        # jobs run on a fork of the changed store.
        triangles = {
            "relations": {
                "E": triangle["relations"]["E"] + [[4, 5], [5, 6], [6, 4]]
            }
        }
        call(
            "PUT",
            "/structures/smoke",
            {"structure": triangles, "shard_count": 2},
        )
        sharded = {
            "query": "exists z. (E(z, x) & E(z, y))",
            "structure": {"ref": "smoke"},
            "parallel": True,
        }
        before = call("POST", "/count_sharded", sharded)["count"]
        call("PATCH", "/structures/smoke", {"delete": {"E": [[6, 4]]}})
        sharded["query"] = "exists z. (E(x, z) & E(y, z))"
        after = call("POST", "/count_sharded", sharded)["count"]
        # Every vertex has one out-neighbour v, giving (v, v): 6; then
        # every vertex with an out-edge pairs with itself only (their
        # out-neighbours differ), and 6 lost its one: 5.
        if (before, after) != (6, 5):
            print(
                f"smoke FAILED: /count_sharded by ref returned {before}, "
                f"then {after} after the delta; expected 6, then 5"
            )
            return 1
        pool_size = server.service.engine.pool.processes
        children = multiprocessing.active_children()
        if len(children) != pool_size:
            print(
                f"smoke FAILED: {len(children)} live children while "
                f"serving, expected the pool's {pool_size}: {children}"
            )
            return 1
        health = call("GET", "/healthz")
        metrics = call("GET", "/metrics")
        if health["status"] != "ok" or health["registry_entries"] != 1:
            print(f"smoke FAILED: /healthz reported {health}")
            return 1
        if metrics["service"]["endpoints"]["count"]["completed"] != 2:
            print("smoke FAILED: metrics did not record the requests")
            return 1
        if metrics["registry"]["entries"] != 1:
            print(f"smoke FAILED: registry metrics: {metrics['registry']}")
            return 1
        # Prometheus exposition via content negotiation.
        from repro.obs.prom import validate_exposition

        with urllib.request.urlopen(
            f"{base}/metrics?format=prometheus", timeout=30
        ) as response:
            content_type = response.headers.get("Content-Type", "")
            exposition = response.read().decode("utf-8")
        if "version=0.0.4" not in content_type:
            print(f"smoke FAILED: /metrics content type {content_type!r}")
            return 1
        problems = validate_exposition(exposition)
        if problems:
            print(f"smoke FAILED: invalid Prometheus exposition: {problems}")
            return 1
        # Tracing: the requests above should be retained and retrievable.
        traces = call("GET", "/debug/traces")
        if traces["tracing_enabled"] and traces["traces"]:
            newest = traces["traces"][0]["trace_id"]
            tree = call("GET", f"/debug/traces/{newest}")
            if tree.get("trace_id") != newest:
                print(f"smoke FAILED: trace lookup returned {tree}")
                return 1
        call("DELETE", "/structures/smoke")
    children = multiprocessing.active_children()
    if children:
        print(f"smoke FAILED: live children after shutdown: {children}")
        return 1
    print(
        "serve smoke OK: /count == 3 inline and by ref, /count_sharded "
        "by ref through the pool across a delta, graceful shutdown, "
        "zero children"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="engine worker-pool size (default: one per CPU)",
    )
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=4,
        help="concurrently executing requests (sizes the thread budget)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="requests allowed to wait for a slot before 429s start",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds (queueing + execution)",
    )
    parser.add_argument(
        "--registry-max-entries",
        type=int,
        default=None,
        help="how many named structures may be resident at once",
    )
    parser.add_argument(
        "--registry-max-bytes",
        type=int,
        default=None,
        help="cap on the registry's summed approximate resident bytes",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity for the repro.* loggers",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON object per log line instead of key=value text",
    )
    parser.add_argument(
        "--slow-query-threshold",
        type=float,
        default=1.0,
        help="dump the full span tree for requests slower than this many "
        "seconds (0 or negative disables the slow-query log)",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=_trace.DEFAULT_TRACE_CAPACITY,
        help="finished traces retained for /debug/traces "
        "(0 disables tracing entirely)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="boot on an ephemeral port, count inline and by ref, exit",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return _smoke(args)

    server = _build_server(args)

    async def _serve() -> None:
        host, port = await server.start()
        print(f"repro-serve listening on http://{host}:{port}")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
