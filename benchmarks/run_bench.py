#!/usr/bin/env python
"""The engine benchmark: cold vs. warm counting over realistic workloads.

Runs the scenario query mixes (social network, triple store, movies,
tenant network) and the generator query families (paths, stars, grids,
random UCQs) through two paths:

* **cold** -- a fresh compile for every call, i.e. what every
  ``count_answers`` call cost before :mod:`repro.engine` existed;
* **warm** -- one compile, then repeated execution of the cached plan
  (the engine's batch path).

On top of that, two data-side comparisons of the context/shard layers:

* **sharded counting** -- a 10^4+-tuple clustered structure counted
  whole in one process vs. sharded over all cores;
* **memoized semijoin ∃-elimination** -- a repeated-term ``ep-plus``
  plan executed with the context's semijoin evaluator + boundary memo
  vs. the per-term backtracking the executor used before contexts.

And two end-to-end serving measurements:

* **serving** -- concurrent client threads mixing ``/count`` and
  ``/count_sharded`` against a live :mod:`repro.serve` HTTP server
  with bounded admission; records client-observed p50/p99 latencies,
  throughput, and explicit 429 rejection counts;
* **registry_serving** -- the count-by-reference economics on the
  10^4-tuple clustered structure: sequential ``/count`` requests
  shipping the whole structure as JSON vs. the same counts via
  ``{"ref": ...}`` against the registered, pinned entry (target: the
  ref path wins client-observed p50 by >= 5x).

Plus one observability measurement:

* **tracing_overhead** -- the per-call p50 cost of span tracing
  (``repro.obs.trace``, on by default) on repeated sharded counting:
  traced vs. tracer-disabled-before-fork (target: < 5% overhead).

And the live-update comparison:

* **live_updates** -- single-tuple ``StructureDelta`` + repeated query
  through ``Engine.apply_delta`` (chained fingerprints, migrated
  contexts and worker pins) vs. full re-registration of the rebuilt
  structure, on clustered graphs whose small label relation takes the
  update stream, at 10^4 and 10^5 tuples (target: >= 10x for the delta
  path at 10^5 tuples, counts identical to a from-scratch rebuild).

And the policy-routing comparison:

* **routing** -- the classification-driven routing economics on the
  matched frontier pairs of ``repro.workloads.frontier_query_pair``:
  warm-plan FPT counting under an armed ``budget`` policy vs. plain
  ``allow`` (target: <= 3% p50 overhead), client-observed p99 of the
  hard clique query coming back ``422`` over live HTTP under
  ``policy: "reject"`` (target: < 50ms), and the wall-clock of a
  ``budget`` abort on the hard query vs. its requested ``max_seconds``
  (target: within 2x).

The worker runtime (resident pool contexts, the TCP cluster, worker
death) is measured by ``benchmarks/e2e/run.py`` (``cold-cluster-25k``,
``engine.pool.worker_context_hit_ratio``) and bounded by
``tests/test_cluster_chaos.py``, not here.

Reports are **appended** to ``BENCH_engine.json`` as keyed entries under
``"runs"`` (key = version + mode), never overwriting earlier baselines;
a pre-``runs`` report found in the file is migrated to its own key, and
a run whose key already exists in the store **fails** instead of
clobbering it (pass ``--force`` to overwrite deliberately).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --quick \
        --only live_updates                                  # one section
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro import BudgetExceeded, Engine, __version__
from repro.engine.context import ExecutionContext
from repro.engine.executor import execute, execute_sharded
from repro.engine.plan import compile_plan
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.sharding import shard_structure
from repro.workloads.generators import (
    example_4_2_query,
    example_5_21_query,
    grid_query,
    path_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)
from repro.workloads.scenarios import all_scenarios


def _time(callable_, repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        before = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - before)
    return best, result


def bench_scenarios(quick: bool) -> list[dict]:
    """Every scenario query, cold compile+execute vs. warm execute."""
    out: list[dict] = []
    for scenario in all_scenarios():
        structure = scenario.structure()
        engine = Engine()
        for name, query in scenario.queries.items():
            ep = query.to_ep()
            cold_seconds, count = _time(
                lambda: execute(compile_plan(ep), structure)
            )
            engine.count(ep, structure)  # warm the caches
            warm_seconds, warm_count = _time(
                lambda: engine.count(ep, structure), repeats=1 if quick else 3
            )
            assert count == warm_count, (scenario.name, name)
            out.append(
                {
                    "scenario": scenario.name,
                    "query": name,
                    "count": count,
                    "cold_seconds": cold_seconds,
                    "warm_seconds": warm_seconds,
                    "speedup": cold_seconds / warm_seconds if warm_seconds else None,
                }
            )
    return out


def bench_families(quick: bool) -> list[dict]:
    """Generator families over random graphs: compile cost vs. execute cost."""
    sizes = [10] if quick else [10, 20]
    families = {
        "path4_pairs": path_query(4, quantify_interior=True),
        "star4_centers": star_query(4, quantify_leaves=True),
        "grid2x3": grid_query(2, 3),
        "union_paths_123": union_of_paths_query([1, 2, 3]),
        "example_4_2": example_4_2_query(),
        "example_5_21": example_5_21_query(),
        "random_ucq": random_ucq(3, 4, 3, liberal_count=2, seed=7),
    }
    out: list[dict] = []
    for name, query in families.items():
        for size in sizes:
            structure = random_graph(size, 0.25, seed=size)
            compile_seconds, plan = _time(lambda: compile_plan(query))
            execute_seconds, count = _time(
                lambda: execute(plan, structure), repeats=1 if quick else 3
            )
            out.append(
                {
                    "family": name,
                    "structure_size": size,
                    "count": count,
                    "compile_seconds": compile_seconds,
                    "execute_seconds": execute_seconds,
                    "compile_share": compile_seconds
                    / (compile_seconds + execute_seconds),
                }
            )
    return out


def bench_repeated_query(quick: bool) -> dict:
    """The headline benchmark: one query served against many structures.

    Cold path: compile + execute per call (the pre-engine behavior of
    ``count_answers``).  Warm path: the engine's ``count_many`` with the
    plan compiled once.  This is the serving pattern the ROADMAP's
    traffic scenario cares about.
    """
    query = example_5_21_query()
    structure_count = 8 if quick else 24
    structures = [
        random_graph(8, 0.3, seed=seed) for seed in range(structure_count)
    ]

    def cold() -> list[int]:
        # A fresh compilation per call, exactly like the seed pipeline.
        return [execute(compile_plan(query), s) for s in structures]

    engine = Engine()
    engine.compile(query)  # warm the plan cache

    def warm() -> list[int]:
        return engine.count_many([query], structures, parallel=False)[0]

    cold_seconds, cold_counts = _time(cold)
    warm_seconds, warm_counts = _time(warm, repeats=1 if quick else 3)
    assert cold_counts == warm_counts
    return {
        "query": "example_5_21",
        "structures": structure_count,
        "structure_size": 8,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "counts_checksum": sum(cold_counts),
        "engine_stats": engine.stats().as_dict(),
    }


def bench_sharded_counting(quick: bool) -> dict:
    """Whole-structure single-process vs. sharded multi-core counting.

    The data is the clustered many-tenants shape (disjoint dense
    clusters; 10^4+ tuples on the full run), the query a quantified
    2-path.  All three measured paths return the identical count; the
    contest is wall time: sharding wins twice over, from the per-shard
    domains being tiny (the junction-tree DP is quadratic in the domain
    here) and from the shards saturating every core.
    """
    clusters, size, p = (8, 10, 0.3) if quick else (60, 16, 0.7)
    structure = random_cluster_graph(clusters, size, p, seed=7)
    plan = compile_plan(path_query(2, quantify_interior=True))
    sharded = shard_structure(structure, clusters)

    whole_seconds, whole_count = _time(
        lambda: execute(plan, structure, ExecutionContext(structure))
    )
    sharded_seq_seconds, sharded_seq_count = _time(
        lambda: execute_sharded(plan, sharded, parallel=False)
    )
    sharded_par_seconds, sharded_par_count = _time(
        lambda: execute_sharded(plan, sharded, parallel=True),
        repeats=1 if quick else 3,
    )
    assert whole_count == sharded_seq_count == sharded_par_count
    return {
        "query": "path2_pairs",
        "clusters": clusters,
        "cluster_size": size,
        "tuples": structure.total_tuples,
        "universe": len(structure.universe),
        "count": whole_count,
        "whole_single_process_seconds": whole_seconds,
        "sharded_sequential_seconds": sharded_seq_seconds,
        "sharded_parallel_seconds": sharded_par_seconds,
        "sharded_speedup": (
            whole_seconds / sharded_par_seconds if sharded_par_seconds else None
        ),
    }


def bench_semijoin_memo(quick: bool) -> dict:
    """Memoized semijoin ∃-elimination vs. per-term backtracking.

    The query is a union of path lengths, whose ``ep-plus`` expansion
    repeats each path's ∃-component across the inclusion-exclusion
    terms; the context memo computes each once (by semijoin reduction),
    where the pre-context executor re-ran a backtracking search per
    term.
    """
    clusters, size, p = (4, 8, 0.3) if quick else (8, 10, 0.5)
    structure = random_cluster_graph(clusters, size, p, seed=11)
    plan = compile_plan(union_of_paths_query([2, 3]))

    def memoized() -> int:
        return execute(plan, structure, ExecutionContext(structure))

    def backtracking() -> int:
        return execute(
            plan, structure, ExecutionContext(structure, semijoin=False, memoize=False)
        )

    memo_seconds, memo_count = _time(memoized, repeats=1 if quick else 3)
    # The backtracking baseline is the slow side by construction (it is
    # cubic in the universe here); one measurement is plenty.
    back_seconds, back_count = _time(backtracking)
    assert memo_count == back_count
    return {
        "query": "union_paths_23",
        "tuples": structure.total_tuples,
        "universe": len(structure.universe),
        "count": memo_count,
        "terms": len(plan.terms),
        "semijoin_memo_seconds": memo_seconds,
        "backtracking_seconds": back_seconds,
        "speedup": back_seconds / memo_seconds if memo_seconds else None,
    }


def bench_serving(quick: bool) -> dict:
    """Concurrent load through the live HTTP serving front end.

    Boots a real :class:`~repro.serve.httpd.CountingServer` (ephemeral
    port, bounded admission) and hammers it with client threads mixing
    ``/count`` and ``/count_sharded`` on a clustered structure.  The
    interesting numbers are the client-observed p50/p99 latencies, the
    count of explicit 429 rejections (admission control doing its job
    under a burst that exceeds ``max_in_flight + max_queue``), and the
    server-side histogram from ``/metrics`` agreeing with the client
    view.  Shutdown is graceful and must leave zero child processes.
    """
    import json as json_
    import multiprocessing
    import threading
    import urllib.error
    import urllib.request

    from repro.serve import (
        BackgroundServer,
        CountingServer,
        CountingService,
        ServiceConfig,
    )

    clients, per_client = (4, 6) if quick else (8, 24)
    clusters, size, p = (4, 6, 0.4) if quick else (8, 8, 0.5)
    structure = random_cluster_graph(clusters, size, p, seed=13)
    structure_json = {
        "relations": {
            name: [list(row) for row in sorted(tuples)]
            for name, tuples in structure.relations.items()
        }
    }
    query = "exists z. (E(x, z) & E(z, y))"
    config = ServiceConfig(
        max_in_flight=4, max_queue=6, request_timeout_seconds=30
    )
    server = CountingServer(
        service=CountingService(config=config, owns_engine=True), port=0
    )

    latencies: list[float] = []
    outcomes = {"completed": 0, "rejected": 0, "failed": 0}
    lock = threading.Lock()

    def client(worker: int) -> None:
        for round_ in range(per_client):
            if (worker + round_) % 2:
                path, payload = "/count_sharded", {
                    "query": query,
                    "structure": structure_json,
                    "shard_count": clusters,
                    "parallel": False,
                }
            else:
                path, payload = "/count", {
                    "query": query,
                    "structure": structure_json,
                }
            request = urllib.request.Request(
                f"{base}{path}",
                data=json_.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            before = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    json_.load(response)
            except urllib.error.HTTPError as error:
                with lock:
                    outcomes["rejected" if error.code == 429 else "failed"] += 1
                continue
            except Exception:
                # Connection-level failures (URLError, resets) must be
                # counted, not kill the client thread and skew the
                # recorded sample.
                with lock:
                    outcomes["failed"] += 1
                continue
            elapsed = time.perf_counter() - before
            with lock:
                latencies.append(elapsed)
                outcomes["completed"] += 1

    # Burst phase: everyone fires one request at the same instant, at
    # 3x the admission capacity, so saturation must answer with
    # explicit 429s (never a collapsing queue).
    burst_size = 3 * (config.max_in_flight + config.max_queue)
    burst_outcomes = {"completed": 0, "rejected": 0, "failed": 0}
    burst_barrier = threading.Barrier(burst_size)

    def burst_client() -> None:
        request = urllib.request.Request(
            f"{base}/count",
            data=json_.dumps(
                {"query": query, "structure": structure_json}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        burst_barrier.wait()
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                json_.load(response)
        except urllib.error.HTTPError as error:
            with lock:
                burst_outcomes[
                    "rejected" if error.code == 429 else "failed"
                ] += 1
            return
        except Exception:
            with lock:
                burst_outcomes["failed"] += 1
            return
        with lock:
            burst_outcomes["completed"] += 1

    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - started

        threads = [
            threading.Thread(target=burst_client) for _ in range(burst_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        metrics = json_.loads(
            urllib.request.urlopen(f"{base}/metrics", timeout=60).read()
        )
    lingering = multiprocessing.active_children()

    latencies.sort()

    def percentile(q: float) -> float | None:
        if not latencies:
            return None
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    endpoints = metrics["service"]["endpoints"]
    return {
        "clients": clients,
        "requests_per_client": per_client,
        "tuples": structure.total_tuples,
        "max_in_flight": config.max_in_flight,
        "max_queue": config.max_queue,
        "wall_seconds": wall_seconds,
        "throughput_rps": (
            outcomes["completed"] / wall_seconds if wall_seconds else None
        ),
        "completed": outcomes["completed"],
        "rejected_429": outcomes["rejected"],
        "failed": outcomes["failed"],
        "burst_size": burst_size,
        "burst_completed": burst_outcomes["completed"],
        "burst_rejected_429": burst_outcomes["rejected"],
        "burst_failed": burst_outcomes["failed"],
        "latency_p50_seconds": percentile(0.50),
        "latency_p90_seconds": percentile(0.90),
        "latency_p99_seconds": percentile(0.99),
        "server_rejected": sum(e["rejected"] for e in endpoints.values()),
        "server_completed": sum(e["completed"] for e in endpoints.values()),
        "server_count_p99_seconds": endpoints["count"]["latency"]["p99_seconds"],
        "engine_count_calls": metrics["engine"]["count_calls"],
        "lingering_children": len(lingering),
    }


def bench_registry_serving(quick: bool) -> dict:
    """Ship-the-data ``/count`` vs. count-by-reference on large data.

    The workload the registry exists for: the same cheap query arrives
    again and again for the same large structure.  The *inline* client
    re-ships the 10^4-tuple structure as JSON with every request and
    pays transfer + parse + validation + content hashing server-side;
    the *ref* client registered the structure once (``PUT
    /structures/...``, pinned, shard plan precomputed) and sends a
    few dozen bytes naming it.  Both count through the identical
    engine path afterwards, so the measured gap is purely the
    data-shipping overhead the registry removes.  Requests run
    sequentially on one connection-per-request client, so the p50s are
    honest single-request latencies, not queueing artifacts.
    """
    import json as json_
    import multiprocessing
    import urllib.request

    from repro.serve import (
        BackgroundServer,
        CountingServer,
        CountingService,
        ServiceConfig,
    )

    clusters, size, p = (8, 10, 0.3) if quick else (60, 16, 0.7)
    requests_per_mode = 6 if quick else 40
    structure = random_cluster_graph(clusters, size, p, seed=7)
    structure_json = {
        "relations": {
            name: [list(row) for row in sorted(tuples)]
            for name, tuples in structure.relations.items()
        }
    }
    query = "E(x, y)"
    config = ServiceConfig(max_in_flight=4, max_queue=8, request_timeout_seconds=60)
    server = CountingServer(
        service=CountingService(config=config, owns_engine=True), port=0
    )

    def measure(payload: dict, repeats: int) -> tuple[list[float], int]:
        body = json_.dumps(payload).encode()
        latencies = []
        count = None
        for _ in range(repeats):
            request = urllib.request.Request(
                f"{base}/count",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            before = time.perf_counter()
            with urllib.request.urlopen(request, timeout=60) as response:
                count = json_.load(response)["count"]
            latencies.append(time.perf_counter() - before)
        latencies.sort()
        assert count is not None
        return latencies, count

    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        inline_payload = {"query": query, "structure": structure_json}
        ref_payload = {"query": query, "structure": {"ref": "bench"}}
        inline_bytes = len(json_.dumps(inline_payload).encode())
        ref_bytes = len(json_.dumps(ref_payload).encode())

        register_request = urllib.request.Request(
            f"{base}/structures/bench",
            data=json_.dumps(
                {"structure": structure_json, "pin": True,
                 "shard_count": clusters}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="PUT",
        )
        before = time.perf_counter()
        with urllib.request.urlopen(register_request, timeout=120) as response:
            entry = json_.load(response)
        register_seconds = time.perf_counter() - before

        # One warmup each so neither mode pays first-request one-time
        # costs (plan compile, context build) inside its sample.
        measure(inline_payload, 1)
        measure(ref_payload, 1)
        inline_latencies, inline_count = measure(
            inline_payload, requests_per_mode
        )
        ref_latencies, ref_count = measure(ref_payload, requests_per_mode)
        assert inline_count == ref_count

        metrics = json_.loads(
            urllib.request.urlopen(f"{base}/metrics", timeout=60).read()
        )
    lingering = multiprocessing.active_children()

    def p50(latencies: list[float]) -> float:
        return latencies[len(latencies) // 2]

    inline_p50, ref_p50 = p50(inline_latencies), p50(ref_latencies)
    return {
        "query": query,
        "tuples": structure.total_tuples,
        "universe": len(structure.universe),
        "count": ref_count,
        "requests_per_mode": requests_per_mode,
        "inline_request_bytes": inline_bytes,
        "ref_request_bytes": ref_bytes,
        "register_seconds": register_seconds,
        "registered_resident_bytes": entry["resident_bytes"],
        "inline_p50_seconds": inline_p50,
        "inline_p99_seconds": inline_latencies[-1],
        "ref_p50_seconds": ref_p50,
        "ref_p99_seconds": ref_latencies[-1],
        "ref_speedup_p50": inline_p50 / ref_p50 if ref_p50 else None,
        "registry_hits": metrics["engine"]["registry_hits"],
        "lingering_children": len(lingering),
    }


def bench_tracing_overhead(quick: bool) -> dict:
    """Per-call cost of span tracing on the sharded counting path.

    Tracing is on by default, so its overhead is the one observability
    cost every request pays.  This runs the same repeated
    ``count_sharded`` workload twice -- once traced, once with the
    tracer disabled *before* the engine forks its pool (workers inherit
    the flag at fork, so flipping it after would only silence the
    parent) -- and compares per-call p50s.  The acceptance bar is
    under 5% overhead at p50.
    """
    from statistics import median

    from repro.obs.trace import get_tracer

    clusters, size, p = (8, 10, 0.3) if quick else (60, 16, 0.7)
    calls = 6 if quick else 20
    structure = random_cluster_graph(clusters, size, p, seed=7)
    query = path_query(2, quantify_interior=True)
    tracer = get_tracer()

    def measure() -> tuple[list[float], int]:
        engine = Engine()
        try:
            count = engine.count_sharded(
                query, structure, shard_count=clusters, parallel=True
            )  # warm the plan, contexts, and pool before timing
            latencies = []
            for _ in range(calls):
                before = time.perf_counter()
                again = engine.count_sharded(
                    query, structure, shard_count=clusters, parallel=True
                )
                latencies.append(time.perf_counter() - before)
                assert again == count
        finally:
            engine.close()
        return sorted(latencies), count

    was_enabled = tracer.enabled
    try:
        tracer.set_enabled(True)
        traced, traced_count = measure()
        tracer.set_enabled(False)
        untraced, untraced_count = measure()
    finally:
        tracer.set_enabled(None if was_enabled else False)
    assert traced_count == untraced_count
    traced_p50, untraced_p50 = median(traced), median(untraced)
    return {
        "query": "path2_pairs",
        "tuples": structure.total_tuples,
        "universe": len(structure.universe),
        "shards": clusters,
        "calls": calls,
        "count": traced_count,
        "traced_p50_seconds": traced_p50,
        "untraced_p50_seconds": untraced_p50,
        "overhead_pct": (
            (traced_p50 - untraced_p50) / untraced_p50 * 100
            if untraced_p50
            else None
        ),
    }


def _labeled_cluster_graph(clusters: int, cluster_size: int, p: float, seed: int):
    """A string-element clustered graph plus a small unary ``L`` relation.

    This is the live-update workload shape: the bulky edge relation
    ``E`` is effectively static while the small label relation ``L`` is
    the one the update stream touches.  Fine-grained invalidation is
    exactly what separates the paths here -- an ``L``-only delta leaves
    every memo whose read set is ``E`` alone (and every untouched
    shard's counts) warm, where re-registration rebuilds the world.
    """
    from repro.logic.signatures import RelationSymbol, Signature
    from repro.structures.structure import Structure

    raw = random_cluster_graph(clusters, cluster_size, p, seed=seed)
    names = {element: f"v{element}" for element in raw.universe}
    universe = [names[element] for element in raw.universe]
    labels = {(v,) for i, v in enumerate(sorted(universe)) if i % 3 == 0}
    return Structure(
        Signature(list(raw.signature) + [RelationSymbol("L", 1)]),
        universe,
        {
            "E": {tuple(names[v] for v in row) for row in raw.relations["E"]},
            "L": labels,
        },
    )


def bench_live_updates(quick: bool) -> dict:
    """Single-tuple deltas vs. full re-registration on a live entry.

    The serving shape live updates target: a large structure is
    registered and pinned (worker-resident shard contexts), a repeated
    query arrives continuously, and a small relation changes one tuple
    at a time.  The measured unit is one update followed by the query --
    via ``Engine.apply_delta`` (chained fingerprint, routed sub-deltas,
    migrated contexts and worker pins; only state whose read set the
    delta touched is dropped) vs. via ``register_structure`` with the
    rebuilt structure (full content hash, fresh shard plan, every
    worker context rebuilt by the pin broadcast, every memo cold).
    Both paths are charged for producing the new validated structure:
    the delta path builds it incrementally inside ``apply_delta``, so
    the re-registration path constructs its replacement ``Structure``
    from raw universe/relation inputs inside the timed loop.

    Scenarios cover 10^4 and 10^5 tuples (10^4 only under ``--quick``).
    Both paths must produce identical counts
    after every update, and the final count is checked against an
    engine that counts the rebuilt-from-scratch structure and never saw
    a delta.  The acceptance bar is >= 10x for the delta path at 10^5
    tuples.
    """
    from repro.structures.delta import StructureDelta
    from repro.structures.structure import Structure

    scenarios = (
        [("1e4", 60, 16, 0.7, 3)]
        if quick
        else [("1e4", 60, 16, 0.7, 3), ("1e5", 100, 40, 0.65, 3)]
    )
    query = "L(x) & exists z. (E(x, z) & E(z, y))"

    rows: list[dict] = []
    for label, clusters, size, p, updates in scenarios:
        base = _labeled_cluster_graph(clusters, size, p, seed=11)
        shards = max(2, clusters // 2)
        # Each update labels one more existing element: a genuine
        # single-tuple insert that changes the count (the new label's
        # 2-paths start counting), touches only the small relation, and
        # stays within the element's component (no re-shard).
        unlabeled = [
            v for i, v in enumerate(sorted(base.universe)) if i % 3 != 0
        ]
        deltas = [
            StructureDelta(inserts={"L": [(unlabeled[i],)]})
            for i in range(updates)
        ]
        rebuilt = [base]
        for delta in deltas:
            rebuilt.append(rebuilt[-1].apply_delta(delta))
        # Raw inputs for the re-registration path: it pays for building
        # the validated replacement Structure inside the timed loop,
        # mirroring the incremental build apply_delta is charged for.
        raw_inputs = [
            (
                structure.signature,
                sorted(structure.universe, key=repr),
                {name: set(ts) for name, ts in structure.relations.items()},
            )
            for structure in rebuilt[1:]
        ]

        def warmed_engine() -> Engine:
            # One worker, warmed until the pinned shard contexts and
            # their memos are resident, so each measured update starts
            # from the steady serving state.  A single worker sees
            # every shard each round, so residency converges quickly;
            # it also keeps warmth deterministic on small hosts, where
            # a second worker never converges (the warm one drains the
            # job queue first).
            engine = Engine(processes=1)
            engine.register_structure(
                "live", base, pin=True, shard_count=shards
            )
            for _ in range(3):
                engine.count_sharded(query, "live", parallel=True)
            return engine

        engine = warmed_engine()
        steady_seconds, _ = _time(
            lambda: engine.count_sharded(query, "live", parallel=True)
        )
        delta_counts = []
        before = time.perf_counter()
        for delta in deltas:
            engine.apply_delta("live", delta)
            delta_counts.append(
                engine.count_sharded(query, "live", parallel=True)
            )
        delta_seconds = (time.perf_counter() - before) / updates
        engine.close()

        engine = warmed_engine()
        rereg_counts = []
        before = time.perf_counter()
        for signature, universe, relations in raw_inputs:
            structure = Structure(signature, universe, relations)
            engine.register_structure(
                "live", structure, pin=True, shard_count=shards
            )
            rereg_counts.append(
                engine.count_sharded(query, "live", parallel=True)
            )
        rereg_seconds = (time.perf_counter() - before) / updates
        engine.close()

        assert delta_counts == rereg_counts, (label, delta_counts, rereg_counts)
        # From-scratch check: an engine that never saw a delta must
        # count the fully rebuilt structure identically.
        fresh = Engine(processes=1)
        scratch = fresh.count_sharded(
            query, rebuilt[-1], shard_count=shards, parallel=False
        )
        fresh.close()
        assert delta_counts[-1] == scratch, (label, delta_counts[-1], scratch)

        rows.append(
            {
                "scenario": label,
                "tuples": base.total_tuples,
                "universe": len(base.universe),
                "shard_count": shards,
                "updates": updates,
                "steady_count_seconds": steady_seconds,
                "delta_update_seconds": delta_seconds,
                "rereg_update_seconds": rereg_seconds,
                "speedup": (
                    rereg_seconds / delta_seconds if delta_seconds else None
                ),
                "counts": delta_counts,
                "final_count": scratch,
            }
        )

    return {
        "query": "labeled_path2_pairs",
        "scenarios": rows,
        "speedup_at_largest": rows[-1]["speedup"],
    }


def append_report(
    output: Path, key: str, report: dict, force: bool = False
) -> dict:
    """Append ``report`` under ``key`` in the keyed benchmark store.

    Earlier entries are preserved; a legacy flat report (pre-``runs``
    format) already in the file is migrated under its own key instead of
    being clobbered, and re-running an already-recorded key raises
    unless ``force`` says the overwrite is deliberate.
    """
    store: dict = {"benchmark": "engine", "runs": {}}
    if output.exists():
        try:
            existing = json.loads(output.read_text())
        except json.JSONDecodeError:
            # Don't silently destroy an unreadable store: park it next
            # to the output so earlier baselines stay recoverable.
            backup = output.with_suffix(output.suffix + ".corrupt")
            backup.write_text(output.read_text())
            print(f"warning: {output} is not valid JSON; preserved as {backup}")
            existing = {}
        if isinstance(existing, dict) and isinstance(existing.get("runs"), dict):
            store = existing
        elif isinstance(existing, dict) and existing:
            # The ":legacy" suffix keeps a migrated flat report from
            # colliding with (and being clobbered by) a same-version
            # keyed run.
            legacy_key = (
                f"{existing.get('version', 'unknown')}:"
                f"{'quick' if existing.get('quick') else 'full'}:legacy"
            )
            store["runs"][legacy_key] = existing
    if key in store["runs"] and not force:
        raise SystemExit(
            f"error: run key {key!r} already exists in {output}; "
            "a re-run would clobber the recorded baseline "
            "(pass --force to overwrite deliberately)"
        )
    store["runs"][key] = report
    return store


def bench_routing(quick: bool) -> dict:
    """The classification-driven routing economics on frontier pairs.

    Three claims, measured on the matched pairs of
    :func:`repro.workloads.frontier_query_pair` (a path and a clique
    over the same liberal variables -- verdicts FPT vs.
    p-#Clique-hard):

    * an armed ``budget`` policy costs almost nothing on the tractable
      side: warm-plan counting of the FPT query under
      ``{"mode": "budget"}`` vs. plain ``allow`` (target: <= 3% p50
      overhead -- the cooperative charges are the only difference);
    * rejecting the hard side is plan-lookup cheap: client-observed
      p99 of ``/count`` answering ``422`` for the clique query under
      ``policy: "reject"`` over live HTTP (target: < 50ms);
    * a budget abort lands near the requested budget: wall-clock of a
      ``budget`` abort on the hard query vs. its ``max_seconds``
      (target: within 2x).

    Every context is warmed with a *different* query before the timed
    call: repeated identical counts are context-memo hits that never
    reach the charged loops, which would measure the overhead of a
    dictionary lookup instead of the budget.
    """
    import json as json_
    import urllib.error
    import urllib.request

    from repro.serve import (
        BackgroundServer,
        CountingServer,
        CountingService,
        ServiceConfig,
    )
    from repro.workloads.generators import clique_query, frontier_query_pair

    tractable, hard = frontier_query_pair(4)
    structures = [
        random_graph(14 if quick else 26, 0.35, seed=100 + i)
        for i in range(8 if quick else 24)
    ]

    def measure_counts(policy) -> tuple[list[float], list[int]]:
        engine = Engine(policy=policy)
        # Warm the plan cache off the clock, on a structure that is
        # not part of the sample.
        engine.count(str(tractable), random_graph(8, 0.4, seed=99))
        latencies, counts = [], []
        for structure in structures:
            engine.count("E(x, y)", structure)  # context warm, memo cold
            seconds, value = _time(
                lambda s=structure: engine.count(str(tractable), s)
            )
            latencies.append(seconds)
            counts.append(value)
        latencies.sort()
        return latencies, counts

    armed_budget = {"mode": "budget", "max_steps": 10**12, "max_seconds": 600}
    allow_latencies, allow_counts = measure_counts("allow")
    budget_latencies, budget_counts = measure_counts(armed_budget)
    assert allow_counts == budget_counts
    allow_p50 = allow_latencies[len(allow_latencies) // 2]
    budget_p50 = budget_latencies[len(budget_latencies) // 2]
    overhead_pct = (
        (budget_p50 - allow_p50) / allow_p50 * 100 if allow_p50 else None
    )

    # -- hard-side rejection over live HTTP ----------------------------
    reject_requests = 10 if quick else 50
    reject_graph = random_graph(30, 0.4, seed=5)
    reject_payload = json_.dumps(
        {
            "query": str(hard),
            "structure": {
                "relations": {
                    "E": [list(row) for row in sorted(reject_graph.relations["E"])]
                }
            },
            "policy": "reject",
        }
    ).encode()
    config = ServiceConfig(
        max_in_flight=2, max_queue=4, request_timeout_seconds=60
    )
    server = CountingServer(
        service=CountingService(config=config, owns_engine=True), port=0
    )
    reject_latencies: list[float] = []
    verdicts = set()
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        def reject_once() -> float:
            request = urllib.request.Request(
                f"{base}/count",
                data=reject_payload,
                headers={"Content-Type": "application/json"},
            )
            before = time.perf_counter()
            try:
                with urllib.request.urlopen(request, timeout=60):
                    raise AssertionError("hard query was not rejected")
            except urllib.error.HTTPError as error:
                elapsed = time.perf_counter() - before
                assert error.code == 422, error.code
                verdicts.add(json_.load(error)["verdict"])
            return elapsed

        reject_once()  # warmup: pays the one-time compile + classify
        for _ in range(reject_requests):
            reject_latencies.append(reject_once())
    assert verdicts == {"SHARP_CLIQUE_HARD"}
    reject_latencies.sort()

    # -- budget abort vs. the requested budget -------------------------
    abort_budget_seconds = 0.2 if quick else 0.5
    abort_engine = Engine(
        policy={"mode": "budget", "max_seconds": abort_budget_seconds}
    )
    monster = clique_query(5)
    abort_graph = random_graph(60, 0.5, seed=11)
    abort_engine.compile(str(monster))  # classification off the clock
    before = time.perf_counter()
    try:
        abort_engine.count(str(monster), abort_graph)
        raise AssertionError("budget never tripped on the hard query")
    except BudgetExceeded:
        abort_seconds = time.perf_counter() - before
    abort_ratio = abort_seconds / abort_budget_seconds

    return {
        "structures": len(structures),
        "tractable_query": str(tractable),
        "hard_query_atoms": len(hard.atoms()),
        "allow_p50_seconds": allow_p50,
        "budget_p50_seconds": budget_p50,
        "budget_overhead_pct": overhead_pct,
        "reject_requests": reject_requests,
        "reject_p50_seconds": reject_latencies[len(reject_latencies) // 2],
        "reject_p99_seconds": reject_latencies[-1],
        "abort_budget_seconds": abort_budget_seconds,
        "abort_seconds": abort_seconds,
        "abort_ratio": abort_ratio,
    }


#: Every benchmark section, in report order.  ``--only`` picks a subset.
SECTIONS = {
    "scenarios": bench_scenarios,
    "families": bench_families,
    "repeated_query": bench_repeated_query,
    "sharded_counting": bench_sharded_counting,
    "semijoin_memo": bench_semijoin_memo,
    "serving": bench_serving,
    "registry_serving": bench_registry_serving,
    "tracing_overhead": bench_tracing_overhead,
    "live_updates": bench_live_updates,
    "routing": bench_routing,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / single repeats (CI smoke)"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="overwrite an already-recorded run key instead of failing",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="SECTION",
        help="run only this section (repeatable); the run is recorded "
        "under a distinct key so it never clobbers a full run",
    )
    args = parser.parse_args(argv)

    selected = list(args.only) if args.only else list(SECTIONS)
    unknown = [name for name in selected if name not in SECTIONS]
    if unknown:
        parser.error(
            f"unknown section(s) {unknown}; choose from {sorted(SECTIONS)}"
        )

    output = Path(args.output)
    if not output.parent.is_dir():
        parser.error(f"output directory {output.parent} does not exist")

    # Fail the clobber check *before* spending minutes benchmarking;
    # append_report re-checks at write time regardless.
    run_key = f"{__version__}:{'quick' if args.quick else 'full'}"
    if args.only:
        run_key += ":only-" + "+".join(
            name for name in SECTIONS if name in selected
        )
    if output.exists() and not args.force:
        try:
            existing = json.loads(output.read_text())
        except json.JSONDecodeError:
            existing = {}
        if isinstance(existing, dict) and run_key in (
            existing.get("runs") or {}
        ):
            parser.error(
                f"run key {run_key!r} already exists in {output}; "
                "pass --force to overwrite it"
            )

    started = time.perf_counter()
    report = {
        "benchmark": "engine",
        "version": __version__,
        "python": platform.python_version(),
        "quick": args.quick,
    }
    for name in SECTIONS:
        if name in selected:
            report[name] = SECTIONS[name](args.quick)

    summary: dict = {"total_seconds": time.perf_counter() - started}
    if "repeated_query" in report:
        summary["repeated_query_speedup"] = report["repeated_query"]["speedup"]
    if "scenarios" in report:
        summary["scenario_median_speedup"] = sorted(
            row["speedup"] for row in report["scenarios"]
        )[len(report["scenarios"]) // 2]
    if "sharded_counting" in report:
        summary["sharded_speedup"] = report["sharded_counting"][
            "sharded_speedup"
        ]
    if "semijoin_memo" in report:
        summary["semijoin_memo_speedup"] = report["semijoin_memo"]["speedup"]
    if "serving" in report:
        summary["serving_p99_seconds"] = report["serving"][
            "latency_p99_seconds"
        ]
        summary["serving_throughput_rps"] = report["serving"][
            "throughput_rps"
        ]
    if "registry_serving" in report:
        summary["registry_serving_speedup_p50"] = report["registry_serving"][
            "ref_speedup_p50"
        ]
    if "tracing_overhead" in report:
        summary["tracing_overhead_pct"] = report["tracing_overhead"][
            "overhead_pct"
        ]
    if "live_updates" in report:
        summary["live_updates_speedup"] = report["live_updates"][
            "speedup_at_largest"
        ]
    if "routing" in report:
        summary["routing_budget_overhead_pct"] = report["routing"][
            "budget_overhead_pct"
        ]
        summary["routing_reject_p99_seconds"] = report["routing"][
            "reject_p99_seconds"
        ]
        summary["routing_abort_ratio"] = report["routing"]["abort_ratio"]
    report["summary"] = summary

    store = append_report(output, run_key, report, force=args.force)
    output.write_text(json.dumps(store, indent=2) + "\n")
    print(f"appended run {run_key!r} to {output} ({len(store['runs'])} runs kept)")

    def _ms(seconds: float | None) -> str:
        # A run where nothing completed has no percentiles; the print
        # must still show the failed/rejected counts that explain why.
        return "n/a" if seconds is None else f"{seconds * 1000:.1f}ms"

    if "repeated_query" in report:
        repeated = report["repeated_query"]
        print(
            f"repeated-query: cold {repeated['cold_seconds']:.4f}s, "
            f"warm {repeated['warm_seconds']:.4f}s, "
            f"speedup {repeated['speedup']:.1f}x"
        )
    if "sharded_counting" in report:
        sharded = report["sharded_counting"]
        print(
            f"sharded 10^4-tuple counting ({sharded['tuples']} tuples): "
            f"whole {sharded['whole_single_process_seconds']:.4f}s, "
            f"sharded-parallel {sharded['sharded_parallel_seconds']:.4f}s, "
            f"speedup {sharded['sharded_speedup']:.1f}x"
        )
    if "semijoin_memo" in report:
        semijoin = report["semijoin_memo"]
        print(
            f"semijoin+memo vs per-term backtracking: "
            f"{semijoin['semijoin_memo_seconds']:.4f}s vs "
            f"{semijoin['backtracking_seconds']:.4f}s, "
            f"speedup {semijoin['speedup']:.1f}x"
        )
    if "serving" in report:
        serving = report["serving"]
        rps = serving["throughput_rps"]
        print(
            f"serving ({serving['clients']} clients x "
            f"{serving['requests_per_client']} requests over HTTP): "
            f"{serving['completed']} completed"
            + (f" at {rps:.1f} req/s" if rps is not None else "")
            + f" ({serving['failed']} failed), "
            f"p50 {_ms(serving['latency_p50_seconds'])}, "
            f"p99 {_ms(serving['latency_p99_seconds'])}; "
            f"burst of {serving['burst_size']}: "
            f"{serving['burst_rejected_429']} rejected (429); "
            f"{serving['lingering_children']} children after shutdown"
        )
    if "registry_serving" in report:
        registry_serving = report["registry_serving"]
        print(
            f"registry serving ({registry_serving['tuples']} tuples, "
            f"{registry_serving['requests_per_mode']} requests/mode): "
            f"inline p50 {_ms(registry_serving['inline_p50_seconds'])} "
            f"({registry_serving['inline_request_bytes']} B/request) vs "
            f"ref p50 {_ms(registry_serving['ref_p50_seconds'])} "
            f"({registry_serving['ref_request_bytes']} B/request), "
            f"speedup {registry_serving['ref_speedup_p50']:.1f}x"
        )
    if "tracing_overhead" in report:
        tracing = report["tracing_overhead"]
        print(
            f"tracing overhead ({tracing['tuples']} tuples, "
            f"{tracing['calls']} sharded calls): "
            f"traced p50 {_ms(tracing['traced_p50_seconds'])} vs "
            f"untraced p50 {_ms(tracing['untraced_p50_seconds'])} "
            f"({tracing['overhead_pct']:+.1f}%)"
        )
    if "live_updates" in report:
        live = report["live_updates"]
        for row in live["scenarios"]:
            print(
                f"live updates ({row['scenario']}: {row['tuples']} tuples, "
                f"{row['updates']} updates): delta vs re-registration "
                f"{row['speedup']:.1f}x"
            )
    if "routing" in report:
        routing = report["routing"]
        overhead = routing["budget_overhead_pct"]
        print(
            f"routing ({routing['structures']} structures, "
            f"{routing['reject_requests']} reject requests): "
            f"FPT allow p50 {_ms(routing['allow_p50_seconds'])} vs "
            f"budget p50 {_ms(routing['budget_p50_seconds'])}"
            + (f" ({overhead:+.1f}%)" if overhead is not None else "")
            + f"; hard reject p99 {_ms(routing['reject_p99_seconds'])}; "
            f"budget abort {routing['abort_seconds']:.3f}s vs "
            f"{routing['abort_budget_seconds']:.1f}s budget "
            f"({routing['abort_ratio']:.2f}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
