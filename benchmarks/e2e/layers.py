"""The traced run: per-layer numbers for one workload.

End-to-end numbers are measured with the harness's spans off.  This
separate run measures the same closed loop twice -- spans off, then on
-- and then replays one representative request stage by stage through
the layers' public functions, each call wrapped in an in-memory span
(name, start, end, parent, request id; written out at exit).  Counters
are read from ``Engine.stats()``, ``/metrics`` and
``coordinator.stats_snapshot()`` at the same boundaries, and the
engine's own span ring is harvested for a side-by-side baseline.

A layer's number is its self time: the span's duration minus what its
child spans cover.  ``compile_plan`` and ``ExecutionContext.apply_delta``
run a child stage internally (``profile_plan``, the encoding's delta)
where the harness cannot put a span, so the same stage measured
standalone on the same objects is subtracted.  Two numbers are walls
that contain stages listed beside them, because subtracting stages
measured on *other* objects is noisier than the remainder:
``engine.registry.register_ms`` and ``engine.api.apply_delta_ms``.
"""

from __future__ import annotations

import json
import pickle
import random
import statistics

import inputs
import oracle
from measure import Recorder, Spans, median_ms, now
from workloads import Cold, Live, WarmHttp

#: The engine's own span names harvested for the cross-check.
ENGINE_SPANS = (
    "plan.compile", "context.build", "context.encode", "context.semijoin",
    "shard.fanout", "combine", "admission.queue",
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Phase A/B: the loop with spans off, then on
# ----------------------------------------------------------------------
def trace_overhead(untraced: list[float], traced: list[float]) -> tuple[float, float]:
    """``(overhead share, noise share)`` of the count-op median.

    The noise is the untraced phase's own spread: the larger relative
    distance between the medians of two halves of its samples, split
    even/odd (jitter) and first/second (drift).  The caller reports the
    overhead as a number only when it exceeds it.
    """
    if len(untraced) < 4 or not traced:
        return 0.0, 1.0
    base = statistics.median(untraced)
    middle = len(untraced) // 2
    noise = max(
        abs(statistics.median(a) - statistics.median(b))
        for a, b in (
            (untraced[0::2], untraced[1::2]),
            (untraced[:middle], untraced[middle:]),
        )
    ) / base
    return (statistics.median(traced) - base) / base, noise


def harvest_engine_spans() -> dict[str, float]:
    """Per-name mean milliseconds per retained trace, from the engine's
    existing span ring (``repro.obs.trace``), indexed names folded
    (``shard.execute[3]`` -> ``shard.execute``)."""
    from repro.obs.trace import get_tracer

    traces = get_tracer().finished_traces()
    totals: dict[str, float] = {}
    for trace in traces:
        for span in trace.spans():
            if span.duration_seconds is not None:
                name = span.name.split("[")[0]
                totals[name] = totals.get(name, 0.0) + span.duration_seconds
    return {name: _ms(total) / len(traces) for name, total in totals.items()}


# ----------------------------------------------------------------------
# The staged replay
# ----------------------------------------------------------------------
def _shard_units(plan):
    """``[(coefficient, liberal pp-plans, sentence components)]`` of a
    compiled plan -- the recombination recipe of ``execute_sharded``,
    rebuilt from the public plan fields."""
    from repro.engine.plan import component_pp_plans

    if plan.kind == "pp-fpt":
        return [(1, *component_pp_plans(plan.pp))]
    if plan.sentence_disjuncts:
        raise ValueError("replay queries have no sentence disjuncts")
    return [
        (term.coefficient, *component_pp_plans(term.plan)) for term in plan.terms
    ]


def replay_query_side(spans: Spans, texts) -> dict[str, float]:
    """``parse_query`` / ``compile_plan`` / ``profile_plan`` per text."""
    from repro import parse_query
    from repro.engine.plan import compile_plan, profile_plan

    parse, compile_, classify = [], [], []
    for text in texts:
        with spans.span("logic.parse", request="replay") as record:
            query = parse_query(text)
        parse.append(record["end"] - record["start"])
        with spans.span("engine.plan.compile", request="replay") as record:
            plan = compile_plan(query)
        compile_.append(record["end"] - record["start"])
        with spans.span("engine.plan.classify", request="replay") as record:
            profile_plan(plan)
        classify.append(record["end"] - record["start"])
    return {
        "logic.parse_ms": median_ms(parse),
        # compile_plan classifies internally; subtract that child.
        "engine.plan.compile_ms": max(
            0.0, median_ms(compile_) - median_ms(classify)
        ),
        "engine.plan.classify_ms": median_ms(classify),
    }


#: Replay stages whose metric is the summed self time of their spans.
STAGED = (
    "structures.structure.build", "structures.structure.fingerprint",
    "structures.sharding.partition", "engine.context.build",
    "structures.encoding.encode", "engine.context.eliminate", "algorithms.dp",
    "engine.executor.combine", "engine.pool.pickle",
)


def _build_context(spans: Spans, structure):
    """``ExecutionContext(...).materialize()`` with the ``.encoded``
    property as a child span, so index build and encoding each get
    their self time."""
    from repro import ExecutionContext

    with spans.span("engine.context.build", request="replay"):
        context = ExecutionContext(structure)
        if context.encoding_active:
            with spans.span("structures.encoding.encode"):
                context.encoded  # noqa: B018 - the property interns
        return context.materialize()


def replay_data_side(
    spans: Spans, graph, size, query_keys, expected, with_delta: bool
) -> dict[str, float]:
    """One cold request, stage by stage, on fresh objects.

    Returns the layer metrics plus ``layer_coverage``: the staged sum
    over the wall time of a sequential cold ``count_sharded`` of the
    first query on other fresh objects.
    """
    from repro import Engine, shard_structure
    from repro.engine.plan import compile_plan
    from repro.engine.pool import WorkerPool, shard_task
    from repro.structures.sharding import combine_shard_counts

    shard_count = size["shard_count"]

    def span(name: str):
        return spans.span(name, request="replay")

    with span("structures.structure.build"):
        structure = graph.structure()
    with span("structures.structure.fingerprint"):
        structure.fingerprint()
    with span("structures.sharding.partition"):
        sharded = shard_structure(structure, shard_count)
    whole = _build_context(spans, structure)
    whole_only = spans.self_seconds()  # before any shard context exists

    plans, compile_walls = {}, {}
    for key in query_keys:
        started = now()
        plans[key] = compile_plan(inputs.catalogue_query(key))
        compile_walls[key] = now() - started
    recipes = {key: _shard_units(plan) for key, plan in plans.items()}
    shards = sharded.non_empty_shards()
    contexts = [_build_context(spans, shard) for shard in shards]
    evaluations = 0
    query_walls = {}
    for key in query_keys:
        with span("replay.query") as query_span:
            total = 0
            for coefficient, liberal, sentences in recipes[key]:
                rows = []
                for unit in liberal:
                    row = []
                    for context in contexts:
                        with span("engine.context.eliminate"):
                            for component in unit.components:
                                if component.boundary_order:
                                    context.boundary_relation(component)
                                else:
                                    context.component_satisfiable(component)
                        with span("algorithms.dp"):
                            row.append(context.count_plan(unit))
                    rows.append(row)
                    evaluations += len(contexts)
                sat_rows = [
                    [context.sentence_holds(sentence) for context in contexts]
                    for sentence in sentences
                ]
                with span("engine.executor.combine"):
                    total += coefficient * combine_shard_counts(rows, sat_rows)
        query_walls[key] = query_span["end"] - query_span["start"]
        if total != expected[key]:
            raise AssertionError(
                f"staged replay of {key}: got {total}, oracle {expected[key]}"
            )
    eliminations = [context.stats.snapshot() for context in contexts]

    # What the fork pool ships per request: one (units, shard) job per shard.
    shipped = [unit for recipe in recipes.values() for _, lib, _ in recipe for unit in lib]
    pickle_bytes = 0
    with span("engine.pool.pickle"):
        for shard in shards:
            blob = pickle.dumps((shipped, shard))
            pickle.loads(blob)
            pickle_bytes += len(blob)

    pool = WorkerPool()
    try:
        start_seconds = _timed(lambda: pool.map(shard_task, []))
    finally:
        pool.close()

    # The registration wall on fresh objects, warm dispatch, the delta path.
    representative = inputs.catalogue_query(query_keys[0])
    delta_metrics = {}
    with Engine() as engine:
        fresh = graph.structure()
        register_wall = _timed(
            lambda: engine.register_structure(
                "replay", fresh, pin=True, shard_count=shard_count
            )
        )
        for _ in range(6):
            engine.count_sharded(representative, "replay", parallel=True)
        warm = [
            _timed(lambda: engine.count_sharded(representative, "replay", parallel=True))
            for _ in range(10)
        ]
        if with_delta:
            delta_metrics = replay_delta(spans, graph, whole, engine)

    cold_walls = []
    for _ in range(3):
        with Engine() as engine:
            fresh = graph.structure()
            cold_walls.append(
                _timed(
                    lambda: engine.count_sharded(
                        representative, fresh, shard_count=shard_count, parallel=False
                    )
                )
            )
    own = spans.self_seconds()
    shard_builds = sum(
        own.get(name, 0.0) - whole_only.get(name, 0.0)
        for name in ("engine.context.build", "structures.encoding.encode")
    )
    staged_sum = (
        compile_walls[query_keys[0]]
        + own["structures.sharding.partition"]
        + shard_builds
        + query_walls[query_keys[0]]
    )
    return {
        **{f"{name}_ms": _ms(own.get(name, 0.0)) for name in STAGED},
        "engine.registry.register_ms": _ms(register_wall),
        "structures.encoding.resident_bytes": float(
            whole.encoded_nbytes + sum(c.encoded_nbytes for c in contexts)
        ),
        "engine.context.semijoin_ratio": _ratio(
            sum(c.semijoin_eliminations for c in eliminations),
            sum(c.backtracking_eliminations for c in eliminations),
        ),
        "engine.executor.units": float(evaluations),
        "engine.pool.start_ms": _ms(start_seconds),
        "engine.pool.pickle_bytes": float(pickle_bytes),
        "engine.pool.dispatch_ms": median_ms(warm) / max(1, len(shards)),
        "layer_coverage": staged_sum / statistics.median(cold_walls),
        **delta_metrics,
    }


def _timed(fn) -> float:
    started = now()
    fn()
    return now() - started


def replay_delta(spans: Spans, graph, context, engine) -> dict[str, float]:
    """The incremental path on one inserted edge: ``Structure`` /
    ``EncodedStructure`` / ``ExecutionContext.apply_delta`` standalone,
    then ``Engine.apply_delta`` on the warmed replay engine."""
    from repro import StructureDelta

    nodes = graph.nodes_of(0)
    absent = [
        (a, b) for a in nodes for b in nodes
        if a != b and (a, b) not in graph.edges_by_cluster[0]
    ]
    # Two deltas: the first pays the incremental path's first-use costs
    # and is discarded.
    for edge in absent[:2]:
        delta = StructureDelta(inserts={"E": [edge]})
        with spans.span("structures.delta.structure", request="replay") as record:
            updated = context.structure.apply_delta(delta)
        structure_s = record["end"] - record["start"]
        with spans.span("structures.delta.context", request="replay") as record:
            migrated = context.apply_delta(delta, updated)
        context_s = record["end"] - record["start"]
        encoding_s = 0.0
        if context.encoding_active:
            with spans.span("structures.delta.encoding", request="replay") as record:
                context.encoded.apply_delta(delta)
            encoding_s = record["end"] - record["start"]
        with spans.span("engine.api.apply_delta", request="replay") as record:
            engine.apply_delta("replay", delta)
        engine_s = record["end"] - record["start"]
        context = migrated
    return {
        "structures.delta.structure_ms": _ms(structure_s),
        "structures.delta.encoding_ms": _ms(encoding_s),
        # ExecutionContext.apply_delta migrates the encoding internally.
        "structures.delta.context_ms": _ms(max(0.0, context_s - encoding_s)),
        "engine.api.apply_delta_ms": _ms(engine_s),
    }


def replay_cluster(spans: Spans, workload: Cold, size, query_keys) -> dict[str, float]:
    """Placement and codec cost on one fresh cluster."""
    from repro import shard_structure
    from repro.cluster.proto import encode_frame, pickle_body, unpickle_body
    from repro.engine.plan import compile_plan

    shards = shard_structure(
        workload.graph.structure(), size["shard_count"]
    ).non_empty_shards()
    for shard in shards:
        shard.fingerprint()
    units = [
        unit
        for key in query_keys
        for _, liberal, _ in _shard_units(compile_plan(inputs.catalogue_query(key)))
        for unit in liberal
    ]
    with workload.fresh_engine() as (engine, _):
        with spans.span("cluster.place", request="replay") as record:
            engine.cluster.place_structures(shards)
        place_s = record["end"] - record["start"]
    frame_bytes = 0
    with spans.span("cluster.codec", request="replay") as record:
        half = len(shards) // 2
        for placed in (shards[:half], shards[half:]):  # one place frame per worker
            body = pickle_body(tuple(placed))
            frame_bytes += len(encode_frame({"type": "place"}, body))
            unpickle_body(body)
        for index, shard in enumerate(shards):  # one execute frame per shard
            body = pickle_body((units, shard.fingerprint(), None, None))
            frame_bytes += len(
                encode_frame({"type": "execute", "job_id": f"j{index}"}, body)
            )
            unpickle_body(body)
    return {
        "cluster.place_ms": _ms(place_s),
        "cluster.codec_ms": _ms(record["end"] - record["start"]),
        "cluster.frame_bytes": float(frame_bytes),
    }


def replay_serve(workload: WarmHttp) -> dict[str, float]:
    """The HTTP floor and the per-request JSON cost."""
    floor = [_timed(lambda: workload.get("/healthz")) for _ in range(50)]
    payload = workload.hot_payload(inputs.HOT_SET[0])
    codec = []
    for _ in range(200):
        started = now()
        json.loads(json.dumps(payload))
        json.loads(json.dumps({"count": 123456}))
        codec.append(now() - started)
    return {
        "serve.http_floor_ms": median_ms(floor),
        "serve.json_ms": median_ms(codec),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced_run(workload, env, recorder: Recorder, seconds: float, spans: Spans, names):
    """Both loop phases, the counters, the replay.

    Returns ``(metrics, report)``: every per-layer metric in ``names``
    (0 for layers the workload does not exercise) and the extras the
    human-readable output prints beside them."""
    from repro.obs.trace import get_tracer

    metrics = dict.fromkeys(names, 0.0)
    phase = seconds * 0.35

    workload.timed(recorder, phase)
    untraced = list(recorder.latencies["count"])
    get_tracer().clear()
    env.spans = spans
    try:
        workload.timed(recorder, phase)
    finally:
        env.spans = None
    traced = recorder.latencies["count"][len(untraced):]
    overhead, noise = trace_overhead(untraced, traced)
    metrics["obs.trace_overhead_share"] = overhead if overhead > noise else 0.0
    engine_spans = harvest_engine_spans()
    for name in ENGINE_SPANS:
        metrics[f"span.{name}_ms"] = engine_spans.get(name, 0.0)
    metrics["serve.queue_wait_ms"] = engine_spans.get("admission.queue", 0.0)

    counters = workload.counters()
    engine = counters["engine"]
    metrics["engine.cache.plan_hit_ratio"] = _ratio(engine["plan_hits"], engine["plan_misses"])
    metrics["engine.pool.worker_context_hit_ratio"] = _ratio(
        engine["worker_context_hits"], engine["worker_context_misses"]
    )
    metrics["engine.context.memo_hit_ratio"] = _ratio(
        engine["boundary_memo_hits"], engine["boundary_memo_misses"]
    )
    metrics["engine.context.memo_evictions"] = float(engine["memo_evictions"])
    cluster = counters.get("cluster")
    if cluster:
        metrics["cluster.jobs_reassigned"] = float(cluster["reassignments"])
        metrics["cluster.jobs_failed"] = float(cluster["jobs_failed"])
        metrics["cluster.worker_context_hit_ratio"] = _ratio(
            cluster["worker_context_hits"], cluster["worker_context_misses"]
        )
    metrics["serve.rejected_429"] = float(counters.get("rejected_429", 0))

    if isinstance(workload, WarmHttp):
        adhoc = inputs.AdHocQueries(random.Random(f"replay-{env.seed}"))
        texts = [adhoc.next()[0] for _ in range(12)]
        query_keys = inputs.HOT_SET[:3]
        metrics.update(replay_serve(workload))
    else:
        query_keys = workload.queries
        texts = [inputs.catalogue_text(key) for key in query_keys]
    metrics.update(replay_query_side(spans, texts))
    reference = oracle.ClusterOracle(workload.graph, query_keys)
    expected = {key: reference.total(key) for key in query_keys}
    metrics.update(
        replay_data_side(
            spans, workload.graph, env.size, query_keys, expected,
            # Only the live workload crosses the incremental path.
            with_delta=isinstance(workload, Live),
        )
    )
    if isinstance(workload, Cold) and workload.cluster_workers:
        metrics["cluster.spawn_ms"] = median_ms(workload.spawn_seconds)
        metrics.update(replay_cluster(spans, workload, env.size, query_keys))

    return metrics, {"overhead": overhead, "noise": noise, "engine_spans": engine_spans}
