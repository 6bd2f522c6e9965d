"""Prometheus text exposition (format 0.0.4) for the metrics payload.

:func:`render_prometheus` turns the JSON metrics dict produced by
:meth:`repro.serve.service.CountingService.metrics` into the Prometheus
text format: ``# HELP`` / ``# TYPE`` headers, counter and gauge
samples, and the per-endpoint latency histograms as cumulative
``_bucket{le=...}`` series closed by ``le="+Inf"`` plus ``_sum`` /
``_count``.  The HTTP layer serves it from ``/metrics`` under content
negotiation (``Accept: text/plain`` or ``?format=prometheus``); the
JSON payload stays the default.

Everything is derived from the metrics dict -- rendering never touches
live engine state, so a rendered page is exactly as coherent as the
snapshot it came from.  Every family is emitted on every scrape (zero
samples included), keeping the exposed family set deterministic; the
docs-freshness check relies on that to diff ``docs/observability.md``
against a live render.

:func:`parse_exposition` / :func:`validate_exposition` implement the
reverse direction for tests and the CI scrape check: a line-by-line
parser and a validator asserting the invariants scrapers rely on
(headers present, buckets cumulative and capped by ``+Inf`` == count,
label values escaped).
"""

from __future__ import annotations

import math
import re
from typing import Mapping

#: The content type a compliant scraper expects for text format 0.0.4.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: EngineStats counters exposed as ``repro_engine_<name>_total``.
ENGINE_COUNTERS = (
    "count_calls",
    "batch_calls",
    "sharded_calls",
    "plan_hits",
    "plan_misses",
    "context_hits",
    "context_misses",
    "index_builds",
    "boundary_memo_hits",
    "boundary_memo_misses",
    "semijoin_eliminations",
    "backtracking_eliminations",
    "worker_context_hits",
    "worker_context_misses",
    "registry_hits",
    "registry_misses",
    "registry_registrations",
    "registry_evictions",
    "delta_applies",
    "memo_evictions",
    "context_invalidations",
    "classifications",
    "policy_rejections",
    "budget_aborts",
)

#: Cluster-coordinator counters exposed as
#: ``repro_cluster_<name>_total`` (all zero when no cluster is
#: attached, keeping the family set deterministic).
_CLUSTER_COUNTERS = (
    "registrations",
    "registrations_refused",
    "heartbeats",
    "heartbeat_timeouts",
    "worker_failures",
    "reassignments",
    "jobs_dispatched",
    "jobs_completed",
    "jobs_failed",
)

#: The trichotomy verdicts always present in the labeled verdict
#: family, so the exposed series set stays deterministic even before
#: the first classification.
_VERDICT_CASES = ("FPT", "CLIQUE_EQUIVALENT", "SHARP_CLIQUE_HARD")

#: Request outcome counters inside each endpoint block, with the label
#: value each is exposed under.
_OUTCOMES = (
    ("completed", "completed"),
    ("rejected", "rejected"),
    ("timeouts", "timeout"),
    ("errors", "error"),
)

_GAUGES = (
    # (family, help, block, key)
    ("repro_service_uptime_seconds", "Seconds since the service started.",
     "service", "uptime_seconds"),
    ("repro_service_closed", "1 when the service no longer admits requests.",
     "service", "closed"),
    ("repro_service_max_in_flight", "Concurrent-execution budget.",
     "service", "max_in_flight"),
    ("repro_service_max_queue", "Admitted-but-waiting budget.",
     "service", "max_queue"),
    ("repro_service_pending_requests", "Admitted requests (queued + executing).",
     "service", "pending"),
    ("repro_service_executing_requests", "Requests currently executing.",
     "service", "executing"),
    ("repro_service_abandoned_requests",
     "Timed-out requests whose threads still hold a slot.",
     "service", "abandoned"),
    ("repro_registry_entries", "Resident named structures.",
     "registry", "entries"),
    ("repro_registry_max_entries", "Registry entry capacity.",
     "registry", "max_entries"),
    ("repro_registry_resident_bytes",
     "Approximate bytes of all resident structures.",
     "registry", "resident_bytes"),
    ("repro_registry_max_bytes", "Registry byte capacity.",
     "registry", "max_bytes"),
    ("repro_registry_pinned_entries", "Resident entries exempt from eviction.",
     "registry", "pinned_entries"),
    ("repro_engine_encoded_resident_bytes",
     "Approximate bytes of integer-encoded structures resident in the "
     "engine's context store.",
     "engine", "encoded_resident_bytes"),
    ("repro_pool_processes", "Configured worker-pool size.",
     "pool", "processes"),
    ("repro_pool_started", "1 when the worker pool has live processes.",
     "pool", "started"),
    ("repro_pool_pinned_structures",
     "Structure fingerprints placed in the engine's store, which every "
     "pool worker forks.",
     "pool", "pinned_structures"),
    ("repro_tracing_enabled", "1 when span tracing is on.",
     "obs", "tracing_enabled"),
    ("repro_traces_retained", "Finished traces in the debug ring buffer.",
     "obs", "traces_retained"),
    ("repro_trace_capacity", "Capacity of the trace ring buffer.",
     "obs", "trace_capacity"),
    ("repro_cluster_attached", "1 when an execution cluster is attached.",
     "cluster", "attached"),
    ("repro_cluster_workers", "Live registered cluster workers.",
     "cluster", "workers"),
    ("repro_cluster_capacity_slots",
     "Total concurrent-job capacity across live workers.",
     "cluster", "capacity_slots"),
    ("repro_cluster_in_flight_jobs",
     "Shard units currently executing on cluster workers.",
     "cluster", "in_flight"),
    ("repro_cluster_pending_jobs",
     "Shard units waiting for a free worker slot.",
     "cluster", "pending_jobs"),
    ("repro_cluster_placed_fingerprints",
     "Shard fingerprints resident somewhere in the cluster.",
     "cluster", "placements"),
    ("repro_cluster_replication",
     "Configured placement replication factor.",
     "cluster", "replication"),
)


def escape_label_value(value) -> str:
    """Escape one label value per the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value) -> str:
    if value is None:
        return "0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _sample(name: str, labels: Mapping | None, value) -> str:
    if labels:
        inner = ",".join(
            f'{key}="{escape_label_value(val)}"'
            for key, val in labels.items()
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Family:
    """One metric family: header lines plus its samples, in order."""

    __slots__ = ("name", "kind", "help", "lines")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.lines: list[str] = []

    def add(self, value, labels: Mapping | None = None, suffix: str = "") -> None:
        self.lines.append(_sample(self.name + suffix, labels, value))

    def render(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
            *self.lines,
        ]


def _histogram(
    family: _Family, labels: dict, latency: Mapping
) -> None:
    """Append one endpoint's cumulative histogram series to ``family``."""
    cumulative = 0
    for bucket in latency.get("buckets", ()):
        if "cumulative" in bucket:
            cumulative = bucket["cumulative"]
        else:
            cumulative += bucket.get("count", 0)
        bound = bucket.get("le")
        le = "+Inf" if bound is None else _format_value(float(bound))
        family.add(cumulative, {**labels, "le": le}, suffix="_bucket")
    family.add(latency.get("sum_seconds", 0.0), labels, suffix="_sum")
    family.add(latency.get("count", 0), labels, suffix="_count")


def render_prometheus(metrics: Mapping) -> str:
    """The metrics dict as Prometheus text format 0.0.4."""
    service = metrics.get("service", {})
    engine = metrics.get("engine", {})
    families: list[_Family] = []

    requests = _Family(
        "repro_requests_total", "counter",
        "Requests received, per endpoint (admitted or not).",
    )
    outcomes = _Family(
        "repro_request_outcomes_total", "counter",
        "Finished requests by outcome (completed, rejected, timeout, error).",
    )
    latency = _Family(
        "repro_request_latency_seconds", "histogram",
        "Completed-request latency (queueing + execution), per endpoint.",
    )
    for endpoint, counters in sorted(service.get("endpoints", {}).items()):
        labels = {"endpoint": endpoint}
        requests.add(counters.get("requests", 0), labels)
        for key, outcome in _OUTCOMES:
            outcomes.add(
                counters.get(key, 0), {**labels, "outcome": outcome}
            )
        _histogram(latency, labels, counters.get("latency", {}))
    families += [requests, outcomes, latency]

    for counter in ENGINE_COUNTERS:
        family = _Family(
            f"repro_engine_{counter}_total", "counter",
            f"Engine counter `{counter}`; see docs/operations.md.",
        )
        family.add(engine.get(counter, 0))
        families.append(family)
    for phase in ("compile", "execute"):
        family = _Family(
            f"repro_engine_{phase}_seconds_total", "counter",
            f"Total seconds the engine spent in its {phase} phase.",
        )
        family.add(engine.get(f"{phase}_seconds", 0.0))
        families.append(family)
    verdicts = _Family(
        "repro_plan_verdicts_total", "counter",
        "Plans classified at compile time, by trichotomy verdict.",
    )
    observed = engine.get("verdicts", {})
    for case in sorted(set(_VERDICT_CASES) | set(observed)):
        verdicts.add(observed.get(case, 0), {"verdict": case})
    families.append(verdicts)

    cluster = metrics.get("cluster", {})
    for counter in _CLUSTER_COUNTERS:
        family = _Family(
            f"repro_cluster_{counter}_total", "counter",
            f"Cluster coordinator counter `{counter}`; see docs/cluster.md.",
        )
        family.add(cluster.get(counter, 0))
        families.append(family)

    for name, help_text, block, key in _GAUGES:
        family = _Family(name, "gauge", help_text)
        family.add(metrics.get(block, {}).get(key, 0))
        families.append(family)

    lines: list[str] = []
    for family in families:
        lines.extend(family.render())
    return "\n".join(lines) + "\n"


def family_names() -> set[str]:
    """Every family name a render emits (the documented metric set)."""
    names = {
        "repro_requests_total",
        "repro_request_outcomes_total",
        "repro_request_latency_seconds",
        "repro_plan_verdicts_total",
    }
    names.update(f"repro_engine_{c}_total" for c in ENGINE_COUNTERS)
    names.update(f"repro_engine_{p}_seconds_total" for p in ("compile", "execute"))
    names.update(f"repro_cluster_{c}_total" for c in _CLUSTER_COUNTERS)
    names.update(entry[0] for entry in _GAUGES)
    return names


# ----------------------------------------------------------------------
# Parsing / validation (tests and the CI scrape check)
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_exposition(text: str) -> dict:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(sample_name, labels_dict, value)``;
    histogram ``_bucket`` / ``_sum`` / ``_count`` samples land under
    their family name.  Raises ``ValueError`` on a malformed line.
    """
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        return families.setdefault(
            base, {"type": None, "help": None, "samples": []}
        )

    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {number}: malformed HELP: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {number}: malformed TYPE: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample: {line!r}")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL.finditer(raw_labels):
                labels[pair.group(1)] = _unescape(pair.group(2))
                consumed = pair.end()
            remainder = raw_labels[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(
                    f"line {number}: malformed labels: {raw_labels!r}"
                )
        family(match.group("name"))["samples"].append(
            (match.group("name"), labels, _parse_value(match.group("value")))
        )
    return families


def validate_exposition(text: str) -> list[str]:
    """The scraper-invariant violations in ``text`` (empty when valid).

    Checks, per family: ``# TYPE`` and ``# HELP`` present for every
    sampled family; histogram buckets cumulative (non-decreasing in
    ``le`` order), closed by ``le="+Inf"`` whose value equals the
    matching ``_count``; and a ``_sum`` sample present.
    """
    problems: list[str] = []
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        return [str(exc)]
    if not families:
        return ["no metric families found"]
    for name, info in sorted(families.items()):
        if not info["samples"]:
            continue
        if info["type"] is None:
            problems.append(f"{name}: sampled without a # TYPE header")
        if info["help"] is None:
            problems.append(f"{name}: sampled without a # HELP header")
        if info["type"] != "histogram":
            continue
        # Group histogram series by their non-`le` labels.
        series: dict[tuple, dict] = {}
        for sample_name, labels, value in info["samples"]:
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            bucket = series.setdefault(
                key, {"buckets": [], "sum": None, "count": None}
            )
            if sample_name == f"{name}_bucket":
                bucket["buckets"].append((labels.get("le"), value))
            elif sample_name == f"{name}_sum":
                bucket["sum"] = value
            elif sample_name == f"{name}_count":
                bucket["count"] = value
        for key, data in series.items():
            where = f"{name}{dict(key)}"
            if not data["buckets"]:
                problems.append(f"{where}: histogram with no _bucket samples")
                continue
            bounds = [_parse_value(le) for le, _ in data["buckets"]]
            if bounds != sorted(bounds):
                problems.append(f"{where}: bucket bounds not ascending")
            counts = [value for _, value in data["buckets"]]
            if counts != sorted(counts):
                problems.append(f"{where}: bucket counts not cumulative")
            if not math.isinf(bounds[-1]):
                problems.append(f"{where}: last bucket is not le=\"+Inf\"")
            if data["count"] is None:
                problems.append(f"{where}: missing _count sample")
            elif counts and counts[-1] != data["count"]:
                problems.append(
                    f"{where}: +Inf bucket ({counts[-1]}) != _count "
                    f"({data['count']})"
                )
            if data["sum"] is None:
                problems.append(f"{where}: missing _sum sample")
    return problems
