#!/usr/bin/env python
"""Fail when the docs drift from the code's canonical tables.

Nine checks; the first eight assert set equality in *both* directions:

- ``docs/http_api.md`` vs. the HTTP server's canonical route list
  :data:`repro.serve.httpd.ROUTES` (each route documented as a heading
  of the form ``### `METHOD /path```);
- ``docs/observability.md`` vs. the Prometheus metric families
  :func:`repro.obs.prom.family_names` says a ``/metrics`` render
  emits (each family mentioned by name somewhere in the page);
- ``docs/cluster.md`` vs. the cluster wire protocol's frame-type
  registry :data:`repro.cluster.proto.MESSAGE_TYPES` (each frame type
  documented as a ``### `type``` heading);
- the "Engine tuning knobs" table of ``docs/operations.md`` vs. the
  parameters of ``repro.engine.Engine.__init__`` (each knob named in
  backticks in its row's first cell);
- the "Serving knobs" table of ``docs/operations.md`` vs. the fields of
  ``repro.serve.ServiceConfig`` (the same row form);
- the "Per-call arguments" table of ``docs/operations.md`` vs. the
  keyword-only parameters of ``Engine.count`` / ``count_sharded`` /
  ``count_many`` (the argument in backticks in a row's first cell, the
  methods taking it in backticks in its second);
- the "Stats glossary" table of ``docs/operations.md`` vs. the keys of
  ``repro.engine.EngineStats().as_dict()`` (the knob table's row form);
- the "Layout" section of ``README.md`` vs. the packages and public
  modules directly under ``src/repro`` (each named ``src/repro/<name>``
  in backticks, modules with their ``.py``).

The ninth reads one direction: every backticked ``Class.attr`` in
``docs/*.md`` and ``README.md`` naming one of :data:`_ATTR_OWNERS` must
resolve (``hasattr`` on the class or a fresh instance).

A route, metric, frame type, engine option, serving knob, per-call
argument, stats field or package added to the code without documentation, or
documentation for one the code no longer has -- a method or attribute
included -- fails CI.

Usage (repo root)::

    PYTHONPATH=src python tools/check_docs_freshness.py
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "http_api.md"
OBS_DOC_PATH = REPO_ROOT / "docs" / "observability.md"
CLUSTER_DOC_PATH = REPO_ROOT / "docs" / "cluster.md"
OPS_DOC_PATH = REPO_ROOT / "docs" / "operations.md"
README_PATH = REPO_ROOT / "README.md"
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: The heading form the API reference uses for each endpoint.
_HEADING = re.compile(
    r"^#{2,4}\s+`(GET|POST|PUT|DELETE|PATCH|HEAD)\s+(/\S*)`\s*$",
    re.MULTILINE,
)

#: Anything that looks like one of our Prometheus metric names.
_METRIC_TOKEN = re.compile(r"\brepro_[a-z0-9_]+\b")

#: Histogram sample suffixes that resolve to their base family.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")

#: The heading form docs/cluster.md uses for each wire frame type.
_FRAME_HEADING = re.compile(r"^#{2,4}\s+`([a-z_]+)`\s*$", re.MULTILINE)

#: The heading of the operations guide's engine-option table.
_KNOB_SECTION = "## Engine tuning knobs"

#: The heading of the operations guide's ``ServiceConfig`` table.
_SERVING_SECTION = "## Serving knobs"

#: The heading of the operations guide's per-call argument table.
_CALL_SECTION = "## Per-call arguments"

#: The ``Engine`` methods whose keyword-only arguments that table lists.
_CALL_METHODS = ("count", "count_sharded", "count_many")

#: The heading of the operations guide's ``EngineStats`` table.
_STATS_SECTION = "## Stats glossary"

#: A backticked option or field name (``--flags`` do not match).
_CELL_NAME = re.compile(r"`([a-z_][a-z0-9_]*)`")

#: The heading of the README's package map.
_LAYOUT_SECTION = "## Layout"

#: A package or module entry of that map.
_LAYOUT_ENTRY = re.compile(r"`src/repro/([A-Za-z_][A-Za-z0-9_]*(?:\.py)?)/?`")


#: The classes whose ``Class.attr`` mentions are checked, by module.
_ATTR_OWNERS = {
    "Engine": "repro.engine.api",
    "EngineStats": "repro.engine.api",
    "WorkerPool": "repro.engine.pool",
    "ResidentContexts": "repro.engine.resident",
    "ExecutionContext": "repro.engine.context",
    "ContextStats": "repro.engine.context",
    "EncodedStructure": "repro.structures.encoding",
    "StructureRegistry": "repro.engine.registry",
    "ClusterCoordinator": "repro.cluster.coordinator",
    "PPCountingPlan": "repro.algorithms.fpt_counting",
    "CountingPlan": "repro.engine.plan",
    "PlanProfile": "repro.engine.plan",
    "FormulaMeasures": "repro.core.classification",
    "EPFormula": "repro.logic.ep",
}

#: The small EP query whose compiled plan, its profile, the measures of
#: one of its terms and the parsed formula stand in for
#: ``CountingPlan``, ``PlanProfile``, ``FormulaMeasures`` and
#: ``EPFormula``.
_OWNER_QUERY = "Q(x, y) = E(x, y) | exists z. (E(x, z) & E(z, y))"

#: An inline code span, and a ``Class.attr`` mention inside one.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_ATTR_MENTION = re.compile(
    r"(?<!\w)("
    + "|".join(sorted(_ATTR_OWNERS, key=len, reverse=True))
    + r")\.([A-Za-z_]\w*)"
)


def documented_routes(text: str) -> set[tuple[str, str]]:
    """The ``(method, path pattern)`` pairs documented as headings."""
    return {(m.group(1), m.group(2)) for m in _HEADING.finditer(text)}


def registered_routes() -> set[tuple[str, str]]:
    """The server's canonical route table."""
    from repro.serve.httpd import ROUTES

    return set(ROUTES)


def check(doc_path: Path = DOC_PATH) -> list[str]:
    """The list of drift problems (empty when the docs are fresh)."""
    problems: list[str] = []
    if not doc_path.exists():
        return [f"{doc_path} does not exist"]
    documented = documented_routes(doc_path.read_text(encoding="utf-8"))
    registered = registered_routes()
    for method, path in sorted(registered - documented):
        problems.append(
            f"route {method} {path} is registered in repro/serve/httpd.py "
            f"but has no `### `{method} {path}`` heading in {doc_path.name}"
        )
    for method, path in sorted(documented - registered):
        problems.append(
            f"{doc_path.name} documents {method} {path}, which is not in "
            "repro.serve.httpd.ROUTES (stale documentation)"
        )
    if not documented:
        problems.append(
            f"{doc_path.name} documents no routes at all -- the heading "
            "format is ``### `METHOD /path```"
        )
    return problems


def documented_metrics(text: str) -> set[str]:
    """Every ``repro_*`` token mentioned in the observability page."""
    return set(_METRIC_TOKEN.findall(text))


def emitted_metrics() -> set[str]:
    """The deterministic family set a ``/metrics`` render emits."""
    from repro.obs.prom import family_names

    return family_names()


def check_metrics(doc_path: Path = OBS_DOC_PATH) -> list[str]:
    """Drift between documented and emitted Prometheus families."""
    problems: list[str] = []
    if not doc_path.exists():
        return [f"{doc_path} does not exist"]
    documented = documented_metrics(doc_path.read_text(encoding="utf-8"))
    emitted = emitted_metrics()
    for family in sorted(emitted - documented):
        problems.append(
            f"metric family {family} is emitted by /metrics but never "
            f"mentioned in {doc_path.name}"
        )
    # Documented tokens must be a family name or a histogram sample of
    # one (``_bucket``/``_sum``/``_count``) -- anything else is stale.
    for token in sorted(documented - emitted):
        base = next(
            (
                token[: -len(suffix)]
                for suffix in _HISTOGRAM_SUFFIXES
                if token.endswith(suffix) and token[: -len(suffix)] in emitted
            ),
            None,
        )
        if base is None:
            problems.append(
                f"{doc_path.name} mentions {token}, which /metrics does "
                "not emit (stale documentation)"
            )
    if not documented:
        problems.append(f"{doc_path.name} documents no repro_* metrics at all")
    return problems


def documented_frame_types(text: str) -> set[str]:
    """Every frame type documented as a ``### `type``` heading."""
    return set(_FRAME_HEADING.findall(text))


def wire_frame_types() -> set[str]:
    """The cluster protocol's canonical frame-type registry."""
    from repro.cluster.proto import MESSAGE_TYPES

    return set(MESSAGE_TYPES)


def check_cluster(doc_path: Path = CLUSTER_DOC_PATH) -> list[str]:
    """Drift between documented and registered wire frame types."""
    problems: list[str] = []
    if not doc_path.exists():
        return [f"{doc_path} does not exist"]
    documented = documented_frame_types(doc_path.read_text(encoding="utf-8"))
    registered = wire_frame_types()
    for frame_type in sorted(registered - documented):
        problems.append(
            f"frame type {frame_type!r} is in repro.cluster.proto."
            f"MESSAGE_TYPES but has no ``### `{frame_type}``` heading in "
            f"{doc_path.name}"
        )
    for frame_type in sorted(documented - registered):
        problems.append(
            f"{doc_path.name} documents frame type {frame_type!r}, which "
            "is not in repro.cluster.proto.MESSAGE_TYPES (stale "
            "documentation)"
        )
    if not documented:
        problems.append(
            f"{doc_path.name} documents no frame types at all -- the "
            "heading format is ``### `type```"
        )
    return problems


def _section_body(text: str, section: str) -> str:
    """The text under the ``section`` heading, up to the next heading."""
    if section not in text:
        return ""
    return text.split(section, 1)[1].split("\n#", 1)[0]


def _table_rows(text: str, section: str) -> list[list[str]]:
    """The cells of every row of the table under the ``section``
    heading (up to the next heading)."""
    return [
        line.split("|")[1:]
        for line in _section_body(text, section).splitlines()
        if line.startswith("|")
    ]


def documented_names(text: str, section: str) -> set[str]:
    """The names in the first cell of every row of the table under
    the ``section`` heading."""
    return {
        name
        for cells in _table_rows(text, section)
        for name in _CELL_NAME.findall(cells[0])
    }


def documented_call_args(text: str, section: str) -> set[str]:
    """``method.argument`` for every argument in a row's first cell and
    every method in its second."""
    return {
        f"{method}.{argument}"
        for cells in _table_rows(text, section)
        if len(cells) > 1
        for argument in _CELL_NAME.findall(cells[0])
        for method in _CELL_NAME.findall(cells[1])
    }


def engine_knobs() -> set[str]:
    """The constructor parameters of :class:`repro.engine.Engine`."""
    from repro.engine import Engine

    return set(inspect.signature(Engine.__init__).parameters) - {"self"}


def serving_knobs() -> set[str]:
    """The fields of :class:`repro.serve.ServiceConfig`."""
    import dataclasses

    from repro.serve import ServiceConfig

    return {field.name for field in dataclasses.fields(ServiceConfig)}


def engine_call_args() -> set[str]:
    """``method.argument`` for every keyword-only parameter of the
    engine's counting methods."""
    from repro.engine import Engine

    return {
        f"{method}.{name}"
        for method in _CALL_METHODS
        for name, parameter in inspect.signature(
            getattr(Engine, method)
        ).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }


def engine_stats_keys() -> set[str]:
    """The keys of an :class:`repro.engine.EngineStats` snapshot."""
    from repro.engine import EngineStats

    return set(EngineStats().as_dict())


def _check_table(
    doc_path: Path,
    section: str,
    what: str,
    actual: set[str],
    owner: str,
    read=documented_names,
) -> list[str]:
    """Drift between the names a table documents (``read`` from the
    page) and ``actual``."""
    if not doc_path.exists():
        return [f"{doc_path} does not exist"]
    documented = read(doc_path.read_text(encoding="utf-8"), section)
    if not documented:
        return [f"{doc_path.name} has no table under {section!r}"]
    return [
        f"{what} {name!r} has no row in {doc_path.name}'s {section!r} table"
        for name in sorted(actual - documented)
    ] + [
        f"{doc_path.name} documents {what} {name!r}, which {owner} does "
        "not have (stale documentation)"
        for name in sorted(documented - actual)
    ]


def check_knobs(doc_path: Path = OPS_DOC_PATH) -> list[str]:
    """Drift between the documented knobs and the engine's options."""
    return _check_table(
        doc_path, _KNOB_SECTION, "Engine option", engine_knobs(),
        "Engine.__init__",
    )


def check_serving_knobs(doc_path: Path = OPS_DOC_PATH) -> list[str]:
    """Drift between the documented serving knobs and the fields of
    ``ServiceConfig``."""
    return _check_table(
        doc_path, _SERVING_SECTION, "ServiceConfig field", serving_knobs(),
        "ServiceConfig",
    )


def check_call_args(doc_path: Path = OPS_DOC_PATH) -> list[str]:
    """Drift between the per-call argument table and the keyword-only
    parameters of the engine's counting methods."""
    return _check_table(
        doc_path, _CALL_SECTION, "per-call argument", engine_call_args(),
        "Engine", read=documented_call_args,
    )


def check_stats(doc_path: Path = OPS_DOC_PATH) -> list[str]:
    """Drift between the stats glossary and the ``EngineStats`` keys."""
    return _check_table(
        doc_path, _STATS_SECTION, "stats field", engine_stats_keys(),
        "EngineStats().as_dict()",
    )


def documented_layout(text: str, section: str) -> set[str]:
    """The ``src/repro/<name>`` entries of the README's layout section."""
    return set(_LAYOUT_ENTRY.findall(_section_body(text, section)))


def package_layout(root: Path = PACKAGE_ROOT) -> set[str]:
    """The packages and public modules directly under ``root``."""
    return {
        path.name
        for path in root.iterdir()
        if (path.is_dir() and (path / "__init__.py").exists())
        or (path.suffix == ".py" and not path.name.startswith("_"))
    }


def check_layout(
    readme_path: Path = README_PATH, root: Path = PACKAGE_ROOT
) -> list[str]:
    """Drift between the README's layout section and the package tree."""
    return _check_table(
        readme_path, _LAYOUT_SECTION, "src/repro entry", package_layout(root),
        "src/repro", read=documented_layout,
    )


def documented_attributes(text: str) -> set[tuple[str, str]]:
    """The ``(class, attribute)`` pairs named in ``text``'s code spans."""
    return {
        mention
        for span in _CODE_SPAN.findall(text)
        for mention in _ATTR_MENTION.findall(span)
    }


def _owner_instance(name: str):
    """A fresh, unstarted instance of the owner class ``name``."""
    import importlib

    cls = getattr(importlib.import_module(_ATTR_OWNERS[name]), name)
    if name in ("ExecutionContext", "EncodedStructure"):
        from repro.structures.structure import Structure

        return cls(Structure.from_relations({"E": [(1, 2)]}))
    if name == "PPCountingPlan":
        from repro.algorithms.fpt_counting import compile_pp_plan
        from repro.workloads.generators import path_query

        return compile_pp_plan(path_query(2))
    if name in ("CountingPlan", "PlanProfile", "FormulaMeasures"):
        from repro.engine.plan import compile_plan

        plan = compile_plan(_OWNER_QUERY)
        if name == "PlanProfile":
            return plan.profile
        if name == "FormulaMeasures":
            return cls.of(plan.terms[0].plan)
        return plan
    if name == "EPFormula":
        from repro.logic.parser import parse_query

        return parse_query(_OWNER_QUERY)
    return cls()


def check_attributes(paths=None) -> list[str]:
    """Backticked ``Class.attr`` mentions the code does not resolve."""
    if paths is None:
        paths = [README_PATH, *sorted((REPO_ROOT / "docs").glob("*.md"))]
    problems, instances = [], {}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for owner, attr in sorted(documented_attributes(text)):
            if owner not in instances:
                instances[owner] = _owner_instance(owner)
            instance = instances[owner]
            if not (hasattr(type(instance), attr) or hasattr(instance, attr)):
                problems.append(
                    f"{path.name} names `{owner}.{attr}`, which {owner} "
                    "does not have (stale documentation)"
                )
    for instance in instances.values():
        close = getattr(instance, "close", None)
        if callable(close):
            close()
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    checks = (
        ("docs/http_api.md", "the HTTP route table", check()),
        ("docs/observability.md", "the Prometheus metric families",
         check_metrics()),
        ("docs/cluster.md", "the cluster wire protocol", check_cluster()),
        ("docs/operations.md", "the Engine options", check_knobs()),
        ("docs/operations.md", "the ServiceConfig fields",
         check_serving_knobs()),
        ("docs/operations.md", "the per-call arguments", check_call_args()),
        ("docs/operations.md", "the EngineStats fields", check_stats()),
        ("README.md", "the src/repro package tree", check_layout()),
        ("docs/*.md and README.md", "the engine classes' attributes",
         check_attributes()),
    )
    for page, source, problems in checks:
        if problems:
            print(f"{page} is out of sync with {source}:")
            for problem in problems:
                print(f"  - {problem}")
    if any(problems for _, _, problems in checks):
        return 1
    routes = len(registered_routes())
    metrics = len(emitted_metrics())
    frames = len(wire_frame_types())
    knobs = len(engine_knobs())
    serving = len(serving_knobs())
    call_args = len(engine_call_args())
    stats = len(engine_stats_keys())
    packages = len(package_layout())
    print(
        f"docs freshness OK: all {routes} HTTP routes, {metrics} "
        f"Prometheus metric families, {frames} cluster frame types, "
        f"{knobs} Engine options, {serving} serving knobs, "
        f"{call_args} per-call arguments, "
        f"{stats} stats fields and {packages} src/repro packages and "
        "modules documented, none stale; every Class.attr named resolves"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
