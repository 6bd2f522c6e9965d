"""Documentation freshness: the API reference must match the server.

The same check CI runs (``tools/check_docs_freshness.py``), executed as
part of the tier-1 suite so route/docs drift fails locally before it
fails in CI.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs_freshness  # noqa: E402


def test_http_api_docs_match_route_table():
    problems = check_docs_freshness.check()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_routes(tmp_path):
    stale = tmp_path / "http_api.md"
    stale.write_text("### `POST /count`\n\n### `GET /bygone`\n")
    problems = check_docs_freshness.check(stale)
    assert any("/bygone" in p for p in problems)  # stale doc heading
    assert any("/structures" in p for p in problems)  # undocumented route


def test_cluster_docs_match_frame_registry():
    problems = check_docs_freshness.check_cluster()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_frame_types(tmp_path):
    stale = tmp_path / "cluster.md"
    stale.write_text("### `register`\n\n### `bygone_frame`\n")
    problems = check_docs_freshness.check_cluster(stale)
    assert any("bygone_frame" in p for p in problems)  # stale heading
    assert any("'execute'" in p for p in problems)  # undocumented type


def test_operations_knob_table_matches_engine_options():
    problems = check_docs_freshness.check_knobs()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_knobs(tmp_path):
    stale = tmp_path / "operations.md"
    stale.write_text(
        "## Engine tuning knobs\n\n| Knob | Default |\n|---|---|\n"
        "| `processes` (`--processes`) | 1 |\n| `bygone_size` | 32 |\n"
    )
    problems = check_docs_freshness.check_knobs(stale)
    assert any("'bygone_size'" in p for p in problems)  # stale row
    assert any("'policy'" in p for p in problems)  # undocumented option
    assert not any("'processes'" in p for p in problems)


def test_operations_serving_knob_table_matches_service_config():
    problems = check_docs_freshness.check_serving_knobs()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_serving_knobs(tmp_path):
    stale = tmp_path / "operations.md"
    stale.write_text(
        "## Serving knobs\n\n| Knob | Default |\n|---|---|\n"
        "| `max_in_flight` (`--max-in-flight`) | 4 |\n"
        "| `latency_buckets` | 16 bounds |\n"
    )
    problems = check_docs_freshness.check_serving_knobs(stale)
    assert any("'latency_buckets'" in p for p in problems)  # stale row
    assert any("'max_queue'" in p for p in problems)  # undocumented field
    assert not any("'max_in_flight'" in p for p in problems)


def test_operations_call_args_table_matches_engine_methods():
    problems = check_docs_freshness.check_call_args()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_call_args(tmp_path):
    stale = tmp_path / "operations.md"
    stale.write_text(
        "## Per-call arguments\n\n| Argument | Taken by |\n|---|---|\n"
        "| `policy` | `count_sharded`, `count_many` |\n"
        "| `parallel` | `count_sharded`, `count_many` |\n"
        "| `shard_count` / `shard_strategy` | `count_sharded` |\n"
        "| `processes` | `count_sharded`, `count_many` |\n"
    )
    problems = check_docs_freshness.check_call_args(stale)
    assert any("'count_sharded.processes'" in p for p in problems)  # stale
    assert any("'count_many.processes'" in p for p in problems)  # stale
    assert any("'count.policy'" in p for p in problems)  # undocumented
    assert len(problems) == 3, problems


def test_operations_stats_glossary_matches_engine_stats():
    problems = check_docs_freshness.check_stats()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_stats_fields(tmp_path):
    stale = tmp_path / "operations.md"
    stale.write_text(
        "## Stats glossary (`/metrics`)\n\n| Field | Meaning |\n|---|---|\n"
        "| `plan_hits` / `plan_misses` | lookups |\n"
        "| `bygone_hits` | gone |\n\n## Next section\n\n| `verdicts` | x |\n"
    )
    problems = check_docs_freshness.check_stats(stale)
    assert any("'bygone_hits'" in p for p in problems)  # stale row
    assert any("'plan_hit_rate'" in p for p in problems)  # undocumented key
    assert any("'verdicts'" in p for p in problems)  # outside the table
    assert not any("'plan_misses'" in p for p in problems)


def test_checker_reports_a_missing_stats_glossary(tmp_path):
    bare = tmp_path / "operations.md"
    bare.write_text("## Engine tuning knobs\n\n| `processes` | 1 |\n")
    problems = check_docs_freshness.check_stats(bare)
    assert len(problems) == 1 and "has no table" in problems[0], problems


def test_readme_layout_matches_the_package_tree():
    problems = check_docs_freshness.check_layout()
    assert not problems, "\n".join(problems)


def test_checker_detects_missing_and_stale_layout_entries(tmp_path):
    root = tmp_path / "repro"
    for package in ("logic", "fresh"):
        (root / package).mkdir(parents=True)
        (root / package / "__init__.py").write_text("")
    (root / "data").mkdir()  # not a package
    for module in ("__init__.py", "__main__.py", "budget.py", "tool.py"):
        (root / module).write_text("")
    readme = tmp_path / "README.md"
    readme.write_text(
        "## Layout\n\n- `src/repro/logic`, `src/repro/budget.py` — x\n"
        "- `src/repro/bygone` — gone\n\n## Next\n\n- `src/repro/tool.py`\n"
    )
    problems = check_docs_freshness.check_layout(readme, root)
    assert any("'bygone'" in p and "stale" in p for p in problems)
    assert any("'fresh'" in p for p in problems)  # undocumented package
    assert any("'tool.py'" in p for p in problems)  # outside the section
    assert len(problems) == 3, problems


def test_every_class_attribute_the_docs_name_resolves():
    problems = check_docs_freshness.check_attributes()
    assert not problems, "\n".join(problems)


def test_checker_detects_a_stale_class_attribute(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Jobs go through `WorkerPool.map(task, jobs)` and\n"
        "`repro.engine.WorkerPool.pin_structures(...)` (gone), named as\n"
        "`Engine.count`, `EngineStats.context_hits`, `ResidentContexts.held`;\n"
        "`MyEngine.nothing`, `engine.pool` and WorkerPool.broadcast outside\n"
        "a code span are not mentions.\n"
    )
    problems = check_docs_freshness.check_attributes([page])
    assert len(problems) == 1, problems
    assert "`WorkerPool.pin_structures`" in problems[0]
    assert "stale" in problems[0]


def test_checker_detects_a_stale_data_side_attribute(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Tables read `EncodedStructure.relations` and `EncodedStructure.np_columns`;\n"
        "`ContextStats.semijoin_eliminations` counts them, but the int view\n"
        "`EncodedStructure.int_structure` and `ContextStats.index_builds` are gone.\n"
    )
    problems = check_docs_freshness.check_attributes([page])
    assert len(problems) == 2, problems
    assert any("`EncodedStructure.int_structure`" in p for p in problems)
    assert any("`ContextStats.index_builds`" in p for p in problems)


def test_checker_detects_a_stale_plan_attribute(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "A plan keeps `PPCountingPlan.order` and `PPCountingPlan.width`;\n"
        "`PPCountingPlan.dp_schedule` and `PPCountingPlan.decomposition`\n"
        "are gone.  `CountingPlan.terms` and `EPFormula.disjuncts` stay, but\n"
        "`CountingPlan.decomposition` and `EPFormula.normalized` are gone.\n"
    )
    problems = check_docs_freshness.check_attributes([page])
    assert len(problems) == 4, problems
    assert any("`PPCountingPlan.dp_schedule`" in p for p in problems)
    assert any("`PPCountingPlan.decomposition`" in p for p in problems)
    assert any("`CountingPlan.decomposition`" in p for p in problems)
    assert any("`EPFormula.normalized`" in p for p in problems)


def test_docs_pages_exist_and_crosslink():
    docs = REPO_ROOT / "docs"
    for page in ("architecture.md", "http_api.md", "operations.md",
                 "cluster.md"):
        assert (docs / page).exists(), f"docs/{page} is missing"
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for page in ("docs/architecture.md", "docs/http_api.md",
                 "docs/operations.md", "docs/cluster.md"):
        assert page in readme, f"README does not link {page}"


def test_package_version_is_single_sourced():
    """``repro.__version__`` is the library's one version string; the
    package metadata must read it, not restate it."""
    import re
    import warnings

    import pytest

    import repro

    pyproject = REPO_ROOT / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert not re.search(r"^version\s*=", project, re.M), (
        "pyproject.toml restates a literal version; keep it dynamic"
    )
    assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', project, re.M)
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' beta-config notice
        resolved = config.read_configuration(str(pyproject), expand=True)
    assert resolved["project"]["version"] == repro.__version__


def test_checker_detects_a_stale_profile_attribute(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "A profile keeps `PlanProfile.exact` and `PlanProfile.case_for`, its\n"
        "measures `FormulaMeasures.of` and `FormulaMeasures.exact`; the\n"
        "`PlanProfile.exact_threshold` and `FormulaMeasures.remeasure` are gone.\n"
    )
    problems = check_docs_freshness.check_attributes([page])
    assert len(problems) == 2, problems
    assert any("`PlanProfile.exact_threshold`" in p for p in problems)
    assert any("`FormulaMeasures.remeasure`" in p for p in problems)
