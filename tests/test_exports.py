"""Every exported name resolves: no export list names a deleted symbol."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

PACKAGES = (
    "repro",
    "repro.core",
    "repro.engine",
    "repro.algorithms",
    "repro.workloads",
    "repro.logic",
    "repro.structures",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_deleted_counting_entry_points_are_gone():
    import repro.core

    for name in ("STRATEGIES", "make_counter", "count_answers_all_strategies"):
        assert not hasattr(repro.core, name), name
        assert name not in repro.core.__all__


@pytest.mark.parametrize("module", ["repro", "repro.core", "repro.core.counting"])
def test_the_sharded_pass_through_is_gone(module):
    # ``Engine.count_sharded`` is the one sharded entry point.
    module = importlib.import_module(module)
    assert not hasattr(module, "count_answers_sharded")
    assert "count_answers_sharded" not in getattr(module, "__all__", ())


def test_the_deleted_plan_store_names_are_gone():
    import repro.engine

    for name in ("PlanStore", "plan_key"):
        assert not hasattr(repro.engine, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.engine.persist")


#: ``Owner.member`` names that existed only to fill or drain the
#: on-disk plan store.
DELETED_PLAN_STORE_MEMBERS = (
    "Engine.store",
    "Engine.warm_from_disk",
    "Engine.flush_to_disk",
    "PlanCache.seed",
    "PlanCache.items",
    "LRUCache.put",
    "LRUCache.items",
)


@pytest.mark.parametrize("member", DELETED_PLAN_STORE_MEMBERS)
def test_the_deleted_plan_store_members_are_gone(member):
    from repro.engine import Engine
    from repro.engine.cache import LRUCache, PlanCache

    # Instances, not classes: ``Engine.store`` was set in ``__init__``.
    owners = {"Engine": Engine, "PlanCache": PlanCache, "LRUCache": LRUCache}
    owner, name = member.split(".")
    instance = owners[owner](1) if owner == "LRUCache" else owners[owner]()
    assert not hasattr(instance, name), member


#: Modules deleted with the second query front end and the second DP.
DELETED_MODULES = ("repro.db", "repro.algorithms.homomorphism_counting")


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_the_deleted_modules_do_not_import(module):
    with pytest.raises(ImportError):
        importlib.import_module(module)


#: ``module.name`` for every deleted function, class and exception,
#: and ``module.Class.member`` for every deleted method or field.
DELETED_NAMES = (
    "repro.algorithms.count_solutions",
    "repro.algorithms.count_solutions_decomposition",
    "repro.algorithms.csp.count_solutions",
    "repro.algorithms.csp.count_solutions_decomposition",
    "repro.algorithms.csp._enumerate_bag_assignments",
    "repro.logic.QueryBuilder",
    "repro.logic.UnionQueryBuilder",
    "repro.logic.builder.QueryBuilder",
    "repro.logic.builder.UnionQueryBuilder",
    "repro.structures.StructureBuilder",
    "repro.structures.structure.StructureBuilder",
    "repro.exceptions.DatabaseError",
    # The Section 5.4 pipeline runs on a query's own disjuncts: nothing
    # normalizes, splits or stores an EP formula, and the ablation-only
    # evaluators and the second measurer are gone.
    "repro.algorithms.StructuralReport",
    "repro.algorithms.structural_report",
    "repro.algorithms.fpt_counting.StructuralReport",
    "repro.algorithms.fpt_counting.structural_report",
    "repro.core.count_by_inclusion_exclusion",
    "repro.core.star_set",
    "repro.core.plus_set_for_class",
    "repro.core.inclusion_exclusion.count_by_inclusion_exclusion",
    "repro.core.inclusion_exclusion.star_set",
    "repro.core.inclusion_exclusion.LinearCombination.evaluate",
    "repro.core.inclusion_exclusion.LinearCombination.coefficients",
    "repro.core.ep_to_pp.plus_set_for_class",
    "repro.core.ep_to_pp.entails_some_sentence",
    "repro.core.ep_to_pp.PlusDecomposition.query",
    "repro.logic.ep.EPFormula.normalized",
    "repro.logic.ep.EPFormula.normalized_disjuncts",
    "repro.logic.ep.EPFormula.all_free_part",
    "repro.logic.ep.EPFormula.is_all_free",
    "repro.logic.ep.EPFormula.free_disjuncts",
    "repro.logic.ep.EPFormula.sentence_disjuncts",
    "repro.engine.plan.CountingPlan.query",
    "repro.engine.plan.CountingPlan.decomposition",
    # A sentence is one more compiled pp-plan: one unit kind, one
    # evaluator, one memo, and one exact-treewidth cutoff.
    "repro.engine.executor._ShardUnit",
    "repro.engine.context.ExecutionContext.sentence_holds",
    "repro.engine.context.ExecutionContext.component_satisfiable",
    "repro.engine.context.ExecutionContext._sentence_memo",
    "repro.engine.context.ExecutionContext._satisfiable_memo",
    "repro.engine.plan.PROFILE_EXACT_THRESHOLD",
    # No caller anywhere.
    "repro.structures.homomorphism.hom_profile",
    "repro.structures.random_gen.random_bipartite_relation",
)


def _owner(path: str):
    """The module, or the class inside one, at the dotted ``path``."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            owner = getattr(owner, part)
        return owner
    raise ImportError(path)


@pytest.mark.parametrize("qualified", DELETED_NAMES)
def test_the_deleted_names_are_gone(qualified):
    owner_path, name = qualified.rsplit(".", 1)
    owner = _owner(owner_path)
    assert not hasattr(owner, name), qualified
    assert name not in getattr(owner, "__all__", ())
    # A dataclass field without a default is no class attribute.
    assert name not in getattr(owner, "__dataclass_fields__", {}), qualified


#: Root exports no test, example, doc or benchmark used.  Those whose
#: code stays are still importable from their subpackage.
DROPPED_ROOT_EXPORTS = (
    "Atom",
    "PPFormula",
    "QueryBuilder",
    "UnionQueryBuilder",
    "Variable",
    "parse_formula",
    "StructureBuilder",
    "direct_product",
    "disjoint_union",
    "plus_set",
    "semi_counting_equivalent",
    "ConjunctiveQuery",
    "Database",
    "Relation",
    "UnionOfConjunctiveQueries",
)


@pytest.mark.parametrize("name", DROPPED_ROOT_EXPORTS)
def test_the_dropped_root_exports_are_gone(name):
    import repro

    assert name not in repro.__all__
    assert not hasattr(repro, name), name


#: Compile and count one pp query and one EP query, each checked
#: against the brute force, then report whether networkx was loaded.
WITHOUT_NETWORKX = """
import sys
import repro
from repro.algorithms.brute_force import count_answers_naive
from repro.engine import compile_plan, execute
from repro.engine.plan import as_ep
from repro.structures.random_gen import random_graph
graph = random_graph(6, 0.5, 0)
for text, kind in (
    ("exists z. (E(x, z) & E(z, y))", "pp-fpt"),
    ("Q(x, y) = E(x, y) | exists z. (E(x, z) & E(z, y))", "ep-plus"),
):
    plan = compile_plan(text)
    assert plan.kind == kind, plan.kind
    assert execute(plan, graph) == count_answers_naive(as_ep(text), graph)
print("networkx" in sys.modules)
"""


def test_the_package_compiles_and_counts_without_networkx(tmp_path):
    (tmp_path / "networkx.py").write_text('raise ImportError("networkx hidden")\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_NETWORKX],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_importing_the_package_loads_no_networkx():
    # Other tests import networkx into this process, so look at what
    # the package's own modules hold instead of at ``sys.modules``.
    import repro  # noqa: F401

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in vars(module).values():
                origin = getattr(value, "__module__", None) or getattr(value, "__name__", "")
                assert not str(origin).startswith("networkx"), (name, value)
