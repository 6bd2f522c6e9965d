"""Host-independent guards on the work one ad-hoc query does.

Compiles the seeded ad-hoc stream the benchmark's ``warm-http-mix``
draws from (``random_ucq(3, 5, 5)``, liberal count cycling 2, 3, 5) and
counts calls instead of timing them: each inclusion-exclusion term is
cored once, each compiled pp-plan runs the exact treewidth once, and
cancellation runs the exact renaming-equivalence search only between
terms whose cores share an invariant.  Counting the same stream, every
∃-component is eliminated on the tables, never backtracked.
"""

from __future__ import annotations

import importlib

import repro.algorithms.fpt_counting as fpt_counting
import repro.core.equivalence as equivalence
import repro.core.inclusion_exclusion as inclusion_exclusion
import repro.engine.plan as plan_module
import repro.logic.pp as pp
import repro.structures.cores as cores
from repro.engine import Engine
from repro.structures.random_gen import random_cluster_graph
from repro.workloads.generators import random_ucq

# ``repro.algorithms`` re-exports the function ``treewidth`` under the
# module's name, so attribute access would reach the function.
treewidth_module = importlib.import_module("repro.algorithms.treewidth")

QUERY_COUNT = 40


def ad_hoc_queries():
    for index in range(QUERY_COUNT):
        yield random_ucq(3, 5, 5, liberal_count=(2, 3, 5)[index % 3], seed=index)


def test_a_compile_cores_each_term_once_and_measures_each_plan_once(monkeypatch):
    calls = {"core": 0, "treewidth_exact": 0, "renaming_equivalent": 0}
    raw_terms = 0
    pp_plans = 0

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    core = counted("core", cores.core)
    monkeypatch.setattr(cores, "core", core)
    monkeypatch.setattr(pp, "core", core)
    monkeypatch.setattr(
        treewidth_module,
        "treewidth_exact",
        counted("treewidth_exact", treewidth_module.treewidth_exact),
    )
    monkeypatch.setattr(
        equivalence,
        "renaming_equivalent",
        counted("renaming_equivalent", equivalence.renaming_equivalent),
    )

    expand = inclusion_exclusion.raw_inclusion_exclusion

    def raw_inclusion_exclusion(*args, **kwargs):
        nonlocal raw_terms
        combination = expand(*args, **kwargs)
        raw_terms += len(combination)
        return combination

    monkeypatch.setattr(
        inclusion_exclusion, "raw_inclusion_exclusion", raw_inclusion_exclusion
    )

    for query in ad_hoc_queries():
        plan = plan_module.compile_plan(query)
        if plan.kind == "pp-fpt":
            raw_terms += 1
            pp_plans += 1
        else:
            pp_plans += len(plan.terms)

    assert raw_terms > QUERY_COUNT
    assert calls["core"] <= raw_terms, calls
    assert calls["treewidth_exact"] <= pp_plans, calls
    assert calls["renaming_equivalent"] <= QUERY_COUNT, calls


def test_every_ad_hoc_component_is_eliminated_on_the_tables():
    graph = random_cluster_graph(2, 8, 0.9, seed=0)
    with Engine(processes=1) as engine:
        for query in ad_hoc_queries():
            engine.count(query, graph)
        stats = engine.stats()
    assert stats.boundary_memo_misses > 0
    assert stats.semijoin_eliminations == stats.boundary_memo_misses
