"""Host-independent guards on the work one ad-hoc query does.

Compiles the seeded ad-hoc stream the benchmark's ``warm-http-mix``
draws from (``random_ucq(3, 5, 5)``, liberal count cycling 2, 3, 5) and
counts calls instead of timing them: each inclusion-exclusion term is
cored once, with at most one homomorphism search per quantified
variable and at most one ``Structure`` built (the core's own), and no
positional-index search runs anywhere in a compile; each compiled
pp-plan (a sentence disjunct's too) runs the exact treewidth once, the
subset DP runs once per measured graph (once on the contract graph and
once on the core graph of a pp-plan), and cancellation runs the exact
renaming-equivalence search only between terms whose cores share an
invariant.  The Section 5.4 pipeline derives each query's disjuncts
once and builds no further EP formula, each sentence disjunct is
compiled once and the profile compiles nothing, and each pp-plan builds
its core's Gaifman graph at most twice (compile, profile).  Counting the
same stream, every ∃-component is eliminated on the tables, never
backtracked.
"""

from __future__ import annotations

import importlib

import repro.algorithms.fpt_counting as fpt_counting
import repro.core.equivalence as equivalence
import repro.core.inclusion_exclusion as inclusion_exclusion
import repro.engine.plan as plan_module
import repro.logic.ep as ep_module
import repro.logic.pp as pp_module
import repro.structures.cores as cores
import repro.structures.graphs as graphs
import repro.structures.homomorphism as homomorphism
from repro.engine import Engine
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.logic.pp import PPFormula
from repro.structures.random_gen import random_cluster_graph
from repro.structures.structure import Structure
from repro.workloads.generators import example_5_21_query, random_ucq

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

    core = counted("core", cores.IntForm.core)
    searches = 0
    over_budget = []
    coring = False

    def searched_core(form):
        # Liberal variables are pinned to themselves, never tried.
        nonlocal searches, coring
        quantified = len(form.elements) - len(form.liberal)
        before = searches
        coring = True
        try:
            result = core(form)
        finally:
            coring = False
        if searches - before > quantified:
            over_budget.append((searches - before, quantified))
        return result

    def aimed(self, target_alive):
        # One retraction test: the search aimed at ``current - e``.
        nonlocal searches
        searches += coring
        return into(self, target_alive)

    into = cores._Search.into
    monkeypatch.setattr(cores._Search, "into", aimed)
    monkeypatch.setattr(cores.IntForm, "core", searched_core)
    dp_runs = 0
    solve = treewidth_module._solve

    def counted_solve(adjacency):
        nonlocal dp_runs
        dp_runs += 1
        return solve(adjacency)

    monkeypatch.setattr(treewidth_module, "_solve", counted_solve)
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
            # Each sentence disjunct is compiled to a pp-plan too.
            pp_plans += len(plan.terms) + len(plan.sentence_disjuncts)

    assert raw_terms > QUERY_COUNT
    assert calls["core"] <= raw_terms, calls
    assert calls["treewidth_exact"] <= pp_plans, calls
    assert calls["renaming_equivalent"] <= QUERY_COUNT, calls
    assert searches > 0 and not over_budget, over_budget
    assert 0 < dp_runs <= 2 * pp_plans, (dp_runs, pp_plans)


def test_a_core_builds_one_structure_and_no_search_index(monkeypatch):
    computed = 0
    built = {"in core": 0, "searches": 0}
    coring = False

    def counting_core(form):
        nonlocal computed
        computed += 1
        return form_core(form)

    def pp_core(formula):
        nonlocal coring
        outer, coring = coring, True
        try:
            return formula_core(formula)
        finally:
            coring = outer

    def structure_init(self, *args, **kwargs):
        built["in core"] += coring
        init(self, *args, **kwargs)

    def search_init(self, *args, **kwargs):
        built["searches"] += 1
        search(self, *args, **kwargs)

    form_core, formula_core = cores.IntForm.core, PPFormula.core
    init, search = Structure.__init__, homomorphism._HomomorphismSearch.__init__
    monkeypatch.setattr(cores.IntForm, "core", counting_core)
    monkeypatch.setattr(PPFormula, "core", pp_core)
    monkeypatch.setattr(Structure, "__init__", structure_init)
    monkeypatch.setattr(homomorphism._HomomorphismSearch, "__init__", search_init)

    for query in ad_hoc_queries():
        plan_module.compile_plan(query)

    assert computed > 0
    assert built["in core"] <= computed, (built, computed)
    assert built["searches"] == 0, built


def test_every_ad_hoc_component_is_eliminated_on_the_tables():
    graph = random_cluster_graph(2, 8, 0.9, seed=0)
    with Engine(processes=1) as engine:
        for query in ad_hoc_queries():
            engine.count(query, graph)
        stats = engine.stats()
    assert stats.boundary_memo_misses > 0
    assert stats.semijoin_eliminations == stats.boundary_memo_misses


def test_a_compile_derives_the_disjuncts_once_and_builds_no_ep_formula(monkeypatch):
    # The Section 5.4 pipeline runs on the parsed query's own
    # pp-disjuncts: no normalized or all-free EPFormula is built, so
    # nothing re-derives the disjuncts from an AST.
    queries = [parse_query(str(query)) for query in ad_hoc_queries()]
    calls = {"to_prenex_disjuncts": 0, "EPFormula.__init__": 0}
    prenex, init = ep_module.to_prenex_disjuncts, EPFormula.__init__

    def counted_prenex(*args, **kwargs):
        calls["to_prenex_disjuncts"] += 1
        return prenex(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["EPFormula.__init__"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ep_module, "to_prenex_disjuncts", counted_prenex)
    monkeypatch.setattr(EPFormula, "__init__", counted_init)
    for query in queries:
        assert plan_module.compile_plan(query).kind == "ep-plus"
    assert calls == {"to_prenex_disjuncts": QUERY_COUNT, "EPFormula.__init__": 0}


def test_a_pp_plan_builds_its_core_graph_at_most_twice(monkeypatch):
    # Once for the ∃-components and the contract graph together, once
    # for the profile's core treewidth.
    calls = 0
    build = graphs.gaifman_graph

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(graphs, "gaifman_graph", counted)
    monkeypatch.setattr(pp_module, "gaifman_graph", counted)
    pp_plans = 0
    for query in ad_hoc_queries():
        plan = plan_module.compile_plan(query)
        pp_plans += len(plan.terms) + len(plan.sentence_disjuncts)
    assert pp_plans > QUERY_COUNT
    assert 0 < calls <= 2 * pp_plans, (calls, pp_plans)


#: Example 5.21 (a 3-edge path sentence disjunct) and an edge or a
#: 4-clique anywhere.
SENTENCE_QUERIES = (
    example_5_21_query(),
    parse_query(
        "Q(x, y) = E(x, y) | exists a b c d. (E(a, b) & E(a, c) & E(a, d)"
        " & E(b, c) & E(b, d) & E(c, d))"
    ),
)


def test_a_sentence_disjunct_is_compiled_once_and_the_profile_compiles_nothing(
    monkeypatch,
):
    compiled: list[PPFormula] = []
    compile_pp_plan = fpt_counting.compile_pp_plan

    def counted(formula, *args, **kwargs):
        compiled.append(formula)
        return compile_pp_plan(formula, *args, **kwargs)

    monkeypatch.setattr(fpt_counting, "compile_pp_plan", counted)
    monkeypatch.setattr(plan_module, "compile_pp_plan", counted)
    for query in SENTENCE_QUERIES:
        compiled.clear()
        plan = plan_module.compile_plan(query)
        sentences = [f for f in compiled if f.is_sentence()]
        assert plan.sentence_disjuncts
        assert len(sentences) == len(plan.sentence_disjuncts)
        assert [p.formula for p in plan.sentence_disjuncts] == sentences
        compiled.clear()
        plan_module.profile_plan(plan)
        assert compiled == []
