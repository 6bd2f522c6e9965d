"""Classification-driven routing: profiles, policies, budgets, /classify.

Covers the acceptance surface of the routing layer: classification
happens exactly once per cached plan (zero on hits), policies resolve
per request and override the engine default, ``reject`` refuses hard
queries at plan time with the verdict attached, budgets abort
cooperatively — including inside pool workers — ``degrade`` falls back
to the profile estimator, the ``/classify`` dry run and the 422/504
wire forms, and the regression the budgets exist for: a
deadline-exceeded request under a budget policy stops consuming its
worker thread instead of lingering as ``abandoned``.
"""

from __future__ import annotations

import json
import pickle
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    BudgetExceeded,
    CostBudget,
    PolicyRejection,
    ReproError,
    classify,
)
from repro.budget import budget_scope
from repro.core.classification import Case
from repro.engine.api import Engine
from repro.engine.plan import compile_plan, profile_plan
from repro.engine.policy import ALLOW, ExecutionPolicy
from repro.exceptions import WorkloadError
from repro.serve import (
    BackgroundServer,
    CountingServer,
    CountingService,
    ServiceConfig,
)
from repro.structures.random_gen import random_graph
from repro.workloads import clique_query, frontier_family, frontier_query_pair

TRACTABLE, HARD = frontier_query_pair(4)
PATH_QUERY = "exists z. (E(x, z) & E(z, y))"


def graph(size: int = 12, p: float = 0.4, seed: int = 3):
    return random_graph(size, p, seed=seed)


# ----------------------------------------------------------------------
# Plan profiles and classification accounting
# ----------------------------------------------------------------------
def test_classification_once_per_cached_plan():
    engine = Engine()
    g = graph()
    for _ in range(3):
        engine.count(PATH_QUERY, g)
    stats = engine.stats()
    assert stats.classifications == 1
    assert stats.verdicts == {"FPT": 1}
    # A later compile is a cache hit: the memoized profile is reused
    # and nothing is re-counted.
    profile = engine.compile(PATH_QUERY).profile
    assert profile is not None
    assert profile.case is Case.FPT
    assert engine.stats().classifications == 1


#: Query shape -> ``(query, plan kind, verdict)``.
PROFILED = {
    "path": (PATH_QUERY, "pp-fpt", Case.FPT),
    "union": ("E(x, y) | E(y, x)", "ep-plus", Case.FPT),
    "sentence-disjunct": ("E(x, y) | exists u. E(u, u)", "ep-plus", Case.FPT),
    "clique": (clique_query(4), "pp-fpt", Case.SHARP_CLIQUE_HARD),
}


@pytest.mark.parametrize("shape", PROFILED)
def test_compile_plan_always_attaches_its_profile(shape):
    query, kind, case = PROFILED[shape]
    plan = compile_plan(query)
    assert plan.kind == kind
    assert plan.profile is not None and plan.profile.case is case
    # The attached profile is the plan's own measurement, and it travels
    # with the plan (classify_seconds is compare=False).
    assert plan.profile == profile_plan(plan)
    assert pickle.loads(pickle.dumps(plan)).profile == plan.profile


def test_a_cache_hit_reuses_the_profile_and_a_clear_remeasures():
    engine = Engine()
    first = engine.classify(PATH_QUERY)
    assert engine.classify(PATH_QUERY) is first
    engine.plans.clear()
    # No second tier to reload from: a cleared cache recompiles.
    assert engine.classify(PATH_QUERY) == first
    stats = engine.stats()
    assert stats.classifications == 2 and stats.plan_misses == 2


def test_workloads_reexport_the_one_clique_query():
    from repro.algorithms import clique
    from repro.workloads import generators

    assert clique_query is clique.clique_query is generators.clique_query
    for k in (2, 3, 4):
        names = {f"x{i}" for i in range(k)}
        assert {v.name for v in clique_query(k).liberal} == names
        assert not clique_query(k, liberal=False).liberal


def _verdict_queries():
    from test_encoding import GENERATOR_QUERIES
    from test_theory import K4_SENTENCE_QUERY

    for name, query in GENERATOR_QUERIES.items():
        yield pytest.param(query, id=name)
    yield pytest.param(K4_SENTENCE_QUERY, id="k4_sentence")


@pytest.mark.parametrize("query", _verdict_queries())
def test_a_profile_re_derives_the_classifiers_verdict_at_every_bound(query):
    # Both sides measure exactly at <= 10 variables, so the memoized
    # measures of phi+ (sentence disjuncts included) must reproduce the
    # classifier's verdict at any bound.
    profile = compile_plan(query).profile
    assert profile.exact
    for bound in range(4):
        assert profile.case_for(bound) is classify(query, bound).case


def test_a_sentence_disjunct_counts_toward_the_verdict():
    from test_theory import K4_SENTENCE_QUERY

    engine = Engine(
        policy=ExecutionPolicy(mode="reject", reject_cases=("CLIQUE_EQUIVALENT",))
    )
    with pytest.raises(PolicyRejection) as excinfo:
        engine.count(K4_SENTENCE_QUERY, graph(8, 0.5, seed=2))
    assert excinfo.value.verdict == "CLIQUE_EQUIVALENT"
    assert excinfo.value.measures["core_treewidth"] == 3


def test_frontier_pairs_straddle_the_trichotomy():
    tractable, hard = frontier_query_pair(4)
    assert classify(tractable).case is Case.FPT
    assert classify(hard).case is Case.SHARP_CLIQUE_HARD
    # Same arity on both sides: the pair differs only in atom structure.
    assert tractable.free_variables == hard.free_variables
    # Below the bound the clique side is still tractable.
    assert classify(clique_query(3)).case is Case.FPT
    assert len(frontier_family([4, 5])) == 2
    with pytest.raises(WorkloadError):
        frontier_query_pair(1)
    with pytest.raises(WorkloadError):
        frontier_family([])


# ----------------------------------------------------------------------
# Policy resolution and admission
# ----------------------------------------------------------------------
def test_policy_from_request_validation():
    assert ExecutionPolicy.from_request("reject").mode == "reject"
    policy = ExecutionPolicy.from_request({"mode": "budget", "max_steps": 50})
    assert policy.make_budget().max_steps == 50
    assert ExecutionPolicy.from_request(policy) is policy
    assert ALLOW.make_budget() is None
    with pytest.raises(ReproError):
        ExecutionPolicy.from_request("bogus")
    with pytest.raises(ReproError):
        ExecutionPolicy.from_request({"mode": "budget", "max_steps": -1})
    with pytest.raises(ReproError):
        ExecutionPolicy.from_request({"mode": "allow", "unknown_field": 1})
    with pytest.raises(ReproError):
        ExecutionPolicy.from_request({"mode": "reject", "reject_cases": ["NOPE"]})


def test_reject_policy_refuses_hard_query_at_plan_time():
    engine = Engine(policy="reject")
    g = graph(30, 0.5, seed=1)
    with pytest.raises(PolicyRejection) as excinfo:
        engine.count(str(HARD), g)
    assert excinfo.value.verdict == "SHARP_CLIQUE_HARD"
    assert excinfo.value.measures["contract_treewidth"] == 3
    assert excinfo.value.policy == "reject"
    stats = engine.stats()
    assert stats.policy_rejections == 1
    assert stats.count_calls == 0  # refused before any execution
    # The matched tractable twin sails through the same policy.
    assert engine.count(str(TRACTABLE), g) >= 0


def test_per_request_policy_overrides_engine_default():
    g = graph(8, 0.5, seed=5)
    permissive = Engine()
    with pytest.raises(PolicyRejection):
        permissive.count(str(HARD), g, policy="reject")
    strict = Engine(policy="reject")
    # The override relaxes as well as tightens.
    assert strict.count(str(HARD), g, policy="allow") >= 0
    assert strict.stats().policy_rejections == 0


# ----------------------------------------------------------------------
# Cooperative budgets
# ----------------------------------------------------------------------
def test_budget_abort_raises_with_progress():
    engine = Engine(policy={"mode": "budget", "max_steps": 5})
    with pytest.raises(BudgetExceeded) as excinfo:
        engine.count(PATH_QUERY, graph())
    assert excinfo.value.progress["steps"] > 5
    assert excinfo.value.progress["max_steps"] == 5
    assert engine.stats().budget_aborts == 1


def test_degrade_returns_profile_estimate():
    g = graph(10, 0.5, seed=5)
    exact = Engine().count(str(TRACTABLE), g)
    cold = Engine()
    degraded = cold.count(
        str(TRACTABLE), g, policy={"mode": "degrade", "max_steps": 1}
    )
    # The estimator contract: the trivial upper bound n^arity, which by
    # construction dominates the exact count.
    assert degraded == len(g.universe) ** 4
    assert degraded >= exact
    assert cold.stats().budget_aborts == 1


def test_budget_abort_inside_pool_workers():
    engine = Engine(processes=1)
    try:
        with pytest.raises(BudgetExceeded):
            engine.count_sharded(
                PATH_QUERY,
                graph(20, 0.4, seed=9),
                shard_count=2,
                parallel=True,
                policy={"mode": "budget", "max_steps": 5},
            )
        assert engine.stats().budget_aborts == 1
    finally:
        engine.close()


def test_cost_budget_ships_remaining_allowance_across_pickle():
    budget = CostBudget(max_steps=100, max_seconds=30.0).start()
    budget.charge(40)
    shipped = pickle.loads(pickle.dumps(budget))
    assert shipped.max_steps == 60
    assert shipped.steps == 0
    assert shipped.max_seconds is not None and shipped.max_seconds <= 30.0


def test_budget_validation_is_a_bad_request_not_an_abort():
    with pytest.raises(ReproError) as excinfo:
        CostBudget(max_steps=0)
    assert not isinstance(excinfo.value, BudgetExceeded)


# ----------------------------------------------------------------------
# The single guarded path: every entry point routes the same way
# ----------------------------------------------------------------------
#: Entry point -> ``(call(engine, query, graph, **policy), batch)``.  A
#: fresh engine has ``graph`` registered as "net"; ``count_sharded``
#: runs both on that ref and on unregistered data.
ENTRY_POINTS = {
    "count": (lambda e, q, g, **kw: e.count(q, g, **kw), False),
    "count_sharded-ref": (
        lambda e, q, g, **kw: e.count_sharded(q, "net", parallel=False, **kw),
        False,
    ),
    "count_sharded-adhoc": (
        lambda e, q, g, **kw: e.count_sharded(
            q, g, shard_count=3, parallel=False, **kw
        ),
        False,
    ),
    "count_many": (
        lambda e, q, g, **kw: e.count_many(
            [q, "E(x, y)"], [g, "net"], parallel=False, **kw
        ),
        True,
    ),
}


@pytest.fixture(params=ENTRY_POINTS, ids=str)
def entry_point(request):
    """``(engine, call, batch)``: a cold engine and one way into it."""
    call, batch = ENTRY_POINTS[request.param]
    with Engine(processes=1) as engine:
        engine.register_structure("net", graph(), shard_count=3)
        engine.reset_stats()
        yield engine, call, batch


def test_every_entry_point_raises_on_a_tripped_budget(entry_point):
    engine, call, _ = entry_point
    with pytest.raises(BudgetExceeded) as excinfo:
        call(engine, PATH_QUERY, graph(), policy={"mode": "budget", "max_steps": 1})
    assert excinfo.value.progress["steps"] > 1
    stats = engine.stats()
    assert stats.budget_aborts == 1
    assert stats.count_calls == 0  # an aborted request is not a count


def test_an_untripped_budget_changes_no_count(entry_point):
    engine, call, batch = entry_point
    armed = {"mode": "budget", "max_steps": 10**12, "max_seconds": 600}
    budgeted = call(engine, PATH_QUERY, graph(), policy=armed)
    assert budgeted == call(engine, PATH_QUERY, graph(), policy="allow")
    with Engine() as cold:  # not an echo of the first call's memos
        exact = cold.count(PATH_QUERY, graph())
    assert exact == (budgeted[0][0] if batch else budgeted)
    assert engine.stats().budget_aborts == 0


def test_every_entry_point_degrades_in_its_own_shape(entry_point):
    engine, call, batch = entry_point
    degraded = call(
        engine, PATH_QUERY, graph(), policy={"mode": "degrade", "max_steps": 1}
    )
    estimate = len(graph().universe) ** 2  # both queries have arity 2
    assert degraded == ([[estimate] * 2] * 2 if batch else estimate)
    stats = engine.stats()
    assert stats.budget_aborts == 1
    assert stats.count_calls == (4 if batch else 1)


def test_every_entry_point_rejects_before_executing(entry_point):
    engine, call, _ = entry_point
    with pytest.raises(PolicyRejection):
        call(engine, str(HARD), graph(), policy="reject")
    stats = engine.stats()
    assert stats.policy_rejections == 1
    assert stats.count_calls == stats.batch_calls == stats.sharded_calls == 0
    assert stats.execute_seconds == 0.0
    assert stats.context_hits == stats.context_misses == 0


def test_every_entry_point_charges_an_outer_budget_scope(entry_point):
    """Under ``allow`` the engine opens no scope of its own, so the
    caller's ambient budget keeps governing the execution (a
    ``budget_scope(None)`` here would silently lift it)."""
    engine, call, _ = entry_point
    engine.compile(PATH_QUERY)  # compile-time charges stay out of it
    engine.compile("E(x, y)")
    with budget_scope(CostBudget(max_steps=10**9)) as outer:
        call(engine, PATH_QUERY, graph())
    assert outer.steps > 0
    # Fresh data for the second call: the first one warmed every memo
    # it touched, the resident contexts of "net"'s shards included.
    engine.register_structure("net", graph(seed=4), shard_count=3)
    with budget_scope(CostBudget(max_steps=1)), pytest.raises(BudgetExceeded):
        call(engine, PATH_QUERY, graph(seed=4))
    assert engine.stats().budget_aborts == 1


# ----------------------------------------------------------------------
# engine.classify and the HTTP surface
# ----------------------------------------------------------------------
def test_engine_classify_reuses_the_plan_cache():
    engine = Engine()
    profile = engine.classify(str(HARD))
    assert profile.case is Case.SHARP_CLIQUE_HARD
    assert profile.case_for(4) is Case.FPT  # re-derived, not recomputed
    assert engine.stats().classifications == 1
    engine.classify(str(HARD))
    assert engine.stats().classifications == 1


def _post(base: str, path: str, payload: dict, timeout: float = 30.0) -> dict:
    request = urllib.request.Request(
        f"{base}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(base: str, path: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.load(response)


def test_http_classify_and_policy_routing():
    server = CountingServer(service=CountingService(), port=0)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"

        # The dry run: both sides of the frontier, no structure shipped.
        verdict = _post(
            base, "/classify", {"query": str(TRACTABLE), "policy": "reject"}
        )
        assert verdict["verdict"] == "FPT"
        assert verdict["admitted"] is True
        assert verdict["profile"]["contract_treewidth"] == 1
        refused = _post(
            base, "/classify", {"query": str(HARD), "policy": "reject"}
        )
        assert refused["verdict"] == "SHARP_CLIQUE_HARD"
        assert refused["admitted"] is False  # still 200: classify never 422s
        assert refused["policy"]["mode"] == "reject"

        # The same hard query through /count with the same policy: 422
        # with the verdict and measures in the body.
        graph_json = {
            "E": [[i, j] for i in range(6) for j in range(6) if i != j]
        }
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/count",
                {
                    "query": str(HARD),
                    "structure": {"relations": graph_json},
                    "policy": "reject",
                },
            )
        assert excinfo.value.code == 422
        body = json.load(excinfo.value)
        assert body["verdict"] == "SHARP_CLIQUE_HARD"
        assert body["measures"]["contract_treewidth"] == 3
        assert body["policy"] == "reject"

        # A tripped step budget surfaces as 504 with progress stats.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/count",
                {
                    "query": str(TRACTABLE),
                    "structure": {"relations": graph_json},
                    "policy": {"mode": "budget", "max_steps": 5},
                },
            )
        assert excinfo.value.code == 504
        body = json.load(excinfo.value)
        assert body["progress"]["steps"] > 5

        # Malformed policies are the client's fault, not a 500.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/count",
                {
                    "query": PATH_QUERY,
                    "structure": {"relations": graph_json},
                    "policy": ["not", "a", "policy"],
                },
            )
        assert excinfo.value.code == 400

        # The verdict counters reach /metrics in both renderings.
        engine_stats = _get(base, "/metrics")["engine"]
        assert engine_stats["classifications"] >= 2
        assert engine_stats["verdicts"]["SHARP_CLIQUE_HARD"] >= 1
        assert engine_stats["policy_rejections"] >= 1
        assert engine_stats["budget_aborts"] >= 1
        scrape = urllib.request.urlopen(
            f"{base}/metrics?format=prometheus", timeout=30
        ).read().decode()
        assert 'repro_plan_verdicts_total{verdict="SHARP_CLIQUE_HARD"}' in scrape
        assert "repro_engine_policy_rejections_total" in scrape


CLASSIFY_POLICIES = [
    "allow",
    "reject",
    "budget",
    {"mode": "reject", "treewidth_bound": 3},
    {"mode": "reject", "treewidth_bound": 1},
    {"mode": "reject", "reject_cases": ["CLIQUE_EQUIVALENT"]},
]


def test_classify_admits_exactly_what_count_does_not_reject():
    from repro.workloads.generators import hidden_clique_query

    queries = [PATH_QUERY, str(TRACTABLE), str(HARD), hidden_clique_query(3)]
    g = graph(6, 0.5, seed=2)
    engine = Engine()  # counts run in this thread: no pool is forked
    server = CountingServer(service=CountingService(engine=engine), port=0)
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        verdicts = set()
        for query in queries:
            for policy in CLASSIFY_POLICIES:
                answer = _post(
                    base, "/classify", {"query": str(query), "policy": policy}
                )
                verdicts.add(answer["verdict"])
                try:
                    engine.count(query, g, policy=policy)
                    rejected = False
                except PolicyRejection:
                    rejected = True
                assert answer["admitted"] is not rejected, (query, policy)
    assert not engine.pool.started
    assert verdicts == {"FPT", "CLIQUE_EQUIVALENT", "SHARP_CLIQUE_HARD"}


def test_deadline_budget_stops_worker_and_drains_abandoned():
    """The regression budgets exist for: a timed-out request under a
    budget policy aborts *inside* the engine around the deadline, so
    the service's ``abandoned`` gauge drains instead of a worker thread
    grinding on for the query's natural (here: effectively unbounded)
    runtime."""
    config = ServiceConfig(
        max_in_flight=1, max_queue=0, request_timeout_seconds=0.4
    )
    server = CountingServer(
        service=CountingService(
            engine=Engine(), config=config, owns_engine=True
        ),
        port=0,
    )
    # A 5-clique on a 60-node graph: bag-width-5 DP over a 60-element
    # domain, far beyond anything a 0.4s deadline could finish.
    monster = clique_query(5)
    g = random_graph(60, 0.5, seed=11)
    edges = [[a, b] for a, b in g.relations["E"]]
    with BackgroundServer(server) as background:
        host, port = background.server.address
        base = f"http://{host}:{port}"
        started = time.monotonic()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(
                base,
                "/count",
                {
                    "query": str(monster),
                    "structure": {"relations": {"E": edges}},
                    "policy": {"mode": "budget"},
                },
                timeout=30,
            )
        assert excinfo.value.code == 504
        # The budget's max_seconds was capped at the request deadline,
        # so the executor thread must release its slot shortly after
        # the 504 -- not after the count finishes naturally.
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline:
            health = _get(base, "/healthz")
            if health["executing"] == 0 and health["abandoned"] == 0:
                break
            time.sleep(0.05)
        else:
            pytest.fail(
                "budgeted execution kept its worker thread after the 504"
            )
        assert time.monotonic() - started < 10.0
