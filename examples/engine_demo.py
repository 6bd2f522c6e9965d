"""The counting engine: compile once, execute everywhere.

Demonstrates the `repro.engine` subsystem on the social-network
scenario: plan compilation and caching, warm vs. cold timings, the batch
API over many structures, and the engine statistics.

Run with::

    PYTHONPATH=src python examples/engine_demo.py
"""

import time

from repro import Engine
from repro.engine.plan import compile_plan
from repro.structures.random_gen import random_graph
from repro.workloads.scenarios import social_network, tenant_network


def main() -> None:
    scenario = social_network(people=20, seed=0)
    structure = scenario.structure
    engine = Engine()

    print("== compiled plans ==")
    for name, query in scenario.queries.items():
        plan = engine.compile(query)
        print(f"{name:28s} {plan.describe()}  ({plan.compile_seconds * 1e3:.1f} ms)")

    print("\n== the compile cost the plan cache removes ==")
    query = scenario.queries["reachable_in_two_or_one"]
    before = time.perf_counter()
    compile_plan(query)  # what every pre-engine call re-paid
    per_call_compile = time.perf_counter() - before
    before = time.perf_counter()
    count = engine.count(query, structure)  # plan-cache hit: execute only
    warm = time.perf_counter() - before
    print(
        f"count={count}  compile {per_call_compile * 1e3:.1f} ms per call saved, "
        f"warm count {warm * 1e3:.1f} ms"
    )

    print("\n== batch over many structures ==")
    structures = [random_graph(12, 0.2, seed=s, relation="Follows") for s in range(6)]
    structures = [s.with_signature(structure.signature) for s in structures]
    grid = engine.count_many(
        list(scenario.queries.values()), structures, parallel=False
    )
    for name, row in zip(scenario.queries, grid):
        print(f"{name:28s} {row}")

    print("\n== sharded counting over a multi-tenant structure ==")
    tenants = tenant_network(tenants=10, people_per_tenant=8, seed=1)
    tenant_structure = tenants.structure
    query = tenants.queries["followers_of_followers"]
    whole = engine.count(query, tenant_structure)
    sharded = engine.count_sharded(
        query, tenant_structure, shard_count=4, parallel=False
    )
    print(f"whole={whole}  sharded(4)={sharded}  (exactly equal by construction)")

    print("\n== engine stats ==")
    for key, value in engine.stats().as_dict().items():
        print(f"{key:28s} {value}")


if __name__ == "__main__":
    main()
