"""repro: counting answers to existential positive queries.

A from-scratch implementation of the algorithms and complexity
classification of

    Hubie Chen and Stefan Mengel,
    "Counting Answers to Existential Positive Queries:
     A Complexity Classification", PODS 2016 (arXiv:1601.03240).

The package counts the answers to unions of conjunctive queries
(existential positive formulas) on finite relational structures,
implements the paper's equivalence theorem (EP-to-PP reductions via
inclusion-exclusion and Vandermonde systems), and classifies query
classes into the trichotomy FPT / p-Clique-equivalent / p-#Clique-hard.

Quickstart
----------
>>> from repro import Structure, count_answers
>>> graph = Structure.from_relations({"E": [(1, 2), (2, 3), (3, 1)]})
>>> count_answers("exists z. (E(x, z) & E(z, y))", graph)
3
"""

from repro.budget import CostBudget
from repro.exceptions import BudgetExceeded, PolicyRejection, ReproError
from repro.logic import (
    EPFormula,
    RelationSymbol,
    Signature,
    parse_query,
    pp_from_atom_specs,
)
from repro.structures import (
    Structure,
    ShardedStructure,
    StructureDelta,
    random_cluster_graph,
    random_graph,
    random_structure,
    shard_structure,
)
from repro.core import (
    Case,
    Classification,
    classify,
    classify_ep_class,
    classify_pp_class,
    classify_query,
    count_answers,
    counting_equivalent,
    star_decomposition,
)
from repro.engine import (
    CountingPlan,
    Engine,
    EngineStats,
    ExecutionContext,
    ExecutionPolicy,
    PlanProfile,
    StructureRegistry,
    UnknownStructureError,
    VersionConflict,
    compile_plan,
    count_many,
    default_engine,
    execute_sharded,
)

__version__ = "1.13.0"

__all__ = [
    "ReproError",
    "BudgetExceeded",
    "PolicyRejection",
    "CostBudget",
    "EPFormula",
    "RelationSymbol",
    "Signature",
    "parse_query",
    "pp_from_atom_specs",
    "Structure",
    "ShardedStructure",
    "StructureDelta",
    "random_cluster_graph",
    "random_graph",
    "random_structure",
    "shard_structure",
    "Case",
    "Classification",
    "classify",
    "classify_ep_class",
    "classify_pp_class",
    "classify_query",
    "count_answers",
    "counting_equivalent",
    "star_decomposition",
    "CountingPlan",
    "Engine",
    "EngineStats",
    "ExecutionContext",
    "ExecutionPolicy",
    "PlanProfile",
    "StructureRegistry",
    "UnknownStructureError",
    "VersionConflict",
    "compile_plan",
    "count_many",
    "default_engine",
    "execute_sharded",
    "__version__",
]
