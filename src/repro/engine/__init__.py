"""The compiled-plan counting engine.

Separates the query-side work of the Chen--Mengel pipeline (parsing,
cores, ∃-component elimination, tree decomposition, cancelled
inclusion-exclusion) from per-structure execution, so plans are built
once, cached, and run many times over many structures:

* :mod:`repro.engine.plan` -- :func:`compile_plan` /
  :class:`CountingPlan`: the structure-independent compilation, plus
  :func:`component_pp_plans`, the query-component split the sharded
  path executes;
* :mod:`repro.engine.context` -- :class:`ExecutionContext`: the
  per-structure execution state (lazy dense-int encoding,
  memoized ∃-component boundary relations, cached shard
  partitions);
* :mod:`repro.engine.cache` -- the in-memory LRU plan cache keyed by
  canonical query form, the only compile cache (contexts live in
  :mod:`repro.engine.resident`'s store);
* :mod:`repro.engine.executor` -- :func:`execute`, the batch
  :func:`count_many` and the sharded :func:`execute_sharded` scale-out
  path; both fan out only over the :class:`WorkerPool` they are handed
  and run sequentially without one;
* :mod:`repro.engine.pool` -- :class:`WorkerPool`, the long-lived
  process pool whose workers fork the engine's context store and keep
  execution contexts resident across calls, keyed by structure
  fingerprint; each :class:`Engine` owns exactly one;
* :mod:`repro.engine.registry` -- :class:`StructureRegistry`, named
  resident structures with pinning and LRU eviction, so requests can
  count against a *reference* instead of shipping data;
* :mod:`repro.engine.policy` -- :class:`ExecutionPolicy`, the
  classification-driven routing policy (allow / reject / budget /
  degrade) applied to each plan's :class:`PlanProfile` verdict before
  execution;
* :mod:`repro.engine.api` -- the :class:`Engine` facade with hit-rate
  and timing statistics, and the process-wide default engine behind
  :func:`repro.core.counting.count_answers`.
"""

from repro.engine.api import (
    Engine,
    EngineStats,
    StructureRef,
    default_engine,
    reset_default_engine,
    set_default_engine,
)
from repro.engine.cache import LRUCache, PlanCache, canonical_query_form
from repro.engine.context import ContextStats, ExecutionContext
from repro.engine.executor import count_many, execute, execute_sharded
from repro.engine.pool import WorkerPool, WorkerTaskError, default_process_count
from repro.engine.registry import (
    RegistryEntry,
    RegistryFull,
    StructureRegistry,
    UnknownStructureError,
    VersionConflict,
)
from repro.engine.plan import (
    PLAN_KINDS,
    CountingPlan,
    PlanProfile,
    WeightedPPPlan,
    compile_plan,
    component_pp_plans,
    profile_plan,
)
from repro.engine.policy import ALLOW, POLICY_MODES, ExecutionPolicy

__all__ = [
    "Engine",
    "EngineStats",
    "StructureRef",
    "StructureRegistry",
    "RegistryEntry",
    "RegistryFull",
    "UnknownStructureError",
    "VersionConflict",
    "default_engine",
    "reset_default_engine",
    "set_default_engine",
    "LRUCache",
    "PlanCache",
    "ContextStats",
    "ExecutionContext",
    "canonical_query_form",
    "count_many",
    "execute",
    "execute_sharded",
    "WorkerPool",
    "WorkerTaskError",
    "default_process_count",
    "PLAN_KINDS",
    "CountingPlan",
    "PlanProfile",
    "WeightedPPPlan",
    "compile_plan",
    "component_pp_plans",
    "profile_plan",
    "ALLOW",
    "POLICY_MODES",
    "ExecutionPolicy",
]
