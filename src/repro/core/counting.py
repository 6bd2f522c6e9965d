"""Counting answers to queries: the library's main entry point.

:func:`count_answers` counts the satisfying assignments (over the
liberal variables) of an existential positive query on a finite
structure.  Several strategies are available; ``"auto"`` (the default)
follows the paper's pipeline:

* primitive positive queries are counted with the Theorem 2.11
  algorithm (core + ∃-component elimination + junction-tree counting),
  which is polynomial in the data for bounded-treewidth query classes;
* general EP queries go through the Section 5.4 decomposition: if some
  sentence disjunct holds the answer is ``|B|^|V|``; otherwise the
  cancelled inclusion-exclusion combination of ``phi*`` is evaluated,
  with each pp-count computed by the Theorem 2.11 algorithm.

The naive strategies are retained as independent baselines for testing
and benchmarking.

Since the introduction of :mod:`repro.engine`, :func:`count_answers`
routes through the process-wide default :class:`~repro.engine.Engine`:
the query-side pipeline work is compiled once into a cached plan, so
repeated calls with the same query (under any strategy) only pay the
per-structure execution cost.  Pass ``engine=None`` explicitly to force
the direct, uncached code path (used by the engine's own equivalence
tests).
"""

from __future__ import annotations

from typing import Callable, Union

from repro.algorithms.brute_force import (
    count_answers_naive,
    count_ep_answers_by_disjuncts,
    count_pp_answers_brute_force,
)
from repro.algorithms.fpt_counting import count_pp_answers_fpt
from repro.core.ep_to_pp import count_ep_answers_via_plus, plus_decomposition
from repro.core.inclusion_exclusion import count_by_inclusion_exclusion
from repro.exceptions import ReproError
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.logic.pp import PPFormula
from repro.structures.structure import Structure

Query = Union[EPFormula, PPFormula, str]

#: The available counting strategies.
STRATEGIES = ("auto", "fpt", "inclusion-exclusion", "disjuncts", "naive")


def _as_ep(query: Query) -> EPFormula:
    if isinstance(query, str):
        return parse_query(query)
    if isinstance(query, PPFormula):
        return EPFormula.from_pp(query)
    if isinstance(query, EPFormula):
        return query
    raise ReproError(f"cannot interpret {query!r} as a query")


_USE_DEFAULT_ENGINE = object()


def count_answers(
    query: Query,
    structure: Structure,
    strategy: str = "auto",
    engine=_USE_DEFAULT_ENGINE,
    context=None,
) -> int:
    """Count the answers ``|query(structure)|``.

    Parameters
    ----------
    query:
        An :class:`~repro.logic.ep.EPFormula`, a
        :class:`~repro.logic.pp.PPFormula`, or query text understood by
        :func:`repro.logic.parser.parse_query`.
    structure:
        The finite relational structure (database) to count over.
    strategy:
        One of ``"auto"``, ``"fpt"``, ``"inclusion-exclusion"``,
        ``"disjuncts"``, ``"naive"``.

        * ``auto`` -- the paper's pipeline (recommended).
        * ``fpt`` -- force the Theorem 2.11 pp-algorithm (the query must
          be primitive positive).
        * ``inclusion-exclusion`` -- force the Section 5.3/5.4 reduction
          to pp-formulas, with FPT counting of each pp-formula.
        * ``disjuncts`` -- materialize the union of the disjuncts'
          answer sets (baseline).
        * ``naive`` -- enumerate all ``|B|^|V|`` assignments (baseline).
    engine:
        The :class:`~repro.engine.Engine` to route through.  Defaults to
        the process-wide default engine (plan caching on); pass ``None``
        to bypass the engine and run the legacy uncached pipeline.
    context:
        An explicit :class:`~repro.engine.context.ExecutionContext`
        built for ``structure``.  When given, the compiled plan is
        executed against that context (sharing its index and memoized
        boundary relations with the caller) instead of the engine's
        context store; plans still come from the engine's plan cache
        when an engine is in play.
    """
    if strategy not in STRATEGIES:
        raise ReproError(f"unknown strategy {strategy!r}; choose one of {STRATEGIES}")

    if engine is _USE_DEFAULT_ENGINE:
        from repro.engine.api import default_engine

        engine = default_engine()
    if context is not None:
        from repro.engine.executor import execute
        from repro.engine.plan import compile_plan

        if context.structure is not structure and context.structure != structure:
            raise ReproError(
                "the execution context was built for a different structure"
            )
        plan = (
            engine.compile(query, strategy)
            if engine is not None
            else compile_plan(query, strategy)
        )
        return execute(plan, structure, context)
    if engine is not None:
        return engine.count(query, structure, strategy=strategy)

    if strategy == "naive":
        return count_answers_naive(_as_ep(query), structure)
    if strategy == "disjuncts":
        return count_ep_answers_by_disjuncts(_as_ep(query), structure)

    if isinstance(query, str):
        query = parse_query(query)

    if strategy == "fpt":
        if isinstance(query, EPFormula):
            if not query.is_primitive_positive():
                raise ReproError(
                    "strategy 'fpt' applies to primitive positive queries only; "
                    "use 'auto' or 'inclusion-exclusion' for unions"
                )
            query = query.to_pp()
        return count_pp_answers_fpt(query, structure)

    # auto / inclusion-exclusion
    if isinstance(query, PPFormula):
        return count_pp_answers_fpt(query, structure)
    if query.is_primitive_positive():
        return count_pp_answers_fpt(query.to_pp(), structure)
    return count_ep_answers_via_plus(query, structure, counter=count_pp_answers_fpt)


def count_answers_sharded(
    query: Query,
    structure: Structure,
    shard_count: int | None = None,
    strategy: str = "auto",
    engine=_USE_DEFAULT_ENGINE,
    parallel: bool | None = None,
    processes: int | None = None,
) -> int:
    """Count ``|query(structure)|`` by sharded data-side execution.

    Convenience wrapper over :meth:`repro.engine.Engine.count_sharded`:
    the structure is partitioned into component-aligned shards (default:
    one per CPU), each connected query component is counted per shard --
    over the process pool where that pays off -- and the exact count is
    recombined (shard counts sum, query components multiply, sentence
    components OR).
    """
    if engine is _USE_DEFAULT_ENGINE:
        from repro.engine.api import default_engine

        engine = default_engine()
    if engine is None:
        from repro.engine.api import Engine

        # A throwaway engine must tear its worker pool down before it
        # goes out of scope; leaving that to ``__del__`` leaked the
        # child processes until some later GC pass (or never).
        with Engine() as engine:
            return engine.count_sharded(
                query,
                structure,
                shard_count=shard_count,
                strategy=strategy,
                parallel=parallel,
                processes=processes,
            )
    return engine.count_sharded(
        query,
        structure,
        shard_count=shard_count,
        strategy=strategy,
        parallel=parallel,
        processes=processes,
    )


def count_answers_all_strategies(query: Query, structure: Structure) -> dict[str, int]:
    """Count with every applicable strategy; used for cross-validation.

    Returns a mapping from strategy name to count.  All values must
    agree for a correct implementation; the test-suite asserts this on
    randomized inputs.
    """
    ep = _as_ep(query)
    out = {
        "naive": count_answers_naive(ep, structure),
        "disjuncts": count_ep_answers_by_disjuncts(ep, structure),
        "auto": count_answers(ep, structure, strategy="auto"),
    }
    if ep.is_primitive_positive():
        out["fpt"] = count_pp_answers_fpt(ep.to_pp(), structure)
        out["pp-bruteforce"] = count_pp_answers_brute_force(ep.to_pp(), structure)
    else:
        out["inclusion-exclusion"] = count_answers(ep, structure, strategy="inclusion-exclusion")
    return out


def make_counter(strategy: str = "auto") -> Callable[[Query, Structure], int]:
    """A counting callable with the strategy baked in (for harness code)."""

    def counter(query: Query, structure: Structure) -> int:
        return count_answers(query, structure, strategy=strategy)

    return counter
