"""Counting answers to queries: the library's main entry point.

:func:`count_answers` counts the satisfying assignments (over the
liberal variables) of an existential positive query on a finite
structure, following the paper's pipeline; the query's shape picks the
branch:

* primitive positive queries are counted with the Theorem 2.11
  algorithm (core, then one variable elimination: ∃-components
  projected away, liberal variables summed out),
  which is polynomial in the data for bounded-treewidth query classes;
* general EP queries go through the Section 5.4 decomposition: if some
  sentence disjunct holds the answer is ``|B|^|V|``; otherwise the
  cancelled inclusion-exclusion combination of ``phi*`` is evaluated,
  with each pp-count computed by the Theorem 2.11 algorithm.

It routes through a :class:`~repro.engine.Engine` (the process-wide
default one unless another is passed; sharded and batch counts are
:class:`~repro.engine.Engine` methods): the query-side
pipeline work is compiled once into a cached plan, so repeated calls
with the same query only pay the per-structure execution cost.  The
independent baselines the test-suite checks the pipeline against live
in :mod:`repro.algorithms.brute_force`.
"""

from __future__ import annotations

from typing import Union

from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.structures.structure import Structure

Query = Union[EPFormula, PPFormula, str]


def count_answers(
    query: Query,
    structure: Structure,
    *,
    engine=None,
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
    engine:
        The :class:`~repro.engine.Engine` to route through (default:
        the process-wide default engine).
    context:
        An explicit :class:`~repro.engine.context.ExecutionContext`
        built for ``structure``.  When given, the engine's compiled plan
        is executed against that context (sharing its index and
        memoized boundary relations with the caller) instead of the
        engine's context store.
    """
    from repro.engine.api import default_engine
    from repro.engine.executor import execute

    if engine is None:
        engine = default_engine()
    if context is None:
        return engine.count(query, structure)
    return execute(engine.compile(query), structure, context)
