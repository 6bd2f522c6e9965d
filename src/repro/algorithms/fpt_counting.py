"""The FPT counting algorithm for tractable pp-formula classes.

Theorem 2.11 of the paper (imported from Chen & Mengel, ICDT 2015)
states that counting answers is fixed-parameter tractable for classes of
prenex pp-formulas satisfying the *tractability condition*: the cores
and the contract graphs of the formulas have bounded treewidth.  This
module implements both the structural notions and the algorithm:

* :func:`exists_components` -- the ``∃-components`` of a formula: the
  connected components of the core's quantified part, each together
  with its liberal-variable boundary.
* :func:`contract_graph` -- the graph on the liberal variables obtained
  by adding a clique on the boundary of every ∃-component to the
  liberal part of the core's Gaifman graph (Section 2.4).
* :func:`count_pp_answers_fpt` -- the counting algorithm:

  1. replace the formula by its core (logically equivalent, so the
     answer count is unchanged);
  2. eliminate each ∃-component by computing the relation over its
     boundary consisting of the boundary assignments that extend to a
     homomorphism of the component into the data structure;
  3. count the assignments of the liberal variables that satisfy the
     remaining quantifier-free atoms plus the new boundary relations,
     by summing the liberal variables out in the groups peeled from an
     elimination ordering of the contract graph.

  Both passes are one kernel, :func:`repro.algorithms.csp.eliminate`:
  step 2 projects quantified variables away, step 3 sums liberal ones
  away.  Step 2 costs ``|B|^(boundary)`` per component and step 3
  ``|B|^(width+1)`` per elimination; since every boundary is a clique
  of the contract graph, both are bounded by the contract graph's
  treewidth plus one, giving the FPT (indeed polynomial, for a fixed
  class) running time of Theorem 2.11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.algorithms.csp import count_solutions_tables
from repro.algorithms.treewidth import elimination_groups, treewidth
from repro.logic.pp import PPFormula
from repro.logic.terms import Variable
from repro.structures.graphs import Graph, graph_components
from repro.structures.structure import Structure

if TYPE_CHECKING:  # pragma: no cover - type-only import (the engine
    # imports this module; the runtime import below is deferred)
    from repro.engine.context import ExecutionContext


@dataclass(frozen=True)
class ExistsComponent:
    """One ∃-component of a pp-formula.

    ``interior`` are the quantified variables of the component,
    ``boundary`` the liberal variables adjacent to it, and ``structure``
    the induced substructure of the core on ``interior ∪ boundary``
    restricted to the atoms that touch the interior.
    """

    interior: frozenset[Variable]
    boundary: frozenset[Variable]
    structure: Structure
    # Derived at compile time from the fields above, so equality and
    # the hash (boundary memo keys) leave them out.
    #: The boundary in the fixed column order (sorted by name).
    boundary_order: tuple[Variable, ...] = field(compare=False)
    #: The component's atoms as repr-sorted ``(relation, scope)`` pairs
    #: -- the deterministic order the ∃-elimination reads.
    atom_scopes: tuple[tuple[str, tuple[Variable, ...]], ...] = field(compare=False)

    @property
    def vertices(self) -> frozenset[Variable]:
        return self.interior | self.boundary


def _core_or_self(formula: PPFormula, use_core: bool) -> PPFormula:
    return formula.core() if use_core else formula


def exists_components(formula: PPFormula, use_core: bool = True) -> list[ExistsComponent]:
    """The ∃-components of (the core of) ``formula`` (Section 2.4).

    Each component corresponds to a connected component of the graph of
    the core restricted to the quantified variables; its boundary is the
    set of liberal variables with an edge into that component.
    """
    base = _core_or_self(formula, use_core)
    return _exists_components(base, base.graph())


def _exists_components(base: PPFormula, graph: Graph) -> list[ExistsComponent]:
    """The ∃-components of ``base``, whose Gaifman graph is ``graph``."""
    liberal = base.liberal
    quantified_graph = {
        v: neighbors - liberal for v, neighbors in graph.items() if v not in liberal
    }
    components: list[ExistsComponent] = []
    for interior in graph_components(quantified_graph):
        boundary = frozenset().union(*(graph[v] & liberal for v in interior))
        # Atoms that touch the interior.
        relations = {
            name: [t for t in tuples if not interior.isdisjoint(t)]
            for name, tuples in base.structure.relations.items()
        }
        atoms = sorted(
            ((name, t) for name, tuples in relations.items() for t in tuples), key=repr
        )
        components.append(
            ExistsComponent(
                interior=interior,
                boundary=boundary,
                structure=Structure(base.signature, interior | boundary, relations),
                boundary_order=tuple(sorted(boundary, key=lambda v: v.name)),
                atom_scopes=tuple(atoms),
            )
        )
    # Components may share their least vertex (a boundary variable);
    # interiors are disjoint, so the least interior variable breaks the
    # tie whatever order the hash-seeded sets above came in.
    return sorted(
        components,
        key=lambda c: (min(repr(v) for v in c.vertices), min(repr(v) for v in c.interior)),
    )


def contract_graph(formula: PPFormula, use_core: bool = True) -> Graph:
    """The contract graph of ``formula`` (Definition in Section 2.4).

    Vertices are the liberal variables; edges are the edges of the
    core's Gaifman graph between liberal variables, plus a clique on the
    boundary of every ∃-component.
    """
    base = _core_or_self(formula, use_core)
    graph = base.graph()
    return _contract_graph(base, graph, _exists_components(base, graph))


def _contract_graph(
    base: PPFormula, graph: Graph, components: Iterable[ExistsComponent]
) -> Graph:
    """The contract graph of ``base`` from its Gaifman graph ``graph``
    and its ∃-components."""
    liberal = base.liberal
    contract = {v: neighbors & liberal for v, neighbors in graph.items() if v in liberal}
    for component in components:
        for v in component.boundary:
            contract[v] |= component.boundary - {v}
    return contract


@dataclass(frozen=True)
class PPCountingPlan:
    """The structure-independent compilation of one pp-formula.

    Everything the Theorem 2.11 algorithm derives from the *query* alone
    is computed once and stored here, so the plan can be executed against
    many data structures without repeating the query-side work:

    ``formula``
        The original formula (kept for bookkeeping and empty-structure
        semantics).
    ``base``
        The core of the formula (or the formula itself when compiled
        with ``use_core=False``); execution works on this.
    ``liberal_order``
        The liberal variables in the fixed order the CSP uses.
    ``liberal_atom_scopes``
        The ``(relation, scope)`` pairs of atoms entirely over liberal
        variables; at execution time each becomes a table constraint
        filled from the data structure's relation.
    ``components``
        The ∃-components of the base, each eliminated at execution time
        into a boundary relation over the data structure.
    ``order`` / ``width``
        The groups of liberal variables the count sums out, peeled
        leaf bag first from the elimination forest of the contract
        graph's treewidth ordering
        (:func:`~repro.algorithms.treewidth.elimination_groups`), and
        its width.  The tables built at
        execution time have the contract graph as their primal graph
        (boundaries are cliques, liberal atoms are cliques), so
        eliminating group by group keeps every intermediate table
        within a bag; the data picks the order inside a group.
    """

    formula: PPFormula
    base: PPFormula
    liberal_order: tuple[Variable, ...]
    liberal_atom_scopes: tuple[tuple[str, tuple[Variable, ...]], ...]
    components: tuple[ExistsComponent, ...]
    order: tuple[tuple[Variable, ...], ...]
    width: int


def compile_pp_plan(formula: PPFormula, use_core: bool = True) -> PPCountingPlan:
    """Compile a pp-formula into a reusable :class:`PPCountingPlan`.

    This is the query-side half of :func:`count_pp_answers_fpt`: core
    computation, ∃-component extraction, contract-graph construction and
    its elimination ordering.  None of it depends on the data structure.
    """
    base = _core_or_self(formula, use_core)
    liberal = tuple(sorted(base.liberal, key=lambda v: v.name))
    # Repr-sorted, like ``ExistsComponent.atom_scopes``: the relations
    # are frozensets, whose order varies with the hash seed.
    scopes = sorted(
        (
            (name, tuple(t))
            for name, tuples in base.structure.relations.items()
            for t in tuples
            if all(v in base.liberal for v in t)
        ),
        key=repr,
    )
    graph = base.graph()
    components = tuple(_exists_components(base, graph))
    contract = _contract_graph(base, graph, components)
    width, ordering = treewidth(contract)
    return PPCountingPlan(
        formula=formula,
        base=base,
        liberal_order=liberal,
        liberal_atom_scopes=tuple(scopes),
        components=components,
        order=elimination_groups(contract, ordering),
        width=width,
    )


def execute_pp_plan(
    plan: PPCountingPlan,
    structure: Structure,
    context: "ExecutionContext | None" = None,
) -> int:
    """Count the answers of a compiled pp-plan on one data structure.

    This is the data-side half of :func:`count_pp_answers_fpt`, over
    the context's table backend end to end: liberal-atom tables are the
    context's memoized base tables (repeated scope variables collapse
    to equality-filtered distinct columns), each ∃-component is
    eliminated through the :class:`~repro.engine.context.
    ExecutionContext` (memoized variable elimination on the tables)
    to a table of the same backend, and the count sums the liberal
    variables out of them with the same elimination
    (:func:`count_solutions_tables`), in the plan's groups.  Because the encoding is a
    bijection between the universe and ``range(n)``, nothing is ever
    decoded.  ``context`` shares the encoding and the memos across
    plans, terms, and calls; a throwaway context is created when none
    is given.
    """
    if structure.is_empty():
        return 0 if plan.formula.variables else 1
    if context is None:
        from repro.engine.context import ExecutionContext

        context = ExecutionContext(structure)
    ops = context.table_ops()
    # base_table raises SignatureError for unknown names exactly like
    # Structure.relation.
    tables = [ops.base_table(name, scope) for name, scope in plan.liberal_atom_scopes]
    for component in plan.components:
        table = context.boundary_table(component)
        if not component.boundary_order:
            # A pp-sentence part: a zero-column table, one row iff it
            # maps into the structure -- a factor 1, else the count is 0.
            if ops.is_empty(table):
                return 0
            continue
        tables.append(table)
    return count_solutions_tables(
        plan.liberal_order,
        context.encoded.size,
        tables,
        order=plan.order,
        ops=ops,
    )


def count_pp_answers_fpt(
    formula: PPFormula,
    structure: Structure,
    use_core: bool = True,
) -> int:
    """Count the answers of a pp-formula via the Theorem 2.11 algorithm.

    The algorithm is correct for *every* pp-formula; it is fixed-
    parameter tractable (polynomial in ``|structure|`` for a fixed
    formula class) precisely when the class satisfies the tractability
    condition, because the exponents are bounded by the treewidth of
    cores and contract graphs.

    One-shot convenience wrapper around :func:`compile_pp_plan` +
    :func:`execute_pp_plan`; callers counting the same formula on many
    structures should compile once and execute repeatedly (or use
    :class:`repro.engine.Engine`, which also caches the plans).
    """
    if structure.is_empty():
        return 0 if formula.variables else 1
    return execute_pp_plan(compile_pp_plan(formula, use_core=use_core), structure)
