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
     by dynamic programming over a tree decomposition of the contract
     graph.

  Step 2 costs ``|B|^(boundary)`` per component and step 3 costs
  ``|B|^(width+1)`` per bag; since every boundary is a clique of the
  contract graph, both are bounded by the contract graph's treewidth
  plus one, giving the FPT (indeed polynomial, for a fixed class)
  running time of Theorem 2.11.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import networkx as nx

from repro.algorithms.csp import BagStep, count_solutions_tables, dp_schedule
from repro.algorithms.decomposition import TreeDecomposition
from repro.algorithms.treewidth import treewidth
from repro.logic.pp import PPFormula
from repro.logic.terms import Variable
from repro.structures.structure import Element, Structure

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

    @property
    def vertices(self) -> frozenset[Variable]:
        return self.interior | self.boundary

    # The two orderings below are recomputed on every elimination /
    # plan execution on the hot path; caching them on the (immutable)
    # component hoists the sorts to compile time.  cached_property
    # writes into __dict__ directly, which bypasses the frozen
    # dataclass __setattr__ -- safe because the derived values are
    # pure functions of the frozen fields.
    @cached_property
    def boundary_order(self) -> tuple[Variable, ...]:
        """The boundary in the fixed column order (sorted by name)."""
        return tuple(sorted(self.boundary, key=lambda v: v.name))

    @cached_property
    def atom_scopes(self) -> tuple[tuple[str, tuple[Variable, ...]], ...]:
        """The component's atoms as repr-sorted ``(relation, scope)``
        pairs -- the deterministic order the ∃-elimination reads."""
        return tuple(
            sorted(
                (
                    (name, t)
                    for name, tuples in self.structure.relations.items()
                    for t in tuples
                ),
                key=repr,
            )
        )


def _core_or_self(formula: PPFormula, use_core: bool) -> PPFormula:
    return formula.core() if use_core else formula


def exists_components(formula: PPFormula, use_core: bool = True) -> list[ExistsComponent]:
    """The ∃-components of (the core of) ``formula`` (Section 2.4).

    Each component corresponds to a connected component of the graph of
    the core restricted to the quantified variables; its boundary is the
    set of liberal variables with an edge into that component.
    """
    base = _core_or_self(formula, use_core)
    graph = base.graph()
    liberal = base.liberal
    quantified_graph = graph.subgraph([v for v in graph.nodes if v not in liberal])
    components: list[ExistsComponent] = []
    for component in nx.connected_components(quantified_graph):
        interior = frozenset(component)
        boundary: set[Variable] = set()
        for vertex in interior:
            for neighbor in graph.neighbors(vertex):
                if neighbor in liberal:
                    boundary.add(neighbor)
        # Atoms that touch the interior.
        relations = {
            name: [t for t in tuples if set(t) & interior]
            for name, tuples in base.structure.relations.items()
        }
        structure = Structure(
            base.signature, interior | frozenset(boundary), relations
        )
        components.append(
            ExistsComponent(interior=interior, boundary=frozenset(boundary), structure=structure)
        )
    return sorted(components, key=lambda c: min(repr(v) for v in c.vertices))


def contract_graph(formula: PPFormula, use_core: bool = True) -> nx.Graph:
    """The contract graph of ``formula`` (Definition in Section 2.4).

    Vertices are the liberal variables; edges are the edges of the
    core's Gaifman graph between liberal variables, plus a clique on the
    boundary of every ∃-component.
    """
    base = _core_or_self(formula, use_core)
    graph = base.graph()
    liberal = base.liberal
    contract = nx.Graph()
    contract.add_nodes_from(liberal)
    for left, right in graph.edges:
        if left in liberal and right in liberal:
            contract.add_edge(left, right)
    for component in exists_components(base, use_core=False):
        boundary = sorted(component.boundary, key=lambda v: v.name)
        for i, left in enumerate(boundary):
            for right in boundary[i + 1 :]:
                contract.add_edge(left, right)
    return contract


@dataclass(frozen=True)
class StructuralReport:
    """Structural parameters of a pp-formula relevant to the trichotomy."""

    core_treewidth: int
    contract_treewidth: int
    liberal_count: int
    quantified_count: int
    max_arity: int


def structural_report(formula: PPFormula) -> StructuralReport:
    """Compute the structural parameters that the classification inspects."""
    core = formula.core()
    core_width, _ = treewidth(core.graph())
    contract_width, _ = treewidth(contract_graph(core, use_core=False))
    return StructuralReport(
        core_treewidth=core_width,
        contract_treewidth=contract_width,
        liberal_count=len(formula.liberal),
        quantified_count=len(core.quantified_variables),
        max_arity=formula.max_arity(),
    )


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
    ``decomposition`` / ``width``
        A tree decomposition of the contract graph and its width.  The
        CSP built at execution time has the contract graph as its primal
        graph (boundaries are cliques, liberal atoms are cliques), so
        this decomposition drives the junction-tree count directly.
    """

    formula: PPFormula
    base: PPFormula
    liberal_order: tuple[Variable, ...]
    liberal_atom_scopes: tuple[tuple[str, tuple[Variable, ...]], ...]
    components: tuple[ExistsComponent, ...]
    decomposition: TreeDecomposition
    width: int

    @cached_property
    def dp_schedule(self) -> tuple[BagStep, ...]:
        """The decomposition, validated and lowered to the per-bag join
        instructions of :func:`count_solutions_tables` -- once per plan
        object instead of once per execution.  The table shapes are
        those :func:`execute_pp_plan` builds: one per liberal atom
        (distinct scope variables, first occurrence first), then one
        per ∃-component with a boundary."""
        scopes = [
            tuple(dict.fromkeys(scope)) for _, scope in self.liberal_atom_scopes
        ]
        scopes += [c.boundary_order for c in self.components if c.boundary_order]
        return dp_schedule(self.liberal_order, scopes, self.decomposition)

    def __getstate__(self) -> dict:
        # Derived, and cheap next to a pickle round trip per request:
        # pool and cluster jobs ship the compiled fields only.
        state = dict(self.__dict__)
        state.pop("dp_schedule", None)
        return state


def compile_pp_plan(formula: PPFormula, use_core: bool = True) -> PPCountingPlan:
    """Compile a pp-formula into a reusable :class:`PPCountingPlan`.

    This is the query-side half of :func:`count_pp_answers_fpt`: core
    computation, ∃-component extraction, contract-graph construction and
    tree decomposition.  None of it depends on the data structure.
    """
    base = _core_or_self(formula, use_core)
    liberal = tuple(sorted(base.liberal, key=lambda v: v.name))
    scopes: list[tuple[str, tuple[Variable, ...]]] = []
    for name, tuples in base.structure.relations.items():
        for t in tuples:
            if all(v in base.liberal for v in t):
                scopes.append((name, tuple(t)))
    components = tuple(exists_components(base, use_core=False))
    width, decomposition = treewidth(contract_graph(base, use_core=False))
    return PPCountingPlan(
        formula=formula,
        base=base,
        liberal_order=liberal,
        liberal_atom_scopes=tuple(scopes),
        components=components,
        decomposition=decomposition,
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
    to a table of the same backend, and the count runs through the
    join-driven junction-tree DP :func:`count_solutions_tables` over
    the plan's precomputed schedule.  Because the encoding is a
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
        if not component.boundary_order:
            # A pp-sentence part: it contributes a factor 1 if satisfiable
            # on the structure and 0 otherwise.
            if not context.component_satisfiable(component):
                return 0
            continue
        tables.append(context.boundary_table(component))
    return count_solutions_tables(
        plan.liberal_order,
        context.encoded.size,
        tables,
        schedule=plan.dp_schedule,
        ops=ops,
    )


def count_pp_answers_fpt(
    formula: PPFormula,
    structure: Structure,
    use_core: bool = True,
    decomposition: TreeDecomposition | None = None,
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
    plan = compile_pp_plan(formula, use_core=use_core)
    if decomposition is not None:
        # dataclasses.replace keeps the reconstruction honest as fields
        # are added to PPCountingPlan; the width is always taken from
        # the override so the plan never reports a stale width.
        plan = replace(plan, decomposition=decomposition, width=decomposition.width)
    return execute_pp_plan(plan, structure)
