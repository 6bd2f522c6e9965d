"""Counting solutions of constraint networks by dynamic programming.

The counting algorithms of the library all bottom out in the same
primitive: count the assignments of a set of variables to a finite
domain that satisfy a collection of table constraints.  Counting
homomorphisms, counting answers to quantifier-free pp-formulas and the
final stage of the FPT algorithm for tractable query classes are all
instances.

Two strategies are provided:

* :func:`count_solutions_backtracking` -- exhaustive backtracking with
  forward pruning; always correct, exponential in the number of
  variables.  Used as the reference implementation and for tiny
  instances.
* :func:`count_solutions_decomposition` -- dynamic programming over a
  tree decomposition of the constraint network's primal graph (the
  classic junction-tree counting algorithm).  Runs in time
  ``O(poly * |domain|^(width+1))``, which is polynomial for classes of
  networks of bounded treewidth -- exactly the guarantee Theorem 2.11
  of the paper needs.

:func:`count_solutions` picks a strategy automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Hashable, Iterable, Mapping, Sequence

import networkx as nx

from repro.algorithms.decomposition import TreeDecomposition
from repro.algorithms.treewidth import treewidth
from repro.budget import current_budget
from repro.exceptions import ReproError
from repro.structures.graphs import primal_graph_of_atoms

VariableName = Hashable
Value = Hashable
PartialAssignment = dict[VariableName, Value]


@dataclass(frozen=True)
class Constraint:
    """A table constraint: ``scope`` must take a value tuple in ``allowed``."""

    scope: tuple[VariableName, ...]
    allowed: frozenset[tuple[Value, ...]]

    def __post_init__(self) -> None:
        for row in self.allowed:
            if len(row) != len(self.scope):
                raise ReproError(
                    f"constraint row {row!r} does not match scope {self.scope!r}"
                )

    def satisfied_by(self, assignment: Mapping[VariableName, Value]) -> bool:
        """True if ``assignment`` (covering the scope) satisfies the constraint."""
        return tuple(assignment[v] for v in self.scope) in self.allowed

    def is_fully_assigned(self, assignment: Mapping[VariableName, Value]) -> bool:
        """True if every scope variable is assigned."""
        return all(v in assignment for v in self.scope)


@dataclass(frozen=True)
class CSPInstance:
    """A constraint network over a single shared domain."""

    variables: tuple[VariableName, ...]
    domain: tuple[Value, ...]
    constraints: tuple[Constraint, ...]

    @classmethod
    def build(
        cls,
        variables: Iterable[VariableName],
        domain: Iterable[Value],
        constraints: Iterable[Constraint],
    ) -> "CSPInstance":
        return cls(tuple(variables), tuple(domain), tuple(constraints))

    def primal_graph(self) -> nx.Graph:
        """The primal graph: variables as vertices, co-occurring scopes as cliques."""
        return primal_graph_of_atoms(
            (c.scope for c in self.constraints), vertices=self.variables
        )


# ----------------------------------------------------------------------
# Backtracking counter (reference implementation)
# ----------------------------------------------------------------------
def count_solutions_backtracking(instance: CSPInstance) -> int:
    """Count satisfying assignments by backtracking search.

    Variables constrained by no constraint contribute a multiplicative
    factor ``|domain|`` each and are not branched over.
    """
    constrained: set[VariableName] = set()
    for constraint in instance.constraints:
        constrained.update(constraint.scope)
    constrained_order = [v for v in instance.variables if v in constrained]
    unconstrained = [v for v in instance.variables if v not in constrained]
    watchers: dict[VariableName, list[Constraint]] = {v: [] for v in constrained_order}
    for constraint in instance.constraints:
        for variable in set(constraint.scope):
            if variable in watchers:
                watchers[variable].append(constraint)
    # Branch on the most constrained variables first.
    constrained_order.sort(key=lambda v: (-len(watchers[v]), repr(v)))

    assignment: PartialAssignment = {}

    def consistent(variable: VariableName) -> bool:
        for constraint in watchers[variable]:
            if constraint.is_fully_assigned(assignment) and not constraint.satisfied_by(assignment):
                return False
        return True

    budget = current_budget()

    def backtrack(index: int) -> int:
        if index == len(constrained_order):
            return 1
        variable = constrained_order[index]
        total = 0
        if budget is not None:
            budget.charge(len(instance.domain))
        for value in instance.domain:
            assignment[variable] = value
            if consistent(variable):
                total += backtrack(index + 1)
            del assignment[variable]
        return total

    base = backtrack(0)
    return base * (len(instance.domain) ** len(unconstrained))


# ----------------------------------------------------------------------
# Junction-tree counter
# ----------------------------------------------------------------------
def _enumerate_bag_assignments(
    bag: Sequence[VariableName],
    domain: Sequence[Value],
    constraints: Sequence[Constraint],
) -> list[tuple[Value, ...]]:
    """Enumerate the assignments of a bag that satisfy the given constraints.

    Only constraints whose scope lies entirely within the bag are used
    (others cannot be evaluated); they serve as filters, so passing the
    same constraint for several bags is harmless.
    """
    bag_list = list(bag)
    bag_set = set(bag_list)
    local = [c for c in constraints if set(c.scope) <= bag_set]
    results: list[tuple[Value, ...]] = []
    assignment: PartialAssignment = {}

    # Order variables so that constraint scopes close early, enabling pruning.
    remaining = list(bag_list)
    ordered: list[VariableName] = []
    while remaining:
        best = min(
            remaining,
            key=lambda v: (
                -sum(1 for c in local if v in c.scope and all(u in ordered or u == v for u in c.scope)),
                repr(v),
            ),
        )
        ordered.append(best)
        remaining.remove(best)

    def consistent(variable: VariableName) -> bool:
        for constraint in local:
            if variable in constraint.scope and constraint.is_fully_assigned(assignment):
                if not constraint.satisfied_by(assignment):
                    return False
        return True

    budget = current_budget()

    def backtrack(index: int) -> None:
        if index == len(ordered):
            results.append(tuple(assignment[v] for v in bag_list))
            return
        variable = ordered[index]
        if budget is not None:
            budget.charge(len(domain))
        for value in domain:
            assignment[variable] = value
            if consistent(variable):
                backtrack(index + 1)
            del assignment[variable]

    backtrack(0)
    return results


def count_solutions_decomposition(
    instance: CSPInstance,
    decomposition: TreeDecomposition | None = None,
) -> int:
    """Count satisfying assignments by DP over a tree decomposition.

    If no decomposition is given, one is computed for the primal graph
    (exact for small graphs, heuristic otherwise); the algorithm is
    correct for any valid decomposition, only its running time depends
    on the width.
    """
    if not instance.variables:
        # Only the empty assignment; it satisfies everything unless some
        # constraint has an empty allowed set over an empty scope.
        for constraint in instance.constraints:
            if not constraint.scope and not constraint.allowed:
                return 0
        return 1
    primal = instance.primal_graph()
    if decomposition is None:
        _, decomposition = treewidth(primal)
    else:
        decomposition.validate(primal)

    covered = decomposition.vertices()
    uncovered = [v for v in instance.variables if v not in covered]

    order = decomposition.rooted_order()
    children = decomposition.children()
    root = order[-1][0]

    # Assign every constraint to one bag containing its scope (for counting
    # semantics the assignment does not matter; constraints act as filters
    # in every bag anyway, and filtering twice is idempotent).
    bag_of: dict[int, list[Constraint]] = {bag_id: [] for bag_id in decomposition}
    for constraint in instance.constraints:
        scope = set(constraint.scope)
        home = None
        for bag_id in decomposition:
            if scope <= decomposition.bag(bag_id):
                home = bag_id
                break
        if home is None:
            raise ReproError(
                f"no bag covers constraint scope {constraint.scope!r}; "
                "the decomposition does not decompose the primal graph"
            )
        bag_of[home].append(constraint)

    # tables[bag_id]: dict assignment-of-bag (tuple ordered by sorted bag) -> count
    tables: dict[int, dict[tuple[Value, ...], int]] = {}
    bag_order: dict[int, list[VariableName]] = {
        bag_id: sorted(decomposition.bag(bag_id), key=repr) for bag_id in decomposition
    }

    budget = current_budget()
    for bag_id, parent in order:
        bag_vars = bag_order[bag_id]
        local_constraints = [
            c for c in instance.constraints if set(c.scope) <= set(bag_vars)
        ]
        table: dict[tuple[Value, ...], int] = {}
        child_ids = children[bag_id]
        # Pre-compute, for each child, a map from the projection onto the
        # separator (bag ∩ child bag) to the summed child count.
        child_projections: list[tuple[list[int], dict[tuple[Value, ...], int]]] = []
        for child in child_ids:
            child_vars = bag_order[child]
            separator = [v for v in child_vars if v in set(bag_vars)]
            child_sep_positions = [child_vars.index(v) for v in separator]
            projected: dict[tuple[Value, ...], int] = {}
            if budget is not None:
                budget.charge(len(tables[child]))
            for child_assignment, count in tables[child].items():
                key = tuple(child_assignment[i] for i in child_sep_positions)
                projected[key] = projected.get(key, 0) + count
            parent_sep_positions = [bag_vars.index(v) for v in separator]
            child_projections.append((parent_sep_positions, projected))
            del tables[child]

        for values in _enumerate_bag_assignments(bag_vars, instance.domain, local_constraints):
            count = 1
            for positions, projected in child_projections:
                key = tuple(values[i] for i in positions)
                count *= projected.get(key, 0)
                if count == 0:
                    break
            if count:
                table[values] = count
        tables[bag_id] = table

    total = sum(tables[root].values())
    # Each variable that is not constrained by the decomposition at all
    # (not covered by any bag) ranges freely over the domain.  We also
    # need to correct for variables counted in several bags: the DP above
    # already handles that correctly because bags overlap only on
    # separators, which are projected consistently.
    return total * (len(instance.domain) ** len(uncovered))


def table_from_scope(
    scope: tuple[VariableName, ...],
    rows: frozenset[tuple[Value, ...]],
) -> tuple[tuple[VariableName, ...], frozenset[tuple[Value, ...]]]:
    """Collapse repeated scope variables into a distinct-column table.

    Repeated variables become equality filters (a row survives iff all
    its entries for the same variable agree); columns are the distinct
    variables in first-occurrence order, matching the convention of the
    semijoin pipeline's base tables.  Scopes without repeats pass
    through untouched.
    """
    columns: list[VariableName] = []
    for variable in scope:
        if variable not in columns:
            columns.append(variable)
    if len(columns) == len(scope):
        return tuple(scope), rows
    filtered: set[tuple[Value, ...]] = set()
    for row in rows:
        values: dict[VariableName, Value] = {}
        consistent = True
        for variable, value in zip(scope, row):
            if values.setdefault(variable, value) != value:
                consistent = False
                break
        if consistent:
            filtered.add(tuple(values[c] for c in columns))
    return tuple(columns), frozenset(filtered)


def _weighted_join(
    left_cols: tuple[VariableName, ...],
    left: dict[tuple[Value, ...], int],
    right_cols: tuple[VariableName, ...],
    right: dict[tuple[Value, ...], int],
) -> tuple[tuple[VariableName, ...], dict[tuple[Value, ...], int]]:
    """Hash join of two weighted tables on their shared columns.

    Output weight of a joined row is the product of the input weights;
    both inputs have unique rows per their column sets, so each output
    row arises from exactly one (left, right) pair and the accumulation
    below never actually merges.
    """
    shared = [c for c in right_cols if c in left_cols]
    right_positions = [right_cols.index(c) for c in shared]
    extra_positions = [i for i, c in enumerate(right_cols) if c not in left_cols]
    out_cols = tuple(left_cols) + tuple(right_cols[i] for i in extra_positions)
    buckets: dict[tuple, list[tuple[tuple, int]]] = {}
    for row, weight in right.items():
        key = tuple(row[i] for i in right_positions)
        buckets.setdefault(key, []).append(
            (tuple(row[i] for i in extra_positions), weight)
        )
    left_positions = [left_cols.index(c) for c in shared]
    out: dict[tuple[Value, ...], int] = {}
    budget = current_budget()
    for row, weight in left.items():
        key = tuple(row[i] for i in left_positions)
        matches = buckets.get(key, ())
        if budget is not None:
            budget.charge(1 + len(matches))
        for extra, right_weight in matches:
            joined = row + extra
            out[joined] = out.get(joined, 0) + weight * right_weight
    return out_cols, out


def count_solutions_tables(
    variables: Sequence[VariableName],
    domain_size: int,
    tables: Sequence[tuple[tuple[VariableName, ...], frozenset]],
    decomposition: TreeDecomposition | None = None,
) -> int:
    """Count assignments of ``variables`` into ``range(domain_size)``
    satisfying every distinct-column table constraint, by join-driven
    DP over a tree decomposition.

    Semantically identical to building a :class:`CSPInstance` over the
    domain ``0..domain_size-1`` and calling :func:`count_solutions`
    with the decomposition strategy, but the per-bag work is a chain of
    weighted hash joins of the bag's constraint tables and child
    messages instead of backtracking over ``domain^|bag|`` candidate
    assignments -- per bag it costs time proportional to the joined
    table sizes, not to the domain size raised to the bag width.  Bag
    variables constrained by no local table and no separator are
    provably unconstrained within the bag (any constraint mentioning
    them would be local to a bag containing them, and separators carry
    all sharing) and contribute a multiplicative ``domain_size`` each,
    exactly like uncovered variables.

    This is the execution core of :func:`repro.algorithms.fpt_counting.
    execute_pp_plan`; the rows are dense ints there, but nothing here
    depends on that.
    """
    if not variables:
        for scope, rows in tables:
            if not scope and not rows:
                return 0
        return 1
    for scope, rows in tables:
        if scope and not rows:
            return 0
        if not scope and not rows:
            return 0
    if domain_size == 0:
        return 0
    primal = primal_graph_of_atoms(
        (scope for scope, _ in tables), vertices=tuple(variables)
    )
    if decomposition is None:
        _, decomposition = treewidth(primal)
    else:
        decomposition.validate(primal)

    bags = {bag_id: decomposition.bag(bag_id) for bag_id in decomposition}
    for scope, _ in tables:
        if scope and not any(set(scope) <= bag for bag in bags.values()):
            raise ReproError(
                f"no bag covers constraint scope {scope!r}; "
                "the decomposition does not decompose the primal graph"
            )

    covered = decomposition.vertices()
    uncovered = [v for v in variables if v not in covered]
    order = decomposition.rooted_order()
    children = decomposition.children()

    # messages[bag_id]: (separator columns, projection-row -> weight)
    messages: dict[int, tuple[tuple, dict[tuple, int]]] = {}
    total = 0
    for bag_id, parent in order:
        bag = bags[bag_id]
        local = [
            (scope, rows) for scope, rows in tables if scope and set(scope) <= bag
        ]
        incoming = [messages.pop(child) for child in children[bag_id]]
        separator = (
            tuple(sorted((v for v in bag & bags[parent]), key=repr))
            if parent is not None
            else ()
        )
        needed: set[VariableName] = set(separator)
        for scope, _ in local:
            needed.update(scope)
        for cols, _ in incoming:
            needed.update(cols)

        table_cols: tuple[VariableName, ...] = ()
        table_rows: dict[tuple[Value, ...], int] = {(): 1}
        for scope, rows in local:
            table_cols, table_rows = _weighted_join(
                table_cols, table_rows, scope, dict.fromkeys(rows, 1)
            )
            if not table_rows:
                break
        if table_rows:
            for cols, weights in incoming:
                table_cols, table_rows = _weighted_join(
                    table_cols, table_rows, cols, weights
                )
                if not table_rows:
                    break
        if not table_rows:
            # An empty bag table empties every message on the path to
            # the root, so the total is 0; bail out early.
            return 0

        # Needed-but-unjoined variables (separator vars no local table
        # or message mentions) range freely; expand them explicitly so
        # the projection below sees them.
        budget = current_budget()
        for variable in sorted(needed, key=repr):
            if variable not in table_cols:
                if budget is not None:
                    budget.charge(len(table_rows) * domain_size)
                table_cols = table_cols + (variable,)
                table_rows = {
                    row + (value,): weight
                    for row, weight in table_rows.items()
                    for value in range(domain_size)
                }
        # Bag variables outside `needed` are unconstrained here and in
        # every neighbor: multiply instead of expanding.
        free = sum(1 for v in bag if v not in needed)
        factor = domain_size**free
        if parent is None:
            total = sum(table_rows.values()) * factor
        else:
            positions = [table_cols.index(v) for v in separator]
            projected: dict[tuple[Value, ...], int] = {}
            for row, weight in table_rows.items():
                key = tuple(row[i] for i in positions)
                projected[key] = projected.get(key, 0) + weight * factor
            messages[bag_id] = (separator, projected)

    return total * (domain_size ** len(uncovered))


def count_solutions(
    instance: CSPInstance,
    decomposition: TreeDecomposition | None = None,
    strategy: str = "auto",
) -> int:
    """Count satisfying assignments of a constraint network.

    ``strategy`` is ``"auto"`` (default), ``"backtracking"`` or
    ``"decomposition"``.  ``auto`` uses the decomposition-based counter
    whenever the instance has more than a couple of variables.
    """
    if strategy == "backtracking":
        return count_solutions_backtracking(instance)
    if strategy == "decomposition":
        return count_solutions_decomposition(instance, decomposition)
    if strategy != "auto":
        raise ReproError(f"unknown strategy {strategy!r}")
    if len(instance.variables) <= 3 or not instance.constraints:
        return count_solutions_backtracking(instance)
    return count_solutions_decomposition(instance, decomposition)
