"""Counting solutions of constraint networks by dynamic programming.

The counting algorithms of the library all bottom out in the same
primitive: count the assignments of a set of variables to a finite
domain that satisfy a collection of table constraints.  Counting
homomorphisms, counting answers to quantifier-free pp-formulas and the
final stage of the FPT algorithm for tractable query classes are all
instances.

* :func:`count_solutions_tables` -- the one junction-tree DP: weighted
  joins over a tree decomposition of the constraint network's primal
  graph, polynomial for classes of networks of bounded treewidth --
  exactly the guarantee Theorem 2.11 of the paper needs.
  :func:`dp_schedule` is its data-independent half.
* :func:`count_solutions_backtracking` -- exhaustive backtracking over
  a :class:`CSPInstance`; always correct, exponential in the number of
  variables.  The reference the DP is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from repro.algorithms.decomposition import TreeDecomposition
from repro.algorithms.treewidth import treewidth
from repro.budget import current_budget
from repro.exceptions import ReproError
from repro.structures.encoding import table_ops
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


class BagStep(NamedTuple):
    """One bag of a :func:`dp_schedule`, in evaluation order.

    ``local`` indexes the tables whose scope the bag covers,
    ``children`` the bags whose messages it consumes, ``separator`` the
    columns (``repr``-sorted) of the message it sends its ``parent``,
    ``unjoined`` the separator variables no local table or child
    message mentions (they range over the whole domain and are joined
    in explicitly), and ``free`` counts the bag variables nothing here
    constrains: a factor ``domain_size`` each.
    """

    bag_id: int
    parent: int | None
    local: tuple[int, ...]
    children: tuple[int, ...]
    separator: tuple[VariableName, ...]
    unjoined: tuple[VariableName, ...]
    free: int


def dp_schedule(
    variables: Sequence[VariableName],
    scopes: Sequence[tuple[VariableName, ...]],
    decomposition: TreeDecomposition | None = None,
) -> tuple[BagStep, ...]:
    """The data-independent half of :func:`count_solutions_tables`: a
    tree decomposition lowered to per-bag join instructions, children
    before parents, for tables with the given (distinct-column)
    ``scopes``.

    Validates ``decomposition`` against the scopes' primal graph (one
    is computed when none is given) and that every scope fits a bag.
    Nothing here reads data, so a caller running the same tables'
    shapes against many structures computes it once.
    """
    primal = primal_graph_of_atoms(scopes, vertices=tuple(variables))
    if decomposition is None:
        _, decomposition = treewidth(primal)
    else:
        decomposition.validate(primal)
    bags = {bag_id: decomposition.bag(bag_id) for bag_id in decomposition}
    for scope in scopes:
        if scope and not any(set(scope) <= bag for bag in bags.values()):
            raise ReproError(
                f"no bag covers constraint scope {scope!r}; "
                "the decomposition does not decompose the primal graph"
            )
    children = decomposition.children()
    separators: dict[int, tuple[VariableName, ...]] = {}
    steps = []
    for bag_id, parent in decomposition.rooted_order():
        bag = bags[bag_id]
        local = tuple(
            i for i, scope in enumerate(scopes) if scope and set(scope) <= bag
        )
        separators[bag_id] = separator = (
            tuple(sorted(bag & bags[parent], key=repr))
            if parent is not None
            else ()
        )
        joined: set[VariableName] = set()
        for i in local:
            joined.update(scopes[i])
        for child in children[bag_id]:
            joined.update(separators[child])
        # Bag variables outside separator and joined columns are
        # unconstrained here and in every neighbor (any constraint on
        # them would be local to a bag containing them, and separators
        # carry all sharing): multiplied out, never expanded.
        steps.append(
            BagStep(
                bag_id,
                parent,
                local,
                tuple(children[bag_id]),
                separator,
                tuple(v for v in separator if v not in joined),
                len(bag - joined - set(separator)),
            )
        )
    return tuple(steps)


def count_solutions_tables(
    variables: Sequence[VariableName],
    domain_size: int,
    tables: Sequence[tuple[tuple[VariableName, ...], object]],
    decomposition: TreeDecomposition | None = None,
    *,
    schedule: Sequence[BagStep] | None = None,
    ops=None,
) -> int:
    """Count assignments of ``variables`` into ``range(domain_size)``
    satisfying every distinct-column table constraint, by join-driven
    DP over a tree decomposition.

    Semantically identical to building a :class:`CSPInstance` over the
    domain ``0..domain_size-1`` and calling
    :func:`count_solutions_backtracking` (the reference the tests hold
    it to), but the per-bag work is a chain of weighted joins of the
    bag's constraint tables and child messages instead of a search over
    ``domain^|bag|`` candidate assignments -- per bag it costs time
    proportional to the joined table sizes, not to the domain size
    raised to the bag width.

    One loop, two kernels: every table operation goes through ``ops``,
    the table backend of :mod:`repro.structures.encoding` (vectorized
    ``int64`` columns under numpy, with python-int fallbacks wherever a
    weight could pass 63 bits; dict-of-tuple hash joins otherwise), so
    the result is an exact python int on either.  ``tables`` are
    ``(columns, rows)`` pairs whose rows are that backend's tables or
    any iterable of int tuples; ``ops`` defaults to a kernel with no
    structure behind it.

    ``decomposition`` is validated on every call.  A caller repeating
    the same table shapes (:func:`repro.algorithms.fpt_counting.
    execute_pp_plan`, once per structure) passes the ``schedule`` it
    got from :func:`dp_schedule` instead.
    """
    if ops is None:
        ops = table_ops(domain_size)
    tables = [ops.table(columns, rows) for columns, rows in tables]
    if any(ops.is_empty(table) for table in tables):
        return 0
    if not variables:
        return 1
    if domain_size == 0:
        return 0
    if schedule is None:
        schedule = dp_schedule(
            variables, [columns for columns, _ in tables], decomposition
        )

    messages: dict[int, object] = {}
    total = 0
    for step in schedule:
        inputs = [ops.weighted(tables[i]) for i in step.local]
        inputs += [messages.pop(child) for child in step.children]
        inputs += [ops.domain(v, domain_size) for v in step.unjoined]
        table = inputs[0] if inputs else ops.weighted(ops.table((), [()]))
        for other in inputs[1:]:
            table = ops.weighted_join(table, other)
            if ops.is_empty(table):
                # An empty bag table empties every message on the path
                # to the root, so the total is 0; bail out early.
                return 0
        factor = domain_size**step.free
        if step.parent is None:
            total = ops.total(table) * factor
        else:
            messages[step.bag_id] = ops.marginalize(table, step.separator, factor)
    return total

