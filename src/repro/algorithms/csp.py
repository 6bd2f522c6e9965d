"""Counting solutions of constraint networks by variable elimination.

The counting algorithms of the library all bottom out in the same
primitive: count the assignments of a set of variables to a finite
domain that satisfy a collection of table constraints.  Counting
homomorphisms, counting answers to quantifier-free pp-formulas and the
final stage of the FPT algorithm for tractable query classes are all
instances.

* :func:`eliminate` -- the one evaluator over the column tables of
  :mod:`repro.structures.encoding`: variable elimination, one fused
  join-project per variable.  On plain tables it projects (the
  ∃-components of Theorem 2.11, boundary-free ones -- pp-sentence
  parts -- included, :mod:`repro.engine.context`); on weighted tables it sums (the count).
  The sum-product form is InsideOut (Abo Khamis, Ngo and Rudra, *FAQ:
  Questions Asked Frequently*, PODS 2016).
* :func:`count_solutions_tables` -- the count: :func:`eliminate` on
  weighted tables in the groups of an elimination ordering's tree
  decomposition, so no intermediate table outgrows a bag -- polynomial for
  classes of networks of bounded treewidth, exactly the guarantee
  Theorem 2.11 of the paper needs.
* :func:`count_solutions_backtracking` -- exhaustive backtracking over
  a :class:`CSPInstance`; always correct, exponential in the number of
  variables.  The reference the elimination is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.budget import current_budget
from repro.exceptions import ReproError
from repro.structures.encoding import table_ops

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


# ----------------------------------------------------------------------
# Variable elimination over the column tables
# ----------------------------------------------------------------------
def _join_all(tables: list, keep: tuple, ops) -> tuple:
    """The join of ``tables`` projected onto ``keep``.

    Tables join smallest-first, each step taking the smallest table
    that shares a column with what is joined so far (a cross product
    only when none does); the last join is fused with the projection.
    """
    pending = sorted(tables, key=lambda table: len(table[1]))
    joined = pending.pop(0)
    while pending:
        columns = joined[0]
        shared = next(
            (i for i, t in enumerate(pending) if set(columns).intersection(t[0])),
            0,
        )
        table = pending.pop(shared)
        out = (
            columns + tuple(c for c in table[0] if c not in columns)
            if pending
            else keep
        )
        joined = ops.join_project(joined, table, out)
    return ops.project(joined, keep)


def eliminate(
    tables: Sequence[tuple],
    keep: Sequence[VariableName],
    ops,
    groups: Iterable[Iterable[VariableName]] | None = None,
) -> tuple:
    """The projection onto ``keep`` of the join of ``tables``, as a
    table of ``ops`` (:class:`~repro.structures.encoding._PyTableOps`
    or :class:`~repro.structures.encoding.NumpyTableOps`).

    Variable elimination: each step takes the next variable, joins the
    tables that mention it smallest-first and drops it in the fused last
    join.  The tables decide what a drop means: plain ones are projected
    (∃: an ∃-component's boundary relation, or with an empty ``keep``
    a satisfiability bit, ``{()}`` or nothing), weighted ones
    (``ops.weighted``) sum the weights of the rows that agree on the
    rest (Σ: a count).  A projection of a join, and a sum of a product,
    does not depend on the elimination order, so the result is exact
    for any order; the order only bounds the intermediate tables.

    ``groups`` fixes the order group by group
    (:func:`~repro.algorithms.treewidth.elimination_groups`, which
    keeps every intermediate within a bag);
    variables outside ``keep`` and every group form one last group.
    Inside a group the data picks: the variable whose touching tables
    have the smallest union scope, then the fewest rows, then the
    smallest ``repr``.  A group variable no table mentions is skipped,
    and an empty step makes the result empty at once.  A zero-column
    step result is the unit ``{()}`` on plain tables and is dropped; a
    weighted one carries its weight, a factor of the result.
    """
    kept = frozenset(keep)
    live = dict(enumerate(tables))
    ids = itertools.count(len(live))
    holders: dict = {}  # column -> ids of the live tables that have it
    for table_id, table in live.items():
        for column in table[0]:
            holders.setdefault(column, set()).add(table_id)

    def cost(variable) -> tuple:
        touching = [live[i] for i in holders[variable]]
        scope = frozenset().union(*(t[0] for t in touching))
        return len(scope), sum(len(t[1]) for t in touching), repr(variable)

    for group in (*(groups or ()), None):
        pending = set(holders if group is None else group) - kept
        while candidates := {v for v in pending if holders.get(v)}:
            variable = min(candidates, key=cost)
            pending.discard(variable)
            touched = sorted(holders.pop(variable))
            touching = [live.pop(i) for i in touched]
            rest = tuple(
                dict.fromkeys(c for t in touching for c in t[0] if c != variable)
            )
            reduced = _join_all(touching, rest, ops)
            if ops.is_empty(reduced):
                return ops.table(tuple(keep), ())
            table_id = next(ids)
            for column in rest:
                holders[column].difference_update(touched)
                holders[column].add(table_id)
            if rest or ops.is_weighted(reduced):
                live[table_id] = reduced
    if not live:
        return ops.table(tuple(keep), [()])
    return _join_all(list(live.values()), tuple(keep), ops)


def count_solutions_tables(
    variables: Sequence[VariableName],
    domain_size: int,
    tables: Sequence[tuple[tuple[VariableName, ...], object]],
    *,
    order: Sequence[Sequence[VariableName]] | None = None,
    ops=None,
) -> int:
    """Count assignments of ``variables`` into ``range(domain_size)``
    satisfying every distinct-column table constraint.

    Semantically identical to building a :class:`CSPInstance` over the
    domain ``0..domain_size-1`` and calling
    :func:`count_solutions_backtracking` (the reference the tests hold
    it to), but computed by :func:`eliminate` on weighted tables:
    every variable is summed out of the join of the tables that
    mention it, so the work is proportional to the joined table sizes,
    not to the domain size raised to the number of variables.  The
    variables no table mentions contribute ``domain_size`` each.

    ``order`` fixes the elimination groups (a compiled
    :class:`~repro.algorithms.fpt_counting.PPCountingPlan` passes its
    ``order``); without it the data picks the whole order.  Every
    table operation goes through ``ops``, the table backend of
    :mod:`repro.structures.encoding`
    (vectorized ``int64`` columns under numpy, with python-int
    fallbacks wherever a weight could pass 63 bits; dict-of-tuple hash
    joins otherwise), so the result is an exact python int on either.
    ``tables`` are ``(columns, rows)`` pairs whose rows are that
    backend's tables or any iterable of int tuples; ``ops`` defaults
    to a kernel with no structure behind it.
    """
    if ops is None:
        ops = table_ops(domain_size)
    tables = [ops.table(columns, rows) for columns, rows in tables]
    if any(ops.is_empty(table) for table in tables):
        return 0
    mentioned = {column for columns, _ in tables for column in columns}
    free = sum(1 for variable in set(variables) if variable not in mentioned)
    if not tables:
        return domain_size**free
    table = eliminate([ops.weighted(table) for table in tables], (), ops, order)
    if ops.is_empty(table):
        return 0
    return ops.total(table) * domain_size**free
