"""Conjunctive queries and unions of conjunctive queries.

These classes wrap the logic layer in database vocabulary:

* :class:`ConjunctiveQuery` -- a select-project-join query
  ``Q(head) :- body``, i.e. a primitive positive formula whose liberal
  variables are the head variables and whose body variables not in the
  head are existentially quantified.
* :class:`UnionOfConjunctiveQueries` -- a UCQ: several conjunctive
  queries with the same head, i.e. an existential positive formula.

Answer counting for these classes is exactly the problem the paper
classifies; :meth:`UnionOfConjunctiveQueries.count` and
:meth:`ConjunctiveQuery.count` call into :mod:`repro.core.counting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.counting import count_answers
from repro.exceptions import DatabaseError
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.logic.terms import Atom, Variable, VariableLike, as_variables
from repro.structures.structure import Structure


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``name(head) :- body``.

    ``head`` lists the output (liberal) variables -- repetitions are not
    allowed; ``body`` is a tuple of atoms.  Body variables that do not
    occur in the head are existentially quantified.  Head variables that
    do not occur in the body are allowed (they range freely over the
    active domain / universe, mirroring liberal variables that occur in
    no atom).
    """

    name: str
    head: tuple[Variable, ...]
    body: tuple[Atom, ...]

    def __init__(self, name: str, head: Iterable[VariableLike], body: Iterable[Atom]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", as_variables(head))
        object.__setattr__(self, "body", tuple(body))
        if len(set(self.head)) != len(self.head):
            raise DatabaseError("head variables must be distinct")

    # ------------------------------------------------------------------
    @property
    def head_variables(self) -> frozenset[Variable]:
        """The output variables of the query."""
        return frozenset(self.head)

    @property
    def body_variables(self) -> frozenset[Variable]:
        """All variables occurring in the body."""
        out: set[Variable] = set()
        for atom in self.body:
            out |= atom.variables
        return frozenset(out)

    @property
    def existential_variables(self) -> frozenset[Variable]:
        """Body variables not exported in the head."""
        return self.body_variables - self.head_variables

    def is_boolean(self) -> bool:
        """True if the query has an empty head (a yes/no query)."""
        return not self.head

    # ------------------------------------------------------------------
    def to_pp(self) -> PPFormula:
        """The query as a prenex pp-formula with liberal variables = head."""
        formula = PPFormula.from_atoms(self.body, quantified=self.existential_variables)
        return formula.with_liberal(self.head_variables | formula.free_variables)

    def to_ep(self) -> EPFormula:
        """The query as an EP formula."""
        return EPFormula.from_pp(self.to_pp())

    def count(self, database: "Structure | object") -> int:
        """Count the answers of the query on a database or structure."""
        return count_answers(self.to_pp(), _as_structure(database))

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(str(a) for a in self.body) or "true"
        return f"{self.name}({head}) :- {body}"


class UnionOfConjunctiveQueries:
    """A union of conjunctive queries sharing the same head.

    The head variables of all disjuncts must be the same set (their
    order may differ; the first disjunct's order is used for output).
    """

    __slots__ = ("_name", "_disjuncts")

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery], name: str | None = None):
        if not disjuncts:
            raise DatabaseError("a UCQ needs at least one disjunct")
        head_sets = {frozenset(q.head) for q in disjuncts}
        if len(head_sets) != 1:
            raise DatabaseError("all disjuncts of a UCQ must have the same head variables")
        self._disjuncts = tuple(disjuncts)
        self._name = name or disjuncts[0].name

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The query's name."""
        return self._name

    @property
    def disjuncts(self) -> tuple[ConjunctiveQuery, ...]:
        """The conjunctive queries forming the union."""
        return self._disjuncts

    @property
    def head(self) -> tuple[Variable, ...]:
        """The output variables (in the first disjunct's order)."""
        return self._disjuncts[0].head

    def to_ep(self) -> EPFormula:
        """The UCQ as an EP formula (liberal variables = head)."""
        return EPFormula.from_disjuncts([q.to_pp() for q in self._disjuncts])

    def count(self, database: "Structure | object") -> int:
        """Count the answers of the UCQ on a database or structure."""
        return count_answers(self.to_ep(), _as_structure(database))

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __str__(self) -> str:
        return "\n".join(str(q) for q in self._disjuncts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UnionOfConjunctiveQueries({self._name!r}, {len(self._disjuncts)} disjuncts)"


def _as_structure(database: object) -> Structure:
    if isinstance(database, Structure):
        return database
    to_structure = getattr(database, "to_structure", None)
    if callable(to_structure):
        return to_structure()
    raise DatabaseError(
        f"cannot interpret {database!r} as a database; pass a Structure or Database"
    )
