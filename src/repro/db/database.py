"""The database facade.

:class:`Database` is a mutable collection of named
:class:`~repro.db.relations.Relation` objects plus an optional set of
extra domain values.  It converts to and from the immutable
:class:`~repro.structures.structure.Structure` representation the
algorithms work on, and offers convenience methods to run and count
queries directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.counting import count_answers
from repro.db.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.db.relations import Relation
from repro.exceptions import DatabaseError
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.logic.pp import PPFormula
from repro.logic.signatures import Signature
from repro.structures.structure import Structure

Query = "str | EPFormula | PPFormula | ConjunctiveQuery | UnionOfConjunctiveQueries"


class Database:
    """A named collection of relations (a toy relational database).

    Example
    -------
    >>> db = Database()
    >>> db.add_rows("Follows", [("ada", "bob"), ("bob", "cyd")])
    >>> db.count_query("exists z. (Follows(x, z) & Follows(z, y))")
    1
    """

    def __init__(
        self,
        relations: Mapping[str, Relation] | Iterable[Relation] = (),
        extra_domain: Iterable[Hashable] = (),
    ):
        self._relations: dict[str, Relation] = {}
        if isinstance(relations, Mapping):
            iterable: Iterable[Relation] = relations.values()
        else:
            iterable = relations
        for relation in iterable:
            self._relations[relation.name] = relation
        self._extra_domain: set[Hashable] = set(extra_domain)

    # ------------------------------------------------------------------
    # Schema and data management
    # ------------------------------------------------------------------
    @property
    def relation_names(self) -> tuple[str, ...]:
        """The names of the relations, sorted."""
        return tuple(sorted(self._relations))

    def relation(self, name: str) -> Relation:
        """The relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise DatabaseError(f"unknown relation {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def add_relation(self, relation: Relation) -> "Database":
        """Add (or replace) a whole relation.  Returns ``self`` for chaining."""
        self._relations[relation.name] = relation
        return self

    def add_rows(self, name: str, rows: Iterable[Sequence[Hashable]]) -> "Database":
        """Add rows to a relation, creating it if necessary."""
        rows = [tuple(r) for r in rows]
        if name in self._relations:
            self._relations[name] = self._relations[name].with_rows(rows)
        else:
            self._relations[name] = Relation(name, rows)
        return self

    def add_row(self, name: str, *values: Hashable) -> "Database":
        """Add a single row: ``db.add_row("Follows", "ada", "bob")``."""
        return self.add_rows(name, [values])

    def add_domain_values(self, *values: Hashable) -> "Database":
        """Add elements to the universe even if they occur in no row."""
        self._extra_domain.update(values)
        return self

    def domain(self) -> frozenset[Hashable]:
        """The active domain: values in rows plus explicit extra values."""
        out: set[Hashable] = set(self._extra_domain)
        for relation in self._relations.values():
            out |= relation.values()
        return frozenset(out)

    def signature(self) -> Signature:
        """The database schema as a signature."""
        return Signature(relation.symbol() for relation in self._relations.values())

    def total_rows(self) -> int:
        """The total number of rows over all relations."""
        return sum(len(relation) for relation in self._relations.values())

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_structure(self) -> Structure:
        """The database as a finite relational structure."""
        return Structure(
            self.signature(),
            self.domain(),
            {name: relation.rows for name, relation in self._relations.items()},
        )

    @classmethod
    def from_structure(cls, structure: Structure) -> "Database":
        """Build a database from a structure (column names are lost)."""
        relations = [
            Relation(symbol.name, structure.relation(symbol.name), arity=symbol.arity)
            for symbol in structure.signature
        ]
        database = cls(relations)
        database._extra_domain = set(structure.isolated_elements())
        return database

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _as_ep(self, query) -> EPFormula:
        if isinstance(query, str):
            return parse_query(query)
        if isinstance(query, EPFormula):
            return query
        if isinstance(query, PPFormula):
            return EPFormula.from_pp(query)
        if isinstance(query, ConjunctiveQuery):
            return query.to_ep()
        if isinstance(query, UnionOfConjunctiveQueries):
            return query.to_ep()
        raise DatabaseError(f"cannot interpret {query!r} as a query")

    def count_query(self, query) -> int:
        """Count the answers of a query on this database."""
        return count_answers(self._as_ep(query), self.to_structure())

    def answers(self, query) -> list[dict]:
        """Materialize the answers of a query (assignments of liberal variables).

        Intended for small result sets (examples, tests); counting large
        result sets should go through :meth:`count_query`, which never
        materializes answers.
        """
        from repro.algorithms.brute_force import enumerate_answers_naive

        ep = self._as_ep(query)
        return [dict(answer) for answer in enumerate_answers_naive(ep, self.to_structure())]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}({len(rel)})" for name, rel in sorted(self._relations.items()))
        return f"Database({parts})"
