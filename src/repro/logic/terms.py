"""Variables and atoms.

Formulas in this library are built from *atoms*: applications of a
relation symbol to a tuple of variables, such as ``E(x, y)``.  Variables
are lightweight named value objects.  They double as elements of the
universe when a primitive positive formula is viewed as a relational
structure (the Chandra-Merlin correspondence, Section 2.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.exceptions import FormulaError
from repro.logic.signatures import RelationSymbol, Signature


@dataclass(frozen=True, order=True)
class Variable:
    """A first-order variable, identified by its name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise FormulaError("variable name must be non-empty")

    def __hash__(self) -> int:
        # A str caches its hash; the generated hash would build a
        # ``(name,)`` tuple on every call.
        return hash(self.name)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variable({self.name!r})"


VariableLike = Union[Variable, str]


def as_variable(value: VariableLike) -> Variable:
    """Coerce a string or :class:`Variable` into a :class:`Variable`."""
    if isinstance(value, Variable):
        return value
    if isinstance(value, str):
        return Variable(value)
    raise FormulaError(f"cannot interpret {value!r} as a variable")


def as_variables(values: Iterable[VariableLike]) -> tuple[Variable, ...]:
    """Coerce an iterable of variable-like values into a tuple of variables."""
    return tuple(as_variable(v) for v in values)


@dataclass(frozen=True)
class Atom:
    """An atomic formula ``R(v_1, ..., v_k)``.

    Parameters
    ----------
    relation:
        The name of the relation symbol being applied.
    arguments:
        The tuple of variables the relation is applied to.  Repeated
        variables are allowed (e.g. ``E(x, x)``).
    """

    relation: str
    arguments: tuple[Variable, ...]

    def __init__(self, relation: str, arguments: Iterable[VariableLike]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "arguments", as_variables(arguments))
        if not self.relation:
            raise FormulaError("atom must name a relation")
        if not self.arguments:
            raise FormulaError(f"atom over {relation!r} must have at least one argument")

    @property
    def arity(self) -> int:
        """The number of arguments of this atom."""
        return len(self.arguments)

    @property
    def variables(self) -> frozenset[Variable]:
        """The set of variables occurring in this atom."""
        return frozenset(self.arguments)

    def symbol(self) -> RelationSymbol:
        """The relation symbol this atom uses (name plus observed arity)."""
        return RelationSymbol(self.relation, self.arity)

    def rename(self, mapping: dict[Variable, Variable]) -> "Atom":
        """Return a copy of this atom with variables renamed via ``mapping``.

        Variables absent from ``mapping`` are left unchanged.
        """
        return Atom(self.relation, tuple(mapping.get(v, v) for v in self.arguments))

    def __str__(self) -> str:
        args = ", ".join(str(v) for v in self.arguments)
        return f"{self.relation}({args})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Atom({self.relation!r}, {self.arguments!r})"


def atoms_signature(atoms: Iterable[Atom]) -> Signature:
    """The smallest signature over which all of ``atoms`` are well-formed."""
    return Signature(atom.symbol() for atom in atoms)


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """The set of variables occurring in any of ``atoms``."""
    out: set[Variable] = set()
    for atom in atoms:
        out.update(atom.arguments)
    return frozenset(out)
