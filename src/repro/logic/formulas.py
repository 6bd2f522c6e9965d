"""The existential positive formula AST.

Existential positive (EP) formulas are first-order formulas built from
atoms, conjunction, disjunction and existential quantification.  This
module provides a small immutable AST for them:

* :class:`AtomicFormula` -- a relation applied to variables,
* :class:`Truth` -- the empty conjunction (always true),
* :class:`And` / :class:`Or` -- n-ary conjunction / disjunction,
* :class:`Exists` -- existential quantification over a tuple of variables.

The AST intentionally supports *only* the existential positive fragment:
there is no negation, universal quantification or equality, matching the
fragment the paper classifies.

The key derived operation is :func:`to_prenex_disjuncts`, which rewrites
an arbitrary EP formula into a logically equivalent disjunction of
prenex primitive positive formulas (sets of atoms plus quantified
variables), standardizing bound variables apart so that no variable is
both quantified and free.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.exceptions import FormulaError
from repro.logic.signatures import Signature
from repro.logic.terms import Atom, Variable, VariableLike, as_variable, as_variables, atoms_signature


class Formula(ABC):
    """Base class of existential positive formula nodes."""

    __slots__ = ()

    # -- structural accessors ------------------------------------------------
    @abstractmethod
    def free_variables(self) -> frozenset[Variable]:
        """The free variables of the formula."""

    @abstractmethod
    def all_variables(self) -> frozenset[Variable]:
        """All variables occurring in the formula (free or bound)."""

    @abstractmethod
    def atoms(self) -> tuple[Atom, ...]:
        """All atoms occurring anywhere in the formula."""

    @abstractmethod
    def rename_free(self, mapping: dict[Variable, Variable]) -> "Formula":
        """Rename free variables according to ``mapping`` (capture-avoiding
        only in the sense that bound occurrences are never renamed)."""

    @abstractmethod
    def _pretty(self, parent_precedence: int) -> str:
        """Render with minimal parentheses; internal helper for ``__str__``."""

    # -- convenience ----------------------------------------------------------
    def signature(self) -> Signature:
        """The smallest signature over which the formula is well-formed."""
        return atoms_signature(self.atoms())

    def is_quantifier_free(self) -> bool:
        """True if no existential quantifier occurs in the formula."""
        return not any(isinstance(node, Exists) for node in self.walk())

    def is_primitive_positive(self) -> bool:
        """True if no disjunction occurs in the formula."""
        return not any(isinstance(node, Or) for node in self.walk())

    def is_sentence(self) -> bool:
        """True if the formula has no free variables."""
        return not self.free_variables()

    def walk(self) -> Iterator["Formula"]:
        """Pre-order traversal of the AST."""
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node._children())

    def _children(self) -> tuple["Formula", ...]:
        return ()

    # -- operator sugar --------------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return And.of(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or.of(self, other)

    def exists(self, *variables: VariableLike) -> "Formula":
        """Existentially quantify the given variables over this formula."""
        return Exists(as_variables(variables), self)

    def __str__(self) -> str:
        return self._pretty(0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self._pretty(0)!r})"


@dataclass(frozen=True)
class AtomicFormula(Formula):
    """A single atom ``R(v_1, ..., v_k)`` as a formula."""

    atom: Atom

    def free_variables(self) -> frozenset[Variable]:
        return self.atom.variables

    def all_variables(self) -> frozenset[Variable]:
        return self.atom.variables

    def atoms(self) -> tuple[Atom, ...]:
        return (self.atom,)

    def rename_free(self, mapping: dict[Variable, Variable]) -> "Formula":
        return AtomicFormula(self.atom.rename(mapping))

    def _pretty(self, parent_precedence: int) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Truth(Formula):
    """The empty conjunction, written ``⊤``; it is true everywhere."""

    def free_variables(self) -> frozenset[Variable]:
        return frozenset()

    def all_variables(self) -> frozenset[Variable]:
        return frozenset()

    def atoms(self) -> tuple[Atom, ...]:
        return ()

    def rename_free(self, mapping: dict[Variable, Variable]) -> "Formula":
        return self

    def _pretty(self, parent_precedence: int) -> str:
        return "T"


class _NaryFormula(Formula):
    """Shared implementation of :class:`And` and :class:`Or`."""

    __slots__ = ("_children_tuple",)
    _symbol = "?"
    _precedence = 0

    def __init__(self, children: Iterable[Formula]):
        materialized = tuple(children)
        if not materialized:
            raise FormulaError(f"{type(self).__name__} needs at least one operand")
        for child in materialized:
            if not isinstance(child, Formula):
                raise FormulaError(f"operand {child!r} is not a Formula")
        self._children_tuple = materialized

    @classmethod
    def of(cls, *children: Formula) -> Formula:
        """Build a connective, flattening nested occurrences of the same kind.

        ``And.of(a)`` returns ``a`` unchanged.
        """
        flattened: list[Formula] = []
        for child in children:
            if isinstance(child, cls):
                flattened.extend(child.operands)
            else:
                flattened.append(child)
        if len(flattened) == 1:
            return flattened[0]
        return cls(flattened)

    @property
    def operands(self) -> tuple[Formula, ...]:
        """The operand formulas, in order."""
        return self._children_tuple

    def _children(self) -> tuple[Formula, ...]:
        return self._children_tuple

    def free_variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for child in self._children_tuple:
            out |= child.free_variables()
        return frozenset(out)

    def all_variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for child in self._children_tuple:
            out |= child.all_variables()
        return frozenset(out)

    def atoms(self) -> tuple[Atom, ...]:
        return tuple(itertools.chain.from_iterable(c.atoms() for c in self._children_tuple))

    def rename_free(self, mapping: dict[Variable, Variable]) -> "Formula":
        return type(self)(child.rename_free(mapping) for child in self._children_tuple)

    def _pretty(self, parent_precedence: int) -> str:
        inner = f" {self._symbol} ".join(
            child._pretty(self._precedence) for child in self._children_tuple
        )
        if parent_precedence > self._precedence:
            return f"({inner})"
        return inner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)) or type(other) is not type(self):
            return NotImplemented
        return self._children_tuple == other._children_tuple

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._children_tuple))


class And(_NaryFormula):
    """Conjunction of one or more formulas."""

    _symbol = "&"
    _precedence = 2


class Or(_NaryFormula):
    """Disjunction of one or more formulas."""

    _symbol = "|"
    _precedence = 1


class Exists(Formula):
    """Existential quantification ``∃ v_1 ... v_k . body``."""

    __slots__ = ("_variables", "_body")

    def __init__(self, variables: Iterable[VariableLike], body: Formula):
        self._variables = as_variables(variables)
        if not self._variables:
            raise FormulaError("Exists needs at least one quantified variable")
        if len(set(self._variables)) != len(self._variables):
            raise FormulaError("Exists quantifies the same variable twice")
        if not isinstance(body, Formula):
            raise FormulaError(f"body {body!r} is not a Formula")
        self._body = body

    @property
    def variables(self) -> tuple[Variable, ...]:
        """The quantified variables, in declaration order."""
        return self._variables

    @property
    def body(self) -> Formula:
        """The formula under the quantifier."""
        return self._body

    def _children(self) -> tuple[Formula, ...]:
        return (self._body,)

    def free_variables(self) -> frozenset[Variable]:
        return self._body.free_variables() - frozenset(self._variables)

    def all_variables(self) -> frozenset[Variable]:
        return self._body.all_variables() | frozenset(self._variables)

    def atoms(self) -> tuple[Atom, ...]:
        return self._body.atoms()

    def rename_free(self, mapping: dict[Variable, Variable]) -> "Formula":
        bound = set(self._variables)
        filtered = {k: v for k, v in mapping.items() if k not in bound}
        clashes = bound & set(filtered.values())
        if clashes:
            raise FormulaError(
                f"renaming would capture variables {sorted(v.name for v in clashes)}"
            )
        return Exists(self._variables, self._body.rename_free(filtered))

    def _pretty(self, parent_precedence: int) -> str:
        names = " ".join(v.name for v in self._variables)
        inner = f"exists {names}. {self._body._pretty(0)}"
        if parent_precedence > 0:
            return f"({inner})"
        return inner

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Exists):
            return NotImplemented
        return self._variables == other._variables and self._body == other._body

    def __hash__(self) -> int:
        return hash(("Exists", self._variables, self._body))


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def atom(relation: str, *arguments: VariableLike) -> AtomicFormula:
    """Build an atomic formula: ``atom("E", "x", "y")``."""
    return AtomicFormula(Atom(relation, arguments))


def conjunction(formulas: Sequence[Formula]) -> Formula:
    """Conjunction of a sequence; the empty conjunction is :class:`Truth`."""
    if not formulas:
        return Truth()
    return And.of(*formulas)


def disjunction(formulas: Sequence[Formula]) -> Formula:
    """Disjunction of a non-empty sequence of formulas."""
    if not formulas:
        raise FormulaError("disjunction of zero formulas is not representable")
    return Or.of(*formulas)


# ----------------------------------------------------------------------
# Prenex disjunctive normal form
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrenexDisjunct:
    """One disjunct of the prenex-disjunctive rewriting of an EP formula.

    ``atoms`` is the conjunction of atoms, ``quantified`` the
    existentially quantified variables of this disjunct; every other
    variable in the atoms is free.
    """

    atoms: tuple[Atom, ...]
    quantified: frozenset[Variable]

    def free_variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for a in self.atoms:
            out |= a.variables
        return frozenset(out) - self.quantified


class _FreshNames:
    """Generates quantified-variable names that cannot clash with user names."""

    def __init__(self, reserved: Iterable[Variable]):
        self._reserved = {v.name for v in reserved}
        self._counter = itertools.count()

    def fresh(self, base: Variable) -> Variable:
        while True:
            candidate = f"{base.name}#{next(self._counter)}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return Variable(candidate)


def to_prenex_disjuncts(formula: Formula) -> list[PrenexDisjunct]:
    """Rewrite an EP formula into a disjunction of prenex pp-formulas.

    The result is a list of :class:`PrenexDisjunct`; the original formula
    is logically equivalent to the disjunction of the disjuncts.  Bound
    variables are standardized apart (each quantifier introduction gets a
    fresh name per disjunct), so no variable is both free and quantified
    and no two quantifiers of one disjunct share a variable.  Disjuncts
    that distributing ``&`` over ``|`` copies one conjunct into share
    that conjunct's quantified variables (``(exists a. E(a, x)) & (E(x,
    y) | E(y, x))`` quantifies ``a#0`` in both), so conjoining two
    disjuncts standardizes them apart first.
    """
    fresh = _FreshNames(formula.all_variables())

    def recurse(node: Formula) -> list[PrenexDisjunct]:
        if isinstance(node, Truth):
            return [PrenexDisjunct((), frozenset())]
        if isinstance(node, AtomicFormula):
            return [PrenexDisjunct((node.atom,), frozenset())]
        if isinstance(node, Or):
            out: list[PrenexDisjunct] = []
            for child in node.operands:
                out.extend(recurse(child))
            return out
        if isinstance(node, And):
            partial: list[PrenexDisjunct] = [PrenexDisjunct((), frozenset())]
            for child in node.operands:
                child_disjuncts = recurse(child)
                partial = [
                    PrenexDisjunct(
                        left.atoms + right.atoms, left.quantified | right.quantified
                    )
                    for left in partial
                    for right in child_disjuncts
                ]
            return partial
        if isinstance(node, Exists):
            out = []
            for disjunct in recurse(node.body):
                renaming = {v: fresh.fresh(v) for v in node.variables}
                renamed_atoms = tuple(a.rename(renaming) for a in disjunct.atoms)
                quantified = disjunct.quantified | frozenset(renaming.values())
                out.append(PrenexDisjunct(renamed_atoms, quantified))
            return out
        raise FormulaError(f"unsupported formula node: {node!r}")

    return recurse(formula)
