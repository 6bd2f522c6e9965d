"""Existential positive formulas with liberal variables.

:class:`EPFormula` pairs an EP formula AST with a set of liberal
variables (a superset of its free variables) and exposes the syntactic
transformation the paper relies on: the **disjunctive form**, a tuple
of prenex pp-formulas (all sharing the liberal set) whose disjunction
is logically equivalent to the formula.  Everything Section 5.4 derives
(normalization, the all-free part, ``φ+``) is computed from that tuple
by :mod:`repro.core.ep_to_pp`.

An EP formula is semantically a union of conjunctive queries, and it is
the library's one query type: :func:`repro.logic.parser.parse_query`
reads the text syntax (a ``Q(x, y) = ...`` header names the liberal
variables) into it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.exceptions import FormulaError, LiberalVariableError
from repro.logic.formulas import (
    Formula,
    Or,
    to_prenex_disjuncts,
)
from repro.logic.pp import PPFormula
from repro.logic.signatures import Signature
from repro.logic.terms import Variable, VariableLike, as_variables


class EPFormula:
    """An existential positive formula together with its liberal variables.

    Parameters
    ----------
    ast:
        The formula, built from the node classes in
        :mod:`repro.logic.formulas` (atoms, ``&``, ``|``, ``exists``).
    liberal:
        The liberal variables; defaults to the free variables of the
        formula.  Must be a superset of the free variables.
    signature:
        Optional explicit signature.  Defaults to the smallest signature
        over which the formula is well-formed; an explicit signature is
        useful when disjuncts mention different relations but the
        formula should be read over a fixed vocabulary.
    """

    __slots__ = ("_ast", "_liberal", "_signature", "_disjuncts_cache")

    def __init__(
        self,
        ast: Formula,
        liberal: Iterable[VariableLike] | None = None,
        signature: Signature | None = None,
    ):
        if not isinstance(ast, Formula):
            raise FormulaError(f"{ast!r} is not a Formula")
        self._ast = ast
        free = ast.free_variables()
        if liberal is None:
            liberal_set = free
        else:
            liberal_set = frozenset(as_variables(liberal))
            if not free <= liberal_set:
                missing = free - liberal_set
                raise LiberalVariableError(
                    "liberal variables must include all free variables; missing "
                    f"{sorted(v.name for v in missing)}"
                )
        bound = ast.all_variables() - free
        clash = liberal_set & bound
        if clash:
            raise LiberalVariableError(
                f"variables {sorted(v.name for v in clash)} are both liberal and quantified"
            )
        self._liberal = liberal_set
        self._signature = (signature or Signature()) | ast.signature()
        self._disjuncts_cache: tuple[PPFormula, ...] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pp(cls, formula: PPFormula) -> "EPFormula":
        """Wrap a single pp-formula as an EP formula."""
        return cls(formula.to_ast(), liberal=formula.liberal, signature=formula.signature)

    @classmethod
    def from_disjuncts(cls, disjuncts: Sequence[PPFormula]) -> "EPFormula":
        """Build a disjunctive EP formula from pp-formula disjuncts.

        All disjuncts must have the same liberal-variable set; their
        quantified variables are standardized apart automatically.
        """
        if not disjuncts:
            raise FormulaError("an EP formula needs at least one disjunct")
        liberal = disjuncts[0].liberal
        for formula in disjuncts[1:]:
            if formula.liberal != liberal:
                raise LiberalVariableError(
                    "all disjuncts must share the same liberal variables"
                )
        signature = disjuncts[0].signature
        for formula in disjuncts[1:]:
            signature = signature | formula.signature
        taken: set[Variable] = set(liberal)
        standardized: list[PPFormula] = []
        for index, formula in enumerate(disjuncts):
            apart = formula.standardize_apart(taken, prefix=f"q{index}_")
            taken |= apart.variables
            standardized.append(apart)
        if len(standardized) == 1:
            ast = standardized[0].to_ast()
        else:
            ast = Or.of(*(f.to_ast() for f in standardized))
        return cls(ast, liberal=liberal, signature=signature)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def ast(self) -> Formula:
        """The underlying formula AST."""
        return self._ast

    @property
    def liberal(self) -> frozenset[Variable]:
        """The liberal variables the count is taken over."""
        return self._liberal

    @property
    def free_variables(self) -> frozenset[Variable]:
        """The free variables of the formula."""
        return self._ast.free_variables()

    @property
    def signature(self) -> Signature:
        """The signature of the formula."""
        return self._signature

    def is_primitive_positive(self) -> bool:
        """True if the formula contains no disjunction."""
        return self._ast.is_primitive_positive()

    def is_sentence(self) -> bool:
        """True if the formula has no free variables."""
        return self._ast.is_sentence()

    def max_arity(self) -> int:
        """The largest relation arity used by the formula."""
        return self._signature.max_arity

    # ------------------------------------------------------------------
    # Disjunctive forms
    # ------------------------------------------------------------------
    def disjuncts(self) -> tuple[PPFormula, ...]:
        """The prenex pp-formula disjuncts of the formula.

        Every disjunct carries the formula's liberal-variable set and its
        full signature, so answer sets of different disjuncts are over
        the same variables and vocabulary (cf. Example 2.1: getting this
        wrong breaks inclusion-exclusion).
        """
        if self._disjuncts_cache is None:
            pieces = to_prenex_disjuncts(self._ast)
            out = []
            for piece in pieces:
                formula = PPFormula.from_prenex_disjunct(piece, liberal=self._liberal)
                out.append(formula.with_signature(formula.signature | self._signature))
            self._disjuncts_cache = tuple(out)
        return self._disjuncts_cache

    def to_pp(self) -> PPFormula:
        """Convert to a single pp-formula; requires a disjunction-free formula."""
        disjuncts = self.disjuncts()
        if len(disjuncts) != 1:
            raise FormulaError(
                "formula is not primitive positive: it has "
                f"{len(disjuncts)} disjuncts"
            )
        return disjuncts[0]

    # ------------------------------------------------------------------
    # Display and equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EPFormula):
            return NotImplemented
        return self._ast == other._ast and self._liberal == other._liberal

    def __hash__(self) -> int:
        return hash((self._ast, self._liberal))

    def __str__(self) -> str:
        liberal = ", ".join(sorted(v.name for v in self._liberal))
        return f"phi({liberal}) = {self._ast}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EPFormula({self!s})"
