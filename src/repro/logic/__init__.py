"""Logic substrate: signatures, variables, formulas and their normal forms."""

from repro.logic.signatures import RelationSymbol, Signature
from repro.logic.terms import Atom, Variable, as_variable, as_variables
from repro.logic.formulas import (
    And,
    AtomicFormula,
    Exists,
    Formula,
    Or,
    PrenexDisjunct,
    Truth,
    atom,
    conjunction,
    disjunction,
    to_prenex_disjuncts,
)
from repro.logic.pp import PPFormula, conjoin_all
from repro.logic.ep import EPFormula
from repro.logic.parser import parse_formula, parse_query
from repro.logic.builder import pp_from_atom_specs

__all__ = [
    "RelationSymbol",
    "Signature",
    "Atom",
    "Variable",
    "as_variable",
    "as_variables",
    "And",
    "AtomicFormula",
    "Exists",
    "Formula",
    "Or",
    "PrenexDisjunct",
    "Truth",
    "atom",
    "conjunction",
    "disjunction",
    "to_prenex_disjuncts",
    "PPFormula",
    "conjoin_all",
    "EPFormula",
    "parse_formula",
    "parse_query",
    "pp_from_atom_specs",
]
