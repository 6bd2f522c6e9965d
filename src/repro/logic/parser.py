"""A small text syntax for existential positive queries.

The grammar (whitespace-insensitive)::

    query       :=  [ header '=' ] formula
    header      :=  IDENT '(' [ varlist ] ')'      -- declares the liberal variables
    formula     :=  conjunct ( '|' conjunct )*
    conjunct    :=  unary ( '&' unary )*
    unary       :=  atom | 'T' | '(' formula ')'
                  | 'exists' IDENT+ '.' formula      -- maximal scope
    atom        :=  IDENT '(' varlist ')'
    varlist     :=  IDENT ( ',' IDENT )*

Examples::

    E(x, y) & (E(w, x) | (E(y, z) & E(z, z)))
    phi(w, x, y, z) = (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))
    exists z. E(x, z) & E(z, y)
    phi() = exists a b. E(a, b) & E(b, a)

An empty header declares no liberal variable (a sentence), which is how
an :class:`EPFormula` prints one, so ``parse_query(str(q)) == q``.

Relation names start with an upper-case letter, variable names with a
lower-case letter or underscore; this mirrors the usual datalog
convention and keeps the grammar unambiguous without a declaration
section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exceptions import ParseError
from repro.logic.ep import EPFormula
from repro.logic.formulas import AtomicFormula, Exists, Formula, Or, And, Truth
from repro.logic.terms import Atom, Variable

_TOKEN_REGEX = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<EXISTS>\bexists\b)
  | (?P<TRUTH>\bT\b)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<AND>&)
  | (?P<OR>\|)
  | (?P<DOT>\.)
  | (?P<EQUALS>=)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_REGEX.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position)
        kind = match.lastgroup or ""
        if kind != "WS":
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    # -- token plumbing -------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind} but found {token.text or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _accept(self, kind: str) -> _Token | None:
        if self._peek().kind == kind:
            return self._advance()
        return None

    # -- grammar --------------------------------------------------------
    def parse_query(self) -> tuple[Formula, tuple[Variable, ...] | None]:
        """Parse a query, returning the formula and any declared liberal variables."""
        liberal = self._try_header()
        formula = self.parse_formula()
        self._expect("EOF")
        return formula, liberal

    def _try_header(self) -> tuple[Variable, ...] | None:
        # A header looks like  IDENT ( varlist ) =   -- only treat it as a
        # header if the '=' is present, otherwise it is an atom.
        start = self._index
        if self._peek().kind != "IDENT":
            return None
        self._advance()
        if self._accept("LPAREN") is None:
            self._index = start
            return None
        variables = () if self._peek().kind == "RPAREN" else self._varlist()
        if self._accept("RPAREN") is None or self._accept("EQUALS") is None:
            self._index = start
            return None
        return variables

    def parse_formula(self) -> Formula:
        disjuncts = [self._conjunct()]
        while self._accept("OR"):
            disjuncts.append(self._conjunct())
        if len(disjuncts) == 1:
            return disjuncts[0]
        return Or.of(*disjuncts)

    def _conjunct(self) -> Formula:
        conjuncts = [self._unary()]
        while self._accept("AND"):
            conjuncts.append(self._unary())
        if len(conjuncts) == 1:
            return conjuncts[0]
        return And.of(*conjuncts)

    def _unary(self) -> Formula:
        token = self._peek()
        if token.kind == "LPAREN":
            self._advance()
            inner = self.parse_formula()
            self._expect("RPAREN")
            return inner
        if token.kind == "EXISTS":
            self._advance()
            variables = []
            while self._peek().kind == "IDENT":
                variables.append(Variable(self._advance().text))
                self._accept("COMMA")
            if not variables:
                raise ParseError("'exists' needs at least one variable", token.position)
            self._expect("DOT")
            # Quantifiers scope as far to the right as possible, following
            # the usual logic convention:  exists z. E(x,z) & E(z,y)
            # quantifies z over the whole conjunction.
            body = self.parse_formula()
            return Exists(variables, body)
        if token.kind == "TRUTH":
            self._advance()
            return Truth()
        if token.kind == "IDENT":
            return self._atom()
        raise ParseError(
            f"expected an atom, '(', 'exists' or 'T', found {token.text or 'end of input'!r}",
            token.position,
        )

    def _atom(self) -> Formula:
        name_token = self._expect("IDENT")
        if not name_token.text[0].isupper():
            raise ParseError(
                f"relation names must start with an upper-case letter: {name_token.text!r}",
                name_token.position,
            )
        self._expect("LPAREN")
        variables = self._varlist()
        self._expect("RPAREN")
        return AtomicFormula(Atom(name_token.text, variables))

    def _varlist(self) -> tuple[Variable, ...]:
        variables = [self._variable()]
        while self._accept("COMMA"):
            variables.append(self._variable())
        return tuple(variables)

    def _variable(self) -> Variable:
        token = self._expect("IDENT")
        if token.text[0].isupper():
            raise ParseError(
                f"variable names must start with a lower-case letter or '_': {token.text!r}",
                token.position,
            )
        return Variable(token.text)


def parse_query(text: str, liberal: list[str] | None = None) -> EPFormula:
    """Parse an EP query, returning an :class:`EPFormula`.

    The liberal variables come from, in order of precedence:

    1. the ``liberal`` argument,
    2. a header ``name(v1, ..., vk) = ...`` in the text,
    3. the free variables of the formula.
    """
    formula, declared = _Parser(_tokenize(text)).parse_query()
    if liberal is not None:
        return EPFormula(formula, liberal=[Variable(v) for v in liberal])
    if declared is not None:
        return EPFormula(formula, liberal=declared)
    return EPFormula(formula)
