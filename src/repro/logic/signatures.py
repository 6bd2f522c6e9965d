"""Relational signatures (vocabularies).

A *signature* (also called a vocabulary) is a finite set of relation
symbols, each with a fixed arity.  Following the paper, signatures are
purely relational: there are no constant or function symbols, and
equality is not built in.

The two classes here are deliberately small value objects:

* :class:`RelationSymbol` -- a named relation symbol with an arity.
* :class:`Signature` -- an immutable collection of relation symbols,
  addressable by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.exceptions import SignatureError


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A relation symbol with a name and an arity.

    Parameters
    ----------
    name:
        The symbol's name, e.g. ``"E"`` for an edge relation.
    arity:
        The number of arguments the relation takes; must be at least 1.
    """

    name: str
    arity: int

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("relation symbol name must be non-empty")
        if self.arity < 1:
            raise SignatureError(
                f"relation symbol {self.name!r} must have arity >= 1, got {self.arity}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}/{self.arity}"


class Signature:
    """An immutable relational signature.

    A signature maps relation names to :class:`RelationSymbol` objects.
    Signatures support set-like union and comparison, which the library
    uses when combining formulas or structures over different (but
    compatible) vocabularies.
    """

    __slots__ = ("_symbols",)

    def __init__(self, symbols: Iterable[RelationSymbol] = ()):
        by_name: dict[str, RelationSymbol] = {}
        for symbol in symbols:
            existing = by_name.get(symbol.name)
            if existing is not None and existing.arity != symbol.arity:
                raise SignatureError(
                    f"conflicting arities for relation {symbol.name!r}: "
                    f"{existing.arity} and {symbol.arity}"
                )
            by_name[symbol.name] = symbol
        self._symbols: dict[str, RelationSymbol] = dict(sorted(by_name.items()))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def graph(cls, name: str = "E") -> "Signature":
        """The signature of directed graphs: a single binary relation."""
        return cls([RelationSymbol(name, 2)])

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._symbols

    def get(self, name: str) -> RelationSymbol | None:
        """Return the symbol named ``name`` or ``None`` if absent."""
        return self._symbols.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        """The relation names in this signature, sorted."""
        return tuple(self._symbols)

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def union(self, other: "Signature") -> "Signature":
        """The union of two signatures.

        Raises :class:`SignatureError` if the signatures disagree on the
        arity of a shared relation name.
        """
        return Signature(list(self) + list(other))

    def __or__(self, other: "Signature") -> "Signature":
        return self.union(other)

    def is_subsignature_of(self, other: "Signature") -> bool:
        """True if every symbol of this signature occurs in ``other``."""
        return all(other.get(s.name) == s for s in self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(tuple(self._symbols.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(s) for s in self)
        return f"Signature({{{inner}}})"
