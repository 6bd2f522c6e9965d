"""A compact constructor for pp-formulas from ``(relation, variables)`` pairs.

The parser in :mod:`repro.logic.parser` is convenient for literal
queries; :func:`pp_from_atom_specs` is convenient when queries are
constructed programmatically (e.g. by the workload generators).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.logic.pp import PPFormula
from repro.logic.terms import Atom


def pp_from_atom_specs(
    specs: Sequence[tuple[str, Sequence[str]]],
    liberal: Iterable[str] | None = None,
    quantified: Iterable[str] | None = None,
) -> PPFormula:
    """Build a pp-formula from ``(relation, (var, ...))`` pairs.

    A compact constructor used heavily by tests and workload generators::

        pp_from_atom_specs([("E", ("x", "y")), ("E", ("y", "z"))], liberal=["x", "z"])
    """
    atoms = [Atom(relation, variables) for relation, variables in specs]
    return PPFormula.from_atoms(atoms, liberal=liberal, quantified=quantified)
