"""Prenex primitive positive formulas.

Following Chandra and Merlin, a prenex pp-formula with liberal variables
``S`` is represented as a pair ``(A, S)`` where ``A`` is a relational
structure whose universe consists of the variables of the formula
(liberal and quantified) and whose tuples are the atoms.  An *answer* of
``(A, S)`` on a structure ``B`` is a map ``f : S -> B`` that extends to a
homomorphism from ``A`` to ``B``.

The liberal variables (Section 2.1 of the paper) are the variables the
count is taken over.  They always include the free variables but may be
strictly larger: a liberal variable that occurs in no atom is
unconstrained and multiplies the count by ``|B|``.

:class:`PPFormula` is immutable; all "modifying" operations return new
formulas.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.exceptions import FormulaError, LiberalVariableError
from repro.logic.formulas import (
    AtomicFormula,
    Exists,
    Formula,
    PrenexDisjunct,
    Truth,
    conjunction,
)
from repro.logic.signatures import Signature
from repro.logic.terms import Atom, Variable, VariableLike, as_variable, as_variables, atoms_signature, atoms_variables
from repro.structures.cores import IntForm, augmented_structure, maps_into
from repro.structures.graphs import Graph, component_substructures, gaifman_graph
from repro.structures.structure import Structure


class PPFormula:
    """A prenex primitive positive formula with liberal variables.

    Parameters
    ----------
    structure:
        The structure view ``A`` of the formula: universe = variables,
        tuples = atoms.  Every element of the universe must be a
        :class:`~repro.logic.terms.Variable`.
    liberal:
        The liberal variables ``S``; must be a subset of the universe
        (isolated elements are added automatically when they are not).

    Notes
    -----
    * ``free_variables`` is the set of liberal variables that occur in at
      least one atom.
    * ``quantified_variables`` is ``universe - liberal``.
    * Formulas compare equal when they have the same structure and the
      same liberal set (syntactic equality up to atom ordering).
    """

    __slots__ = ("_structure", "_liberal", "_hash", "_core")

    def __init__(self, structure: Structure, liberal: Iterable[VariableLike]):
        liberal_set = frozenset(as_variables(liberal))
        for element in structure.universe:
            if not isinstance(element, Variable):
                raise FormulaError(
                    f"pp-formula universes must consist of Variables, got {element!r}"
                )
        missing = liberal_set - structure.universe
        if missing:
            structure = Structure(
                structure.signature,
                structure.universe | missing,
                structure.relations,
            )
        self._structure = structure
        self._liberal = liberal_set
        self._hash: int | None = None
        self._core: PPFormula | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_atoms(
        cls,
        atoms: Iterable[Atom],
        liberal: Iterable[VariableLike] | None = None,
        quantified: Iterable[VariableLike] | None = None,
    ) -> "PPFormula":
        """Build a pp-formula from a collection of atoms.

        Exactly one of ``liberal`` or ``quantified`` should normally be
        given.  If ``liberal`` is given, the quantified variables are the
        remaining atom variables.  If ``quantified`` is given, the
        liberal variables are the remaining atom variables.  If neither
        is given, the formula is quantifier-free and all variables are
        liberal.
        """
        atom_list = list(atoms)
        variables = atoms_variables(atom_list)
        if liberal is not None and quantified is not None:
            liberal_set = frozenset(as_variables(liberal))
            quantified_set = frozenset(as_variables(quantified))
            if liberal_set & quantified_set:
                raise LiberalVariableError(
                    "a variable cannot be both liberal and quantified"
                )
        elif liberal is not None:
            liberal_set = frozenset(as_variables(liberal))
            quantified_set = variables - liberal_set
        elif quantified is not None:
            quantified_set = frozenset(as_variables(quantified))
            liberal_set = variables - quantified_set
        else:
            liberal_set = variables
            quantified_set = frozenset()
        universe = variables | liberal_set | quantified_set
        signature = atoms_signature(atom_list)
        relations: dict[str, list[tuple[Variable, ...]]] = {
            name: [] for name in signature.names
        }
        for a in atom_list:
            relations[a.relation].append(a.arguments)
        structure = Structure(signature, universe, relations)
        return cls(structure, liberal_set)

    @classmethod
    def from_prenex_disjunct(
        cls,
        disjunct: PrenexDisjunct,
        liberal: Iterable[VariableLike],
    ) -> "PPFormula":
        """Build a pp-formula from one disjunct of a prenex rewriting."""
        liberal_set = frozenset(as_variables(liberal))
        clash = liberal_set & disjunct.quantified
        if clash:
            raise LiberalVariableError(
                f"variables {sorted(v.name for v in clash)} are both liberal and quantified"
            )
        formula = cls.from_atoms(disjunct.atoms, quantified=disjunct.quantified)
        return formula.with_liberal(liberal_set | formula.free_variables)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def structure(self) -> Structure:
        """The structure view ``A`` of the formula."""
        return self._structure

    @property
    def liberal(self) -> frozenset[Variable]:
        """The liberal variables ``S``."""
        return self._liberal

    @property
    def signature(self) -> Signature:
        """The signature of the formula."""
        return self._structure.signature

    @property
    def variables(self) -> frozenset[Variable]:
        """All variables (the universe of the structure view)."""
        return frozenset(self._structure.universe)

    @property
    def quantified_variables(self) -> frozenset[Variable]:
        """The existentially quantified variables."""
        return frozenset(self._structure.universe) - self._liberal

    @property
    def free_variables(self) -> frozenset[Variable]:
        """The liberal variables that occur in at least one atom."""
        return self._liberal & self._structure.elements_in_tuples()

    @property
    def unconstrained_liberal_variables(self) -> frozenset[Variable]:
        """Liberal variables occurring in no atom (each multiplies the count by |B|)."""
        return self._liberal - self._structure.elements_in_tuples()

    def atoms(self) -> tuple[Atom, ...]:
        """The atoms of the formula, in a deterministic order."""
        out = []
        for name, t in self._structure.tuples():
            out.append(Atom(name, t))
        return tuple(out)

    @property
    def atom_count(self) -> int:
        """The number of atoms in the formula."""
        return self._structure.total_tuples

    def is_sentence(self) -> bool:
        """True if the formula has no free variables."""
        return not self.free_variables

    def is_free(self) -> bool:
        """True if the formula has at least one free variable."""
        return bool(self.free_variables)

    def is_liberal(self) -> bool:
        """True if the liberal-variable set is non-empty."""
        return bool(self._liberal)

    # ------------------------------------------------------------------
    # Derived formulas
    # ------------------------------------------------------------------
    def with_liberal(self, liberal: Iterable[VariableLike]) -> "PPFormula":
        """Return the same formula with a different liberal-variable set.

        The new set must contain the free variables and be disjoint from
        the quantified variables.
        """
        liberal_set = frozenset(as_variables(liberal))
        if not self.free_variables <= liberal_set:
            missing = self.free_variables - liberal_set
            raise LiberalVariableError(
                f"liberal variables must include free variables; missing "
                f"{sorted(v.name for v in missing)}"
            )
        clash = liberal_set & self.quantified_variables
        if clash:
            raise LiberalVariableError(
                f"variables {sorted(v.name for v in clash)} are already quantified"
            )
        universe = self._structure.universe | liberal_set
        structure = Structure(self.signature, universe, self._structure.relations)
        return PPFormula(structure, liberal_set)

    def rename(self, mapping: Mapping[VariableLike, VariableLike]) -> "PPFormula":
        """Rename variables (liberal and quantified) injectively."""
        typed = {as_variable(k): as_variable(v) for k, v in mapping.items()}
        renamed_structure = self._structure.rename(typed)
        renamed_liberal = frozenset(typed.get(v, v) for v in self._liberal)
        return PPFormula(renamed_structure, renamed_liberal)

    def conjoin(self, other: "PPFormula") -> "PPFormula":
        """The conjunction of two pp-formulas over the same liberal set.

        Shared variables are identified; the quantified variables of the
        operands must not clash with each other or with the other
        operand's liberal variables (callers standardize apart first if
        needed -- the inclusion-exclusion machinery always conjoins
        disjuncts of the same formula, whose bound variables are already
        distinct).
        """
        if self._liberal != other._liberal:
            raise LiberalVariableError(
                "can only conjoin pp-formulas with identical liberal variables"
            )
        clash = (self.quantified_variables & other._liberal) | (
            other.quantified_variables & self._liberal
        )
        if clash:
            raise LiberalVariableError(
                f"quantified variables {sorted(v.name for v in clash)} clash with liberal variables"
            )
        signature = self.signature | other.signature
        universe = self._structure.universe | other._structure.universe
        relations: dict[str, set[tuple[Variable, ...]]] = {
            name: set() for name in signature.names
        }
        for formula in (self, other):
            for name, tuples in formula._structure.relations.items():
                relations[name] |= tuples
        structure = Structure(signature, universe, relations)
        return PPFormula(structure, self._liberal)

    def with_signature(self, signature: Signature) -> "PPFormula":
        """Reinterpret the formula over a larger signature."""
        return PPFormula(self._structure.with_signature(signature), self._liberal)

    def standardize_apart(self, taken: Iterable[Variable], prefix: str = "q") -> "PPFormula":
        """Rename quantified variables away from the names in ``taken``."""
        taken_names = {v.name for v in taken} | {v.name for v in self._liberal}
        mapping: dict[Variable, Variable] = {}
        counter = 0
        for variable in sorted(self.quantified_variables, key=lambda v: v.name):
            if variable.name in taken_names:
                while True:
                    candidate = f"{prefix}{counter}"
                    counter += 1
                    if candidate not in taken_names and Variable(candidate) not in self.variables:
                        break
                mapping[variable] = Variable(candidate)
                taken_names.add(candidate)
        if not mapping:
            return self
        return self.rename(mapping)

    # ------------------------------------------------------------------
    # Structural notions from the paper
    # ------------------------------------------------------------------
    def graph(self) -> Graph:
        """The Gaifman graph of the formula (vertices ``A ∪ S``)."""
        return gaifman_graph(self._structure, extra_vertices=self._liberal)

    def components(self) -> list["PPFormula"]:
        """The components of the formula (Section 2.1).

        Each component is the restriction of the formula to one connected
        component of its graph, with the liberal variables restricted to
        that component.  Answer counts multiply over components.
        """
        pieces = component_substructures(self._structure, self._liberal)
        return [PPFormula(sub, lib) for sub, lib in pieces]

    def hat(self) -> "PPFormula":
        """The formula ``φ̂``: drop every atom of a non-liberal component.

        The quantified variables of dropped components remain in the
        universe (they become unconstrained), matching Example 5.8 of
        the paper.  On any structure where the original formula has an
        answer, ``φ`` and ``φ̂`` have the same number of answers
        (Proposition 5.10).
        """
        liberal_component_vars: set[Variable] = set()
        for component in self.components():
            if component.is_liberal():
                liberal_component_vars |= component.variables
        relations = {
            name: [t for t in tuples if set(t) <= liberal_component_vars]
            for name, tuples in self._structure.relations.items()
        }
        structure = Structure(self.signature, self._structure.universe, relations)
        return PPFormula(structure, self._liberal)

    def augmented(self) -> Structure:
        """The augmented structure ``aug(A, S)``."""
        return augmented_structure(self._structure, self._liberal)

    def form(self) -> IntForm:
        """The formula's int form, what its core, entailment and
        renaming-equivalence searches run on.  Built per call and not
        kept: a cached plan holds its formulas, not their indexes."""
        return IntForm(self._structure, self._liberal)

    def core(self) -> "PPFormula":
        """The core of the formula.

        The core of the augmented structure (so liberal variables are
        never collapsed), without the augmentation.  The result is a
        logically equivalent formula with a minimal set of quantified
        variables; its structure is built once, from the core's
        elements.  Memoized on the formula: a compile cores each
        inclusion-exclusion term once, for cancellation, and the
        pp-plan and the profile reuse it.  A core is its own core.
        """
        if self._core is None:
            cored = self
            # The universe holds the liberal variables; anything more is
            # quantified, and only quantified variables can retract.
            if len(self._structure.universe) > len(self._liberal):
                form = self.form()
                alive = form.core()
                if alive != form.full:
                    cored = PPFormula(
                        self._structure.restrict(form.members(alive)), self._liberal
                    )
                    cored._core = cored
            self._core = cored
        return self._core

    def entails(self, other: "PPFormula") -> bool:
        """Logical entailment between pp-formulas with equal liberal sets.

        By Theorem 2.3, ``self`` entails ``other`` iff there is a
        homomorphism from ``aug(other)`` to ``aug(self)``.
        """
        if self._liberal != other._liberal:
            raise LiberalVariableError(
                "entailment is defined for formulas with the same liberal variables"
            )
        # The union raises on a relation of two arities.
        self.signature | other.signature
        return maps_into(other.form(), self.form())

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_ast(self) -> Formula:
        """Convert back to a formula AST (``exists ... (atom & ... & atom)``)."""
        atom_nodes = [AtomicFormula(a) for a in self.atoms()]
        body = conjunction(atom_nodes) if atom_nodes else Truth()
        quantified = sorted(self.quantified_variables, key=lambda v: v.name)
        if quantified:
            return Exists(quantified, body)
        return body

    # ------------------------------------------------------------------
    # Equality, hashing, display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PPFormula):
            return NotImplemented
        return self._structure == other._structure and self._liberal == other._liberal

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._structure, self._liberal))
        return self._hash

    def __getstate__(self) -> tuple:
        # Neither the hash (salted per process) nor the memoized core
        # travels: a job carries the formula alone.
        return self._structure, self._liberal

    def __setstate__(self, state: tuple) -> None:
        self._structure, self._liberal = state
        self._hash = None
        self._core = None

    def __str__(self) -> str:
        liberal = ", ".join(sorted(v.name for v in self._liberal))
        quantified = " ".join(sorted(v.name for v in self.quantified_variables))
        atoms = " & ".join(str(a) for a in self.atoms()) or "T"
        prefix = f"exists {quantified}. " if quantified else ""
        return f"phi({liberal}) = {prefix}{atoms}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PPFormula({self!s})"


def conjoin_all(formulas: Sequence[PPFormula]) -> PPFormula:
    """Conjoin a non-empty sequence of pp-formulas with equal liberal sets."""
    if not formulas:
        raise FormulaError("cannot conjoin zero formulas")
    result = formulas[0]
    for formula in formulas[1:]:
        result = result.conjoin(formula)
    return result
