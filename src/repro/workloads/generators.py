"""Workload generators: query families and random queries.

The benchmark harness sweeps over *families* of queries whose structural
parameters (treewidth of cores and contract graphs, number of disjuncts,
number of quantified variables) grow in a controlled way, so that the
measured scaling can be compared against the case the trichotomy assigns
to the family.  This module provides:

* deterministic families -- path, star, cycle, grid and hidden-clique
  queries, their quantified variants, and frontier pairs built on
  :func:`repro.algorithms.clique.clique_query`;
* random conjunctive queries and UCQs with tunable size parameters.

All functions return :class:`~repro.logic.pp.PPFormula` or
:class:`~repro.logic.ep.EPFormula` objects over the graph signature
``{E/2}`` unless stated otherwise.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.algorithms.clique import clique_query
from repro.exceptions import WorkloadError
from repro.logic.builder import pp_from_atom_specs
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula
from repro.logic.terms import Atom, Variable


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------
def path_query(length: int, relation: str = "E", quantify_interior: bool = False) -> PPFormula:
    """The path query ``E(x0,x1) & E(x1,x2) & ... & E(x_{l-1},x_l)``.

    With ``quantify_interior=True`` only the endpoints are liberal, so
    the query asks for pairs connected by a path of the given length.
    Path queries have treewidth 1 and are the canonical FPT family.
    """
    if length < 1:
        raise WorkloadError("length must be at least 1")
    variables = [f"x{i}" for i in range(length + 1)]
    specs = [(relation, (variables[i], variables[i + 1])) for i in range(length)]
    if quantify_interior:
        return pp_from_atom_specs(specs, liberal=[variables[0], variables[-1]])
    return pp_from_atom_specs(specs, liberal=variables)


def star_query(rays: int, relation: str = "E", quantify_leaves: bool = False) -> PPFormula:
    """The star query ``E(c, y1) & ... & E(c, yk)`` (treewidth 1)."""
    if rays < 1:
        raise WorkloadError("rays must be at least 1")
    leaves = [f"y{i}" for i in range(1, rays + 1)]
    specs = [(relation, ("c", leaf)) for leaf in leaves]
    if quantify_leaves:
        return pp_from_atom_specs(specs, liberal=["c"])
    return pp_from_atom_specs(specs, liberal=["c", *leaves])


def cycle_query(length: int, relation: str = "E") -> PPFormula:
    """The cycle query on ``length`` variables (treewidth 2 for length >= 3)."""
    if length < 3:
        raise WorkloadError("cycle length must be at least 3")
    variables = [f"x{i}" for i in range(length)]
    specs = [
        (relation, (variables[i], variables[(i + 1) % length])) for i in range(length)
    ]
    return pp_from_atom_specs(specs, liberal=variables)


def grid_query(rows: int, cols: int, relation: str = "E") -> PPFormula:
    """The grid query (treewidth ``min(rows, cols)``)."""
    if rows < 1 or cols < 1:
        raise WorkloadError("rows and cols must be positive")
    variable = {(r, c): f"x{r}_{c}" for r in range(rows) for c in range(cols)}
    specs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                specs.append((relation, (variable[(r, c)], variable[(r, c + 1)])))
            if r + 1 < rows:
                specs.append((relation, (variable[(r, c)], variable[(r + 1, c)])))
    return pp_from_atom_specs(specs, liberal=list(variable.values()))


def hidden_clique_query(k: int, relation: str = "E") -> PPFormula:
    """A query whose *contract graph* is a k-clique although only two
    variables are liberal.

    The quantified variables form a k-clique and every quantified
    variable is adjacent to both liberal variables; the single
    ∃-component therefore has all liberal variables in its boundary and
    contributes no contract edge beyond the pair, but its *core* retains
    the k-clique, so the family violates the core half of the
    tractability condition -- the witness family for case (2) style
    behaviour in the experiments.
    """
    if k < 2:
        raise WorkloadError("k must be at least 2")
    quantified = [f"u{i}" for i in range(1, k + 1)]
    specs = [
        (relation, (quantified[i], quantified[j]))
        for i in range(k)
        for j in range(k)
        if i != j
    ]
    specs += [(relation, ("x", quantified[0])), (relation, (quantified[-1], "y"))]
    return pp_from_atom_specs(specs, liberal=["x", "y"])


def frontier_query_pair(
    k: int, relation: str = "E"
) -> tuple[PPFormula, PPFormula]:
    """A matched ``(tractable, hard)`` pair straddling the frontier.

    Both queries share the liberal variables ``x0 .. x{k-1}`` (same
    arity, same signature); they differ only in their atom structure:

    * the tractable side is the path ``E(x0,x1) & ... &
      E(x{k-2},x{k-1})`` -- treewidth 1, verdict FPT at any bound;
    * the hard side is the k-clique on the same variables -- contract
      *and* core treewidth ``k - 1``, verdict p-#Clique-hard whenever
      ``k - 1`` exceeds the policy's treewidth bound.

    At the default bound of 2, ``k >= 4`` puts the pair on opposite
    sides of the trichotomy, which is what the routing benchmarks and
    policy tests need: identical wire-level shape, opposite verdicts.
    """
    if k < 2:
        raise WorkloadError("k must be at least 2")
    variables = [f"x{i}" for i in range(k)]
    path_specs = [
        (relation, (variables[i], variables[i + 1])) for i in range(k - 1)
    ]
    tractable = pp_from_atom_specs(path_specs, liberal=variables)
    return tractable, clique_query(k, relation=relation)


def frontier_family(
    ks: Sequence[int], relation: str = "E"
) -> list[tuple[PPFormula, PPFormula]]:
    """Matched frontier pairs (:func:`frontier_query_pair`) for each ``k``."""
    if not ks:
        raise WorkloadError("need at least one clique size")
    return [frontier_query_pair(k, relation=relation) for k in ks]


def union_of_paths_query(lengths: Sequence[int], relation: str = "E") -> EPFormula:
    """A UCQ asking for pairs connected by a path of any of the given lengths.

    All disjuncts share the liberal variables ``{x, y}``; interior path
    variables are quantified.
    """
    if not lengths:
        raise WorkloadError("need at least one path length")
    disjuncts = []
    for index, length in enumerate(lengths):
        if length < 1:
            raise WorkloadError("path lengths must be at least 1")
        interior = [f"z{index}_{i}" for i in range(length - 1)]
        chain = ["x", *interior, "y"]
        atoms = [Atom(relation, (chain[i], chain[i + 1])) for i in range(length)]
        disjuncts.append(
            PPFormula.from_atoms(atoms, liberal=["x", "y"])
        )
    return EPFormula.from_disjuncts(disjuncts)


def example_4_2_query() -> EPFormula:
    """The formula of Example 4.2 / 5.15 of the paper.

    ``phi(w,x,y,z) = (E(x,y) & E(y,z)) | (E(z,w) & E(w,x)) | (E(w,x) & E(x,y))``
    """
    liberal = ["w", "x", "y", "z"]
    disjuncts = [
        pp_from_atom_specs([("E", ("x", "y")), ("E", ("y", "z"))], liberal=liberal),
        pp_from_atom_specs([("E", ("z", "w")), ("E", ("w", "x"))], liberal=liberal),
        pp_from_atom_specs([("E", ("w", "x")), ("E", ("x", "y"))], liberal=liberal),
    ]
    return EPFormula.from_disjuncts(disjuncts)


def example_4_1_query() -> EPFormula:
    """The formula of Example 4.1 of the paper.

    ``phi(w,x,y,z) = E(x,y) & (E(w,x) | (E(y,z) & E(z,z)))``
    """
    from repro.logic.parser import parse_query

    return parse_query("phi(w, x, y, z) = E(x, y) & (E(w, x) | (E(y, z) & E(z, z)))")


def example_5_21_query() -> EPFormula:
    """The formula ``theta`` of Example 5.21 (Example 4.2 plus a sentence disjunct)."""
    liberal = ["w", "x", "y", "z"]
    sentence = pp_from_atom_specs(
        [("E", ("a", "b")), ("E", ("b", "c")), ("E", ("c", "d"))],
        quantified=["a", "b", "c", "d"],
    ).with_liberal(liberal)
    return EPFormula.from_disjuncts(list(example_4_2_query().disjuncts()) + [sentence])


# ----------------------------------------------------------------------
# Random queries
# ----------------------------------------------------------------------
def random_conjunctive_query(
    variable_count: int,
    atom_count: int,
    relation: str = "E",
    liberal_count: int | None = None,
    seed: int | random.Random | None = None,
) -> PPFormula:
    """A random conjunctive query over the graph signature.

    Atoms are sampled uniformly over ordered pairs of distinct variables
    (self-loops excluded); ``liberal_count`` variables (default: all) are
    liberal, the rest quantified.  The query is *not* guaranteed to be
    connected.
    """
    if variable_count < 1:
        raise WorkloadError("variable_count must be at least 1")
    if atom_count < 0:
        raise WorkloadError("atom_count must be non-negative")
    rng = _rng(seed)
    variables = [f"v{i}" for i in range(variable_count)]
    atoms: list[Atom] = []
    for _ in range(atom_count):
        if variable_count == 1:
            source = target = variables[0]
        else:
            source, target = rng.sample(variables, 2)
        atoms.append(Atom(relation, (source, target)))
    if liberal_count is None:
        liberal = variables
    else:
        if not 0 <= liberal_count <= variable_count:
            raise WorkloadError("liberal_count out of range")
        liberal = rng.sample(variables, liberal_count)
    formula = PPFormula.from_atoms(atoms, quantified=[v for v in variables if v not in set(liberal)])
    return formula.with_liberal(set(formula.free_variables) | {Variable(v) for v in liberal})


def random_ucq(
    disjunct_count: int,
    variable_count: int,
    atom_count: int,
    relation: str = "E",
    liberal_count: int | None = None,
    seed: int | random.Random | None = None,
) -> EPFormula:
    """A random union of conjunctive queries with a shared liberal set.

    Each disjunct is drawn by :func:`random_conjunctive_query` over the
    same liberal variables (the first ``liberal_count`` variable names);
    quantified variables are standardized apart automatically.
    """
    if disjunct_count < 1:
        raise WorkloadError("disjunct_count must be at least 1")
    rng = _rng(seed)
    if liberal_count is None:
        liberal_count = variable_count
    liberal = [f"v{i}" for i in range(liberal_count)]
    disjuncts = []
    for index in range(disjunct_count):
        query = random_conjunctive_query(
            variable_count,
            atom_count,
            relation=relation,
            liberal_count=None,
            seed=rng.randrange(1 << 30),
        )
        # Re-liberalize: keep only the shared liberal variables liberal and
        # quantify everything else.
        renaming = {
            Variable(f"v{i}"): Variable(f"v{i}") if i < liberal_count else Variable(f"q{index}_{i}")
            for i in range(variable_count)
        }
        renamed = query.rename(renaming)
        atoms = renamed.atoms()
        disjuncts.append(
            PPFormula.from_atoms(
                atoms,
                quantified=[v for v in renamed.variables if v.name.startswith(f"q{index}_")],
            ).with_liberal(liberal)
        )
    return EPFormula.from_disjuncts(disjuncts)
