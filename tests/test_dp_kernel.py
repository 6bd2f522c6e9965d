"""The junction-tree DP kernel: one loop, two table backends.

``count_solutions_tables`` runs the same bag loop over the numpy kernel
(``int64`` columns with an exact-integer guard) and the python one
(dict-of-tuple hash joins), picked by the ``backend`` fixture.  Both
must return the exact python int the ``CSPInstance`` reference counts:
on every shape of decomposition, past 64 bits, and under a budget --
which the vectorized joins charge before they allocate.
"""

import random
import tracemalloc

import pytest

from repro.algorithms.csp import (
    Constraint,
    CSPInstance,
    count_solutions_backtracking,
    count_solutions_tables,
)
from repro.algorithms.decomposition import TreeDecomposition
from repro.budget import CostBudget, budget_scope
from repro.engine.context import ExecutionContext
from repro.exceptions import BudgetExceeded
from repro.structures import encoding
from repro.structures.structure import Structure


# ----------------------------------------------------------------------
# The agreement matrix: scenario x seed x backend vs the reference
# ----------------------------------------------------------------------
def _path_bags(*bags):
    """A decomposition whose bags form a path, rooted at the first."""
    return TreeDecomposition(
        dict(enumerate(bags)), [(i, i + 1) for i in range(len(bags) - 1)]
    )


#: Scenario -> ``(variables, atoms, decomposition)``.  Atoms are
#: ``(relation, scope)`` over the random structure's ``E/2`` and ``U/1``;
#: ``None`` lets the kernel decompose the primal graph itself.
SCENARIOS = {
    "multi-bag": (
        "wxyz",
        [("E", "wx"), ("E", "xy"), ("E", "yz"), ("U", "y")],
        _path_bags("wx", "xy", "yz"),
    ),
    # Two components of the contract graph, linked into one tree: the
    # message between them has no columns.
    "empty-separator": ("wxyz", [("E", "wx"), ("E", "yz")], None),
    "repeated-scope-variable": ("xy", [("E", "xx"), ("E", "xy")], None),
    # Bag xy covers no table and its child reports on x only, so its
    # separator variable y is joined in as the whole domain.
    "unjoined-separator-variable": (
        "wxyz",
        [("E", "wx"), ("E", "yz")],
        _path_bags("yz", "xy", "wx"),
    ),
    "free-bag-variables": ("wxyz", [("E", "wx")], _path_bags("wxy", "xz")),
    "zero-variables": ("", [], None),
}


def _random_structure(seed: int) -> Structure:
    rng = random.Random(seed)
    size = rng.randint(2, 5)
    return Structure.from_relations(
        {
            "E": [
                (a, b)
                for a in range(size)
                for b in range(size)
                if rng.random() < 0.5
            ]
            # One row at least: a unary atom must not empty every cell.
            or [(0, 0)],
            "U": [(a,) for a in range(size) if rng.random() < 0.7] or [(0,)],
        },
        universe=range(size),
    )


def _reference(variables, atoms, encoded) -> int:
    """The count by the ``CSPInstance`` reference: repeated scope
    variables and all, over the same dense-int rows."""
    instance = CSPInstance.build(
        variables,
        range(encoded.size),
        [Constraint(tuple(scope), encoded.relation_rows(name)) for name, scope in atoms],
    )
    return count_solutions_backtracking(instance)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernel_agrees_with_the_csp_reference(backend, scenario, seed):
    variables, atoms, decomposition = SCENARIOS[scenario]
    context = ExecutionContext(_random_structure(seed))
    ops = context.table_ops()
    tables = [ops.base_table(name, tuple(scope)) for name, scope in atoms]
    count = count_solutions_tables(
        tuple(variables), context.encoded.size, tables, decomposition, ops=ops
    )
    assert type(count) is int
    assert count == _reference(tuple(variables), atoms, context.encoded)


def test_an_empty_intermediate_table_ends_the_count_at_zero(backend):
    # Hand-made tables, no structure behind the kernel: x = 0 on the
    # left, x = 1 on the right.
    tables = [(("x", "y"), {(0, 1), (0, 2)}), (("x", "z"), {(1, 0)})]
    assert count_solutions_tables(("x", "y", "z"), 3, tables) == 0
    assert count_solutions_tables((), 3, [((), set())]) == 0


# ----------------------------------------------------------------------
# Exactness past 64 bits
# ----------------------------------------------------------------------
#: A star: centre ``c`` in 0..9, eight leaves with 300 values each.
CENTRES, LEAVES, DEGREE = 10, 8, 300
STAR_VARIABLES = ("c",) + tuple(f"l{i}" for i in range(LEAVES))
STAR_TABLES = [
    (("c", leaf), {(c, v) for c in range(CENTRES) for v in range(DEGREE)})
    for leaf in STAR_VARIABLES[1:]
]
STAR_COUNT = CENTRES * DEGREE**LEAVES
assert STAR_COUNT > 2**63

_LEAF_BAGS = {i: ("c", f"l{i}") for i in range(LEAVES)}

#: Where a weight bound first reaches 2**63 -> the decomposition that
#: puts it there (bag ids: leaf bags 0..7, the bare centre 8).
STAR_DECOMPOSITIONS = {
    # Eight messages of weight 300 meet in the bare centre bag.
    "join": TreeDecomposition(
        {8: ("c",), **_LEAF_BAGS}, [(8, i) for i in range(LEAVES)]
    ),
    # Seven meet in leaf bag 0 (300**7 fits); summing its 300 leaves
    # onto the centre does not.
    "marginalization": TreeDecomposition(
        {8: ("c",), **_LEAF_BAGS},
        [(8, 0)] + [(0, i) for i in range(1, LEAVES)],
    ),
    # The same seven meet in the root itself; only its sum overflows.
    "root-sum": TreeDecomposition(
        _LEAF_BAGS, [(0, i) for i in range(1, LEAVES)]
    ),
}


@pytest.mark.parametrize("overflow_in", STAR_DECOMPOSITIONS)
def test_star_counts_exactly_past_64_bits(backend, monkeypatch, overflow_in):
    exact_steps = []

    def spy_on(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            exact_steps.append(name)
            return real(*args)

        monkeypatch.setattr(
            owner, name, spy if owner is encoding else staticmethod(spy)
        )

    # The two python-int steps the numpy kernel can hand a table to.
    spy_on(encoding, "_weighted_join")
    spy_on(encoding._PyTableOps, "marginalize")
    count = count_solutions_tables(
        STAR_VARIABLES, DEGREE, STAR_TABLES, STAR_DECOMPOSITIONS[overflow_in]
    )
    assert type(count) is int
    assert count == STAR_COUNT
    if backend == "numpy":
        # The guard hands over exactly where the bound says, not before.
        assert exact_steps[:1] == {
            "join": ["_weighted_join"],
            "marginalization": ["marginalize"],
            "root-sum": [],
        }[overflow_in]


# ----------------------------------------------------------------------
# The budget contract of the vectorized joins
# ----------------------------------------------------------------------
needs_numpy = pytest.mark.skipif(
    not encoding.numpy_available(), reason="numpy not importable"
)


def _cross_join_tables(rows: int):
    """Two one-column tables whose join is their ``rows**2`` product."""
    return [(("x",), {(v,) for v in range(rows)}), (("y",), {(v,) for v in range(rows)})]


@needs_numpy
def test_a_join_is_charged_before_its_output_is_allocated():
    rows = 1500
    output_bytes = rows * rows * 2 * 8  # int64 row matrix of the product
    tables = _cross_join_tables(rows)
    decomposition = TreeDecomposition({0: ("x", "y")})
    tracemalloc.start()
    try:
        with budget_scope(CostBudget(max_steps=rows * rows // 2)):
            with pytest.raises(BudgetExceeded) as excinfo:
                count_solutions_tables(("x", "y"), rows, tables, decomposition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert excinfo.value.progress["steps"] > rows * rows // 2
    assert peak < output_bytes // 10


@needs_numpy
def test_a_join_past_the_row_cap_is_expanded_in_pieces(monkeypatch):
    rows, cap = 300, 7000
    monkeypatch.setattr(encoding, "SEMIJOIN_ROW_CAP", cap)
    pieces = []
    real = encoding.NumpyTableOps._gather

    def recording_gather(self, left_rows, left_idx, *rest):
        pieces.append(len(left_idx))
        return real(self, left_rows, left_idx, *rest)

    monkeypatch.setattr(encoding.NumpyTableOps, "_gather", recording_gather)
    tables = _cross_join_tables(rows) + [(("x", "y"), {(1, 2), (3, 4)})]
    count = count_solutions_tables(
        ("x", "y"), rows, tables, TreeDecomposition({0: ("x", "y")})
    )
    assert count == 2
    # The 90000-row product came in capped pieces, then the 2-row join.
    assert pieces == [cap] * 12 + [rows * rows - 12 * cap, 2]
