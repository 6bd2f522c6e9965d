"""The elimination kernel's Σ pass: one loop, two table backends.

``count_solutions_tables`` sums every variable out of weighted tables
with ``csp.eliminate`` over the numpy kernel (``int64`` columns with an
exact-integer guard) or the python one (dict-of-tuple hash joins),
picked by the ``backend`` fixture.  Both must return the exact python
int the ``CSPInstance`` reference counts: for every shape of
elimination order, past 64 bits, along a path thousands of groups
deep, and under a budget -- which the vectorized joins charge
before they allocate.
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
from repro.budget import CostBudget, budget_scope
from repro.engine.context import ExecutionContext
from repro.exceptions import BudgetExceeded
from repro.structures import encoding
from repro.structures.structure import Structure


# ----------------------------------------------------------------------
# The agreement matrix: scenario x seed x backend vs the reference
# ----------------------------------------------------------------------
def _path_groups(variables):
    """The groups peeled from a path of bags, one bag per edge of
    ``variables``: a leaf from either end in turn, then the last bag."""
    groups, lo, hi = [], 0, len(variables) - 1
    for step in range(len(variables) - 2):
        if step % 2:
            groups.append((variables[hi],))
            hi -= 1
        else:
            groups.append((variables[lo],))
            lo += 1
    return (*groups, tuple(sorted({variables[lo], variables[hi]}, key=repr)))


#: Scenario -> ``(variables, atoms, order)``.  Atoms are ``(relation,
#: scope)`` over the random structure's ``E/2`` and ``U/1``; the order
#: is the groups peeled from a path of bags, and ``None`` lets the data
#: pick the whole elimination order.
SCENARIOS = {
    # Bags wx - xy - yz.
    "multi-bag": (
        "wxyz",
        [("E", "wx"), ("E", "xy"), ("E", "yz"), ("U", "y")],
        (("w",), ("z",), ("x", "y")),
    ),
    # Two components: each is summed down to a zero-column weighted
    # table, and the count is the product of their weights.
    "empty-separator": ("wxyz", [("E", "wx"), ("E", "yz")], None),
    "repeated-scope-variable": ("xy", [("E", "xx"), ("E", "xy")], None),
    # Variables in no group: w is in no bag (yz - xy), so it is summed
    # out in the last group, after the plan's groups.
    "unjoined-separator-variable": (
        "wxyz",
        [("E", "wx"), ("E", "yz")],
        (("z",), ("x", "y")),
    ),
    # Variables in no table: y and z are a factor ``domain_size`` each
    # (bags wxy - xz).
    "free-bag-variables": ("wxyz", [("E", "wx")], (("w", "y"), ("x", "z"))),
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
        [
            Constraint(tuple(scope), frozenset(encoded.relations[name].iter_rows()))
            for name, scope in atoms
        ],
    )
    return count_solutions_backtracking(instance)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernel_agrees_with_the_csp_reference(backend, scenario, seed):
    variables, atoms, order = SCENARIOS[scenario]
    context = ExecutionContext(_random_structure(seed))
    ops = context.table_ops()
    tables = [ops.base_table(name, tuple(scope)) for name, scope in atoms]
    count = count_solutions_tables(
        tuple(variables), context.encoded.size, tables, order=order, ops=ops
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
#: A star: centre ``c``, eight leaves with 300 values each.
LEAVES, DEGREE = 8, 300
LEAF_VARIABLES = tuple(f"l{i}" for i in range(LEAVES))
STAR_VARIABLES = ("c",) + LEAF_VARIABLES

#: The leaves, each summed onto the centre (a weight of 300 per centre
#: value), then the centre.
LEAVES_FIRST = (LEAF_VARIABLES, ("c",))
#: Seven leaves, the centre -- its 300**7 join is summed onto the last
#: leaf, a group of one row per centre value -- then the last leaf.
CENTRE_BEFORE_LAST_LEAF = (LEAF_VARIABLES[:-1], ("c",), LEAF_VARIABLES[-1:])

#: Where a weight bound first reaches 2**63 -> ``(centres, order, the
#: first step the numpy kernel hands to python ints)``.
STAR_CASES = {
    # The eighth 300-weight table joined on the centre: 300**8.
    "join": (10, LEAVES_FIRST, ("join", ())),
    # 50 centre values x 300**7 in one group of the sum onto l7.
    "marginalization": (50, CENTRE_BEFORE_LAST_LEAF, ("sum", ("l7",))),
    # 10 x 300**7 fits; the final total over l7's 300 values does not.
    "root-sum": (10, CENTRE_BEFORE_LAST_LEAF, ("sum", ())),
}


@pytest.mark.parametrize("overflow_in", STAR_CASES)
def test_star_counts_exactly_past_64_bits(backend, monkeypatch, overflow_in):
    centres, order, first_handoff = STAR_CASES[overflow_in]
    tables = [
        (("c", leaf), {(c, v) for c in range(centres) for v in range(DEGREE)})
        for leaf in LEAF_VARIABLES
    ]
    handoffs = []
    real_join, real_merge = encoding._join_project, encoding.NumpyTableOps._merge

    def join(left, right, keep):
        handoffs.append(("join", tuple(keep)))
        return real_join(left, right, keep)

    def merge(self, table):
        merged = real_merge(self, table)
        if isinstance(table, encoding.WeightedRows) and not isinstance(
            merged, encoding.WeightedRows
        ):
            handoffs.append(("sum", table.columns))
        return merged

    # The numpy kernel's two python-int steps: a join, and a merge of
    # the rows a projection made equal.
    monkeypatch.setattr(encoding, "_join_project", join)
    monkeypatch.setattr(encoding.NumpyTableOps, "_merge", merge)
    count = count_solutions_tables(STAR_VARIABLES, DEGREE, tables, order=order)
    assert type(count) is int
    assert count == centres * DEGREE**LEAVES > 2**63
    if backend == "numpy":
        # The guard hands over exactly where the bound says, not before.
        assert handoffs[:1] == [first_handoff]


def test_a_path_thousands_of_bags_deep_counts_exactly(backend):
    # Walks on 0 -> 1, 1 -> 0, 1 -> 1: the binary words without "00",
    # F(k + 3) of them for k edges -- past 2**63 long before the end.
    rows = {(0, 1), (1, 0), (1, 1)}
    edges = 3000
    variables = [f"v{i}" for i in range(edges + 1)]
    order = _path_groups(variables)
    tables = [(scope, rows) for scope in zip(variables, variables[1:])]
    fibonacci = [0, 1]
    while len(fibonacci) < edges + 4:
        fibonacci.append(fibonacci[-1] + fibonacci[-2])
    count = count_solutions_tables(variables, 2, tables, order=order)
    assert count == fibonacci[edges + 3] > 2**63
    # The same kernel on a path short enough for the reference.
    short = variables[:13]
    instance = CSPInstance.build(
        short, range(2), [Constraint(s, frozenset(rows)) for s in zip(short, short[1:])]
    )
    assert count_solutions_tables(
        short, 2, tables[:12], order=_path_groups(short)
    ) == count_solutions_backtracking(instance) == fibonacci[15]


# ----------------------------------------------------------------------
# The budget contract of the vectorized joins
# ----------------------------------------------------------------------
needs_numpy = pytest.mark.skipif(
    not encoding.numpy_available(), reason="numpy not importable"
)

#: The shared variable first: its join is the ``rows**2`` product.
SHARED_FIRST = (("z",), ("x", "y"))


def _shared_join_tables(rows: int):
    """``A(x, z)`` and ``B(z, y)`` meeting in one ``z`` value: every
    ``(x, y)`` pair joins, ``rows**2`` of them."""
    return [
        (("x", "z"), {(v, 0) for v in range(rows)}),
        (("z", "y"), {(0, v) for v in range(rows)}),
    ]


@needs_numpy
def test_a_join_is_charged_before_its_output_is_allocated():
    rows = 1500
    output_bytes = rows * rows * 2 * 8  # int64 row matrix of the product
    tables = _shared_join_tables(rows)
    tracemalloc.start()
    try:
        with budget_scope(CostBudget(max_steps=rows * rows // 2)):
            with pytest.raises(BudgetExceeded) as excinfo:
                count_solutions_tables(
                    ("x", "y", "z"), rows, tables, order=SHARED_FIRST
                )
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
    tables = _shared_join_tables(rows) + [(("x", "y"), {(1, 2), (3, 4)})]
    count = count_solutions_tables(
        ("x", "y", "z"), rows, tables, order=SHARED_FIRST
    )
    assert count == 2
    # The 90000-row product came in capped pieces, then the 2-row join.
    assert pieces == [cap] * 12 + [rows * rows - 12 * cap, 2]
