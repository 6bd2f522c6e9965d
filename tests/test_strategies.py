"""The paper's pipeline against the brute-force baselines, cell by cell.

One seeded matrix: every cell is a query and a structure, and every
independent way to count its answers must agree -- the naive
enumerator (which follows the definition directly), the union of the
disjuncts' answer sets, the brute-force and Theorem 2.11 pp-counters
(pp queries) or the Section 5.4 ``phi+`` reduction (unions), and a
fresh :class:`~repro.engine.Engine`.  A failure names its cell.
"""

import pytest

from repro.algorithms.brute_force import (
    count_answers_naive,
    count_ep_answers_by_disjuncts,
    count_pp_answers_brute_force,
)
from repro.algorithms.fpt_counting import count_pp_answers_fpt
from repro.core.ep_to_pp import count_ep_answers_via_plus
from repro.engine import Engine
from repro.engine.plan import as_ep
from repro.structures.random_gen import random_graph
from repro.structures.structure import Structure
from repro.workloads.generators import (
    example_4_2_query,
    example_5_21_query,
    hidden_clique_query,
    path_query,
    random_conjunctive_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)

NAMED_FAMILIES = {
    "path": path_query(3, quantify_interior=True),
    "star": star_query(3, quantify_leaves=True),
    "union-paths": union_of_paths_query([1, 2, 3]),
    "ex-4.2": example_4_2_query(),
    "ex-5.21": example_5_21_query(),
    "hidden-clique": hidden_clique_query(3),
}


def _cells():
    """``pytest.param(query, structure, expected, id=...)`` per cell;
    ``expected`` is ``None`` where only agreement is asserted."""
    for seed in range(8):
        yield pytest.param(
            random_conjunctive_query(4, 3, liberal_count=2, seed=seed),
            random_graph(5, 0.4, seed=seed + 100),
            None,
            id=f"random-cq-{seed}",
        )
    for seed in range(6):
        yield pytest.param(
            random_ucq(3, 4, 3, liberal_count=2, seed=seed),
            random_graph(5, 0.4, seed=seed + 200),
            None,
            id=f"random-ucq-{seed}",
        )
    for name, query in NAMED_FAMILIES.items():
        for seed in (0, 1):
            yield pytest.param(
                query, random_graph(6, 0.35, seed=seed), None, id=f"{name}-{seed}"
            )
    empty = Structure.from_relations({}, universe=[])
    for name, query in (
        ("pp", path_query(2, quantify_interior=True)),
        ("ucq", random_ucq(2, 3, 2, seed=0)),
    ):
        yield pytest.param(
            query, empty.with_signature(query.signature), 0, id=f"empty-{name}"
        )


def counts_by_route(query, structure) -> dict[str, int]:
    """The count of every independent route on one cell."""
    ep = as_ep(query)
    counts = {
        "naive": count_answers_naive(ep, structure),
        "disjuncts": count_ep_answers_by_disjuncts(ep, structure),
        "engine": Engine().count(query, structure),
    }
    if ep.is_primitive_positive():
        pp = ep.to_pp()
        counts["pp-brute-force"] = count_pp_answers_brute_force(pp, structure)
        counts["pp-fpt"] = count_pp_answers_fpt(pp, structure)
    else:
        counts["ep-plus"] = count_ep_answers_via_plus(
            ep, structure, counter=count_pp_answers_fpt
        )
    return counts


@pytest.mark.parametrize("query,structure,expected", _cells())
def test_every_route_agrees(query, structure, expected):
    counts = counts_by_route(query, structure)
    assert len(set(counts.values())) == 1, counts
    if expected is not None:
        assert counts["naive"] == expected, counts


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda e, g: e.count("E(x, y)", g, "auto"), id="count"),
        pytest.param(
            lambda e, g: e.count_sharded("E(x, y)", g, 2), id="count_sharded"
        ),
        pytest.param(
            lambda e, g: e.count_many(["E(x, y)"], [g], "auto"), id="count_many"
        ),
    ],
)
def test_a_positional_argument_after_the_structure_fails_loudly(call):
    """A stale caller still passing a strategy (or anything else) by
    position gets a ``TypeError``, never a silently misread option."""
    with pytest.raises(TypeError):
        call(Engine(), random_graph(3, 0.5, seed=0))
