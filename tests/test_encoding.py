"""The data representation: exactness, backends, memoization, stats.

Every route to a count (plain, batch, sharded sequential, sharded
through the fork pool) must equal the definitional brute-force count
(``algorithms/brute_force.py``) on every workload generator, under both
table backends the interpreter can derive (``numpy`` when it imports,
``array`` otherwise -- the ``backend`` fixture); no option selects a
representation any more; and the attribution counters must stay
consistent with what ran.
"""

import functools
import pickle
import random

import pytest

from repro.algorithms.brute_force import count_answers_naive
from repro.algorithms.fpt_counting import exists_components
from repro.budget import CostBudget, budget_scope
from repro.engine import Engine
from repro.engine.context import ExecutionContext, _PyTableOps
from repro.engine.plan import as_ep, compile_plan
from repro.exceptions import SignatureError
from repro.logic.builder import pp_from_atom_specs
from repro.logic.ep import EPFormula
from repro.structures import encoding
from repro.structures.encoding import (
    EncodedStructure,
    NumpyTableOps,
    numpy_available,
)
from repro.structures.homomorphism import (
    enumerate_extendable_assignments,
    has_homomorphism,
)
from repro.structures.random_gen import random_cluster_graph, random_graph
from repro.structures.structure import Structure
from repro.workloads.generators import (
    cycle_query,
    example_4_1_query,
    example_4_2_query,
    example_5_21_query,
    grid_query,
    hidden_clique_query,
    path_query,
    random_conjunctive_query,
    random_ucq,
    star_query,
    union_of_paths_query,
)

#: One query from every generator in ``workloads.generators``.
GENERATOR_QUERIES = {
    "cycle": cycle_query(4),
    "example_4_1": example_4_1_query(),
    "example_4_2": example_4_2_query(),
    "example_5_21": example_5_21_query(),
    "grid": grid_query(2, 3),
    "hidden_clique": hidden_clique_query(3),
    "path": path_query(4, quantify_interior=True),
    "star": star_query(3, quantify_leaves=True),
    "union_of_paths": union_of_paths_query([2, 3]),
    **{
        f"random_cq_{seed}": random_conjunctive_query(
            5, 4, liberal_count=2, seed=seed
        )
        for seed in range(3)
    },
    **{
        f"random_ucq_{seed}": random_ucq(2, 4, 3, liberal_count=2, seed=seed)
        for seed in range(2)
    },
}

#: An ∃-star with four liberal leaves: a boundary of four.
WIDE_STAR = "exists c. (E(c, a) & E(c, b) & E(c, d) & E(c, e))"

#: Two dense clusters, so ``shard_count=2`` really splits the data.
STRUCTURE = random_cluster_graph(2, 4, 0.7, seed=3)

#: Every route to a count the engine offers on one (query, structure).
ROUTES = {
    "count": lambda engine, query: engine.count(query, STRUCTURE),
    "sharded-sequential": lambda engine, query: engine.count_sharded(
        query, STRUCTURE, shard_count=2, parallel=False
    ),
    "sharded-pool": lambda engine, query: engine.count_sharded(
        query, STRUCTURE, shard_count=2, parallel=True
    ),
}


@functools.lru_cache(maxsize=None)
def brute_force(name: str) -> int:
    """The definitional count of a generator query on ``STRUCTURE``
    (computed once per query, shared by every cell of the matrix)."""
    return count_answers_naive(as_ep(GENERATOR_QUERIES[name]), STRUCTURE)


# ----------------------------------------------------------------------
# No selection: the backend is derived, the knob is gone
# ----------------------------------------------------------------------
def test_backend_is_derived_from_the_numpy_probe(backend):
    ops = ExecutionContext(STRUCTURE).table_ops()
    expected = NumpyTableOps if backend == "numpy" else _PyTableOps
    assert type(ops) is expected


def test_engine_takes_no_encoding_argument():
    with pytest.raises(TypeError):
        Engine(encoding="object")
    with pytest.raises(TypeError):
        ExecutionContext(STRUCTURE, encoding="object")


def test_repro_encoding_in_the_environment_changes_nothing(monkeypatch):
    monkeypatch.setenv("REPRO_ENCODING", "object")
    query = GENERATOR_QUERIES["path"]
    with Engine(processes=1) as engine:
        assert engine.count(query, STRUCTURE) == brute_force("path")
        stats = engine.stats()
        # The dense-int columns were built and the semijoin sweep ran
        # over them: the only path there is.
        assert stats.encoded_resident_bytes > 0
        assert stats.semijoin_eliminations > 0
        assert engine.contexts.lookup(STRUCTURE)[0].encoding_active


# ----------------------------------------------------------------------
# EncodedStructure storage
# ----------------------------------------------------------------------
def test_encoded_structure_round_trips_relations():
    structure = random_graph(9, 0.4, seed=5)
    encoded = EncodedStructure(structure)
    assert encoded.size == len(structure.universe)
    assert encoded.decode == tuple(sorted(structure.universe, key=repr))
    decoded = encoded.decode_rows(encoded.relations["E"].iter_rows())
    assert decoded == structure.relation("E")
    # Encoding is the inverse permutation of the decode table.
    assert all(encoded.decode[encoded.encode[e]] == e for e in structure.universe)


def test_encoded_relation_columns_are_row_sorted():
    structure = random_graph(8, 0.5, seed=2)
    rel = EncodedStructure(structure).relations["E"]
    rows = list(rel.iter_rows())
    assert rows == sorted(rows)
    assert rel.row_count == len(structure.relation("E"))
    assert rel.nbytes == 8 * rel.arity * rel.row_count


def test_encoded_structure_unknown_relation_matches_structure_error():
    encoded = EncodedStructure(random_graph(4, 0.5, seed=0))
    with pytest.raises(SignatureError):
        encoded.check_atom("missing", ("x", "y"))


@pytest.mark.parametrize("query", ["F(x, y)", "E(x, y, z)", "E(x)"])
def test_an_atom_outside_the_signature_is_a_signature_error(backend, query):
    # Liberal atoms reach the data as base tables: unknown names and
    # wrong arities are refused there, the same way on both backends.
    with pytest.raises(SignatureError):
        Engine().count(query, STRUCTURE)


def test_encoded_structure_pickles_compactly_and_round_trips():
    structure = random_graph(10, 0.4, seed=3)
    encoded = EncodedStructure(structure)
    if numpy_available():
        encoded.np_columns("E")  # populate a lazy view
    clone = pickle.loads(pickle.dumps(encoded))
    assert clone.decode == encoded.decode
    assert list(clone.relations["E"].iter_rows()) == list(
        encoded.relations["E"].iter_rows()
    )
    assert clone.nbytes == encoded.nbytes
    # The pickled payload ships columnar arrays, not the lazy views
    # (they rebuild on demand post-unpickle).
    assert clone._np_columns == {}


# ----------------------------------------------------------------------
# The agreement matrix: backend x generator query x route, each cell
# against the brute-force count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name", GENERATOR_QUERIES)
def test_every_route_agrees_with_brute_force(backend, name, route):
    with Engine(processes=2) as engine:
        assert ROUTES[route](engine, GENERATOR_QUERIES[name]) == brute_force(name)


def alpha_renaming(query, renaming: str) -> dict:
    """A renaming of every variable of ``query``: ``"reversed"`` makes
    the new names sort (by ``repr`` and by name) in the opposite order
    of the old ones, a seed shuffles them."""
    disjuncts = as_ep(query).disjuncts()
    old = sorted({v for d in disjuncts for v in d.variables}, key=repr)
    new = [f"n{i:03d}" for i in range(len(old))]
    if renaming == "reversed":
        new.reverse()
    else:
        random.Random(renaming).shuffle(new)
    return dict(zip(old, new))


def alpha_renamed(query, renaming: str) -> EPFormula:
    """``query`` under :func:`alpha_renaming`.  Column positions,
    separators and packed-key layouts all follow variable order;
    counts must not.
    """
    mapping = alpha_renaming(query, renaming)
    return EPFormula.from_disjuncts(
        [
            d.rename({v: mapping[v] for v in d.variables})
            for d in as_ep(query).disjuncts()
        ]
    )


@pytest.mark.parametrize("renaming", ["reversed", "shuffle-1", "shuffle-2"])
@pytest.mark.parametrize("name", GENERATOR_QUERIES)
def test_counts_are_invariant_under_alpha_renaming(backend, name, renaming):
    renamed = alpha_renamed(GENERATOR_QUERIES[name], renaming)
    with Engine(processes=1) as engine:
        assert engine.count(renamed, STRUCTURE) == brute_force(name)
        assert engine.count(GENERATOR_QUERIES[name], STRUCTURE) == brute_force(name)


def charged_elimination(component, structure) -> int:
    """The steps one uncached elimination of ``component`` on
    ``structure`` charges."""
    context = ExecutionContext(structure)
    budget = CostBudget()
    with budget_scope(budget):
        context.boundary_table(component)
    return budget.steps


@pytest.mark.parametrize("renaming", ["reversed", "shuffle-1", "shuffle-2"])
@pytest.mark.parametrize("name", GENERATOR_QUERIES)
def test_elimination_work_is_invariant_under_alpha_renaming(
    backend, name, renaming
):
    # Components are taken uncored, so each original component has
    # exactly one renamed image and the two are charged side by side.
    query = GENERATOR_QUERIES[name]
    mapping = alpha_renaming(query, renaming)
    for disjunct in as_ep(query).disjuncts():
        renamed = {
            frozenset(v.name for v in component.vertices): component
            for component in exists_components(
                disjunct.rename({v: mapping[v] for v in disjunct.variables}),
                use_core=False,
            )
        }
        for component in exists_components(disjunct, use_core=False):
            image = renamed[frozenset(mapping[v] for v in component.vertices)]
            steps = charged_elimination(component, STRUCTURE)
            renamed_steps = charged_elimination(image, STRUCTURE)
            assert renamed_steps <= 2 * steps and steps <= 2 * renamed_steps


#: The ∃-3-path twice: its interior named in the order of the path, and
#: α-renamed so the name order puts the middle atom first.
THREE_PATHS = {
    "well-named": "exists u. exists v. (E(x, u) & E(u, v) & E(v, y))",
    "renamed": "exists z. exists w. (E(x, z) & E(z, w) & E(w, y))",
}


@pytest.fixture(scope="module")
def clustered_graph():
    """24 812 tuples in 100 dense clusters of 20."""
    return random_cluster_graph(100, 20, 0.65, seed=7)


@pytest.mark.parametrize("naming", THREE_PATHS)
def test_three_path_counts_within_budget_under_either_naming(
    backend, clustered_graph, naming
):
    # Each elimination step joins on the shared column and projects the
    # variable out, so either naming charges about 10^6 steps; a join
    # order read from the names materializes the whole path join.
    with Engine(processes=1) as engine:
        with budget_scope(CostBudget(max_steps=2_000_000)):
            count = engine.count(THREE_PATHS[naming], clustered_graph)
    assert count == 40_000


def test_four_path_counts_within_budget(backend, clustered_graph):
    # Each elimination step of the ∃-4-path joins about 10^6 rows and
    # projects one variable out.
    with Engine(processes=1) as engine:
        with budget_scope(CostBudget(max_steps=2_000_000)):
            count = engine.count(
                GENERATOR_QUERIES["path"], clustered_graph
            )
    assert count == 40_000


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
def test_a_join_past_the_row_cap_is_projected_in_pieces(monkeypatch):
    cap = 64
    monkeypatch.setattr(encoding, "SEMIJOIN_ROW_CAP", cap)
    pieces = []
    real = NumpyTableOps._gather

    def recording_gather(self, left_rows, left_idx, *rest):
        pieces.append(len(left_idx))
        return real(self, left_rows, left_idx, *rest)

    monkeypatch.setattr(NumpyTableOps, "_gather", recording_gather)
    graph = random_cluster_graph(2, 8, 0.9, seed=0)
    query = path_query(2, quantify_interior=True)
    with Engine(processes=1) as engine:
        count = engine.count(query, graph)
    assert count == count_answers_naive(as_ep(query), graph)
    # The E ⋈ E join has hundreds of rows: it came in capped pieces.
    assert sum(pieces) > 5 * cap
    assert max(pieces) <= cap


def test_count_many_grid_agrees_with_brute_force(backend):
    names = list(GENERATOR_QUERIES)
    queries = [GENERATOR_QUERIES[name] for name in names]
    # The same structure twice: the second column is served from the
    # contexts (and count memos) the first one built.
    with Engine(processes=1) as engine:
        grid = engine.count_many(
            queries, [STRUCTURE, STRUCTURE], parallel=False
        )
    assert grid == [[brute_force(name)] * 2 for name in names]


def quantified(query, liberal: list[str]):
    """``query``'s atoms with only ``liberal`` left free."""
    return pp_from_atom_specs(
        [
            (name, tuple(v.name for v in scope))
            for name, scopes in query.structure.relations.items()
            for scope in scopes
        ],
        liberal=liberal,
    )


def random_ucq_components():
    """The ∃-components of the compiled pp-plans of seeded ad-hoc UCQs
    (the ``warm-http-mix`` stream's generator)."""
    for seed in range(6):
        query = random_ucq(3, 5, 5, liberal_count=(2, 3)[seed % 2], seed=seed)
        plan = compile_plan(query)
        terms = [plan.pp] if plan.kind == "pp-fpt" else [t.plan for t in plan.terms]
        for term in terms:
            yield from term.components


#: ∃-components by cell: the generator queries, a directed 4-cycle and
#: a 2x3 grid with cyclic interiors, the pp-plan components of random
#: UCQs, and a triangle interior (no image on a bipartite graph).
AGREEMENT_COMPONENTS = {
    **{
        name: lambda name=name: exists_components(GENERATOR_QUERIES[name])
        for name in ["path", "star", "hidden_clique"]
    },
    "cycle": lambda: exists_components(
        quantified(cycle_query(4), ["x0"]), use_core=False
    ),
    "grid": lambda: exists_components(
        quantified(grid_query(2, 3), ["x0_0", "x1_2"]), use_core=False
    ),
    "random_ucq": lambda: list(random_ucq_components()),
    "triangle": lambda: exists_components(
        pp_from_atom_specs(
            [("E", ("x", "a")), ("E", ("a", "b")), ("E", ("b", "c")),
             ("E", ("c", "a"))],
            liberal=["x"],
        )
    ),
    "wide_star": lambda: exists_components(compile_plan(WIDE_STAR).pp.formula),
    # A cyclic interior with a boundary of four: a 4-cycle c0..c3 with
    # a pendant liberal leaf on each vertex.
    "cycle_pendants": lambda: exists_components(
        pp_from_atom_specs(
            [("E", (f"c{i}", f"c{(i + 1) % 4}")) for i in range(4)]
            + [("E", (f"c{i}", f"l{i}")) for i in range(4)],
            liberal=[f"l{i}" for i in range(4)],
        )
    ),
}

#: K_{3,4} with edges both ways: no triangle maps into it.
BIPARTITE = Structure.from_relations(
    {
        "E": [
            edge
            for a in range(3)
            for b in range(3, 7)
            for edge in ((a, b), (b, a))
        ]
    }
)


#: The piece sizes every agreement cell runs at: the default, and a cap
#: of 3 rows that splits nearly every join into pieces.
ROW_CAPS = (encoding.SEMIJOIN_ROW_CAP, 3)

#: The data every agreement cell runs on.
AGREEMENT_TARGETS = (random_graph(9, 0.35, seed=4), BIPARTITE)


@functools.lru_cache(maxsize=None)
def agreement_cell(name: str) -> tuple:
    """``(components, references)``: a cell's ∃-components, and for each
    target their boundary relations by backtracking search (computed
    once, shared by both backends)."""
    components = AGREEMENT_COMPONENTS[name]()
    references = [
        [
            frozenset(
                tuple(assignment[v] for v in component.boundary_order)
                for assignment in enumerate_extendable_assignments(
                    component.structure, target, component.boundary_order
                )
            )
            for component in components
        ]
        for target in AGREEMENT_TARGETS
    ]
    return components, references


@pytest.mark.parametrize("name", AGREEMENT_COMPONENTS)
def test_boundary_relations_agree_with_homomorphism_search(
    backend, monkeypatch, name
):
    components, references = agreement_cell(name)
    assert components
    for cap in ROW_CAPS:
        monkeypatch.setattr(encoding, "SEMIJOIN_ROW_CAP", cap)
        for target, expected in zip(AGREEMENT_TARGETS, references):
            context = ExecutionContext(target)
            assert [context.boundary_relation(c) for c in components] == expected
    if name == "triangle":
        # No triangle maps into a bipartite graph: the early empty exit.
        (component,) = components
        assert not ExecutionContext(BIPARTITE).boundary_relation(component)


@pytest.mark.parametrize("size", [8, 2**32], ids=["packed", "too-wide-to-pack"])
def test_join_project_is_the_projection_of_the_join(backend, monkeypatch, size):
    rng = random.Random(size)
    left_rows = {(rng.randrange(4), rng.randrange(4)) for _ in range(12)}
    right_rows = {
        (rng.randrange(4), rng.randrange(4), rng.randrange(8)) for _ in range(40)
    }
    # Joined on two columns, so 2**32 values cannot pack into one key.
    left, right = (("a", "b"), left_rows), (("b", "a", "c"), right_rows)
    joined = [
        {"a": a, "b": b, "c": c}
        for a, b in left_rows
        for b2, a2, c in right_rows
        if (a, b) == (a2, b2)
    ]
    assert len(joined) > 3
    for cap in ROW_CAPS:
        monkeypatch.setattr(encoding, "SEMIJOIN_ROW_CAP", cap)
        ops = encoding.table_ops(size)
        for keep in [("a", "b", "c"), ("c", "a", "b"), ("c", "a"), ("c",), ()]:
            columns, rows = ops.join_project(
                ops.table(*left), ops.table(*right), keep
            )
            assert columns == keep
            got = sorted(map(tuple, ops.iter_rows((columns, rows))))
            # Exactly the distinct projected rows: no duplicates.
            assert got == sorted({tuple(row[c] for c in keep) for row in joined})


def random_ucq_sentences():
    """The pp-sentence parts of seeded random UCQs."""
    for seed in range(30):
        query = random_ucq(3, 5, 5, liberal_count=(2, 3)[seed % 2], seed=seed)
        for disjunct in as_ep(query).disjuncts():
            for part in disjunct.components():
                if not part.is_liberal() and part.atom_count > 0:
                    yield part


def test_sentence_checks_agree_with_homomorphism_search(backend, monkeypatch):
    cycle = [("E", (f"c{i}", f"c{(i + 1) % 4}")) for i in range(4)]
    triangle = [("E", ("a", "b")), ("E", ("b", "c")), ("E", ("c", "a"))]
    sentences = [
        pp_from_atom_specs(specs, liberal=[])
        for specs in ([("E", ("x", "x"))], triangle, cycle)
    ]
    sentences += random_ucq_sentences()
    assert len(sentences) > 5
    for cap in ROW_CAPS:
        monkeypatch.setattr(encoding, "SEMIJOIN_ROW_CAP", cap)
        for target in AGREEMENT_TARGETS:
            context = ExecutionContext(target)
            for sentence in sentences:
                assert context.sentence_holds(sentence) == has_homomorphism(
                    sentence.structure, target
                )
    # The triangle has no image in a bipartite graph, the 4-cycle has.
    bipartite = ExecutionContext(BIPARTITE)
    assert not bipartite.sentence_holds(sentences[1])
    assert bipartite.sentence_holds(sentences[2])


# ----------------------------------------------------------------------
# Stats attribution and resident bytes
# ----------------------------------------------------------------------
def test_eliminations_are_attributed_to_exactly_one_evaluator(backend):
    structure = random_graph(10, 0.35, seed=6)
    queries = [
        path_query(4, quantify_interior=True),
        hidden_clique_query(3),  # cyclic interior
        WIDE_STAR,  # a boundary of four
    ]
    with Engine(processes=1) as engine:
        for query in queries:
            engine.count(query, structure)
        stats = engine.stats()
    # Every boundary-memo miss is one elimination on the tables.
    assert stats.semijoin_eliminations == 3
    assert stats.semijoin_eliminations == stats.boundary_memo_misses
    assert stats.encoded_resident_bytes > 0
    # One representation: the counter that equalled the sum is gone.
    assert "encoded_eliminations" not in stats.as_dict()


# ----------------------------------------------------------------------
# Base-table memoization
# ----------------------------------------------------------------------
def test_base_tables_are_memoized_per_relation_and_scope(backend):
    structure = random_graph(9, 0.4, seed=8)
    query = path_query(4, quantify_interior=True)
    context = ExecutionContext(structure, memoize=False)
    (component,) = exists_components(query)
    context.boundary_relation(component)
    first = dict(context._base_table_memo)
    assert set(first) == set(component.atom_scopes)
    # Even with the boundary-relation memo off, re-eliminating the same
    # component re-reads its base tables from the per-context memo: the
    # very same table objects, nothing rebuilt.
    context.boundary_relation(component)
    assert context.stats.boundary_misses == 2
    assert set(context._base_table_memo) == set(first)
    assert all(
        context._base_table_memo[key] is table for key, table in first.items()
    )


def test_randomized_deltas_agree_with_full_reregistration(backend):
    """Randomized live-update agreement on every backend: after each
    random delta, counting the registered name (incremental contexts,
    chained fingerprints) must equal counting a freshly re-registered
    copy of the same post-delta data."""
    import random as random_module

    from repro.structures.delta import StructureDelta
    from repro.structures.structure import Structure

    out_query = "exists z. (E(x, z) & E(z, y))"
    rng = random_module.Random(20260808)
    for seed in range(3):
        base = random_graph(12, 0.3, seed=seed)
        live = Engine(processes=1)
        fresh = Engine(processes=1)
        try:
            live.register_structure("g", base, pin=False, shard_count=2)
            current = base
            for round_ in range(4):
                edges = sorted(current.relations["E"], key=repr)
                deletes = rng.sample(edges, k=min(2, len(edges)))
                inserts = []
                existing = set(edges)
                while len(inserts) < 3:
                    a = rng.randrange(12)
                    b = rng.randrange(12)
                    candidate = (a, b)
                    if candidate not in existing and candidate not in deletes:
                        existing.add(candidate)
                        inserts.append(candidate)
                delta = StructureDelta(
                    inserts={"E": inserts}, deletes={"E": deletes}
                )
                entry = live.apply_delta("g", delta)
                current = entry.structure
                rebuilt = Structure.from_relations(
                    {"E": sorted(current.relations["E"], key=repr)},
                    universe=sorted(current.universe, key=repr),
                )
                fresh.register_structure("r", rebuilt, pin=False, shard_count=2)
                expected = fresh.count(out_query, "r")
                assert live.count(out_query, "g") == expected
                assert (
                    live.count_sharded(out_query, "g", parallel=False)
                    == expected
                )
        finally:
            live.close()
            fresh.close()
