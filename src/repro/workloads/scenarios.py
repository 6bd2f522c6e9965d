"""Domain scenarios: realistic-looking synthetic databases and query mixes.

The paper motivates answer counting with decision-support workloads over
large data volumes; these scenarios provide small but structurally
realistic stand-ins used by the examples and benchmarks:

* a **social network** (people, follows-edges, community memberships),
* an **RDF-style triple store** flattened into binary relations
  (publications, authorship, citations),
* a **movie database** (movies, actors, casting, genres).

Each scenario returns a :class:`~repro.structures.structure.Structure`
plus a dictionary of named queries (a mix of conjunctive queries and
UCQs, in :func:`~repro.logic.parser.parse_query` syntax with a header
naming the liberal variables) so that callers can iterate over
realistic query shapes.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

from repro.logic.ep import EPFormula
from repro.logic.parser import parse_query
from repro.structures.structure import Structure


@dataclass(frozen=True)
class Scenario:
    """A generated structure together with a dictionary of named queries."""

    name: str
    structure: Structure
    queries: dict[str, EPFormula]


def _queries(**texts: str) -> dict[str, EPFormula]:
    return {name: parse_query(text) for name, text in texts.items()}


def _rng(seed: int | random.Random | None) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def social_network(
    people: int = 30,
    follow_probability: float = 0.08,
    communities: int = 4,
    seed: int | random.Random | None = 0,
) -> Scenario:
    """A follows-graph with community memberships.

    Relations: ``Follows(person, person)``, ``Member(person, community)``.
    """
    rng = _rng(seed)
    rows: dict[str, list[tuple]] = defaultdict(list)
    names = [f"p{i}" for i in range(people)]
    groups = [f"c{i}" for i in range(communities)]
    for source in names:
        for target in names:
            if source != target and rng.random() < follow_probability:
                rows["Follows"].append((source, target))
    for person in names:
        rows["Member"].append((person, rng.choice(groups)))
        if rng.random() < 0.3:
            rows["Member"].append((person, rng.choice(groups)))
    queries = _queries(
        followers_of_followers="FoF(x, y) = exists z. (Follows(x, z) & Follows(z, y))",
        mutual_follow="Mutual(x, y) = Follows(x, y) & Follows(y, x)",
        reachable_in_two_or_one=(
            "Reach(x, y) = Follows(x, y)"
            " | exists z. (Follows(x, z) & Follows(z, y))"
        ),
        same_community_follow=(
            "SameCom(x, y) = exists c. (Follows(x, y) & Member(x, c) & Member(y, c))"
        ),
        influencer_pairs=(
            "Inf(x, y) = exists z. (Follows(z, x) & Follows(z, y) & Follows(x, y))"
            " | exists z. (Follows(z, x) & Follows(z, y) & Follows(y, x))"
        ),
    )
    return Scenario("social_network", Structure.from_relations(rows), queries)


def triple_store(
    papers: int = 25,
    authors: int = 15,
    citation_probability: float = 0.08,
    seed: int | random.Random | None = 1,
) -> Scenario:
    """A bibliographic graph: authorship and citations.

    Relations: ``Wrote(author, paper)``, ``Cites(paper, paper)``,
    ``InVenue(paper, venue)``.
    """
    rng = _rng(seed)
    rows: dict[str, list[tuple]] = defaultdict(list)
    paper_ids = [f"paper{i}" for i in range(papers)]
    author_ids = [f"author{i}" for i in range(authors)]
    venues = ["pods", "icdt", "sigmod", "vldb"]
    for paper in paper_ids:
        for author in rng.sample(author_ids, rng.randint(1, 3)):
            rows["Wrote"].append((author, paper))
        rows["InVenue"].append((paper, rng.choice(venues)))
    for citing in paper_ids:
        for cited in paper_ids:
            if citing != cited and rng.random() < citation_probability:
                rows["Cites"].append((citing, cited))
    queries = _queries(
        coauthors="Coauthor(a, b) = exists p. (Wrote(a, p) & Wrote(b, p))",
        self_citation_authors=(
            "SelfCite(a) = exists p q. (Wrote(a, p) & Wrote(a, q) & Cites(p, q))"
        ),
        cited_or_citing="Related(p, q) = Cites(p, q) | Cites(q, p)",
        venue_citation_pairs=(
            "VenuePair(p, q) = exists v. (Cites(p, q) & InVenue(p, v) & InVenue(q, v))"
        ),
    )
    return Scenario("triple_store", Structure.from_relations(rows), queries)


def movie_database(
    movies: int = 20,
    actors: int = 25,
    casting_probability: float = 0.15,
    seed: int | random.Random | None = 2,
) -> Scenario:
    """Movies, actors and genres.

    Relations: ``ActsIn(actor, movie)``, ``HasGenre(movie, genre)``,
    ``Directed(director, movie)``.
    """
    rng = _rng(seed)
    rows: dict[str, list[tuple]] = defaultdict(list)
    movie_ids = [f"m{i}" for i in range(movies)]
    actor_ids = [f"a{i}" for i in range(actors)]
    directors = [f"d{i}" for i in range(max(3, movies // 4))]
    genres = ["drama", "comedy", "thriller", "scifi"]
    for movie in movie_ids:
        rows["HasGenre"].append((movie, rng.choice(genres)))
        rows["Directed"].append((rng.choice(directors), movie))
        for actor in actor_ids:
            if rng.random() < casting_probability:
                rows["ActsIn"].append((actor, movie))
    queries = _queries(
        costars="Costar(a, b) = exists m. (ActsIn(a, m) & ActsIn(b, m))",
        actor_director_pairs="Worked(a, d) = exists m. (ActsIn(a, m) & Directed(d, m))",
        same_genre_costars=(
            "GenrePair(a, b) = exists m n g."
            " (ActsIn(a, m) & ActsIn(b, n) & HasGenre(m, g) & HasGenre(n, g))"
        ),
        versatile_actors=(
            "Versatile(a) = exists m g n h."
            " (ActsIn(a, m) & HasGenre(m, g) & ActsIn(a, n) & HasGenre(n, h))"
        ),
    )
    return Scenario("movie_database", Structure.from_relations(rows), queries)


def tenant_network(
    tenants: int = 12,
    people_per_tenant: int = 8,
    follow_probability: float = 0.25,
    seed: int | random.Random | None = 3,
) -> Scenario:
    """A multi-tenant follows-graph: many small isolated social networks.

    Relations: ``Follows(person, person)``, ``Member(person, group)``,
    with every edge staying inside one tenant.  The Gaifman graph of the
    data therefore has (up to) ``tenants`` connected components, which
    makes this the canonical workload for the sharded execution path:
    component-aligned shards distribute whole tenants, and per-tenant
    query counts sum exactly.
    """
    rng = _rng(seed)
    rows: dict[str, list[tuple]] = defaultdict(list)
    for tenant in range(tenants):
        names = [f"t{tenant}_p{i}" for i in range(people_per_tenant)]
        groups = [f"t{tenant}_g{i}" for i in range(max(1, people_per_tenant // 4))]
        for source in names:
            for target in names:
                if source != target and rng.random() < follow_probability:
                    rows["Follows"].append((source, target))
        for person in names:
            rows["Member"].append((person, rng.choice(groups)))
    queries = _queries(
        followers_of_followers="FoF(x, y) = exists z. (Follows(x, z) & Follows(z, y))",
        mutual_follow="Mutual(x, y) = Follows(x, y) & Follows(y, x)",
        reachable_in_two_or_one=(
            "Reach(x, y) = Follows(x, y)"
            " | exists z. (Follows(x, z) & Follows(z, y))"
        ),
        same_group_follow=(
            "SameGroup(x, y) = exists g. (Follows(x, y) & Member(x, g) & Member(y, g))"
        ),
    )
    return Scenario("tenant_network", Structure.from_relations(rows), queries)


def all_scenarios(seed: int = 0) -> list[Scenario]:
    """All built-in scenarios, with seeds offset from ``seed``."""
    return [
        social_network(seed=seed),
        triple_store(seed=seed + 1),
        movie_database(seed=seed + 2),
        tenant_network(seed=seed + 3),
    ]
