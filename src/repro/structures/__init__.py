"""Relational structure substrate: finite structures and their algebra."""

from repro.structures.structure import (
    Structure,
    complete_structure,
    single_loop_structure,
)
from repro.structures.operations import (
    add_idempotent_copies,
    direct_product,
    disjoint_union,
    power,
    relabel_to_integers,
)
from repro.structures.homomorphism import (
    count_extendable_assignments,
    count_homomorphisms,
    enumerate_extendable_assignments,
    enumerate_homomorphisms,
    find_homomorphism,
    find_surjective_renaming,
    has_homomorphism,
    homomorphic_equivalent,
    is_homomorphism,
)
from repro.structures.delta import StructureDelta
from repro.structures.indexes import PositionalIndex
from repro.structures.cores import (
    augmented_structure,
    core,
    is_core,
)
from repro.structures.graphs import (
    component_substructures,
    connected_components,
    gaifman_graph,
)
from repro.structures.random_gen import (
    random_cluster_graph,
    random_graph,
    random_structure,
)
from repro.structures.sharding import (
    SHARD_STRATEGIES,
    ShardedStructure,
    combine_shard_counts,
    data_components,
    shard_structure,
)

__all__ = [
    "Structure",
    "StructureDelta",
    "complete_structure",
    "single_loop_structure",
    "add_idempotent_copies",
    "direct_product",
    "disjoint_union",
    "power",
    "relabel_to_integers",
    "count_extendable_assignments",
    "count_homomorphisms",
    "enumerate_extendable_assignments",
    "enumerate_homomorphisms",
    "find_homomorphism",
    "find_surjective_renaming",
    "has_homomorphism",
    "homomorphic_equivalent",
    "is_homomorphism",
    "PositionalIndex",
    "augmented_structure",
    "core",
    "is_core",
    "component_substructures",
    "connected_components",
    "gaifman_graph",
    "random_cluster_graph",
    "random_graph",
    "random_structure",
    "SHARD_STRATEGIES",
    "ShardedStructure",
    "combine_shard_counts",
    "data_components",
    "shard_structure",
]
