"""The paper's core contribution: equivalence, reductions, classification."""

from repro.core.counting import count_answers
from repro.core.equivalence import (
    counting_equivalent,
    counting_equivalent_on,
    group_by_counting_equivalence,
    renaming_equivalent,
    renaming_witness,
)
from repro.core.semi_equivalence import (
    group_by_semi_counting_equivalence,
    semi_counting_equivalent,
    semi_counting_equivalent_on,
)
from repro.core.distinguishing import (
    find_distinguishing_structure,
    find_distinguishing_structure_for_classes,
    separating_structure,
    uniquely_satisfied_structure,
)
from repro.core.inclusion_exclusion import (
    LinearCombination,
    Term,
    cancel,
    raw_inclusion_exclusion,
    star_decomposition,
)
from repro.core.ep_to_pp import (
    PlusDecomposition,
    count_ep_answers_via_plus,
    plus_decomposition,
    plus_set,
    sentence_holds,
)
from repro.core.oracle_reduction import (
    OracleCallCounter,
    StarCountRecovery,
    count_pp_via_ep_oracle,
    make_brute_force_oracle,
    recover_star_counts,
    solve_vandermonde_system,
)
from repro.core.classification import (
    Case,
    Classification,
    FormulaMeasures,
    classify,
    classify_ep_class,
    classify_pp_class,
    classify_query,
    measure_pp_class,
)

__all__ = [
    "count_answers",
    "counting_equivalent",
    "counting_equivalent_on",
    "group_by_counting_equivalence",
    "renaming_equivalent",
    "renaming_witness",
    "group_by_semi_counting_equivalence",
    "semi_counting_equivalent",
    "semi_counting_equivalent_on",
    "find_distinguishing_structure",
    "find_distinguishing_structure_for_classes",
    "separating_structure",
    "uniquely_satisfied_structure",
    "LinearCombination",
    "Term",
    "cancel",
    "raw_inclusion_exclusion",
    "star_decomposition",
    "PlusDecomposition",
    "count_ep_answers_via_plus",
    "plus_decomposition",
    "plus_set",
    "sentence_holds",
    "OracleCallCounter",
    "StarCountRecovery",
    "count_pp_via_ep_oracle",
    "make_brute_force_oracle",
    "recover_star_counts",
    "solve_vandermonde_system",
    "Case",
    "Classification",
    "FormulaMeasures",
    "classify",
    "classify_ep_class",
    "classify_pp_class",
    "classify_query",
    "measure_pp_class",
]
