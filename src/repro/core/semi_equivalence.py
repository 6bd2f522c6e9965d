"""Semi-counting equivalence (Section 5.2, Theorem 5.9).

Counting equivalence is too strong for the Vandermonde argument of the
equivalence theorem: the linear systems built there only ever evaluate
formulas on structures where the counts are positive.  The right notion
is *semi-counting equivalence*: ``phi1`` and ``phi2`` are semi-counting
equivalent if ``|phi1(B)| = |phi2(B)|`` for every structure ``B`` on
which both counts are positive.

Theorem 5.9 characterizes the notion syntactically for free prenex
pp-formulas: ``phi1`` and ``phi2`` are semi-counting equivalent iff
``phi1_hat`` and ``phi2_hat`` are counting equivalent, where ``phi_hat``
removes every atom belonging to a non-liberal component of ``phi``
(:meth:`repro.logic.pp.PPFormula.hat`).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.equivalence import counting_equivalent
from repro.logic.pp import PPFormula


def semi_counting_equivalent(first: PPFormula, second: PPFormula) -> bool:
    """Decide semi-counting equivalence via Theorem 5.9.

    The characterization (equivalence with counting equivalence of the
    hatted formulas) is stated in the paper for free pp-formulas; the
    implementation applies the same test to arbitrary pp-formulas, which
    is the behaviour the reductions of Section 5.3 rely on.
    """
    return counting_equivalent(first.hat(), second.hat())


def group_by_semi_counting_equivalence(
    formulas: Sequence[PPFormula],
) -> list[list[PPFormula]]:
    """Partition formulas into semi-counting-equivalence classes.

    Semi-counting equivalence is an equivalence relation on pp-formulas
    (Corollary 5.11), so grouping by comparison against one
    representative per class is sound.
    """
    groups: list[list[PPFormula]] = []
    for formula in formulas:
        for group in groups:
            if semi_counting_equivalent(formula, group[0]):
                group.append(formula)
                break
        else:
            groups.append([formula])
    return groups
