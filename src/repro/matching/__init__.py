"""Cardinality-constrained link selection.

Implements the one-to-one constraint machinery of §III-C.4: incidence
matrices, validators, the paper's greedy ½-approximation selector, plus
an exact Hungarian selector and a stable-matching selector for ablation.
"""

from repro.matching.constraints import (
    assert_one_to_one,
    conflicting_indices,
    degree_vectors,
    incidence_matrices,
    satisfies_one_to_one,
    user_codes,
)
from repro.matching.greedy import greedy_link_selection, selection_objective
from repro.matching.hungarian import exact_link_selection
from repro.matching.stable import stable_link_selection

__all__ = [
    "assert_one_to_one",
    "conflicting_indices",
    "degree_vectors",
    "exact_link_selection",
    "greedy_link_selection",
    "incidence_matrices",
    "satisfies_one_to_one",
    "selection_objective",
    "stable_link_selection",
    "user_codes",
]
