"""Exact one-to-one selection via the assignment problem (ablation).

The greedy of :mod:`repro.matching.greedy` is a ½-approximation; this
module solves the same selection *exactly* by reducing it to a maximum-
weight bipartite assignment over the candidate links with positive
utility, using :func:`scipy.optimize.linear_sum_assignment` (a Hungarian-
family solver).  It exists to measure how much the approximation costs
(DESIGN.md §5) — the paper itself only uses the greedy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.exceptions import ConstraintViolationError
from repro.types import LinkPair, NodeId


def exact_link_selection(
    pairs: Sequence[LinkPair],
    scores: np.ndarray,
    threshold: float = 0.5,
    blocked_left: Optional[Iterable[NodeId]] = None,
    blocked_right: Optional[Iterable[NodeId]] = None,
) -> np.ndarray:
    """Optimal one-to-one selection maximizing total selected score.

    Only candidates with ``score > threshold`` may be selected, matching
    the greedy's admissibility rule so the two are directly comparable.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape[0] != len(pairs):
        raise ConstraintViolationError(
            f"{scores.shape[0]} scores for {len(pairs)} candidate links"
        )
    blocked_left_set: Set[NodeId] = set(blocked_left) if blocked_left else set()
    blocked_right_set: Set[NodeId] = set(blocked_right) if blocked_right else set()

    admissible = [
        index
        for index in range(len(pairs))
        if scores[index] > threshold
        and pairs[index][0] not in blocked_left_set
        and pairs[index][1] not in blocked_right_set
    ]
    labels = np.zeros(len(pairs), dtype=np.int64)
    if not admissible:
        return labels

    left_users: List[NodeId] = []
    right_users: List[NodeId] = []
    left_index: Dict[NodeId, int] = {}
    right_index: Dict[NodeId, int] = {}
    for index in admissible:
        left_user, right_user = pairs[index]
        if left_user not in left_index:
            left_index[left_user] = len(left_users)
            left_users.append(left_user)
        if right_user not in right_index:
            right_index[right_user] = len(right_users)
            right_users.append(right_user)

    # Maximize selected score == minimize negated utility; zero entries
    # mean "leave unmatched", so only strictly-positive utilities count.
    utility = np.zeros((len(left_users), len(right_users)), dtype=np.float64)
    candidate_at: Dict[tuple, int] = {}
    for index in admissible:
        left_user, right_user = pairs[index]
        i, j = left_index[left_user], right_index[right_user]
        if scores[index] > utility[i, j]:
            utility[i, j] = scores[index]
            candidate_at[(i, j)] = index

    from scipy.optimize import linear_sum_assignment

    row_ind, col_ind = linear_sum_assignment(-utility)
    for i, j in zip(row_ind, col_ind):
        if utility[i, j] > threshold and (i, j) in candidate_at:
            labels[candidate_at[(i, j)]] = 1
    return labels
