"""Shared lightweight type aliases and small value objects.

The library models entities in a heterogeneous network with plain hashable
identifiers.  Using aliases (instead of bare ``str``/``int`` everywhere)
documents intent at call sites without imposing a heavyweight class
hierarchy on hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

import numpy as np

from repro.exceptions import ModelError

#: Identifier of a node inside one heterogeneous network.
NodeId = Hashable

#: Identifier of an attribute *value* (e.g. one location cell, one time bin).
AttributeValue = Hashable

#: An anchor link candidate: (user id in network 1, user id in network 2).
LinkPair = Tuple[NodeId, NodeId]


@dataclass(frozen=True, slots=True)
class Labeled:
    """An anchor-link candidate together with its binary label.

    Attributes
    ----------
    pair:
        The ``(user_in_g1, user_in_g2)`` candidate.
    label:
        ``1`` if the two accounts belong to the same natural person,
        ``0`` otherwise.  The paper uses the label set ``{0, +1}``.
    """

    pair: LinkPair
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")


def labeled_set(
    indices, values, n_candidates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a task's known labels; returns them as int64 arrays.

    ``indices`` must be distinct positions in ``range(n_candidates)``
    and ``values`` their parallel 0/1 labels; anything else raises
    :class:`~repro.exceptions.ModelError`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    if indices.shape != values.shape:
        raise ModelError("labeled indices/values must align")
    if indices.size:
        if indices.min() < 0 or indices.max() >= n_candidates:
            raise ModelError("labeled index out of range")
        if len(set(indices.tolist())) != indices.size:
            raise ModelError("labeled indices contain duplicates")
    bad = set(np.unique(values).tolist()) - {0, 1}
    if bad:
        raise ModelError(f"labels must be 0/1, got {sorted(bad)}")
    return indices, values
