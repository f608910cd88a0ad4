"""Active query strategies (external iteration step 2).

The paper's strategy exploits the one-to-one constraint: once the greedy
assignment labels a link negative, the most *informative* labels to buy
are potential **false negatives** — negatives that nearly beat a
currently-positive link over a shared user.  Querying them either
confirms the assignment or flips it, and a flip also corrects the
conflicting positives for free.

Formally (§III-C, external step 2): with predicted positives U+ and
negatives U−, the candidate set is

    C = { l ∈ U− : ∃ l', l'' ∈ U+ conflicting with l,
          |ŷ_l' − ŷ_l| ≤ τ  and  ŷ_l − ŷ_l'' > 0 },

τ = 0.05 in the experiments.  Candidates are ranked by the dominance
margin ``ŷ_l − ŷ_l''`` (largest first) and the top ``k = 5`` are queried
per round.

All strategies share one interface so models can swap them (the paper's
ActiveIter-Rand variant, plus a classic margin/uncertainty strategy kept
for ablations).  Each has one implementation, ``select_streamed`` over
a stream of :class:`ScoredBlock` slices; ``select`` runs it over the
whole of H as one block.

The conflict rule runs as one join over integer user codes
(:func:`~repro.matching.constraints.user_codes`).  Two links conflict
iff they share a left or a right user, i.e. iff their left or right
codes are equal, so pairing each queryable negative with every positive
of its left code and every positive of its right code lists exactly the
(l, l') pairs the rule inspects; a positive listed twice changes
nothing below.  Group offsets come from ``bincount`` + ``cumsum`` over
the positives' codes.  The near miss is an OR and the best dominance a
max over the joined pairs, each pair computing ``|ŷ_l' − ŷ_l|`` and
``ŷ_l − ŷ_l''`` in the same float64 operations as a per-link loop.  OR
and max do not depend on evaluation order, so the picks equal the
loop's exactly; ties break by global index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.exceptions import ReproError
from repro.matching.constraints import user_codes
from repro.types import LinkPair


@dataclass(frozen=True)
class ScoredBlock:
    """One block of the candidate space as a query strategy sees it.

    The streamed selection API (:meth:`QueryStrategy.select_streamed`)
    consumes a stream of these instead of materialized whole-of-H
    arrays; ``offset`` is the block's starting position in the global
    candidate order, so returned picks are global indices.

    ``left_codes`` / ``right_codes`` are this block's slice of
    :func:`~repro.matching.constraints.user_codes` computed over the
    whole stream: one numbering per stream, so equal codes in two
    blocks are the same user.  Tasks compute them once and slice them
    per block.  The conflict strategy requires them and refuses a block
    without them; the margin and random strategies ignore them.
    """

    pairs: Sequence[LinkPair]
    scores: np.ndarray
    labels: np.ndarray
    queryable: np.ndarray
    offset: int = 0
    left_codes: Optional[np.ndarray] = None
    right_codes: Optional[np.ndarray] = None


class QueryStrategy(Protocol):
    """Interface of a query-set selection strategy."""

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        """Pick up to ``batch_size`` indices to query.

        Parameters
        ----------
        pairs:
            All candidate links H (fixed order).
        scores:
            Current raw scores ``ŷ = Xw``.
        labels:
            Current 0/1 label assignment ``y``.
        queryable:
            Boolean mask of links whose labels may still be queried
            (unlabeled and not yet queried).
        batch_size:
            Maximum number of picks this round.
        """
        ...


class StreamedQueryStrategy(QueryStrategy, Protocol):
    """A query strategy that can also consume blockwise candidates.

    ``select_streamed`` must pick *exactly* the same indices as
    ``select`` would on the concatenation of the blocks.  The built-in
    conflict, margin and random strategies guarantee it by having one
    implementation: their ``select`` is ``select_streamed`` over one
    block.
    """

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """Pick up to ``batch_size`` global indices from a block stream."""
        ...


def _block_arrays(
    block: ScoredBlock,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's validated ``(scores, labels, queryable)`` vectors."""
    n = len(block.pairs)
    arrays = (
        np.asarray(block.scores, dtype=np.float64).ravel(),
        np.asarray(block.labels).ravel(),
        np.asarray(block.queryable, dtype=bool).ravel(),
    )
    for name, values in zip(("scores", "labels", "queryable"), arrays):
        if values.shape[0] != n:
            raise ReproError(f"{name} length does not match {n} candidates")
    return arrays


def _block_codes(block: ScoredBlock) -> Tuple[np.ndarray, np.ndarray]:
    """A block's validated ``(left_codes, right_codes)``."""
    if block.left_codes is None or block.right_codes is None:
        raise ReproError("the conflict strategy needs user codes on every block")
    codes = tuple(
        np.asarray(values, dtype=np.int64).ravel()
        for values in (block.left_codes, block.right_codes)
    )
    if any(values.shape[0] != len(block.pairs) for values in codes):
        raise ReproError(f"user codes do not match {len(block.pairs)} candidates")
    return codes


def _code_join(
    negative_codes: np.ndarray, positive_codes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(negative row, positive row)`` pair with equal codes.

    Positives are grouped by code, with group offsets from ``bincount``
    + ``cumsum``; each negative is repeated once per positive in its
    code's group.
    """
    n_codes = max(negative_codes.max(initial=-1), positive_codes.max(initial=-1))
    counts = np.bincount(positive_codes, minlength=n_codes + 1)
    starts = np.cumsum(counts) - counts
    grouped = np.argsort(positive_codes, kind="stable")
    per_negative = counts[negative_codes]
    rows = np.repeat(np.arange(negative_codes.size), per_negative)
    rank_in_group = np.arange(rows.size) - np.repeat(
        np.cumsum(per_negative) - per_negative, per_negative
    )
    return rows, grouped[starts[negative_codes][rows] + rank_in_group]


class ConflictFalseNegativeStrategy:
    """The paper's query strategy (see module docstring).

    Parameters
    ----------
    closeness_threshold:
        τ — how close a winning positive's score must be to the
        candidate's for the candidate to count as a near-miss.
    allow_fallback:
        When no conflict candidate exists (e.g. nothing is predicted
        positive yet), fall back to the highest-scoring queryable
        negatives so the budget is still spent productively.  The paper
        does not specify this corner; disable to match the strict rule.
    """

    def __init__(
        self, closeness_threshold: float = 0.05, allow_fallback: bool = True
    ) -> None:
        if closeness_threshold < 0:
            raise ReproError("closeness_threshold must be >= 0")
        self.closeness_threshold = float(closeness_threshold)
        self.allow_fallback = bool(allow_fallback)

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        left, right = user_codes(pairs)
        block = ScoredBlock(
            pairs, scores, labels, queryable, left_codes=left, right_codes=right
        )
        return self.select_streamed([block], batch_size)

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """The conflict rule as one join over user codes (module docstring).

        Buffered state is the two codes, score and index of every
        positive and queryable negative — never a feature matrix.
        """
        positives: List[tuple] = []
        negatives: List[tuple] = []
        for block in blocks:
            scores, labels, queryable = _block_arrays(block)
            left, right = _block_codes(block)
            for mask, kept in (
                (labels == 1, positives),
                (queryable & (labels == 0), negatives),
            ):
                at = np.flatnonzero(mask)
                kept.append((left[at], right[at], scores[at], at + block.offset))
        if not negatives:
            return []
        positive_left, positive_right, positive_scores, _ = map(
            np.concatenate, zip(*positives)
        )
        negative_left, negative_right, negative_scores, index = map(
            np.concatenate, zip(*negatives)
        )

        left_rows, left_others = _code_join(negative_left, positive_left)
        right_rows, right_others = _code_join(negative_right, positive_right)
        rows = np.concatenate([left_rows, right_rows])
        other = positive_scores[np.concatenate([left_others, right_others])]
        score = negative_scores[rows]
        near_miss = np.zeros(index.size, dtype=bool)
        np.logical_or.at(
            near_miss, rows, np.abs(other - score) <= self.closeness_threshold
        )
        dominance = score - other
        wins = dominance > 0
        best = np.full(index.size, -np.inf)
        np.maximum.at(best, rows[wins], dominance[wins])

        picks = np.flatnonzero(near_miss & (best > 0))
        picks = picks[np.lexsort((index[picks], -best[picks]))][:batch_size]
        if picks.size < batch_size and self.allow_fallback:
            rest = np.ones(index.size, dtype=bool)
            rest[picks] = False
            rest = np.flatnonzero(rest)
            rest = rest[np.lexsort((index[rest], -negative_scores[rest]))]
            picks = np.concatenate([picks, rest[: batch_size - picks.size]])
        return index[picks].tolist()


class RandomQueryStrategy:
    """Uniform random query selection (the ActiveIter-Rand baseline)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def snapshot_state(self) -> dict:
        """Picklable RNG state for checkpoint/resume.

        Any strategy carrying mutable state should implement this hook
        (with :meth:`restore_state`); the active loop checkpoints
        whatever it returns and hands it back on resume, which is what
        keeps a resumed randomized run byte-identical.  Stateless
        strategies simply omit the pair.
        """
        return {"rng": self._rng.bit_generator.state}

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot_state` payload."""
        self._rng.bit_generator.state = state["rng"]

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        block = ScoredBlock(pairs, scores, labels, queryable)
        return self.select_streamed([block], batch_size)

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """One ``choice`` draw over the stream's queryable indices."""
        pools: List[np.ndarray] = []
        for block in blocks:
            pool = np.flatnonzero(_block_arrays(block)[2])
            if pool.size:
                pools.append(pool + block.offset)
        if not pools:
            return []
        pool = np.concatenate(pools)
        size = min(batch_size, pool.size)
        return self._rng.choice(pool, size=size, replace=False).tolist()


class MarginQueryStrategy:
    """Classic uncertainty sampling: query links closest to the boundary.

    Not part of the paper; included as the standard active-learning
    baseline for the query-strategy ablation (DESIGN.md §5).
    """

    def __init__(self, boundary: float = 0.5) -> None:
        self.boundary = float(boundary)

    def select(
        self,
        pairs: Sequence[LinkPair],
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
        batch_size: int,
    ) -> List[int]:
        block = ScoredBlock(pairs, scores, labels, queryable)
        return self.select_streamed([block], batch_size)

    def select_streamed(
        self, blocks: Iterable[ScoredBlock], batch_size: int
    ) -> List[int]:
        """An exact top-k merge of the blocks' margins.

        Any global top-``k`` element is inside its own block's top-``k``
        (margins are per-candidate), so ranking the union of each
        block's best ``k`` reproduces the global ranking — ties broken
        by global index.
        """
        if batch_size < 1:
            return []
        margins: List[np.ndarray] = []
        indices: List[np.ndarray] = []
        for block in blocks:
            scores, _, queryable = _block_arrays(block)
            pool = np.flatnonzero(queryable)
            margin = np.abs(scores[pool] - self.boundary)
            top = np.lexsort((pool, margin))[:batch_size]
            margins.append(margin[top])
            indices.append(pool[top] + block.offset)
        if not margins:
            return []
        margin, index = np.concatenate(margins), np.concatenate(indices)
        return index[np.lexsort((index, margin))[:batch_size]].tolist()
