"""Streamed alignment tasks: the fit path without a dense |H| x d fit.

An :class:`~repro.core.base.AlignmentTask` freezes the candidate space H
together with its dense feature matrix ``X`` — fine for sampled tasks,
prohibitive when H approaches the |U1| x |U2| cross product.
:class:`StreamedAlignmentTask` is the block-streamed analog: it keeps
the candidate list and the labeled indices, extracts features block by
block from the owning :class:`~repro.engine.session.AlignmentSession`,
and folds every model step over the block stream.  The only dense
objects a fit produces are

* the d x d (weighted) Gram matrix ``XᵀΩX`` and d-vectors ``Xᵀt``
  accumulated for the closed-form ridge step,
* training-row gathers sized by the *label* budget (the streamed SVM
  backend's working set — see :meth:`StreamedAlignmentTask.labeled_rows`
  and :mod:`repro.ml.backends`), and
* per-candidate *vectors* over H (scores, labels) that the alternating
  loop needs anyway.

**Block cache.**  Meta-diagram features depend only on the session's
anchors and networks, so a block's rows stay bit-identical until an
update touches its left rows or right columns.  The task therefore
keeps every extracted block together with the session
:attr:`~repro.engine.session.AlignmentSession.delta_epoch` it was
extracted at, and a pass re-extracts only the *stale* blocks — those
:meth:`~repro.engine.session.AlignmentSession.dirty_since` marks (all of
them when it answers ``None``).  Every ``gram``/``xt_dot``/``scores``
pass of an alternating fit is served from the cache, so each candidate
row is extracted once per session epoch rather than once per pass.  The
cache costs ``|H| x d`` float64 per task — about 2 MB for a
``large``-scale split — held in RAM, or spilled to a task-private
:class:`~repro.store.arena.MatrixArena` beside a store-backed session's
arena and served as read-only memory maps whose pages are released
after every pass.  Served blocks are read-only either way: a consumer
that writes in place raises instead of corrupting later passes.

Two distinct exactness guarantees apply.  *Threaded vs serial* is
bit-exact by construction (identical operations in identical order), and
so is *cached vs re-extracted*: the cache hands back the very bytes an
extraction would produce, in the same block order.  *Streamed vs
materialized* is not bit-exact: a materialized task is fit through the
prefactorized :class:`~repro.ml.ridge.RidgeSolver`, whose right-hand
side is ``(XᵀΩ)y``, while a streamed task accumulates ``Xᵀ(Ωy)`` block
by block — even a single block differs in the last bits.  Weights and
scores agree to rounding error; the equality of query sets and labels
— asserted throughout the test suite — holds because both paths are
deterministic and candidate scores are never within an ulp of a
decision boundary on real count features, not as an algebraic
identity.

:meth:`StreamedAlignmentTask.scored_blocks` re-slices whole-of-H score
and label vectors, and the task's user codes (computed once per task),
into :class:`~repro.active.strategies.ScoredBlock` records for the
streamed query strategies — no extraction involved.
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
import weakref
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.active.strategies import ScoredBlock
from repro.engine.candidates import CandidateBlock, CandidateGenerator
from repro.engine.session import AlignmentSession
from repro.exceptions import ModelError
from repro.matching.constraints import user_codes
from repro.ml.backends import LinearModelState, apply_model_state, gather_rows
from repro.store.arena import MatrixArena
from repro.store.procwork import (
    BlockDescriptor,
    extract_block_job,
    model_score_block_job,
)
from repro.types import LinkPair, labeled_set

logger = logging.getLogger(__name__)

#: Sentinel accepted by the ``block_size`` knobs: measure throughput and
#: pick a size instead of using a fixed number.
AUTO_BLOCK_SIZE = "auto"

#: What a ``block_size`` knob accepts: a fixed size or ``"auto"``.
BlockSizeSpec = Union[int, str]

# Auto-tune envelope: blocks small enough to keep peak feature memory
# modest and pipelines responsive, large enough to amortize per-block
# lookup overhead.
_AUTO_MIN_BLOCK = 256
_AUTO_MAX_BLOCK = 65536
_AUTO_PROBE_SIZE = 512
_AUTO_TARGET_SECONDS = 0.2


def blockify(
    pairs: Sequence[LinkPair], block_size: int
) -> List[CandidateBlock]:
    """Chop a candidate list into generator-style blocks.

    A list shorter than ``block_size`` yields exactly one block; an
    empty list yields an empty stream — mirroring
    :meth:`CandidateGenerator.blocks`.
    """
    if block_size < 1:
        raise ModelError("block_size must be >= 1")
    return [
        list(pairs[start: start + block_size])
        for start in range(0, len(pairs), block_size)
    ]


def tune_block_size(
    session: AlignmentSession,
    pairs: Sequence[LinkPair],
    target_seconds: float = _AUTO_TARGET_SECONDS,
    probe_size: int = _AUTO_PROBE_SIZE,
) -> int:
    """Measured-throughput block sizing for streamed tasks.

    Extracts one probe block through the session, measures pairs/second
    and returns the size that makes a block pass take about
    ``target_seconds``, clamped to ``[256, 65536]``.  The measurement
    replaces the fixed ``block_size`` knob when callers pass
    ``"auto"``: slow feature families (many structures, dense counts)
    get small responsive blocks, fast ones get large blocks that
    amortize per-block lookup overhead.

    The probe is a real extraction, so its cost is not wasted — the
    session's count matrices are materialized exactly once either way.
    Note the size depends on measured wall-clock: two hosts may chop
    the same task differently (query sets still agree — the streamed
    strategies select identically for any block partition).
    """
    if not pairs:
        return _AUTO_MIN_BLOCK
    probe = list(pairs[: min(int(probe_size), len(pairs))])
    started = time.perf_counter()
    session.extract(probe)
    elapsed = max(time.perf_counter() - started, 1e-9)
    rate = len(probe) / elapsed
    return int(min(_AUTO_MAX_BLOCK, max(_AUTO_MIN_BLOCK, rate * target_seconds)))


def resolve_block_size(
    session: AlignmentSession,
    pairs: Sequence[LinkPair],
    block_size: BlockSizeSpec,
) -> int:
    """Turn a ``block_size`` knob (int or ``"auto"``) into a number."""
    if block_size == AUTO_BLOCK_SIZE:
        return tune_block_size(session, pairs)
    if not isinstance(block_size, int):
        raise ModelError(
            f"block_size must be an integer or {AUTO_BLOCK_SIZE!r}, "
            f"got {block_size!r}"
        )
    return block_size


class StreamedAlignmentTask:
    """One alignment problem instance streamed in feature-space blocks.

    Parameters
    ----------
    session:
        The alignment session features are extracted from.  Its
        executor drives every block pass, and its anchor set is read at
        extraction time — so a refresh between query rounds is just
        ``session.set_anchors``; the next pass sees the new features.
    blocks:
        Candidate blocks (e.g. from :func:`blockify` or
        :meth:`CandidateGenerator.blocks`).  Block objects are kept
        alive so the session's view cache can serve repeated passes.
    labeled_indices, labeled_values:
        Known-label positions in the concatenated candidate order and
        their 0/1 values, exactly as on ``AlignmentTask``.

    Models read a task but never mutate it, so one task — and its block
    cache — can serve several fits on the same split.
    """

    def __init__(
        self,
        session: AlignmentSession,
        blocks: Iterable[CandidateBlock],
        labeled_indices: np.ndarray,
        labeled_values: np.ndarray,
    ) -> None:
        self.session = session
        self.blocks: List[CandidateBlock] = [
            list(block) for block in blocks if len(block)
        ]
        self.pairs: List[LinkPair] = [
            pair for block in self.blocks for pair in block
        ]
        if not self.pairs:
            raise ModelError("no candidate links supplied")
        self.offsets: List[int] = []
        offset = 0
        for block in self.blocks:
            self.offsets.append(offset)
            offset += len(block)

        self.labeled_indices, self.labeled_values = labeled_set(
            labeled_indices, labeled_values, len(self.pairs)
        )
        self._pair_index: Optional[dict] = None
        self._user_codes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._descriptors: Optional[List[BlockDescriptor]] = None
        self._descriptors_compaction = session.compaction_epoch
        #: Block size the task was built with (set by :meth:`from_pairs`;
        #: ``None`` when blocks came from a generator or explicit list).
        self.block_size: Optional[int] = None
        # The block cache: each block's read-only features and the
        # session delta epoch they are known to be current at (``None``
        # until first extracted).
        self._cache: List[Optional[np.ndarray]] = [None] * len(self.blocks)
        self._cache_epochs: List[Optional[int]] = [None] * len(self.blocks)
        self._cache_arena: Optional[MatrixArena] = None
        #: Blocks (re-)extracted into the cache over the task's lifetime.
        self.blocks_extracted = 0

    # ------------------------------------------------------------------
    # AlignmentTask-compatible surface (what models and the alternating
    # state read; X is deliberately absent).
    # ------------------------------------------------------------------
    @property
    def n_candidates(self) -> int:
        """|H| — number of candidate links."""
        return len(self.pairs)

    @property
    def n_features(self) -> int:
        """Feature dimensionality d (from the session)."""
        return self.session.n_features

    @property
    def n_blocks(self) -> int:
        """Number of streamed blocks."""
        return len(self.blocks)

    @property
    def unlabeled_mask(self) -> np.ndarray:
        """Boolean mask of candidates without a known label."""
        mask = np.ones(self.n_candidates, dtype=bool)
        mask[self.labeled_indices] = False
        return mask

    def index_of(self, pair: LinkPair) -> int:
        """Index of a candidate pair (built lazily, cached)."""
        if self._pair_index is None:
            self._pair_index = {
                pair_: i for i, pair_ in enumerate(self.pairs)
            }
        try:
            return self._pair_index[pair]
        except KeyError:
            raise ModelError(f"pair {pair!r} is not a candidate") from None

    # ------------------------------------------------------------------
    # Block passes
    # ------------------------------------------------------------------
    def _block_descriptors(self) -> List[BlockDescriptor]:
        """Picklable index-form descriptors of the blocks.

        Cached until the session compacts, which shifts user positions.
        """
        if self._descriptors_compaction != self.session.compaction_epoch:
            self._descriptors = None
            self._descriptors_compaction = self.session.compaction_epoch
        if self._descriptors is None:
            self._descriptors = []
            for offset, block in zip(self.offsets, self.blocks):
                left, right = self.session.pair.pairs_to_indices(block)
                self._descriptors.append(
                    BlockDescriptor(
                        offset=offset, left_indices=left, right_indices=right
                    )
                )
        return self._descriptors

    def _stale_blocks(self, wanted: Sequence[int], epoch: int) -> List[int]:
        """Blocks of ``wanted`` whose cached rows may be out of date.

        A block extracted at an older epoch stays valid when the dirty
        region the session logged since then misses its left rows and
        right columns (its epoch is then advanced to ``epoch``); an
        unknown region (``dirty_since`` answering ``None``) makes every
        such block stale.
        """
        regions: Dict[int, Optional[Tuple[np.ndarray, np.ndarray]]] = {}
        stale: List[int] = []
        for b in dict.fromkeys(wanted):
            cached_at = self._cache_epochs[b]
            if cached_at == epoch:
                continue
            if cached_at is not None:
                if cached_at not in regions:
                    regions[cached_at] = self.session.dirty_since(cached_at)
                dirty = regions[cached_at]
                if dirty is not None:
                    descriptor = self._block_descriptors()[b]
                    rows, cols = dirty
                    if not (
                        np.isin(descriptor.left_indices, rows).any()
                        or np.isin(descriptor.right_indices, cols).any()
                    ):
                        self._cache_epochs[b] = epoch
                        continue
            stale.append(b)
        return stale

    def _extract_blocks(
        self, block_indices: List[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Extract the given blocks through the session's executor.

        Extraction fans out with a bounded in-flight window and results
        arrive in the given order.  With an executor whose work leaves
        this interpreter (:attr:`~repro.engine.parallel.Executor.crosses_processes`
        — the process pool or the RPC fleet) and a store-backed
        session, the pass first flushes a consistent snapshot to the
        arena and ships only block *descriptors*; the worker kernel is
        the session's own, so the blocks are byte-identical to an
        in-process extraction.
        """
        executor = self.session.executor
        if executor.crosses_processes and self.session.arena is not None:
            spec = self.session.flush_store()
            descriptors = self._block_descriptors()
            logger.debug(
                "extracting %d block descriptor(s) across %s executor",
                len(block_indices),
                executor.kind,
            )
            return executor.imap(
                extract_block_job,
                ((spec, descriptors[b]) for b in block_indices),
            )

        def extract(b: int) -> Tuple[int, np.ndarray]:
            return self.offsets[b], self.session.extract(self.blocks[b])

        return executor.imap(extract, block_indices)

    def _cache_block(self, b: int, X: np.ndarray, epoch: int) -> None:
        """Keep block ``b``'s features, read-only, as current at ``epoch``.

        A store-backed session spills the block to a task-private arena
        next to its own and keeps only the memory map.  The private
        arena keeps cached blocks out of the manifest that process and
        RPC workers load and sync, and is deleted with the task.
        """
        if self.session.arena is None:
            X = np.asarray(X, dtype=np.float64)
            X.flags.writeable = False
        else:
            if self._cache_arena is None:
                path = tempfile.mkdtemp(
                    prefix="streamed-blocks-", dir=self.session.store_dir
                )
                self._cache_arena = MatrixArena(path)
                weakref.finalize(self, shutil.rmtree, path, True)
            slot = f"block-{b}"
            self._cache_arena.put_array(slot, X)
            X = self._cache_arena.get_array(slot)
        self._cache[b] = X
        self._cache_epochs[b] = epoch
        self.blocks_extracted += 1

    def _served_blocks(
        self, wanted: Sequence[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Ordered ``(offset, X_block)`` for ``wanted``, from the cache.

        Stale blocks are re-extracted as the stream reaches them (the
        executor window keeps extraction ahead of the consumer) and
        cached at the epoch read *before* extraction, so a concurrent
        update can only make the cache look staler than it is.
        """
        epoch = self.session.delta_epoch
        stale = self._stale_blocks(wanted, epoch)
        pending = set(stale)
        fresh: Iterator[Tuple[int, np.ndarray]] = iter(())
        if stale:
            logger.debug(
                "block pass: %d of %d block(s) stale", len(stale), len(wanted)
            )
            fresh = self._extract_blocks(stale)
        try:
            for b in wanted:
                if b in pending:
                    pending.discard(b)
                    _, X = next(fresh)
                    self._cache_block(b, X, epoch)
                yield self.offsets[b], self._cache[b]
        finally:
            if self._cache_arena is not None:
                self._cache_arena.release_pages()

    def feature_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Ordered ``(offset, X_block)`` stream of every block.

        Served from the block cache; only blocks an update made stale
        since they were cached are re-extracted (see
        :meth:`_extract_blocks` for the executor seam).  Blocks are
        read-only, and results arrive in stream order, so sequential
        folds over this iterator are deterministic.
        """
        return self._served_blocks(range(self.n_blocks))

    def block_spans(self) -> List[Tuple[int, int]]:
        """``(offset, length)`` of every block in stream order.

        The cheap partition map consumers capture before a selective
        pass: it reads no features, so a working-set fit can decide
        which blocks it needs without touching the arena.  The
        partition is fixed for the task's lifetime.
        """
        return [
            (offset, len(block))
            for offset, block in zip(self.offsets, self.blocks)
        ]

    def selected_feature_blocks(
        self, block_indices: Sequence[int]
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Serve only the requested blocks, in the given order.

        The working-set fit path: blocks whose every remaining dual is
        screened out are simply not in ``block_indices`` and are neither
        read from the cache nor re-extracted.  Requested blocks follow
        the same cache rule as :meth:`feature_blocks`.
        """
        wanted = [int(b) for b in block_indices]
        for b in wanted:
            if b < 0 or b >= len(self.blocks):
                raise ModelError(f"block index {b} out of range")
        return self._served_blocks(wanted)

    def gram(
        self, sample_weight: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Accumulate the (weighted) Gram matrix ``XᵀΩX`` over blocks."""
        gram = np.zeros((self.n_features, self.n_features), dtype=np.float64)
        for offset, X in self.feature_blocks():
            if sample_weight is None:
                gram += X.T @ X
            else:
                weights = sample_weight[offset: offset + X.shape[0]]
                gram += (X.T * weights) @ X
        return gram

    def xt_dot(self, target: np.ndarray) -> np.ndarray:
        """Accumulate ``Xᵀ t`` over blocks for a whole-of-H vector."""
        target = np.asarray(target, dtype=np.float64).ravel()
        if target.shape[0] != self.n_candidates:
            raise ModelError(
                f"target length {target.shape[0]} does not match "
                f"{self.n_candidates} candidates"
            )
        result = np.zeros(self.n_features, dtype=np.float64)
        for offset, X in self.feature_blocks():
            result += X.T @ target[offset: offset + X.shape[0]]
        return result

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """Whole-of-H raw scores ``ŷ = Xw``, one block at a time."""
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != self.n_features:
            raise ModelError(
                f"weight length {weights.shape[0]} does not match "
                f"{self.n_features} features"
            )
        scores = np.empty(self.n_candidates, dtype=np.float64)
        for offset, X in self.feature_blocks():
            scores[offset: offset + X.shape[0]] = X @ weights
        return scores

    def labeled_rows(self) -> np.ndarray:
        """``X[labeled_indices]`` gathered in one (cached) block pass.

        A convenience over :func:`~repro.ml.backends.gather_rows` for
        parity checks and custom consumers.  Row values are copied
        verbatim from their home blocks, so the gather is bit-identical
        to fancy-indexing the materialized matrix.  (The built-in
        ``"labeled"`` model backends call ``gather_rows`` directly with
        their own — possibly grown — clamped index set rather than this
        task-initial one.)
        """
        return gather_rows(self, self.labeled_indices)

    def linear_model_scores(self, state: LinearModelState) -> np.ndarray:
        """Whole-of-H scores of a picklable model state, block by block.

        The model-backend scoring sweep: each raw feature block runs
        through :func:`~repro.ml.backends.apply_model_state` (feature
        map, scaler, linear form).  With a cross-process executor
        (process pool or RPC fleet) and a store-backed session the
        state ships to the workers alongside the block descriptors
        (:func:`~repro.store.procwork.model_score_block_job`), so SVM
        decision passes and landmark transforms fan across processes;
        the worker kernel is the same function, so results are
        byte-identical to the inline sweep.  The inline sweep scores
        the cached blocks.
        """
        executor = self.session.executor
        scores = np.empty(self.n_candidates, dtype=np.float64)
        if executor.crosses_processes and self.session.arena is not None:
            spec = self.session.flush_store()
            stream = executor.imap(
                model_score_block_job,
                (
                    (spec, descriptor, state)
                    for descriptor in self._block_descriptors()
                ),
            )
        else:
            stream = (
                (offset, apply_model_state(state, X))
                for offset, X in self.feature_blocks()
            )
        for offset, block_scores in stream:
            scores[offset: offset + block_scores.shape[0]] = block_scores
        return scores

    def scored_blocks(
        self,
        scores: np.ndarray,
        labels: np.ndarray,
        queryable: np.ndarray,
    ) -> Iterator[ScoredBlock]:
        """Re-slice whole-of-H vectors and user codes into blocks."""
        if self._user_codes is None:
            self._user_codes = user_codes(self.pairs)
        left, right = self._user_codes
        for offset, block in zip(self.offsets, self.blocks):
            end = offset + len(block)
            yield ScoredBlock(
                pairs=block,
                scores=scores[offset:end],
                labels=labels[offset:end],
                queryable=queryable[offset:end],
                offset=offset,
                left_codes=left[offset:end],
                right_codes=right[offset:end],
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        session: AlignmentSession,
        pairs: Sequence[LinkPair],
        labeled_indices: np.ndarray,
        labeled_values: np.ndarray,
        block_size: BlockSizeSpec = 4096,
    ) -> "StreamedAlignmentTask":
        """Build from a flat candidate list, chopped into blocks.

        ``block_size="auto"`` replaces the fixed knob with a measured
        probe extraction (:func:`tune_block_size`).
        """
        pairs = list(pairs)
        resolved = resolve_block_size(session, pairs, block_size)
        task = cls(
            session,
            blockify(pairs, resolved),
            labeled_indices,
            labeled_values,
        )
        task.block_size = resolved
        return task

    @classmethod
    def from_generator(
        cls,
        session: AlignmentSession,
        generator: CandidateGenerator,
        labeled: Sequence[Tuple[LinkPair, int]] = (),
    ) -> "StreamedAlignmentTask":
        """Build from a candidate generator's pruned block stream.

        ``labeled`` maps known links to 0/1 labels; every labeled link
        must survive the generator's pruning (otherwise the model could
        not see its own training data).
        """
        blocks = list(generator.blocks())
        task_pairs = {
            pair: index
            for index, pair in enumerate(
                pair for block in blocks for pair in block
            )
        }
        indices: List[int] = []
        values: List[int] = []
        for pair, label in labeled:
            try:
                indices.append(task_pairs[pair])
            except KeyError:
                raise ModelError(
                    f"labeled link {pair!r} was pruned from the candidate "
                    "stream; loosen pruning or exclude it from training"
                ) from None
            values.append(label)
        return cls(
            session,
            blocks,
            np.asarray(indices, dtype=np.int64),
            np.asarray(values, dtype=np.int64),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamedAlignmentTask(candidates={self.n_candidates}, "
            f"blocks={self.n_blocks}, features={self.n_features})"
        )
